"""Operator identities: Nijenhuis, Rota-Baxter (plain, weighted, modified),
their defect tensors, the induced star bracket and representation, the
N^2 correspondence suite, and exhaustive grid classification.

The weighted Rota-Baxter identity carries a convention flag: `as_printed`
keeps the weight term inside the outer operator application, `standard`
(default) puts it on the bare bracket.  Both are evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional

from .algebra import (
    BilinearTensor,
    Counterexample,
    LeibnizAlgebra,
    Representation,
    check_representation,
    is_zero_vector,
)
from .errors import PreconditionError, ResourceLimitError, ShapeError
from .linalg import Matrix, Vector, frac, vec_sub

WEIGHT_CONVENTIONS = ("standard", "as_printed")


@dataclass(frozen=True)
class OperatorKind:
    tag: str
    weight: Optional[Fraction] = None
    convention: str = "standard"

    def __post_init__(self):
        weighted = self.tag in ("rota_baxter_weighted", "modified_rota_baxter")
        if weighted and self.weight is None:
            raise ValueError(f"{self.tag} requires a weight")
        if not weighted and self.weight is not None:
            raise ValueError(f"{self.tag} takes no weight")
        if self.convention not in WEIGHT_CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")

    def describe(self) -> str:
        if self.weight is None:
            return self.tag
        label = f"{self.tag}({self.weight})"
        if self.tag == "rota_baxter_weighted":
            label += f"[{self.convention}]"
        return label


def nijenhuis() -> OperatorKind:
    return OperatorKind("nijenhuis")


def rota_baxter() -> OperatorKind:
    return OperatorKind("rota_baxter")


def rota_baxter_weighted(weight, convention: str = "standard") -> OperatorKind:
    return OperatorKind("rota_baxter_weighted", frac(weight), convention)


def modified_rota_baxter(weight) -> OperatorKind:
    return OperatorKind("modified_rota_baxter", frac(weight))


def _defect_value(alg: LeibnizAlgebra, n: Matrix, kind: OperatorKind, x: Vector, y: Vector) -> Vector:
    nx, ny = n.apply(x), n.apply(y)
    lhs = alg.bracket(nx, ny)
    inner_rb = tuple(a + b for a, b in zip(alg.bracket(x, ny), alg.bracket(nx, y)))
    if kind.tag == "nijenhuis":
        inner = vec_sub(inner_rb, n.apply(alg.bracket(x, y)))
        return vec_sub(lhs, n.apply(inner))
    if kind.tag == "rota_baxter":
        return vec_sub(lhs, n.apply(inner_rb))
    if kind.tag == "rota_baxter_weighted":
        if kind.convention == "as_printed":
            extra = n.apply(alg.bracket(x, y))
        else:
            extra = alg.bracket(x, y)
        inner = tuple(a + kind.weight * b for a, b in zip(inner_rb, extra))
        return vec_sub(lhs, n.apply(inner))
    if kind.tag == "modified_rota_baxter":
        rhs = tuple(a + kind.weight * b for a, b in zip(n.apply(inner_rb), alg.bracket(x, y)))
        return vec_sub(lhs, rhs)
    raise ValueError(f"unknown operator kind {kind.tag!r}")


def operator_defect(alg: LeibnizAlgebra, n: Matrix, kind: OperatorKind) -> BilinearTensor:
    """Left-minus-right side of the chosen identity on every basis pair.

    Bilinearity extends a vanishing defect tensor to all inputs.
    """
    if n.rows != alg.dim or n.cols != alg.dim:
        raise ShapeError("operator dimension does not match the algebra")
    return tuple(
        tuple(_defect_value(alg, n, kind, alg.unit(i), alg.unit(j)) for j in range(alg.dim))
        for i in range(alg.dim)
    )


def check_operator(alg: LeibnizAlgebra, n: Matrix, kind: OperatorKind) -> Optional[Counterexample]:
    defect = operator_defect(alg, n, kind)
    for i, j in product(range(alg.dim), repeat=2):
        if not is_zero_vector(defect[i][j]):
            return Counterexample(kind.describe(), (i, j), defect[i][j])
    return None


def is_nijenhuis(alg: LeibnizAlgebra, n: Matrix) -> bool:
    return check_operator(alg, n, nijenhuis()) is None


def correspondence_suite(alg: LeibnizAlgebra, n: Matrix) -> dict:
    """Detect which of N^2 = 0, N, Id, -Id hold and, for each detected case,
    compare the Nijenhuis verdict against the corresponding Rota-Baxter-style
    verdict.  A disagreement is reported with both exact counterexamples."""
    n2 = n * n
    ident = Matrix.identity(n.rows)
    cases = {
        "N2=0": (n2.is_zero(), rota_baxter()),
        "N2=N": (n2 == n, rota_baxter_weighted(-1, "standard")),
        "N2=Id": (n2 == ident, modified_rota_baxter(-1)),
        "N2=-Id": (n2 == ident.scale(-1), modified_rota_baxter(1)),
    }
    nij_witness = check_operator(alg, n, nijenhuis())
    report: dict = {"nijenhuis_passes": nij_witness is None, "cases": {}}
    for label, (detected, other_kind) in cases.items():
        if not detected:
            continue
        other_witness = check_operator(alg, n, other_kind)
        entry = {
            "equivalent_kind": other_kind.describe(),
            "other_passes": other_witness is None,
            "agree": (nij_witness is None) == (other_witness is None),
        }
        if not entry["agree"]:
            entry["nijenhuis_witness"] = nij_witness
            entry["other_witness"] = other_witness
        report["cases"][label] = entry
    return report


def induced_bracket(alg: LeibnizAlgebra, n: Matrix) -> LeibnizAlgebra:
    """Star bracket [x,y]* = [Nx,y] + [x,Ny] - N[x,y]; requires a Nijenhuis
    operator."""
    bad = check_operator(alg, n, nijenhuis())
    if bad is not None:
        raise PreconditionError(f"not a Nijenhuis operator: {bad.describe()}")
    structure = []
    for i in range(alg.dim):
        row = []
        ne_i = n.column(i)
        for j in range(alg.dim):
            v = alg.bracket(ne_i, alg.unit(j))
            v = tuple(a + b for a, b in zip(v, alg.bracket(alg.unit(i), n.column(j))))
            v = vec_sub(v, n.apply(alg.bracket_basis(i, j)))
            row.append(v)
        structure.append(tuple(row))
    return LeibnizAlgebra(alg.dim, alg.basis, tuple(structure))


def induced_representation(rep: Representation, alg: LeibnizAlgebra, n: Matrix) -> Representation:
    """Actions of the star algebra: L'_i = L_{Ne_i} - N_V L_i + L_i N_V and the
    right-hand analogue; the module operator is unchanged."""
    nv = rep.module_operator
    if nv is None:
        raise PreconditionError("induced representation needs a module operator")
    bad = check_representation(alg, rep, n)
    if bad is not None:
        raise PreconditionError(f"not a Nijenhuis representation: {bad.describe()}")
    left = []
    right = []
    for i in range(alg.dim):
        l_n = rep.left_action(n.column(i))
        r_n = rep.right_action(n.column(i))
        left.append(l_n - nv * rep.left[i] + rep.left[i] * nv)
        right.append(r_n - nv * rep.right[i] + rep.right[i] * nv)
    return Representation(tuple(left), tuple(right), nv)


GRID_GUARD = 10**7


def iter_grid_matrices(dim: int, lo: int, hi: int, denominator: int = 1) -> Iterator[Matrix]:
    """All dim x dim matrices with entries p/denominator, p in [lo, hi], in
    lexicographic row-major entry order."""
    values = [Fraction(p, denominator) for p in range(lo, hi + 1)]
    for entries in product(values, repeat=dim * dim):
        yield Matrix([entries[r * dim : (r + 1) * dim] for r in range(dim)])


def search_operators_grid(
    alg: LeibnizAlgebra,
    kind: OperatorKind,
    lo: int,
    hi: int,
    denominator: int = 1,
) -> list[Matrix]:
    """Exhaustive classification over the grid; purely verification-based,
    no polynomial solving."""
    if denominator < 1:
        raise PreconditionError("denominator must be positive")
    if hi < lo:
        raise PreconditionError("empty entry range")
    count = (hi - lo + 1) ** (alg.dim * alg.dim)
    if count > GRID_GUARD:
        raise ResourceLimitError(f"grid of {count} candidates exceeds guard {GRID_GUARD}")
    return [
        m
        for m in iter_grid_matrices(alg.dim, lo, hi, denominator)
        if check_operator(alg, m, kind) is None
    ]
