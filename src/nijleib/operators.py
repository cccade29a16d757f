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
from functools import partial
from itertools import combinations, product
from math import lcm
from typing import Iterator, Optional

from .algebra import (
    BilinearTensor,
    Counterexample,
    LeibnizAlgebra,
    Representation,
    check_representation,
    is_zero_vector,
)
from .algebra import _ONE, _apply, _bracket, _combine, _dense, _on_basis, _table
from .errors import PreconditionError, ResourceLimitError, ShapeError
from .linalg import Matrix, frac

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


def _star(bracket, apply, x: dict, nx: dict, y: dict, ny: dict) -> dict:
    """The star bracket [x, y]_N = [Nx, y] + [x, Ny] - N[x, y] on sparse x and y,
    given Nx and Ny."""
    return _combine(((1, bracket(x, ny)), (1, bracket(nx, y)), (-1, apply(bracket(x, y)))))


def _defect_value(kind: OperatorKind, bracket, apply, x: dict, nx: dict, y: dict, ny: dict) -> dict:
    """The identity's left-minus-right side on sparse x and y, given Nx and Ny;
    `bracket` and `apply` (of N) act on sparse vectors."""
    lhs = bracket(nx, ny)
    if kind.tag == "nijenhuis":
        return _combine(((1, lhs), (-1, apply(_star(bracket, apply, x, nx, y, ny)))))
    inner_rb = _combine(((1, bracket(x, ny)), (1, bracket(nx, y))))
    if kind.tag == "rota_baxter":
        return _combine(((1, lhs), (-1, apply(inner_rb))))
    if kind.tag == "rota_baxter_weighted":
        extra = apply(bracket(x, y)) if kind.convention == "as_printed" else bracket(x, y)
        inner = _combine(((1, inner_rb), (kind.weight, extra)))
        return _combine(((1, lhs), (-1, apply(inner))))
    if kind.tag == "modified_rota_baxter":
        return _combine(((1, lhs), (-1, apply(inner_rb)), (-kind.weight, bracket(x, y))))
    raise ValueError(f"unknown operator kind {kind.tag!r}")


def operator_defect(alg: LeibnizAlgebra, n: Matrix, kind: OperatorKind) -> BilinearTensor:
    """Left-minus-right side of the chosen identity on every basis pair.

    Bilinearity extends a vanishing defect tensor to all inputs.  The identity
    is evaluated over the nonzero structure constants, {(a, b): [e_a, e_b]},
    and the nonzero columns N e_i of `n`.
    """
    if n.rows != alg.dim or n.cols != alg.dim:
        raise ShapeError("operator dimension does not match the algebra")
    d = alg.dim
    table, cols = _table(alg.structure), n.transpose().nz

    # _bracket and _apply inlined: grid-search confirmations run here, and partial() was slower
    def bracket(u: dict, v: dict) -> dict:
        return _combine((s * t, table[a, b]) for a, s in u.items() for b, t in v.items() if (a, b) in table)

    def apply(v: dict) -> dict:
        return _combine((s, cols[a]) for a, s in v.items())

    units = [{i: _ONE} for i in range(d)]
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            row.append(_dense(_defect_value(kind, bracket, apply, units[i], cols[i], units[j], cols[j]), d))
        out.append(tuple(row))
    return tuple(out)


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
    bracket, apply = partial(_bracket, _table(alg.structure)), partial(_apply, n.transpose().nz)
    star = _on_basis(alg.dim, 2, lambda x, y: _star(bracket, apply, x, apply(x), y, apply(y)))
    return LeibnizAlgebra(alg.dim, alg.basis, star)


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
    lexicographic row-major entry order: the brute-force oracle of
    `search_operators_grid`."""
    values = [Fraction(p, denominator) for p in range(lo, hi + 1)]
    for entries in product(values, repeat=dim * dim):
        yield Matrix([entries[r * dim : (r + 1) * dim] for r in range(dim)])


def defect_polynomial(alg: LeibnizAlgebra, kind: OperatorKind) -> tuple[dict, ...]:
    """Each component of the defect tensor as a polynomial in the entries of N.

    Component (i*d + j)*d + l is coordinate l of the defect on (e_i, e_j), and
    variable a = r*d + c is the entry N[r][c].  A polynomial is a
    {monomial: coefficient} dict over the monomials (), (a,) and (a, b) with
    a < b or a = b; zero coefficients are left out.  Every identity has degree
    at most 2 in N, so the coefficients are read off `operator_defect` itself
    at N = 0, E_a, 2E_a and E_a + E_b: 1 + 2k + k(k-1)/2 calls for k = d*d.
    """
    d = alg.dim

    def at(entries: dict) -> list[Fraction]:
        n = Matrix([[entries.get(r * d + c, 0) for c in range(d)] for r in range(d)])
        return [v for row in operator_defect(alg, n, kind) for vec in row for v in vec]

    const = at({})
    polys = [{(): c} for c in const]
    ones = [at({a: 1}) for a in range(d * d)]
    for a, one in enumerate(ones):
        for poly, c, f1, f2 in zip(polys, const, one, at({a: 2})):
            q = (f2 - 2 * f1 + c) / 2
            poly[(a,)] = f1 - c - q
            poly[(a, a)] = q
    for a, b in combinations(range(d * d), 2):
        for poly, c, fa, fb, fab in zip(polys, const, ones[a], ones[b], at({a: 1, b: 1})):
            poly[(a, b)] = fab - fa - fb + c
    return tuple({mono: v for mono, v in poly.items() if v} for poly in polys)


def _compile_grid_tests(polys, k: int, denominator: int) -> list[list[tuple]]:
    """Per variable t, the components whose last variable is t, as integer
    tests on the numerators p (entry = p / denominator).  A constant component
    is tested with variable 0, so a nonzero one rejects every candidate.

    A component is scaled by the LCM of its coefficient denominators, and a
    degree-e term by denominator^(2-e).  Slot k of the numerator list holds 1,
    so the constant and linear terms are products of two slots like the
    quadratic ones.  A test (below, cross, square) reads
    A + p_t * (B + square * p_t) with A = sum c * p_a * p_b over `below` and
    B = sum c * p_a over `cross`.
    """
    by_last: list[list[tuple]] = [[] for _ in range(k)]
    for poly in polys:
        if not poly:
            continue
        scale = lcm(*(v.denominator for v in poly.values()))
        coeff = {mono: int(v * scale) * denominator ** (2 - len(mono)) for mono, v in poly.items()}
        t = max((a for mono in coeff for a in mono), default=0)
        below, cross, square = [], [], 0
        for mono, c in coeff.items():
            if t not in mono:
                below.append((mono + (k, k))[:2] + (c,))
            elif mono == (t, t):
                square = c
            else:
                cross.append((mono[0] if len(mono) == 2 else k, c))
        by_last[t].append((tuple(below), tuple(cross), square))
    return by_last


def search_operators_grid(
    alg: LeibnizAlgebra,
    kind: OperatorKind,
    lo: int,
    hi: int,
    denominator: int = 1,
) -> list[Matrix]:
    """Every operator of the chosen kind with entries p/denominator, p in
    [lo, hi], in the grid order of `iter_grid_matrices`.

    The defect components are compiled once (`defect_polynomial`) into
    integer polynomials in the numerators.  A depth-first walk fixes the
    entries in row-major order, values ascending, and cuts a subtree at the
    first component that has all its variables fixed and does not vanish.
    Each surviving candidate is confirmed by `check_operator`.
    """
    if denominator < 1:
        raise PreconditionError("denominator must be positive")
    if hi < lo:
        raise PreconditionError("empty entry range")
    dim = alg.dim
    k = dim * dim
    count = (hi - lo + 1) ** k
    if count > GRID_GUARD:
        raise ResourceLimitError(f"grid of {count} candidates exceeds guard {GRID_GUARD}")
    by_last = _compile_grid_tests(defect_polynomial(alg, kind), k, denominator)
    numerators = range(lo, hi + 1)
    p = [0] * k + [1]
    found = []

    def walk(t: int) -> None:
        if t == k:
            m = Matrix([[Fraction(v, denominator) for v in p[r * dim : (r + 1) * dim]] for r in range(dim)])
            if check_operator(alg, m, kind) is None:
                found.append(m)
            return
        tests = [
            (sum(c * p[a] * p[b] for a, b, c in below), sum(c * p[a] for a, c in cross), square)
            for below, cross, square in by_last[t]
        ]
        for v in numerators:
            if all(base + v * (slope + square * v) == 0 for base, slope, square in tests):
                p[t] = v
                walk(t + 1)

    walk(0)
    return found
