"""Leibniz algebras, their representations, and the builtin catalog.

Structure constants follow c[i][j][k]: [e_i, e_j] = sum_k c[i][j][k] e_k.
All verdict-style checks return None on success or a `Counterexample`
carrying the lexicographically first failing index tuple and the exact
residual, so goldens are deterministic.

Every bracket is evaluated by one sparse kernel: vectors are {coordinate:
Fraction} dicts, a bilinear tensor is read as the table {(a, b): {k: c}} of
its nonzero values, and `_combine` sums scaled vectors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .errors import CatalogError, PreconditionError, ShapeError
from .linalg import (
    Matrix,
    Vector,
    block_diag,
    frac,
    is_zero_vector,
    unit_vector,
    zero_vector,
)

# tensor[i][j] = coordinate vector of the image of (e_i, e_j)
BilinearTensor = tuple[tuple[Vector, ...], ...]


def bilinear_tensor(entries: Sequence[Sequence[Sequence]]) -> BilinearTensor:
    return tuple(tuple(tuple(frac(c) for c in vec) for vec in row) for row in entries)


def zero_bilinear_tensor(dim: int, out_dim: Optional[int] = None) -> BilinearTensor:
    out_dim = dim if out_dim is None else out_dim
    z = zero_vector(out_dim)
    return tuple(tuple(z for _ in range(dim)) for _ in range(dim))


_ZERO, _ONE = Fraction(0), Fraction(1)


def _combine(terms) -> dict:
    """c1*v1 + c2*v2 + ... for (c, v) terms over sparse vectors, each a
    {coordinate: Fraction} dict; zero coordinates are dropped."""
    out: dict = {}
    for c, v in terms:
        for k, a in v.items():
            ca = a if c == 1 else c * a  # a Fraction product by 1 costs as much as any other
            out[k] = out[k] + ca if k in out else ca
    return {k: a for k, a in out.items() if a}


def _sparse(v: Vector) -> dict:
    return {k: c for k, c in enumerate(v) if c}


def _dense(v: dict, dim: int) -> Vector:
    return tuple(v.get(k, _ZERO) for k in range(dim))


def _table(tensor: BilinearTensor) -> dict:
    """The nonzero values {(a, b): {k: c}} of a bilinear tensor."""
    return {(a, b): nz for a, row in enumerate(tensor) for b, vec in enumerate(row) if (nz := _sparse(vec))}


def _bracket(table: dict, u: dict, v: dict) -> dict:
    """The bilinear map with nonzero values `table` on sparse u and v."""
    return _combine((s * t, table[a, b]) for a, s in u.items() for b, t in v.items() if (a, b) in table)


def _leibniz(pairs, x: dict, y: dict, z: dict) -> dict:
    """Sum over the table pairs (a, b) of a(x, b(y, z)) - a(b(x, y), z) - a(y, b(x, z)).

    With the one pair (mu, mu) this is the Leibniz identity; with the pairs
    (mu_i, mu_j), i + j = n, it is the order-n deformation equation."""
    return _combine(
        term
        for a, b in pairs
        for term in (
            (1, _bracket(a, x, _bracket(b, y, z))),
            (-1, _bracket(a, _bracket(b, x, y), z)),
            (-1, _bracket(a, y, _bracket(b, x, z))),
        )
    )


def _apply(cols, v: dict) -> dict:
    """Sparse v under the matrix whose columns are `cols`, its transpose's `nz`."""
    return _combine((s, cols[a]) for a, s in v.items())


def _on_basis(dim: int, arity: int, f, *head: dict) -> tuple:
    """The dense table of f on all tuples of basis vectors, first argument
    outermost; f takes and returns sparse vectors."""
    if len(head) == arity:
        return _dense(f(*head), dim)
    return tuple(_on_basis(dim, arity, f, *head, {i: _ONE}) for i in range(dim))


def bilinear_tensor_is_zero(tensor: BilinearTensor) -> bool:
    return all(is_zero_vector(v) for row in tensor for v in row)


@dataclass(frozen=True)
class Counterexample:
    """First witness of a failed identity, with the exact residual."""

    identity: str
    indices: tuple[int, ...]
    residual: object

    def describe(self) -> str:
        return f"{self.identity} fails at {self.indices}: residual {self.residual!r}"


@dataclass(frozen=True)
class LeibnizAlgebra:
    dim: int
    basis: tuple[str, ...]
    structure: BilinearTensor

    def __post_init__(self):
        if len(self.basis) != self.dim or len(self.structure) != self.dim:
            raise ShapeError("basis/structure size does not match dimension")
        for row in self.structure:
            if len(row) != self.dim or any(len(v) != self.dim for v in row):
                raise ShapeError("structure tensor is not dim x dim x dim")

    @classmethod
    def from_structure(cls, structure, basis=None) -> "LeibnizAlgebra":
        tensor = bilinear_tensor(structure)
        dim = len(tensor)
        if basis is None:
            basis = tuple(f"e{i + 1}" for i in range(dim))
        return cls(dim, tuple(basis), tensor)

    @classmethod
    def abelian(cls, dim: int, basis=None) -> "LeibnizAlgebra":
        if basis is None:
            basis = tuple(f"e{i + 1}" for i in range(dim))
        return cls(dim, tuple(basis), zero_bilinear_tensor(dim))

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.structure[i][j]

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeError(f"expected vectors of length {self.dim}, got {len(x)} and {len(y)}")
        return _dense(_bracket(_table(self.structure), _sparse(x), _sparse(y)), self.dim)

    def left_multiplier(self, i: int) -> Matrix:
        """L_i with column j = [e_i, e_j]."""
        return Matrix.from_columns([self.structure[i][j] for j in range(self.dim)])

    def right_multiplier(self, i: int) -> Matrix:
        """R_i with column j = [e_j, e_i]."""
        return Matrix.from_columns([self.structure[j][i] for j in range(self.dim)])

    def unit(self, i: int) -> Vector:
        return unit_vector(self.dim, i)


def check_leibniz(alg: LeibnizAlgebra) -> Optional[Counterexample]:
    """Leibniz identity [ei,[ej,ek]] = [[ei,ej],ek] + [ej,[ei,ek]] on all basis triples."""
    pairs = ((_table(alg.structure),) * 2,)
    for i, j, k in product(range(alg.dim), repeat=3):
        if residual := _leibniz(pairs, {i: _ONE}, {j: _ONE}, {k: _ONE}):
            return Counterexample("leibniz", (i, j, k), _dense(residual, alg.dim))
    return None


@dataclass(frozen=True)
class Representation:
    """A (possibly Nijenhuis) representation given by exact action matrices.

    left[i] is the matrix of l_V(e_i, -), right[i] the matrix of r_V(-, e_i),
    both m x m on the module.  module_operator is the module-side operator and
    may be None for a plain Leibniz representation.
    """

    left: tuple[Matrix, ...]
    right: tuple[Matrix, ...]
    module_operator: Optional[Matrix] = None

    def __post_init__(self):
        m = self.module_dim
        for mat in (*self.left, *self.right):
            if mat.rows != m or mat.cols != m:
                raise ShapeError("action matrices must all be module_dim x module_dim")
        if self.module_operator is not None and (
            self.module_operator.rows != m or self.module_operator.cols != m
        ):
            raise ShapeError("module operator must be module_dim x module_dim")

    @property
    def algebra_dim(self) -> int:
        return len(self.left)

    @property
    def module_dim(self) -> int:
        return self.left[0].rows if self.left else 0

    def left_action(self, x: Vector) -> Matrix:
        return self._act(self.left, x)

    def right_action(self, x: Vector) -> Matrix:
        return self._act(self.right, x)

    def _act(self, mats: tuple[Matrix, ...], x: Vector) -> Matrix:
        """The combination sum_i x_i mats[i] of action matrices."""
        acc = Matrix.zero(self.module_dim, self.module_dim)
        for xi, mat in zip(x, mats):
            if xi:
                acc = acc + mat.scale(xi)
        return acc

    def with_module_operator(self, op: Optional[Matrix]) -> "Representation":
        return Representation(self.left, self.right, op)


def check_representation(
    alg: LeibnizAlgebra,
    rep: Representation,
    n_op: Optional[Matrix] = None,
) -> Optional[Counterexample]:
    """Verify the three plain axioms, plus the two Nijenhuis axioms when both
    n_op and rep.module_operator are present."""
    if rep.algebra_dim != alg.dim:
        raise ShapeError("representation is for a different algebra dimension")
    L, R = rep.left, rep.right
    for i, j in product(range(alg.dim), repeat=2):
        c = alg.bracket_basis(i, j)
        l_bracket = rep.left_action(c)
        r_bracket = rep.right_action(c)
        res1 = L[i] * L[j] - l_bracket - L[j] * L[i]
        if not res1.is_zero():
            return Counterexample("rep-left-left", (i, j), res1)
        res2 = L[i] * R[j] - R[j] * L[i] - r_bracket
        if not res2.is_zero():
            return Counterexample("rep-left-right", (i, j), res2)
        res3 = r_bracket - R[j] * R[i] - L[i] * R[j]
        if not res3.is_zero():
            return Counterexample("rep-right-bracket", (i, j), res3)
    nv = rep.module_operator
    if n_op is not None and nv is not None:
        if n_op.rows != alg.dim or n_op.cols != alg.dim:
            raise ShapeError("operator dimension does not match the algebra")
        nv2 = nv * nv
        for i in range(alg.dim):
            l_n = rep.left_action(n_op.column(i))
            r_n = rep.right_action(n_op.column(i))
            res4 = l_n * nv - nv * l_n - nv * L[i] * nv + nv2 * L[i]
            if not res4.is_zero():
                return Counterexample("rep-nijenhuis-left", (i,), res4)
            res5 = r_n * nv - nv * R[i] * nv - nv * r_n + nv2 * R[i]
            if not res5.is_zero():
                return Counterexample("rep-nijenhuis-right", (i,), res5)
    return None


def adjoint_representation(alg: LeibnizAlgebra, n_op: Optional[Matrix] = None) -> Representation:
    """The algebra acting on itself by its own bracket; N_V = n_op when given."""
    bad = check_leibniz(alg)
    if bad is not None:
        raise PreconditionError(bad.describe())
    left = tuple(alg.left_multiplier(i) for i in range(alg.dim))
    right = tuple(alg.right_multiplier(i) for i in range(alg.dim))
    return Representation(left, right, n_op)


def trivial_representation(alg_dim: int, module_dim: int, module_operator: Optional[Matrix] = None) -> Representation:
    z = Matrix.zero(module_dim, module_dim)
    return Representation((z,) * alg_dim, (z,) * alg_dim, module_operator)


def direct_sum(a: LeibnizAlgebra, b: LeibnizAlgebra) -> LeibnizAlgebra:
    """Block-diagonal direct sum; summands bracket to zero against each other."""
    dim = a.dim + b.dim
    structure = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < a.dim and j < a.dim:
                v = a.structure[i][j] + zero_vector(b.dim)
            elif i >= a.dim and j >= a.dim:
                v = zero_vector(a.dim) + b.structure[i - a.dim][j - a.dim]
            else:
                v = zero_vector(dim)
            row.append(v)
        structure.append(tuple(row))
    basis = tuple(f"a.{name}" for name in a.basis) + tuple(f"b.{name}" for name in b.basis)
    return LeibnizAlgebra(dim, basis, tuple(structure))


# ---------------------------------------------------------------------------
# Builtin catalog.  Every entry is re-verified on construction; unverified
# algebras cannot enter the system.

_ABELIAN_RE = re.compile(r"^abelian(\d+)$")
_DSUM_RE = re.compile(r"^dsum\((.+)\)$")


def _split_dsum_args(body: str) -> tuple[str, str]:
    depth = 0
    for pos, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:pos].strip(), body[pos + 1 :].strip()
    raise CatalogError(f"malformed dsum arguments: {body!r}")


def catalog_get(name: str) -> LeibnizAlgebra:
    """Builtin algebras: loday2, square2, abelian<n>, dsum(a,b)."""
    if name == "loday2":
        # [e2,e1] = [e2,e2] = e1, all other products zero
        alg = LeibnizAlgebra.from_structure(
            [
                [[0, 0], [0, 0]],
                [[1, 0], [1, 0]],
            ]
        )
    elif name == "square2":
        # [e1,e1] = e2
        alg = LeibnizAlgebra.from_structure(
            [
                [[0, 1], [0, 0]],
                [[0, 0], [0, 0]],
            ]
        )
    elif m := _ABELIAN_RE.match(name):
        alg = LeibnizAlgebra.abelian(int(m.group(1)))
    elif m := _DSUM_RE.match(name):
        left_name, right_name = _split_dsum_args(m.group(1))
        alg = direct_sum(catalog_get(left_name), catalog_get(right_name))
    else:
        raise CatalogError(name)
    bad = check_leibniz(alg)
    if bad is not None:  # pragma: no cover - catalog entries are verified
        raise PreconditionError(f"catalog entry {name!r} is invalid: {bad.describe()}")
    return alg


def catalog_nijenhuis_pairs() -> list[tuple[str, LeibnizAlgebra, Matrix]]:
    """Named (algebra, Nijenhuis operator) pairs used throughout the test
    batteries: the 2-dim example with its classified operator, a nilpotent
    case, scalar cases, and a 3-dim direct sum."""
    loday2 = catalog_get("loday2")
    square2 = catalog_get("square2")
    abelian3 = catalog_get("abelian3")
    dsum3 = catalog_get("dsum(loday2,abelian1)")
    return [
        ("loday2/classified", loday2, Matrix([[2, 1], [0, 1]])),
        ("loday2/nilpotent", loday2, Matrix([[0, 1], [0, 0]])),
        ("loday2/scalar", loday2, Matrix.identity(2).scale(Fraction(3, 2))),
        ("square2/shift", square2, Matrix([[0, 0], [1, 0]])),
        ("abelian3/jordan", abelian3, Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])),
        ("dsum3/block", dsum3, block_diag([Matrix([[2, 1], [0, 1]]), Matrix([[5]])])),
    ]
