"""Leibniz algebras, their representations, and the builtin catalog.

A bracket is stored as the table {(a, b): {k: c}} of its nonzero structure
constants, [e_a, e_b] = sum_k c e_k; `LeibnizAlgebra.structure` is the dense
tensor view c[a][b][k] of the same numbers.  All verdict-style checks return
None on success or a `Counterexample` carrying the lexicographically first
failing index tuple and the exact residual, so goldens are deterministic.

Every bracket is evaluated on such tables by `_bracket` over {coordinate:
Fraction} dicts, as a `linalg.combine`; a linear map applies to such a vector
as `linalg.row_times` over its columns.  The Leibniz identity is evaluated on
all basis triples at once by `_leibniz_table`, which scatters each table
entry to the triples it reaches.  It serves `check_leibniz`, the plain
representation axioms (the Leibniz identity of the semidirect product of the
algebra and its module, `_semidirect_table`) and the deformation equations.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import CatalogError, PreconditionError, ShapeError
from .linalg import (
    Matrix,
    Vector,
    block_diag,
    combine,
    frac,
    is_zero_vector,
    zero_vector,
)

# tensor[i][j] = coordinate vector of the image of (e_i, e_j)
BilinearTensor = tuple[tuple[Vector, ...], ...]


def bilinear_tensor(entries: Sequence[Sequence[Sequence]]) -> BilinearTensor:
    return tuple(tuple(tuple(frac(c) for c in vec) for vec in row) for row in entries)


def zero_bilinear_tensor(dim: int) -> BilinearTensor:
    z = zero_vector(dim)
    return tuple(tuple(z for _ in range(dim)) for _ in range(dim))


_ZERO, _ONE = Fraction(0), Fraction(1)


def _sparse(v: Vector) -> dict:
    return {k: c for k, c in enumerate(v) if c}


def _dense(v: dict, dim: int) -> Vector:
    return tuple(v.get(k, _ZERO) for k in range(dim))


def _table(tensor: BilinearTensor) -> dict:
    """The nonzero values {(a, b): {k: c}} of a bilinear tensor."""
    return {(a, b): nz for a, row in enumerate(tensor) for b, vec in enumerate(row) if (nz := _sparse(vec))}


def _bracket(table: dict, u: dict, v: dict) -> dict:
    """The bilinear map with nonzero values `table` on sparse u and v."""
    return combine((s * t, table[a, b]) for a, s in u.items() for b, t in v.items() if (a, b) in table)


def _leibniz_table(pairs) -> dict:
    """The nonzero values {(i, j, k): {l: c}} of the sum over the table pairs
    (A, B) of A(x, B(y, z)) - A(B(x, y), z) - A(y, B(x, z)) on all basis
    triples (e_i, e_j, e_k).

    With the one pair (mu, mu) this is the Leibniz identity; with the pairs
    (mu_a, mu_b), a + b = n, it is the order-n deformation equation.  Each
    entry B[p, q] = c reaches, through each of its coordinates m, the triple
    (i, p, q) by the entries A[i, m], and (p, q, k) and (p, j, q) by the
    entries A[m, k] and A[j, m], negated; so the work follows the nonzeros
    of the tables, not the number of triples.
    """
    terms = defaultdict(list)
    for a, b in pairs:
        by_first, by_second = defaultdict(list), defaultdict(list)
        for (i, k), v in a.items():
            by_first[i].append((k, v))
            by_second[k].append((i, v))
        for (p, q), c in b.items():
            for m, x in c.items():
                negated = -x
                for i, v in by_second[m]:
                    terms[i, p, q].append((x, v))
                    terms[p, i, q].append((negated, v))
                for k, v in by_first[m]:
                    terms[p, q, k].append((negated, v))
    return {t: v for t, ts in terms.items() if (v := combine(ts))}


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
    """A bracket on the basis, stored as the table {(a, b): {k: c}} of its
    nonzero structure constants; equality and hashing read the table."""

    dim: int
    basis: tuple[str, ...]
    table: dict

    def __post_init__(self):
        if len(self.basis) != self.dim:
            raise ShapeError("basis size does not match dimension")
        on_basis = set(range(self.dim))
        for key, vec in self.table.items():
            pair = isinstance(key, tuple) and len(key) == 2
            if not (pair and on_basis.issuperset(key) and on_basis.issuperset(vec)):
                raise ShapeError(f"bracket table entry {key!r} is not a basis pair with basis coordinates")
            if not vec or not all(vec.values()):
                raise ShapeError(f"bracket table entry {key!r} stores a zero")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        entries = frozenset((key, frozenset(vec.items())) for key, vec in self.table.items())
        return hash((self.dim, self.basis, entries))

    @cached_property
    def structure(self) -> BilinearTensor:
        """The dense view: structure[a][b] is the coordinate vector of [e_a, e_b]."""
        d = self.dim
        return tuple(tuple(_dense(self.table.get((a, b), {}), d) for b in range(d)) for a in range(d))

    @classmethod
    def from_structure(cls, structure, basis=None) -> "LeibnizAlgebra":
        tensor = bilinear_tensor(structure)
        dim = len(tensor)
        if any(len(row) != dim or any(len(v) != dim for v in row) for row in tensor):
            raise ShapeError("structure tensor is not dim x dim x dim")
        if basis is None:
            basis = tuple(f"e{i + 1}" for i in range(dim))
        return cls(dim, tuple(basis), _table(tensor))

    @classmethod
    def abelian(cls, dim: int, basis=None) -> "LeibnizAlgebra":
        if basis is None:
            basis = tuple(f"e{i + 1}" for i in range(dim))
        return cls(dim, tuple(basis), {})

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.structure[i][j]

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeError(f"expected vectors of length {self.dim}, got {len(x)} and {len(y)}")
        return _dense(_bracket(self.table, _sparse(x), _sparse(y)), self.dim)

    def left_multiplier(self, i: int) -> Matrix:
        """L_i with column j = [e_i, e_j]."""
        return Matrix.sparse([self.table.get((i, j), {}) for j in range(self.dim)], self.dim).transpose()

    def right_multiplier(self, i: int) -> Matrix:
        """R_i with column j = [e_j, e_i]."""
        return Matrix.sparse([self.table.get((j, i), {}) for j in range(self.dim)], self.dim).transpose()


def check_leibniz(alg: LeibnizAlgebra) -> Optional[Counterexample]:
    """Leibniz identity [ei,[ej,ek]] = [[ei,ej],ek] + [ej,[ei,ek]] on all basis
    triples; the certificate is at the first failing triple."""
    values = _leibniz_table(((alg.table, alg.table),))
    if not values:
        return None
    t = min(values)
    return Counterexample("leibniz", t, _dense(values[t], alg.dim))


@dataclass(frozen=True)
class Representation:
    """A (possibly Nijenhuis) representation given by exact action matrices.

    left[i] is the matrix of l_V(e_i, -), right[i] the matrix of r_V(-, e_i),
    both m x m on the module, m = module_dim.  The module dimension is given,
    not read off the actions: a 0-dim algebra has no action matrices.
    module_operator is the module-side operator and may be None for a plain
    Leibniz representation.
    """

    left: tuple[Matrix, ...]
    right: tuple[Matrix, ...]
    module_operator: Optional[Matrix] = None
    module_dim: int = field(kw_only=True)

    def __post_init__(self):
        if len(self.left) != len(self.right):
            raise ShapeError(f"{len(self.left)} left but {len(self.right)} right action matrices")
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

    def left_action(self, x: Vector) -> Matrix:
        return self._act(self.left, x)

    def right_action(self, x: Vector) -> Matrix:
        return self._act(self.right, x)

    def _act(self, mats: tuple[Matrix, ...], x: Vector) -> Matrix:
        """The combination sum_i x_i mats[i] of action matrices, row by row."""
        if len(x) != self.algebra_dim:
            raise ShapeError(f"expected a vector of length {self.algebra_dim}, got {len(x)}")
        m = self.module_dim
        return Matrix.sparse([combine((xi, mat.nz[r]) for xi, mat in zip(x, mats)) for r in range(m)], m)

    def with_module_operator(self, op: Optional[Matrix]) -> "Representation":
        return Representation(self.left, self.right, op, module_dim=self.module_dim)


def _semidirect_table(alg: LeibnizAlgebra, rep: Representation, psi: Optional[dict] = None) -> dict:
    """The bracket table on g (+) V, the basis of g first and v_b at index
    n + b: [e_i, e_j] is the bracket of g plus psi(e_i, e_j) in V, [e_i, v_b]
    is column b of l(e_i), [v_b, e_i] column b of r(e_i), and [V, V] = 0.
    `psi` is a table {(i, j): {k: c}} in module coordinates; without it this
    is the semidirect product of g and V."""
    n, psi = alg.dim, psi or {}
    table = {
        key: {**alg.table.get(key, {}), **{n + k: c for k, c in psi.get(key, {}).items()}}
        for key in sorted(alg.table.keys() | psi.keys())
    }
    for i in range(n):
        for k, row in enumerate(rep.left[i].nz):
            for b, c in row.items():
                table.setdefault((i, n + b), {})[n + k] = frac(c)
        for k, row in enumerate(rep.right[i].nz):
            for b, c in row.items():
                table.setdefault((n + b, i), {})[n + k] = frac(c)
    return table


# the plain axiom that is the Leibniz identity of the semidirect product on a
# triple whose one module argument is in the last, middle or first slot
_REP_AXIOMS = ("rep-left-left", "rep-left-right", "rep-right-bracket")


def check_representation(
    alg: LeibnizAlgebra,
    rep: Representation,
    n_op: Optional[Matrix] = None,
) -> Optional[Counterexample]:
    """Verify the three plain axioms, plus the two Nijenhuis axioms when both
    n_op and rep.module_operator are present.

    (V, l, r) is a representation exactly when the semidirect product of g
    and V satisfies the Leibniz identity (Loday-Pirashvili, Math. Ann. 296,
    1993), and the three plain axioms are that identity on the triples with
    one module argument: (e_i, e_j, v) is `rep-left-left`, (e_i, v, e_j)
    `rep-left-right` and (v, e_i, e_j) `rep-right-bracket`, each at (i, j).
    All are read off one `_leibniz_table` of `_semidirect_table`.  The
    certificate is at the first failing (i, j), the axioms tried in that
    order, and its residual is the m x m matrix whose column b is the value
    at v = v_b.
    """
    if rep.algebra_dim != alg.dim:
        raise ShapeError("representation is for a different algebra dimension")
    n, m = alg.dim, rep.module_dim
    table = _semidirect_table(alg, rep)
    failing = defaultdict(dict)  # (i, j, axiom) -> {b: residual at v_b}
    for t, value in _leibniz_table(((table, table),)).items():
        slots = [s for s, k in enumerate(t) if k >= n]
        if len(slots) == 1:
            (s,) = slots
            i, j = (k for k in t if k < n)
            failing[i, j, 2 - s][t[s] - n] = value
    if failing:
        i, j, axiom = min(failing)
        rows = [{} for _ in range(m)]
        for b, value in failing[i, j, axiom].items():
            for k, c in value.items():
                rows[k - n][b] = c
        return Counterexample(_REP_AXIOMS[axiom], (i, j), Matrix.sparse(rows, m))
    nv = rep.module_operator
    if n_op is not None and nv is not None:
        if n_op.rows != alg.dim or n_op.cols != alg.dim:
            raise ShapeError("operator dimension does not match the algebra")
        # l_{Ne_i} N_V - N_V l_{Ne_i} - N_V L_i N_V + N_V^2 L_i = l_{Ne_i} N_V - N_V L'_i
        for i in range(alg.dim):
            for side, (act, induced) in zip(("left", "right"), _star_actions(rep, n_op, i)):
                residual = act * nv - nv * induced
                if not residual.is_zero():
                    return Counterexample(f"rep-nijenhuis-{side}", (i,), residual)
    return None


def _star_actions(rep: Representation, n_op: Matrix, i: int) -> tuple[tuple[Matrix, Matrix], ...]:
    """(l_{Ne_i}, L'_i) and (r_{Ne_i}, R'_i): the actions of N e_i and the
    induced actions L'_i = l_{Ne_i} - N_V L_i + L_i N_V, R'_i likewise."""
    nv, col = rep.module_operator, n_op.column(i)
    return tuple(
        (act, act - nv * base + base * nv)
        for act, base in ((rep.left_action(col), rep.left[i]), (rep.right_action(col), rep.right[i]))
    )


def adjoint_representation(alg: LeibnizAlgebra, n_op: Optional[Matrix] = None) -> Representation:
    """The algebra acting on itself by its own bracket; N_V = n_op when given."""
    bad = check_leibniz(alg)
    if bad is not None:
        raise PreconditionError(bad.describe())
    left = tuple(alg.left_multiplier(i) for i in range(alg.dim))
    right = tuple(alg.right_multiplier(i) for i in range(alg.dim))
    return Representation(left, right, n_op, module_dim=alg.dim)


def trivial_representation(alg_dim: int, module_dim: int, module_operator: Optional[Matrix] = None) -> Representation:
    z = Matrix.zero(module_dim, module_dim)
    return Representation((z,) * alg_dim, (z,) * alg_dim, module_operator, module_dim=module_dim)


def direct_sum(a: LeibnizAlgebra, b: LeibnizAlgebra) -> LeibnizAlgebra:
    """Block-diagonal direct sum; summands bracket to zero against each other."""
    s = a.dim
    shifted = {(i + s, j + s): {k + s: c for k, c in v.items()} for (i, j), v in b.table.items()}
    basis = tuple(f"a.{name}" for name in a.basis) + tuple(f"b.{name}" for name in b.basis)
    return LeibnizAlgebra(a.dim + b.dim, basis, {**a.table, **shifted})


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
        alg = LeibnizAlgebra(2, ("e1", "e2"), {(1, 0): {0: _ONE}, (1, 1): {0: _ONE}})
    elif name == "square2":
        # [e1,e1] = e2
        alg = LeibnizAlgebra(2, ("e1", "e2"), {(0, 0): {1: _ONE}})
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
