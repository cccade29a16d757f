"""Leibniz algebras, their representations, and the builtin catalog.

A bracket is stored as the table {(a, b): {k: c}} of its nonzero structure
constants, [e_a, e_b] = sum_k c e_k, each held as a `linalg.Matrix` holds
its entries: an int when integral, else a Fraction.  The constructor
normalises them, whatever built the table (parser, catalog, direct sum,
dense tensor, star bracket or extension), so the kernels below run on ints
for integral input.  `LeibnizAlgebra.structure` is the dense tensor view
c[a][b][k] of the same numbers, as Fractions.  All verdict-style checks return
None on success or a `Counterexample` carrying the lexicographically first
failing index tuple and the exact residual, so goldens are deterministic.

Every bracket is evaluated on such tables by `_bracket` over {coordinate:
value} dicts, as a `linalg.combine`; a linear map applies to such a vector
as `linalg.row_times` over its columns.  Each identity is evaluated on all
basis tuples at once by one kernel that scatters each table entry to the
tuples it reaches: `_leibniz_table` the Leibniz identity, `_defect_table` the
Nijenhuis and Rota-Baxter-type identities, and `_star_table` the star
bracket.  On the semidirect product of the algebra and its module
(`_semidirect_table`) the first two are the plain and the Nijenhuis
representation axioms, and the third gives the induced actions.  They also
serve `check_leibniz`, the operator identities, the induced bracket and the
deformation equations.

A linear map enters the kernels as the rows N[a] its matrix stores
(`Matrix.nz`), and each kernel builds the columns it applies the map by once.
Kernel values keep the types the arithmetic gives them, so an int constant,
module action or operator entry stays an int; they become Fractions in the
dense view `_dense` and in the public values of `operators.operator_defect`
and `operators.defect_polynomial`.

A representation is stored as a table too: the module part of the bracket
of the semidirect product g (+) V, its values on the pairs (e_i, v_b) and
(v_b, e_i).  The kernels merge it with the algebra's table, and its action
matrices `Representation.left` and `right` are views.

`Counterexample`, `LeibnizAlgebra` and `Representation` are frozen records
(`_record.record`).  The last two are built and compared on every verb and
key the caches of `cochain`, so their constructors and `__eq__` are written
out, and each keeps its hash once computed.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from typing import Optional

from ._record import record
from .errors import CatalogError, PreconditionError, ShapeError
from .linalg import Matrix, Vector, _dense, _entry, _sparse, block_diag, combine, row_times

# tensor[i][j] = coordinate vector of the image of (e_i, e_j)
BilinearTensor = tuple[tuple[Vector, ...], ...]


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


def _columns(rows) -> list[dict]:
    """The columns {a: N[a][i]} of the square matrix with sparse rows `rows`."""
    cols: list[dict] = [{} for _ in rows]
    for a, row in enumerate(rows):
        for i, x in row.items():
            cols[i][a] = x
    return cols


def _defect_table(p: tuple, triples) -> dict:
    """The nonzero values {(i, j): {k: c}} of the sum over the triples
    (T, A, B) of T(Ax, By) - A(T(Bx, y) + T(x, By)) + (alpha + beta A +
    gamma AB)T(x, y) on all basis pairs (e_i, e_j), p = (alpha, beta, gamma);
    T is a table, and A (`outer`) and B (`inner`) are given by their rows.

    With the one triple (mu, N, N) this is the operator identity whose
    p_K(N) = alpha Id + beta N + gamma N^2; with the triples (mu_a, N_b, N_c),
    a + b + c = n, and p = (0, 0, 1) it is the order-n Nijenhuis deformation
    equation.  Each entry T[a, b] = c is scattered to the pairs it reaches:
    A[a][i] B[b][j] c to (i, j), -B[a][i] Ac to (i, b), -B[b][j] Ac to (a, j),
    and (alpha + beta A + gamma AB)c to (a, b).  Ac and ABc take the columns
    of A and B, built once per triple; when A is B, Ac serves the gamma term.
    """
    alpha, beta, gamma = p
    terms = defaultdict(list)
    for t, outer, inner in triples:
        outer_cols = _columns(outer)
        inner_cols = outer_cols if inner is outer else _columns(inner)
        for (a, b), c in t.items():
            ac = row_times(c, outer_cols)
            for i, x in outer[a].items():
                for j, y in inner[b].items():
                    terms[i, j].append((x * y, c))
            for i, x in inner[a].items():
                terms[i, b].append((-x, ac))
            for j, y in inner[b].items():
                terms[a, j].append((-y, ac))
            abc = row_times(ac if inner is outer else row_times(c, inner_cols), outer_cols) if gamma else {}
            terms[a, b] += ((gamma, abc), (beta, ac), (alpha, c))
    return {pair: v for pair, t in terms.items() if (v := combine(t))}


def _star_table(table: dict, rows) -> dict:
    """The nonzero values {(i, j): {k: c}} of the star bracket
    [x, y]* = [Nx, y] + [x, Ny] - N[x, y] on all basis pairs, where `table`
    is the bracket and `rows` are the rows of N.  Each entry
    [e_a, e_b] = c sends N[a][i] c to (i, b), N[b][j] c to (a, j) and -Nc to
    (a, b)."""
    cols = _columns(rows)
    terms = defaultdict(list)
    for (a, b), c in table.items():
        for i, x in rows[a].items():
            terms[i, b].append((x, c))
        for j, y in rows[b].items():
            terms[a, j].append((y, c))
        terms[a, b].append((-1, row_times(c, cols)))
    return {pair: v for pair, t in terms.items() if (v := combine(t))}


def _dense_pairs(values: dict, dim: int) -> BilinearTensor:
    """The dense view of a table {(i, j): {k: c}} on all basis pairs; the
    pairs it leaves out share one zero vector."""
    zero = _dense({}, dim)
    basis = range(dim)
    return tuple(tuple(_dense(values[i, j], dim) if (i, j) in values else zero for j in basis) for i in basis)


@record
class Counterexample:
    """First witness of a failed identity, with the exact residual."""

    identity: str
    indices: tuple[int, ...]
    residual: object

    def describe(self) -> str:
        return f"{self.identity} fails at {self.indices}: residual {self.residual!r}"


@record
class LeibnizAlgebra:
    """A bracket on the basis, stored as the table {(a, b): {k: c}} of its
    nonzero structure constants, which the constructor normalises to ints
    where integral; equality and hashing read the table."""

    dim: int
    basis: tuple[str, ...]
    table: dict

    def __init__(self, dim: int, basis: tuple[str, ...], table: dict):
        if len(basis) != dim:
            raise ShapeError("basis size does not match dimension")
        on_basis = set(range(dim))
        entries = {}
        for key, vec in table.items():
            pair = isinstance(key, tuple) and len(key) == 2
            if not (pair and on_basis.issuperset(key) and on_basis.issuperset(vec)):
                raise ShapeError(f"bracket table entry {key!r} is not a basis pair with basis coordinates")
            if not vec or not all(vec.values()):
                raise ShapeError(f"bracket table entry {key!r} stores a zero")
            entries[key] = {k: _entry(c) for k, c in vec.items()}
        vars(self).update(dim=dim, basis=basis, table=entries)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.dim, self.basis, self.table) == (other.dim, other.basis, other.table)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        entries = frozenset((key, frozenset(vec.items())) for key, vec in self.table.items())
        return hash((self.dim, self.basis, entries))

    @cached_property
    def structure(self) -> BilinearTensor:
        """The dense view: structure[a][b] is the coordinate vector of [e_a, e_b]."""
        return _dense_pairs(self.table, self.dim)

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


def check_leibniz(alg: LeibnizAlgebra) -> Optional[Counterexample]:
    """Leibniz identity [ei,[ej,ek]] = [[ei,ej],ek] + [ej,[ei,ek]] on all basis
    triples; the certificate is at the first failing triple."""
    values = _leibniz_table(((alg.table, alg.table),))
    if not values:
        return None
    t = min(values)
    return Counterexample("leibniz", t, _dense(values[t], alg.dim))


@record
class Representation:
    """A (possibly Nijenhuis) representation of a d-dim algebra on an m-dim
    module, m = module_dim.

    The actions are stored once (`table`), as the module part of the bracket
    table of the semidirect product g (+) V, the basis of g first and v_b at
    index d + b: table[i, d + b] = {d + k: c} for l(e_i) v_b = sum_k c v_k,
    and table[d + b, i] the same for r(e_i) v_b, nonzeros only.  left[i],
    the m x m matrix of l_V(e_i, -), and right[i], that of r_V(-, e_i), are
    views of it, built when first read; the constructor converts the given
    matrices once.  Both dimensions are stored: a 0-dim algebra has no action
    matrices.  module_operator is the module-side operator and may be None
    for a plain Leibniz representation.  Equality reads the dimensions, the
    table and the module operator.
    """

    left: tuple[Matrix, ...]
    right: tuple[Matrix, ...]
    module_operator: Optional[Matrix]
    module_dim: int

    def __init__(
        self,
        left: tuple[Matrix, ...],
        right: tuple[Matrix, ...],
        module_operator: Optional[Matrix] = None,
        *,
        module_dim: int,
    ):
        if len(left) != len(right):
            raise ShapeError(f"{len(left)} left but {len(right)} right action matrices")
        m, d = module_dim, len(left)
        for mat in (*left, *right):
            if mat.rows != m or mat.cols != m:
                raise ShapeError("action matrices must all be module_dim x module_dim")
        table: dict = {}
        for side, actions in enumerate((left, right)):
            for i, mat in enumerate(actions):
                for k, row in enumerate(mat.nz):
                    for b, c in row.items():
                        table.setdefault((d + b, i) if side else (i, d + b), {})[d + k] = c
        vars(self).update(vars(Representation._of(table, module_operator, d, m)))

    @classmethod
    def _of(cls, table: dict, module_operator: Optional[Matrix], algebra_dim: int, module_dim: int):
        """The representation with the module table `table`, taken as is."""
        m, rep = module_dim, object.__new__(cls)
        if module_operator is not None and (module_operator.rows != m or module_operator.cols != m):
            raise ShapeError("module operator must be module_dim x module_dim")
        vars(rep).update(table=table, module_operator=module_operator, algebra_dim=algebra_dim, module_dim=m)
        return rep

    @cached_property
    def _actions(self) -> tuple:
        d, m = self.algebra_dim, self.module_dim
        slots = _module_slots(self.table, d)
        return tuple(tuple(_module_matrix(slots.get((i, side), {}), d, m) for i in range(d)) for side in (0, 1))

    left = property(lambda self: self._actions[0])
    right = property(lambda self: self._actions[1])

    def _key(self) -> tuple:
        return self.algebra_dim, self.module_dim, self.table, self.module_operator

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.left, self.right, self.module_operator, self.module_dim))

    def with_module_operator(self, op: Optional[Matrix]) -> "Representation":
        return Representation._of(self.table, op, self.algebra_dim, self.module_dim)


def _semidirect_table(alg: LeibnizAlgebra, rep: Representation, psi: Optional[dict] = None) -> dict:
    """The bracket table on g (+) V, the basis of g first and v_b at index
    n + b: the bracket of g plus psi(e_i, e_j) in V on the pairs of g, the
    stored module table of `rep` on the mixed pairs, and [V, V] = 0.  `psi`
    is a table {(i, j): {k: c}} in module coordinates; without it this is
    the semidirect product of g and V."""
    n, table = alg.dim, {**alg.table, **rep.table}
    for key, value in (psi or {}).items():
        table[key] = {**alg.table.get(key, {}), **{n + k: c for k, c in value.items()}}
    return table


# the plain axiom that is the Leibniz identity of the semidirect product on a
# triple whose one module argument is in the last, middle or first slot, then
# the Nijenhuis axiom that is its Nijenhuis identity on (e_i, v) or (v, e_i)
_REP_AXIOMS = ("rep-left-left", "rep-left-right", "rep-right-bracket", "rep-nijenhuis-left", "rep-nijenhuis-right")


def _module_matrix(columns: dict, n: int, m: int) -> Matrix:
    """The m x m matrix whose column b is the semidirect-product vector
    columns[b], read in module coordinates (index n + k is row k)."""
    rows = [{} for _ in range(m)]
    for b, value in columns.items():
        for k, c in value.items():
            rows[k - n][b] = c
    return Matrix.sparse(rows, m)


def _module_slots(values: dict, n: int) -> dict:
    """The pair values {(e_i, v_b) or (v_b, e_i): vector} of a table on the
    semidirect product, regrouped as {(i, side): {b: vector}}, side 0 for
    (e_i, v_b) and 1 for (v_b, e_i)."""
    out = defaultdict(dict)
    for (a, b), value in values.items():
        if a < n <= b:
            out[a, 0][b - n] = value
        elif b < n <= a:
            out[b, 1][a - n] = value
    return out


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
    All are read off one `_leibniz_table` of `_semidirect_table`.  Likewise
    (V, l, r, N_V) is a Nijenhuis representation exactly when N (+) N_V is a
    Nijenhuis operator on the semidirect product, and the two Nijenhuis axioms
    are its `_defect_table` on the pairs (e_i, v), `rep-nijenhuis-left` at
    (i,), and (v, e_i), `rep-nijenhuis-right` at (i,).  The certificate is at
    the first failing index, the axioms tried in the order named, and its
    residual is the m x m matrix whose column b is the value at v = v_b.
    """
    return _check_semidirect(alg, rep, n_op)[0]


def _check_semidirect(alg: LeibnizAlgebra, rep: Representation, n_op: Optional[Matrix]) -> tuple:
    """(verdict, semidirect table, rows of N (+) N_V or None if the Nijenhuis
    axioms were not read): `check_representation` with the two inputs that
    `operators.induced_representation` reads the induced actions off."""
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
        return Counterexample(_REP_AXIOMS[axiom], (i, j), _module_matrix(failing[i, j, axiom], n, m)), table, None
    nv = rep.module_operator
    if n_op is None or nv is None:
        return None, table, None
    if n_op.rows != alg.dim or n_op.cols != alg.dim:
        raise ShapeError("operator dimension does not match the algebra")
    rows = block_diag([n_op, nv]).nz
    by_side = _module_slots(_defect_table((0, 0, 1), ((table, rows, rows),)), n)
    if by_side:
        i, side = min(by_side)
        return Counterexample(_REP_AXIOMS[3 + side], (i,), _module_matrix(by_side[i, side], n, m)), table, rows
    return None, table, rows


def adjoint_representation(alg: LeibnizAlgebra, n_op: Optional[Matrix] = None) -> Representation:
    """The algebra acting on itself by its own bracket; N_V = n_op when given."""
    bad = check_leibniz(alg)
    if bad is not None:
        raise PreconditionError(bad.describe())
    # [e_a, v_b] = l(e_a) v_b and [v_a, e_b] = r(e_b) v_a are both [e_a, e_b]
    n, table = alg.dim, {}
    for (a, b), value in alg.table.items():
        table[a, n + b] = table[n + a, b] = {n + k: c for k, c in value.items()}
    return Representation._of(table, n_op, n, n)


def trivial_representation(alg_dim: int, module_dim: int, module_operator: Optional[Matrix] = None) -> Representation:
    return Representation._of({}, module_operator, alg_dim, module_dim)


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
        alg = LeibnizAlgebra(2, ("e1", "e2"), {(1, 0): {0: 1}, (1, 1): {0: 1}})
    elif name == "square2":
        # [e1,e1] = e2
        alg = LeibnizAlgebra(2, ("e1", "e2"), {(0, 0): {1: 1}})
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
