"""The three cochain complexes and the comparison map.

delta is the Loday-Pirashvili coboundary of a Leibniz algebra with a
representation.  The operator complex partial (`partial_matrix`) is, by
construction, delta of the star algebra with the induced representation (a
single code path, so partial o partial = 0 is inherited).  The combined
complex acts on pairs by d(f, g) = (delta f, -partial' g - phi f), partial'
the corrected operator differential `combined_partial_matrix`.  Every
differential is a matrix; `delta` and `d_nla` apply two of them to a cochain.

Every matrix is assembled one row at a time: each row is a {column: value} dict
summed once (`linalg._accumulate`), with no matrix sum or block stacking; phi's
rows start as those of `linalg.kron`.  In Kronecker form delta_0 stacks -R_a
over a and delta_n = stack_a(I (x) L_a - S_a (x) I_m) - I_d (x) delta_(n-1),
S_a the sum over the n slots of ad_a^T in that slot; row (a, t, i) of delta_n
is read off it directly, from row i of L_a, the bracket table and row (t, i) of
the cached delta_(n-1).  The test oracles keep the Kronecker form.  delta,
partial, phi, partial' and the nla matrix keep its values, and int entries on
integral input, but neither its column order within a row nor the type of an
integral entry on rational input; no report reads either.  delta asks of its
values only +, unary - and truth, and phi also *, so both are built over any
ring, such as polynomials in their inputs.

phi is the identity at degree 0.  At degree n >= 1 `full` is the product over
the slots of (precompose with N in that slot) - (postcompose with N_V); the
factors commute, so phi_n = sum_k C_k (x) N_V^k with C_k the x^k coefficient
of (N^T - x I)^(x)n.  Splitting off the first slot gives the recursion
phi_n = N^T (x) phi_(n-1) - I_d (x) ((I (x) N_V) phi_(n-1)): row (a, s) of
phi_n is row (a, s) of `kron(N^T, phi_(n-1))` plus row s of
-(I (x) N_V) phi_(n-1) at block a.  `printed` keeps C_0 and C_1, whose sum
follows the same recursion truncated to k <= 1, and adds I (x) N_V^2.  The
variants agree at degrees 0 and 2 and differ at degree 1 and at degrees
>= 3 unless N_V^2 = 0.  `full` is the default because it is the only
variant under which the chain-map identity phi(delta f) = partial'(phi f)
holds.  One difference matrix, lower_n phi_n - phi_(n+1) delta_n, decides
that identity: `chain_map_diagnostic` reads its first nonzero column and
`chain_map_residual` applies it to one cochain.

`cohomology_dims` ranks the differentials D_n: C^n -> C^(n+1) from the top
degree down, and each elimination hands the next step its pivot rows P (a
row basis) and pivot columns Q (a column basis).  The junction
D_(n+1) D_n = 0 is checked on the rows P of D_(n+1) alone; when it holds,
D_n is ranked with the rows Q deleted, which keeps its rank, and a failed
junction stops the compression below it.  The exactness arguments are in
its docstring.

Flattening is canonical everywhere: basis tuples in lexicographic order,
module coordinate fastest; combined-complex blocks ordered [upper; lower].
A `Cochain` stores the nonzero entries of this vector, {index: value}
(`Cochain.nz`), so every coboundary acts on it as a matrix, one sparse dot
product per stored row (`_apply`), and sums are one `linalg.combine`.  The
dense vector `Cochain.vec` and the tuple-keyed `Cochain.values` are views of
it; kernel bases become cochains straight from `linalg._kernel_rows`.
`Cochain` and the report classes are frozen records (`_record.record`);
`Cochain`, built by every cochain sum, writes its constructor out, and its
`_key` names `nz` as what equality and the hash read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from typing import Optional, Union

from ._record import record
from .algebra import LeibnizAlgebra, Representation
from .errors import PreconditionError, ResourceLimitError, ShapeError
from .linalg import (
    Matrix,
    Vector,
    _accumulate,
    _dense,
    _entry,
    _kernel_rows,
    _sparse,
    combine,
    frac,
    kron,
    rank,
    row_times,
    solve_linear,
)
from .operators import induced_bracket, induced_representation

DEGREE_CAP = 4

PHI_VARIANTS = ("full", "printed")


@lru_cache(maxsize=None)
def all_tuples(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    return tuple(product(range(dim), repeat=degree))


def space_dim(alg_dim: int, module_dim: int, degree: int) -> int:
    return module_dim * alg_dim**degree


@record
class Cochain:
    """Degree-n multilinear map g^(x)n -> V, stored as the nonzero entries
    `nz` = {index: value} of its canonical flat vector: basis tuples in
    lexicographic order, module coordinate fastest.  `vec` is the tuple the
    public constructor was given, else a dense Fraction view built when first
    read; `values` is a tuple-keyed view.  Equality and the hash read the
    dimensions and `nz`, never `vec`."""

    degree: int
    alg_dim: int
    module_dim: int
    vec: Vector

    def __init__(self, degree: int, alg_dim: int, module_dim: int, vec: Vector):
        if len(vec) != space_dim(alg_dim, module_dim, degree):
            raise ShapeError("cochain vector length must be module_dim * alg_dim**degree")
        vars(self).update(degree=degree, alg_dim=alg_dim, module_dim=module_dim, vec=vec, nz=_sparse(vec))

    @classmethod
    def _of(cls, degree: int, alg_dim: int, module_dim: int, nz: dict) -> "Cochain":
        """The cochain with nonzero coordinates `nz`, taken as is: in range,
        no zero stored."""
        f = object.__new__(cls)
        vars(f).update(degree=degree, alg_dim=alg_dim, module_dim=module_dim, nz=nz)
        return f

    @cached_property
    def vec(self) -> Vector:
        return _dense(self.nz, space_dim(self.alg_dim, self.module_dim, self.degree))

    def _key(self) -> tuple:
        return self.degree, self.alg_dim, self.module_dim, self.nz

    @classmethod
    def zero(cls, degree: int, alg_dim: int, module_dim: int) -> "Cochain":
        return cls._of(degree, alg_dim, module_dim, {})

    @classmethod
    def from_table(cls, degree: int, alg_dim: int, module_dim: int, table: dict) -> "Cochain":
        """A cochain from {basis tuple: value}; missing tuples map to zero."""
        index = {t: i for i, t in enumerate(all_tuples(alg_dim, degree))}
        if not index.keys() >= table.keys():
            raise ShapeError("cochain table has a key that is not a basis tuple")
        if any(len(v) != module_dim for v in table.values()):
            raise ShapeError(f"cochain table has a value whose length is not {module_dim}")
        nz = {index[t] * module_dim + k: c for t, v in table.items() for k, c in _sparse(v).items()}
        return cls._of(degree, alg_dim, module_dim, nz)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "Cochain":
        """A linear map as a degree-1 cochain (columns are basis values)."""
        return cls._of(1, m.cols, m.rows, {j * m.rows + i: x for i, row in enumerate(m.nz) for j, x in row.items()})

    @classmethod
    def from_bilinear_tensor(cls, tensor) -> "Cochain":
        dim, out_dim = len(tensor), len(tensor[0][0]) if tensor else 0
        return cls._of(2, dim, out_dim, _sparse([c for row in tensor for v in row for c in v]))

    def value(self, t: tuple) -> Vector:
        if len(t) != self.degree or not all(0 <= i < self.alg_dim for i in t):
            raise ShapeError(f"{tuple(t)} is not a basis tuple of degree {self.degree}")
        idx = 0
        for i in t:
            idx = idx * self.alg_dim + i
        m = self.module_dim
        return self.vec[idx * m : (idx + 1) * m]

    @property
    def values(self) -> dict:
        return {t: self.value(t) for t in all_tuples(self.alg_dim, self.degree)}

    def _plus(self, other: "Cochain", sign: int) -> "Cochain":
        if self._key()[:3] != other._key()[:3]:
            raise ShapeError("incompatible cochains")
        return Cochain._of(self.degree, self.alg_dim, self.module_dim, combine(((1, self.nz), (sign, other.nz))))

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._plus(other, 1)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._plus(other, -1)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c) -> "Cochain":
        return Cochain._of(self.degree, self.alg_dim, self.module_dim, combine(((_entry(c), self.nz),)))

    def is_zero(self) -> bool:
        return not self.nz

    def as_matrix(self) -> Matrix:
        if self.degree != 1:
            raise ShapeError("only degree-1 cochains are matrices")
        m, rows = self.module_dim, [{} for _ in range(self.module_dim)]
        for k, c in self.nz.items():
            rows[k % m][k // m] = _entry(c)
        return Matrix._of(tuple(rows), self.alg_dim)

    def as_tensor(self) -> tuple:
        """A degree-2 cochain as the nested tuple tensor[i][j] = value((i, j))."""
        if self.degree != 2:
            raise ShapeError("only degree-2 cochains are bilinear tensors")
        n = self.alg_dim
        return tuple(tuple(self.value((i, j)) for j in range(n)) for i in range(n))


def _apply(mat: Matrix, v: dict) -> dict:
    """mat times the sparse vector v, one sparse dot product per stored row."""
    return {i: x for i, row in enumerate(mat.nz) if (x := sum(a * v[j] for j, a in row.items() if j in v))}


# ---------------------------------------------------------------------------
# Matrix assembly: every row built once, as a {column: value} dict.


@lru_cache(maxsize=None)
def delta_matrix(alg: LeibnizAlgebra, rep: Representation, degree: int) -> Matrix:
    """Matrix of the Loday-Pirashvili coboundary at the given degree.

    delta_0 stacks -R_a over a.  Splitting off the first argument x = e_a,
    (delta_n f)(x, y) = (theta_x f)(y) - (delta_(n-1) f(x, ...))(y) with
    theta_x f = l(x, f(...)) - sum_j f(..., [x, y_j], ...).  So row (a, t, i)
    of delta_n is row i of L_a at block t, minus c^k_(a, t_p) at column t with
    t_p replaced by k for each slot p and each coordinate k of [e_a, e_(t_p)],
    minus row (t, i) of delta_(n-1) shifted to block a, summed in that order.
    Each row is summed by `_accumulate`, and the values need only +, unary -
    and truth, so delta is built over any ring.
    """
    if rep.algebra_dim != alg.dim:
        raise ShapeError("representation does not match the algebra")
    d, m, n = alg.dim, rep.module_dim, degree
    if n == 0:
        return Matrix._of(tuple(row for r in rep.right for row in (-r).nz), m)
    below = delta_matrix(alg, rep, n - 1)
    strides = [d ** (n - 1 - p) for p in range(n)]  # column step of slot p, in tuples
    rows = []
    for a in range(d):
        left, shift = rep.left[a].nz, a * below.cols
        ad = [alg.table.get((a, l), {}).items() for l in range(d)]
        acts = any(ad)  # else [e_a, -] = 0 and S_a = 0
        for s, t in enumerate(all_tuples(d, n)):
            insert: dict = {}  # row t of S_a: ad_a^T in each slot p, which moves t_p to k
            if acts:
                _accumulate(insert, ((s + (k - l) * stride, c) for l, stride in zip(t, strides) for k, c in ad[l]))
            for i, li in enumerate(left):
                row = {s * m + j: x for j, x in li.items()} if li else {}
                if insert:
                    _accumulate(row, ((u * m + i, -c) for u, c in insert.items()))
                lower = below.nz[s * m + i]  # minus this row, shifted to block a
                if row:
                    rows.append(_accumulate(row, ((shift + j, -x) for j, x in lower.items())))
                else:
                    rows.append({shift + j: -x for j, x in lower.items()})
    return Matrix._of(tuple(rows), below.cols * d)


def delta(alg: LeibnizAlgebra, rep: Representation, f: Cochain) -> Cochain:
    return Cochain._of(f.degree + 1, alg.dim, rep.module_dim, _apply(delta_matrix(alg, rep, f.degree), f.nz))


@lru_cache(maxsize=None)
def star_structures(
    alg: LeibnizAlgebra, n_op: Matrix, rep: Representation
) -> tuple[LeibnizAlgebra, Representation]:
    star_alg = induced_bracket(alg, n_op)
    star_rep = induced_representation(rep, alg, n_op)
    return star_alg, star_rep


def partial_matrix(alg: LeibnizAlgebra, n_op: Matrix, rep: Representation, degree: int) -> Matrix:
    star_alg, star_rep = star_structures(alg, n_op, rep)
    return delta_matrix(star_alg, star_rep, degree)


@lru_cache(maxsize=None)
def combined_partial_matrix(
    alg: LeibnizAlgebra, n_op: Matrix, rep: Representation, degree: int
) -> Matrix:
    """Operator-part differential used inside the combined complex.

    This is the plain operator differential minus the Leibniz differential of
    g composed with the module operator on the output side:

        g  |->  partial(g) - delta(N_V o g).

    The subtraction is what makes the combined differential square to zero
    and is exactly the condition cut out by split abelian extensions and by
    first-order deformations; the plain partial alone satisfies neither.

    As a matrix, partial' = partial - delta (I (x) N_V).  Row (t, q) of
    I (x) N_V is row q of N_V at block t, so each row of partial' is the row
    of partial with x N_V[q][c] subtracted at column (t, c) for each entry x
    of the row of delta at column (t, q), in one pass.
    """
    nv = rep.module_operator
    if nv is None:
        raise PreconditionError("combined complex needs a module operator")
    m = rep.module_dim
    # row q of N_V as (column offset from (t, q), negated value)
    post = [[(c - q, -v) for c, v in row.items()] for q, row in enumerate(nv.nz)]
    par = partial_matrix(alg, n_op, rep, degree)
    rows = [
        _accumulate(dict(row), ((k + dc, x * v) for k, x in lower.items() for dc, v in post[k % m]))
        for row, lower in zip(par.nz, delta_matrix(alg, rep, degree).nz)
    ]
    return Matrix._of(tuple(rows), par.cols)


def _slot_step(n_op: Matrix, below: Matrix, plus) -> Matrix:
    """N^T (x) below + I_d (x) P, P the matrix whose rows are `plus`: row s
    of P accumulated in place into row (a, s) of `kron(N^T, below)` at block a."""
    out, width, height = kron(n_op.transpose(), below), below.cols, below.rows
    for a in range(n_op.rows):
        shift = a * width
        for add, row in zip(plus, out.nz[a * height : (a + 1) * height]):
            _accumulate(row, ((shift + j, y) for j, y in add.items()))
    return out


def _module_mixed(module_op: Matrix, rows) -> list:
    """The rows of (I (x) N_V) A, A the matrix with rows `rows`: row (t, q)
    is the sum over q' of N_V[q][q'] times row (t, q') of A."""
    nv, out = module_op.nz, []
    for base in range(0, len(rows), len(nv) or 1):  # a 0-dim module has no rows
        out.extend(combine((c, rows[base + p]) for p, c in nv_row.items()) for nv_row in nv)
    return out


@lru_cache(maxsize=None)
def _printed_part(n_op: Matrix, module_op: Matrix, degree: int) -> tuple[Matrix, Matrix]:
    """(t_n, E_0^(n-1) (x) -N_V) at degree n >= 1: t_n = E_0 (x) I - E_1 (x)
    N_V is the sum of the k <= 1 terms of `full` phi_n, and E_0^(k) =
    (N^T)^(x)k.  The recursion of `full` truncated to k <= 1 gives
    t_n = N^T (x) t_(n-1) + I_d (x) (E_0^(n-1) (x) -N_V) from t_0 = I_m, and
    E_0^(n-1) (x) -N_V is N^T (x) the same factor one degree below."""
    if degree == 1:
        below, post = Matrix.identity(module_op.rows), -module_op
    else:
        below, post = _printed_part(n_op, module_op, degree - 1)
        post = kron(n_op.transpose(), post)
    return _slot_step(n_op, below, post.nz), post


@lru_cache(maxsize=None)
def phi_matrix(n_op: Matrix, module_op: Matrix, degree: int, variant: str = "full") -> Matrix:
    """Matrix of the comparison map at the given degree.

    `full` is sum_k C_k (x) N_V^k, C_k the x^k coefficient of (N^T - x I)^(x)n;
    degree 0 is the identity.  Splitting off the first slot gives
    phi_n = N^T (x) phi_(n-1) + I_d (x) ((I (x) -N_V) phi_(n-1)), and phi_n
    is built by it on the rows of `kron(N^T, phi_(n-1))` (`_slot_step`).  At
    degree n >= 1 `printed` keeps the k = 0, 1 terms, t_n (`_printed_part`),
    and adds I (x) N_V^2 row by row.  Every entry is a product and sum of
    entries of N and N_V, so it is an int when both are integral; no stored
    entry is zero.
    """
    if variant not in PHI_VARIANTS:
        raise ValueError(f"unknown phi variant {variant!r}")
    if degree == 0:
        return Matrix.identity(module_op.rows)
    if variant == "full":
        below = phi_matrix(n_op, module_op, degree - 1, "full")
        return _slot_step(n_op, below, _module_mixed(-module_op, below.nz))
    part = _printed_part(n_op, module_op, degree)[0]
    square, m, rows = (module_op * module_op).nz, module_op.rows, []
    for s, row in enumerate(part.nz):  # row (t, q) gains row q of N_V^2 at block t
        q = s % m
        rows.append(_accumulate(dict(row), ((s - q + j, x) for j, x in square[q].items())))
    return Matrix._of(tuple(rows), part.cols)


# ---------------------------------------------------------------------------
# Combined (Nijenhuis-Leibniz) complex.


@record
class NLACochain:
    """Element of the combined complex: (degree-n map, degree-(n-1) map)."""

    upper: Cochain
    lower: Cochain

    def __post_init__(self):
        if self.lower.degree != self.upper.degree - 1:
            raise ShapeError("lower component must have degree one less than upper")
        if (self.upper.alg_dim, self.upper.module_dim) != (
            self.lower.alg_dim,
            self.lower.module_dim,
        ):
            raise ShapeError("components live over different spaces")

    @property
    def degree(self) -> int:
        return self.upper.degree

    def __add__(self, other: "NLACochain") -> "NLACochain":
        return NLACochain(self.upper + other.upper, self.lower + other.lower)

    def __sub__(self, other: "NLACochain") -> "NLACochain":
        return NLACochain(self.upper - other.upper, self.lower - other.lower)

    def is_zero(self) -> bool:
        return self.upper.is_zero() and self.lower.is_zero()

    @property
    def vec(self) -> Vector:
        return self.upper.vec + self.lower.vec

    @property
    def nz(self) -> dict:
        """The nonzero coordinates of `vec`, lower's shifted past upper."""
        up = self.upper
        split = space_dim(up.alg_dim, up.module_dim, up.degree)
        return {**up.nz, **{split + k: c for k, c in self.lower.nz.items()}}


def _nla_split(nz: dict, length: int, degree: int, alg_dim: int, module_dim: int):
    """The degree-n element of the combined complex whose flat vector, of
    length `length`, has the nonzeros `nz`: a module element at degree 0,
    else the pair (upper, lower) split after the upper block."""
    if degree == 0:  # a module element
        return Cochain._of(0, alg_dim, length, nz)
    split = space_dim(alg_dim, module_dim, degree)
    upper = Cochain._of(degree, alg_dim, module_dim, {k: c for k, c in nz.items() if k < split})
    lower = Cochain._of(degree - 1, alg_dim, module_dim, {k - split: c for k, c in nz.items() if k >= split})
    return NLACochain(upper, lower)


def nla_matrix(
    alg: LeibnizAlgebra,
    n_op: Matrix,
    rep: Representation,
    degree: int,
    variant: str = "full",
) -> Matrix:
    """Matrix of d at the given degree, blocks ordered [upper; lower]:
    [[delta_n, 0], [-phi_n, -partial'_(n-1)]].

    The upper rows are delta_n's own (immutable) row dicts; each lower row
    negates a row of phi_n and the same row of partial' once.  Degree 0 is
    the literal specialization d(v) = (delta v, -phi_0 v); the source complex
    is only pinned down from degree 1 on, so the degree-0 block is
    diagnostic-only.
    """
    nv = rep.module_operator
    if nv is None:
        raise PreconditionError("combined complex needs a module operator")
    dlt = delta_matrix(alg, rep, degree)
    if degree == 0:
        return Matrix._of(dlt.nz + tuple({i: -1} for i in range(rep.module_dim)), dlt.cols)
    phi = phi_matrix(n_op, nv, degree, variant)
    par = combined_partial_matrix(alg, n_op, rep, degree - 1)
    lower = []
    for f, g in zip(phi.nz, par.nz):
        row = {j: -x for j, x in f.items()}
        row.update((phi.cols + j, -x) for j, x in g.items())
        lower.append(row)
    return Matrix._of(dlt.nz + tuple(lower), dlt.cols + par.cols)


def d_nla(
    alg: LeibnizAlgebra,
    n_op: Matrix,
    rep: Representation,
    element: Union[NLACochain, Cochain],
    variant: str = "full",
):
    degree = element.degree
    mat = nla_matrix(alg, n_op, rep, degree, variant)
    return _nla_split(_apply(mat, element.nz), mat.rows, degree + 1, alg.dim, rep.module_dim)


@record
class CoboundaryDifference:
    matches: bool
    residual: NLACochain  # difference - d(gamma, 0) under the chosen phi variant (zero iff matches)


def coboundary_difference(
    alg: LeibnizAlgebra,
    n_op: Matrix,
    rep: Representation,
    difference: NLACochain,
    gamma: Matrix,
    variant: str = "full",
) -> CoboundaryDifference:
    """Check that a difference of two degree-2 elements of the combined
    complex is exactly the coboundary of (gamma, 0), gamma: g -> V."""
    pair = NLACochain(Cochain.from_matrix(gamma), Cochain.zero(0, alg.dim, rep.module_dim))
    residual = difference - d_nla(alg, n_op, rep, pair, variant)
    return CoboundaryDifference(residual.is_zero(), residual)


# ---------------------------------------------------------------------------
# Assembled-complex reports.

COMPLEX_KINDS = ("la", "no", "nla")


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise PreconditionError(f"degree {degree} is negative")
    if degree > DEGREE_CAP:
        raise ResourceLimitError(f"degree {degree} exceeds cap {DEGREE_CAP}")


def coboundary_matrix(
    kind: str,
    alg: LeibnizAlgebra,
    rep: Representation,
    n_op: Optional[Matrix],
    degree: int,
    variant: str = "full",
) -> Matrix:
    if kind not in COMPLEX_KINDS:
        raise ValueError(f"unknown complex kind {kind!r}")
    _check_degree(degree)
    if kind == "la":
        return delta_matrix(alg, rep, degree)
    if n_op is None:
        raise PreconditionError(f"complex {kind!r} needs a Nijenhuis operator")
    if kind == "no":
        return partial_matrix(alg, n_op, rep, degree)
    return nla_matrix(alg, n_op, rep, degree, variant)


@record
class JunctionFailure:
    degree: int
    row: int
    col: int
    value: Fraction


@record
class DegreeEntry:
    degree: int
    dim_c: int
    dim_z: int
    dim_b: int
    dim_h: Optional[int]  # withheld (None) when the junction below fails


@record
class CohomologyReport:
    kind: str
    variant: str
    max_degree: int
    degrees: tuple[DegreeEntry, ...]
    junctions: tuple[bool, ...]  # junctions[n]: D_(n+1) o D_n == 0
    failures: tuple[JunctionFailure, ...]
    degree0_caveat: bool  # nla only: H^1 depends on the literal degree-0 map

    def entry(self, degree: int) -> DegreeEntry:
        return self.degrees[degree]


def _coboundary_matrices(
    kind: str,
    alg: LeibnizAlgebra,
    rep: Representation,
    n_op: Optional[Matrix],
    max_degree: int,
    variant: str,
) -> list[Matrix]:
    """The coboundary matrices D_0..D_max_degree of the complex."""
    _check_degree(max_degree)
    return [coboundary_matrix(kind, alg, rep, n_op, d, variant) for d in range(max_degree + 1)]


def _junction_witness(upper: Matrix, lower: Matrix, basis) -> Optional[tuple[int, int, Fraction]]:
    """None if upper * lower == 0, else the row-major first nonzero entry of
    the whole product as (row, col, value).

    The rows of `upper` indexed by `basis` must span its row space, so the
    product is zero iff those rows times `lower` are.  Only when row i of
    them is not are other rows multiplied: the rows before i, in order, up
    to the first whose product is not zero."""
    zero = set()
    for i in basis:
        found = row_times(upper.nz[i], lower.nz)
        if found:
            break
        zero.add(i)
    else:
        return None
    for k in range(i):
        if k not in zero:
            out = row_times(upper.nz[k], lower.nz)
            if out:
                i, found = k, out
                break
    j = min(found)
    return i, j, frac(found[j])


def _junctions(
    kind: str,
    alg: LeibnizAlgebra,
    rep: Representation,
    n_op: Optional[Matrix],
    max_degree: int,
    variant: str,
) -> tuple[bool, ...]:
    """Whether D_(n+1) o D_n == 0 at each junction n, every row of D_(n+1)
    multiplied.  It computes no rank, so the selfcheck verb reads its
    junctions here rather than through `cohomology_dims`."""
    mats = _coboundary_matrices(kind, alg, rep, n_op, max_degree, variant)
    return tuple(_junction_witness(up, low, range(up.rows)) is None for low, up in zip(mats, mats[1:]))


def _rank_complex(mats: list[Matrix], rank_fn) -> tuple[list[int], tuple[bool, ...], tuple[JunctionFailure, ...]]:
    """The ranks of the differentials D_0..D_N in `mats`, whether
    D_(n+1) o D_n == 0 at each junction n, and the first nonzero entry of
    each product that is not zero, ranked from D_N down as `cohomology_dims`
    describes.  `rank_fn(m, pivots)` must append (row, column) per pivot to
    the list `pivots`, as `rank` and `gauss_rank` do."""
    ranks = [0] * len(mats)
    junctions = [True] * (len(mats) - 1)
    failures = []
    above = None  # the pivots of D_(n+1), as rows of D_(n+1) and rows of D_n
    for n in range(len(mats) - 1, -1, -1):
        m, kept = mats[n], None
        if above is not None:
            witness = _junction_witness(mats[n + 1], m, [r for r, _ in above])
            if witness is None:  # compress: delete the rows Q of D_n
                cleared = {c for _, c in above}
                kept = [i for i in range(m.rows) if i not in cleared]
                m = Matrix._of(tuple(m.nz[i] for i in kept), m.cols)
            else:
                junctions[n] = False
                failures.append(JunctionFailure(n, *witness))
        above = []
        ranks[n] = rank_fn(m, above)
        if kept is not None:
            above = [(kept[r], c) for r, c in above]
    return ranks, tuple(junctions), tuple(reversed(failures))


def cohomology_dims(
    kind: str,
    alg: LeibnizAlgebra,
    rep: Representation,
    n_op: Optional[Matrix] = None,
    max_degree: int = 2,
    variant: str = "full",
    rank_fn=rank,
) -> CohomologyReport:
    """Per-degree cocycle/coboundary/cohomology dimensions with junction
    validity flags.  `rank_fn` exists so the plain-elimination oracle can be
    swapped in for cross-checks; it is called as `rank_fn(m, pivots)` and
    must append the (row, column) of each pivot to the list `pivots`.

    The differentials D_n: C^n -> C^(n+1) are ranked from D_max_degree down
    to D_0, and each elimination yields P, the original indices of its pivot
    rows, and Q, its pivot columns.  The rows P of D_(n+1) are a row basis of
    it, and D_(n+1)[P, Q] is nonsingular.
    - Junction n: every row of D_(n+1) is a combination of the rows P, so
      D_(n+1) D_n == 0 iff D_(n+1)[P] D_n == 0, and only |P| = rank rows are
      multiplied.  When it fails, the witness is still the row-major first
      nonzero entry of the whole product D_(n+1) D_n.
    - Compression: when junction n holds, im D_n lies in ker D_(n+1), and a
      vector of ker D_(n+1) supported on Q is zero, since the columns Q of
      D_(n+1) are independent.  So no nonzero vector of im D_n vanishes
      outside Q, and rank D_n is the rank of D_n with the rows Q deleted.
      That smaller matrix's pivot rows are rank D_n independent rows of D_n,
      so they are a row basis of D_n and the schedule goes on down.  When
      junction n fails, D_n is ranked whole.
    This is the "compress" half of Bauer, Kerber and Reininghaus, "Clear and
    compress: computing persistent homology in chunks" (TopoInVis 2013).
    """
    mats = _coboundary_matrices(kind, alg, rep, n_op, max_degree, variant)
    ranks, junctions, failures = _rank_complex(mats, rank_fn)
    entries = []
    for d in range(max_degree + 1):
        dim_c = mats[d].cols
        dim_z = dim_c - ranks[d]
        dim_b = ranks[d - 1] if d > 0 else 0
        ok_below = True if d == 0 else junctions[d - 1]
        entries.append(DegreeEntry(d, dim_c, dim_z, dim_b, dim_z - dim_b if ok_below else None))
    return CohomologyReport(
        kind=kind,
        variant=variant,
        max_degree=max_degree,
        degrees=tuple(entries),
        junctions=junctions,
        failures=failures,
        degree0_caveat=(kind == "nla"),
    )


@record
class MembershipResult:
    is_cocycle: bool
    is_coboundary: bool
    preimage: Optional[object]


def cocycle_membership(
    kind: str,
    alg: LeibnizAlgebra,
    rep: Representation,
    n_op: Optional[Matrix],
    element,
    variant: str = "full",
) -> MembershipResult:
    degree, nz = element.degree, element.nz
    out_mat = coboundary_matrix(kind, alg, rep, n_op, degree, variant)
    is_cocycle = not _apply(out_mat, nz)
    if degree == 0:
        # no coboundaries below degree 0
        return MembershipResult(is_cocycle, not nz, None)
    in_mat = coboundary_matrix(kind, alg, rep, n_op, degree - 1, variant)
    sol = solve_linear(in_mat, element.vec)
    if sol is None:
        return MembershipResult(is_cocycle, False, None)
    if kind == "nla":
        preimage = _nla_split(_sparse(sol), len(sol), degree - 1, alg.dim, rep.module_dim)
    else:
        preimage = Cochain(degree - 1, alg.dim, rep.module_dim, sol)
    return MembershipResult(is_cocycle, True, preimage)


def sample_cocycles(
    kind: str,
    alg: LeibnizAlgebra,
    rep: Representation,
    n_op: Optional[Matrix],
    degree: int,
    variant: str = "full",
) -> list:
    """Canonical kernel basis of the degree-n coboundary matrix, lifted back
    to cochains (or combined-complex pairs)."""
    mat = coboundary_matrix(kind, alg, rep, n_op, degree, variant)
    basis = _kernel_rows(mat)
    if kind == "nla":
        return [_nla_split(v, mat.cols, degree, alg.dim, rep.module_dim) for v in basis]
    return [Cochain._of(degree, alg.dim, rep.module_dim, v) for v in basis]


# ---------------------------------------------------------------------------
# Chain-map diagnostic.


@record
class ChainMapEntry:
    degree: int
    commutes: bool
    # on failure: the first basis cochain (tuple, coordinate) where the two
    # routes differ, and the exact residual cochain on that input
    witness_input: Optional[tuple[tuple[int, ...], int]] = None
    residual: Optional[Cochain] = None


def _chain_map_difference(
    alg: LeibnizAlgebra, n_op: Matrix, rep: Representation, degree: int, variant: str, corrected: bool
) -> Matrix:
    """lower_n phi_n - phi_(n+1) delta_n, lower the plain operator
    differential or, when corrected, the combined-complex one; zero iff phi
    is a chain map at this degree."""
    lower = combined_partial_matrix if corrected else partial_matrix
    lhs = lower(alg, n_op, rep, degree) * phi_matrix(n_op, rep.module_operator, degree, variant)
    return lhs - _phi_after_delta(alg, n_op, rep, degree, variant)


@lru_cache(maxsize=DEGREE_CAP + 1)
def _phi_after_delta(alg: LeibnizAlgebra, n_op: Matrix, rep: Representation, degree: int, variant: str) -> Matrix:
    """phi_(n+1) delta_n, the route that the plain and the corrected
    differences share.  `selfcheck` diagnoses one after the other, degrees
    0..DEGREE_CAP at most, so the second reuses every product of the first."""
    return phi_matrix(n_op, rep.module_operator, degree + 1, variant) * delta_matrix(alg, rep, degree)


def chain_map_residual(
    alg: LeibnizAlgebra,
    n_op: Matrix,
    rep: Representation,
    f: Cochain,
    variant: str = "full",
    corrected: bool = False,
) -> Cochain:
    """partial(phi f) - phi(delta f); identically zero iff phi is a chain map
    on this input.

    With corrected=True the combined-complex operator differential replaces
    the plain one; the full variant then commutes at every degree.
    """
    if rep.module_operator is None:
        raise PreconditionError("chain-map residual needs a module operator")
    diff = _chain_map_difference(alg, n_op, rep, f.degree, variant, corrected)
    return Cochain._of(f.degree + 1, alg.dim, rep.module_dim, _apply(diff, f.nz))


def chain_map_diagnostic(
    alg: LeibnizAlgebra,
    n_op: Matrix,
    rep: Representation,
    max_degree: int = 2,
    variant: str = "full",
    corrected: bool = False,
) -> tuple[ChainMapEntry, ...]:
    """Compare the matrices of phi o delta and partial o phi per degree."""
    if rep.module_operator is None:
        raise PreconditionError("chain-map diagnostic needs a module operator")
    _check_degree(max_degree)
    entries = []
    for n in range(max_degree + 1):
        diff = _chain_map_difference(alg, n_op, rep, n, variant, corrected)
        if diff.is_zero():
            entries.append(ChainMapEntry(n, True))
            continue
        m = rep.module_dim
        in_tuples = all_tuples(alg.dim, n)
        col = min(min(row) for row in diff.nz if row)
        witness = (in_tuples[col // m], col % m)
        residual = Cochain._of(n + 1, alg.dim, m, {i: row[col] for i, row in enumerate(diff.nz) if col in row})
        entries.append(ChainMapEntry(n, False, witness, residual))
    return tuple(entries)
