"""Slow reference implementations and small helpers shared by the test
modules.

The library stores every bracket as its sparse table of structure constants
and evaluates it there, and `LeibnizAlgebra.bracket` delegates to that kernel
too, so the oracles below work on dense tensors with their own loops instead:
`bilinear_eval`, `evaluate_cochain`, and the dense constructions `slow_direct_sum`
and `slow_extension_structure`.  `slow_eliminate` is the elimination kernel
without its column index; like it, it returns the pivot rows of the reduced
echelon form and nothing else.  `slow_leibniz` evaluates the Leibniz kernel
on one triple of sparse vectors, and `slow_check_representation` checks the
representation axioms by matrix products, pair by pair.  `slow_defect` and
`slow_star` evaluate the defect and star-bracket kernels on one pair of
sparse vectors, and `slow_induced_actions` gives the induced actions by
matrix products.

The cochain matrices have two oracles each.  `kron_delta_matrix`,
`kron_phi_matrix` and `kron_nla_matrix` (with `kron_partial_matrix` and
`kron_combined_partial_matrix`) are the Kronecker-product assembly that
`nijleib.cochain` builds row by row, stacked by the general block-grid
assembler `block_matrix`.  `assert_same_matrix` compares delta and partial
with theirs entry by entry, types and column order included.  phi, partial'
and the nla matrix are built by recursions of their own, so
`assert_same_values` holds them to the oracle's values only, with no stored
zero and int entries on integral input (`is_integral`).  `block_matrix` is
also the oracle of the stacked
matrices that the package builds from stored rows: `linalg.block_diag` and
the operator [[N, 0], [chi, N_V]] of `extensions.build_extension`.
`slow_phi` is the comparison map as its defining 2^n-term sum.
`identity_cochain` is the identity map as a degree-1 cochain.

`slow_parse_rational` reads every rational string through `Fraction(text)`
and a format round trip, with no int fast path.

The package keeps vectors sparse; the dense vector helpers `zero_vector`,
`unit_vector`, `vec_add`, `vec_sub`, `vec_scale`, `is_zero_vector` and
`bilinear_tensor_is_zero` serve the dense oracles here.  `dense_kernel_basis`
fills the canonical kernel basis into dense vectors slot by slot, the way
`linalg.kernel_basis` did before it became the view of `_kernel_rows`.
`from_structure` builds an algebra from dense structure constants
(`bilinear_tensor`), the way the tests write small algebras out.
`transport` moves an algebra, its operator and its adjoint representation
to another basis by dense products (`dense_product`, `dense_inverse`).

`argparse_parser` is the command line as argparse declared it, verb by
verb, before `cli` read it from its own table; `argparse_parse` and
`argparse_main` parse and run a command line through it, with the same
handlers, as `cli.main` did.

`slow_cohomology_dims` (on `slow_complex`) ranks every coboundary matrix
whole and decides every junction by the whole product and its
`first_nonzero` entry, as `cohomology_dims` did before it ranked top down
on pivot rows and compressed matrices.
"""

import argparse
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from typing import Sequence

from hypothesis import strategies as st

from nijleib.algebra import Counterexample, LeibnizAlgebra, Representation
from nijleib.algebra import _bracket, _table
from nijleib.cli import (
    EXIT_INVALID,
    _cmd_cohomology,
    _cmd_deform_check,
    _cmd_deform_cocycle,
    _cmd_deform_twist,
    _cmd_extend_build,
    _cmd_extend_compare,
    _cmd_extend_extract,
    _cmd_induce_bracket,
    _cmd_induce_rep,
    _cmd_search,
    _cmd_selfcheck,
    _cmd_verify,
)
from nijleib.cochain import (
    COMPLEX_KINDS,
    PHI_VARIANTS,
    Cochain,
    CohomologyReport,
    DegreeEntry,
    JunctionFailure,
    coboundary_matrix,
    star_structures,
)
from nijleib.errors import BundleError, NijleibError, ShapeError
from nijleib.linalg import (
    Matrix,
    _eliminate,
    combine,
    format_rational,
    frac,
    kron,
    mat_mul,
    rank,
    row_times,
)
from nijleib.operators import OPERATOR_KINDS, WEIGHT_CONVENTIONS


def zero_vector(n: int):
    return (Fraction(0),) * n


def unit_vector(n: int, i: int):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(a, b):
    if len(a) != len(b):
        raise ShapeError(f"vector lengths {len(a)} != {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    if len(a) != len(b):
        raise ShapeError(f"vector lengths {len(a)} != {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    c = frac(c)
    return tuple(c * x for x in a)


def is_zero_vector(a) -> bool:
    return all(x == 0 for x in a)


def bilinear_tensor_is_zero(tensor) -> bool:
    return all(is_zero_vector(v) for row in tensor for v in row)


def dense_kernel_basis(m: Matrix):
    """The canonical kernel basis filled into dense vectors slot by slot, off
    the reduced pivot rows of `linalg._eliminate`: the body `kernel_basis`
    had before it became the view of the sparse `_kernel_rows`."""
    pivots = _eliminate(m)
    vectors = {}
    for free in range(m.cols):
        if free not in pivots:
            vectors[free] = [Fraction(0)] * m.cols
            vectors[free][free] = Fraction(1)
    for p, row in pivots.items():
        for free, e in row.items():
            if free != p:
                vectors[free][p] = frac(-e)
    return [tuple(v) for v in vectors.values()]


def bilinear_tensor(entries):
    """A nested list of structure constants as a tuple tensor of Fractions."""
    return tuple(tuple(tuple(frac(c) for c in vec) for vec in row) for row in entries)


def from_structure(structure, basis=None) -> LeibnizAlgebra:
    """The algebra with the dense structure constants structure[a][b][k],
    [e_a, e_b] = sum_k structure[a][b][k] e_k, on `basis` (e1, e2, ... by
    default)."""
    tensor = bilinear_tensor(structure)
    dim = len(tensor)
    if any(len(row) != dim or any(len(v) != dim for v in row) for row in tensor):
        raise ShapeError("structure tensor is not dim x dim x dim")
    if basis is None:
        basis = tuple(f"e{i + 1}" for i in range(dim))
    return LeibnizAlgebra(dim, tuple(basis), _table(tensor))


def unit(alg, i):
    """The basis vector e_i of `alg` as a dense coordinate tuple."""
    return unit_vector(alg.dim, i)


def diag(entries):
    """The diagonal matrix with these entries."""
    return Matrix.sparse([{i: e} for i, e in enumerate(entries)], len(entries))


def bilinear_eval(tensor, x, y):
    """sum over i, j of x_i y_j tensor[i][j], on dense coordinate tuples."""
    dim = len(tensor)
    assert len(x) == dim and len(y) == dim
    out_dim = len(tensor[0][0]) if dim else 0
    acc = list(zero_vector(out_dim))
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            coeff = xi * yj
            for k, c in enumerate(tensor[i][j]):
                if c:
                    acc[k] += coeff * c
    return tuple(acc)


def evaluate_cochain(f, *vectors):
    """A cochain on dense vectors: the sum over basis tuples t of
    f(e_t) times the product of the coordinates vectors[slot][t[slot]]."""
    assert len(vectors) == f.degree
    acc = list(zero_vector(f.module_dim))
    for t, v in f.values.items():
        coeff = Fraction(1)
        for slot, idx in enumerate(t):
            coeff *= vectors[slot][idx]
            if not coeff:
                break
        if not coeff:
            continue
        for k, c in enumerate(v):
            if c:
                acc[k] += coeff * c
    return tuple(acc)


def dense_product(a, b):
    """The product of two dense matrices given as lists of rows."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def dense_inverse(q):
    """The inverse of a square dense matrix by Gauss-Jordan elimination on
    [q | I], or None if q is singular."""
    n = len(q)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(q)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def transport(alg, n_op, q):
    """(alg, N) and the adjoint representation with N_V = N, moved to the
    basis f_a = sum_i q[i][a] e_i of an invertible dense q, entry by entry:
    c'^c_ab = sum_ijk q_ia q_jb c^k_ij (q^-1)_ck, N' = q^-1 N q, and the
    actions l'(f_a) = sum_i q_ia q^-1 L_i q, r'(f_a) the same with R_i, for
    L_i and R_i the matrices of left and right multiplication by e_i.
    Returns (alg', N', rep')."""
    d, c, inv = alg.dim, alg.structure, dense_inverse(q)
    basis = range(d)
    moved = [[[sum((q[i][a] * q[j][b] * c[i][j][k] * inv[t][k] for i in basis for j in basis for k in basis),
                   Fraction(0)) for t in basis] for b in basis] for a in basis]
    n_moved = dense_product(dense_product(inv, [list(row) for row in n_op.data]), q)

    def actions(left):
        mult = [[[c[i][j][k] if left else c[j][i][k] for j in basis] for k in basis] for i in basis]
        conj = [dense_product(dense_product(inv, m), q) for m in mult]
        return tuple(Matrix([[sum((q[i][a] * conj[i][r][s] for i in basis), Fraction(0)) for s in basis]
                             for r in basis]) for a in basis)

    rep = Representation(actions(True), actions(False), Matrix(n_moved), module_dim=d)
    return from_structure(moved, alg.basis), Matrix(n_moved), rep


def slow_direct_sum(a, b):
    """The dense structure tensor of the direct sum, block by block."""
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
    return tuple(structure)


def slow_extension_structure(alg, rep, psi):
    """The dense structure tensor of the total algebra on g (+) V:
    [(x,u),(y,v)] = ([x,y], psi(x,y) + l(x,v) + r(u,y)), block by block."""
    n, m = alg.dim, rep.module_dim
    psi = psi.as_tensor()
    structure = []
    for i in range(n + m):
        row = []
        for j in range(n + m):
            if i < n and j < n:
                v = alg.structure[i][j] + psi[i][j]
            elif i < n <= j:
                v = zero_vector(n) + rep.left[i].column(j - n)
            elif j < n <= i:
                v = zero_vector(n) + rep.right[j].column(i - n)
            else:
                v = zero_vector(n + m)
            row.append(v)
        structure.append(tuple(row))
    return tuple(structure)


def slow_leibniz(pairs, x: dict, y: dict, z: dict) -> dict:
    """Sum over the table pairs (a, b) of a(x, b(y, z)) - a(b(x, y), z) - a(y, b(x, z))
    on one triple of sparse vectors: the oracle of `algebra._leibniz_table`."""
    return combine(
        term
        for a, b in pairs
        for term in (
            (1, _bracket(a, x, _bracket(b, y, z))),
            (-1, _bracket(a, _bracket(b, x, y), z)),
            (-1, _bracket(a, y, _bracket(b, x, z))),
        )
    )


def slow_defect(p, triples, x: dict, y: dict) -> dict:
    """Sum over the triples (t, a, b) of t(Ax, By) - A(t(Bx, y) + t(x, By)) +
    (alpha + beta A + gamma AB)t(x, y), p = (alpha, beta, gamma), on one pair
    of sparse vectors, A and B given by their columns: the oracle of
    `algebra._defect_table`."""
    alpha, beta, gamma = p
    terms = []
    for t, a, b in triples:
        txy = _bracket(t, x, y)
        terms += (
            (1, _bracket(t, row_times(x, a), row_times(y, b))),
            (-1, row_times(_bracket(t, row_times(x, b), y), a)),
            (-1, row_times(_bracket(t, x, row_times(y, b)), a)),
            (alpha, txy),
            (beta, row_times(txy, a)),
            (gamma, row_times(row_times(txy, b), a)),
        )
    return combine(terms)


def slow_star(table, cols, x: dict, nx: dict, y: dict, ny: dict) -> dict:
    """The star bracket [x, y]_N = [Nx, y] + [x, Ny] - N[x, y] on sparse x and y,
    given Nx and Ny; `table` is the bracket and `cols` are the columns of N:
    the oracle of `algebra._star_table`."""
    return combine(
        ((1, _bracket(table, x, ny)), (1, _bracket(table, nx, y)), (-1, row_times(_bracket(table, x, y), cols)))
    )


def act(mats, x):
    """The combination sum_i x_i mats[i] of action matrices, row by row."""
    m = mats[0].rows
    return Matrix.sparse([combine((xi, mat.nz[r]) for xi, mat in zip(x, mats)) for r in range(m)], m)


def slow_induced_actions(rep, n_op, i):
    """(L'_i, R'_i) by matrix products: L'_i = l_{Ne_i} - N_V L_i + L_i N_V and
    R'_i = r_{Ne_i} - N_V R_i + R_i N_V, the oracle of
    `operators.induced_representation`."""
    nv, col = rep.module_operator, n_op.column(i)
    return tuple(act(mats, col) - nv * mats[i] + mats[i] * nv for mats in (rep.left, rep.right))


def slow_check_representation(alg, rep, n_op=None):
    """Oracle of `algebra.check_representation`: the three plain axioms as
    matrix products on each pair (i, j) in turn, then the two Nijenhuis
    axioms by `slow_nijenhuis_axioms` when both operators are given."""
    L, R = rep.left, rep.right
    for i, j in product(range(alg.dim), repeat=2):
        c = alg.bracket_basis(i, j)
        l_bracket = act(L, c)
        r_bracket = act(R, c)
        res1 = L[i] * L[j] - l_bracket - L[j] * L[i]
        if not res1.is_zero():
            return Counterexample("rep-left-left", (i, j), res1)
        res2 = L[i] * R[j] - R[j] * L[i] - r_bracket
        if not res2.is_zero():
            return Counterexample("rep-left-right", (i, j), res2)
        res3 = r_bracket - R[j] * R[i] - L[i] * R[j]
        if not res3.is_zero():
            return Counterexample("rep-right-bracket", (i, j), res3)
    if n_op is None or rep.module_operator is None:
        return None
    return slow_nijenhuis_axioms(rep, n_op)


def slow_nijenhuis_axioms(rep, n):
    """The two Nijenhuis-representation axioms expanded term by term: the
    first failing index and its residual, left before right."""
    nv = rep.module_operator
    nv2 = nv * nv
    for i in range(n.cols):
        l_n, r_n = act(rep.left, n.column(i)), act(rep.right, n.column(i))
        res4 = l_n * nv - nv * l_n - nv * rep.left[i] * nv + nv2 * rep.left[i]
        if not res4.is_zero():
            return Counterexample("rep-nijenhuis-left", (i,), res4)
        res5 = r_n * nv - nv * rep.right[i] * nv - nv * r_n + nv2 * rep.right[i]
        if not res5.is_zero():
            return Counterexample("rep-nijenhuis-right", (i,), res5)
    return None


@st.composite
def any_brackets(draw, dim=None):
    """Structure constants of dimension `dim`, or of a drawn dim 0-4, mostly
    zero or dense rationals; they need not satisfy the Leibniz identity."""
    if dim is None:
        dim = draw(st.integers(0, 4))
    entry = draw(
        st.sampled_from((st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2)), st.fractions(-3, 3, max_denominator=4)))
    )
    return from_structure(
        [[[draw(entry) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    )


def slow_parse_rational(text) -> Fraction:
    """`linalg.parse_rational` with every input parsed by `Fraction(text)`:
    a string is canonical exactly when the value formats back to it."""
    if not isinstance(text, str):
        raise BundleError(f"rational must be a string, got {text!r}")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BundleError(f"bad rational {text!r}: {exc}") from None
    if format_rational(q) != text:
        raise BundleError(f"non-canonical rational {text!r}; expected {format_rational(q)!r}")
    return q


def slow_eliminate(m):
    """`linalg._eliminate` without the column index: every pivot search scans
    all free rows, and every update step scans all free and pivot rows.  Same
    pivot rule, so it returns the same pivot rows with the same key order."""
    rows = [dict(row) for row in m.nz]
    pivots: dict[int, dict[int, Fraction]] = {}
    for c in range(m.cols):
        best = None
        for k, row in enumerate(rows):
            if c in row and (best is None or len(row) < len(rows[best])):
                best = k
        if best is None:
            continue
        prow = rows.pop(best)
        inv = Fraction(1) / prow[c]  # exact on int and Fraction pivots alike
        prow = {j: e * inv for j, e in prow.items()}
        for other in (*rows, *pivots.values()):
            f = other.get(c)
            if f is None:
                continue
            for j, e in prow.items():
                v = other.get(j, 0) - f * e
                if v:
                    other[j] = v
                else:
                    del other[j]
        pivots[c] = prow
    return pivots


def first_nonzero(m):
    """The row-major first nonzero entry of m as (row, col, value), or None."""
    for i, row in enumerate(m.nz):
        if row:
            j = min(row)
            return i, j, frac(row[j])
    return None


def slow_complex(mats, rank_fn=rank):
    """The ranks, junction flags and junction failures of the complex D_0..D_N
    in `mats`, the way `cochain.cohomology_dims` found them before it ranked
    top down: `rank_fn` on every whole matrix, and each junction D_(n+1) D_n
    decided by the whole product and its `first_nonzero` entry."""
    ranks = [rank_fn(m) for m in mats]
    junctions, failures = [], []
    for d in range(len(mats) - 1):
        witness = first_nonzero(mats[d + 1] * mats[d])
        junctions.append(witness is None)
        if witness is not None:
            failures.append(JunctionFailure(d, *witness))
    return ranks, tuple(junctions), tuple(failures)


def slow_cohomology_dims(kind, alg, rep, n_op=None, max_degree=2, variant="full", rank_fn=rank):
    """`cochain.cohomology_dims` on `slow_complex`."""
    mats = [coboundary_matrix(kind, alg, rep, n_op, d, variant) for d in range(max_degree + 1)]
    ranks, junctions, failures = slow_complex(mats, rank_fn)
    entries = []
    for d in range(max_degree + 1):
        dim_c = mats[d].cols
        dim_z = dim_c - ranks[d]
        dim_b = ranks[d - 1] if d > 0 else 0
        ok_below = True if d == 0 else junctions[d - 1]
        entries.append(DegreeEntry(d, dim_c, dim_z, dim_b, dim_z - dim_b if ok_below else None))
    return CohomologyReport(kind, variant, max_degree, tuple(entries), junctions, failures, kind == "nla")


def identity_cochain(dim):
    """The identity map of a dim-dimensional space as a degree-1 cochain."""
    return Cochain.from_matrix(Matrix.identity(dim))


def block_matrix(blocks: Sequence[Sequence[Matrix]]) -> Matrix:
    """Assemble a matrix from a grid of compatible blocks."""
    widths = {sum(b.cols for b in block_row) for block_row in blocks}
    if len(widths) > 1:
        raise ShapeError("inconsistent block widths")
    rows = []
    for block_row in blocks:
        height = block_row[0].rows
        if any(b.rows != height for b in block_row):
            raise ShapeError("inconsistent block heights")
        if len(block_row) == 1:  # matrices are immutable: share the row dicts
            rows.extend(block_row[0].nz)
            continue
        for i in range(height):
            row: dict = {}
            base = 0
            for b in block_row:
                row.update((base + j, e) for j, e in b.nz[i].items())
                base += b.cols
            rows.append(row)
    return Matrix._of(tuple(rows), widths.pop() if widths else 0)


# ---------------------------------------------------------------------------
# Kronecker oracles of the cochain matrices: each matrix as a chain of whole
# `kron`, `Matrix` sum and `block_matrix` results, the way `nijleib.cochain`
# assembled them before it built each row once.  `assert_same_matrix` holds
# delta and partial to their entries, entry types (int where the arithmetic
# stays on ints, else Fraction) and column order within each row;
# `assert_same_values` holds phi, partial' and the nla matrix to their values.


@lru_cache(maxsize=None)
def kron_delta_matrix(alg, rep, degree):
    """delta_n = stack_a(I (x) L_a - S_a (x) I_m) - I_d (x) delta_(n-1), S_a
    the sum over the n slots of ad_a^T in that slot, built as
    S_a^(k) = S_a^(k-1) (x) I_d + I (x) ad_a^T; delta_0 stacks -R_a."""
    d, m, n = alg.dim, rep.module_dim, degree
    if n == 0:
        return Matrix.sparse([row for r in rep.right for row in (-r).nz], m)
    ident_d, ident_m, blocks = Matrix.identity(d), Matrix.identity(m), []
    for a in range(d):
        ad_t = alg.left_multiplier(a).transpose()
        insert = ad_t
        for k in range(2, n + 1):
            insert = kron(insert, ident_d) + kron(Matrix.identity(d ** (k - 1)), ad_t)
        blocks.append(kron(Matrix.identity(d**n), rep.left[a]) - kron(insert, ident_m))
    return block_matrix([[b] for b in blocks]) - kron(ident_d, kron_delta_matrix(alg, rep, n - 1))


def kron_phi_matrix(n_op, module_op, degree, variant="full"):
    """phi_n = sum_k E_k (x) (-N_V)^k as pairwise `Matrix` sums from a zero
    matrix, E_k the x^k coefficient of (N^T + x I)^(x)n built slot by slot;
    `printed` keeps E_0 and E_1 and adds I (x) N_V^2."""
    nt, ident = n_op.transpose(), Matrix.identity(n_op.rows)
    coeffs = [Matrix.identity(1)]
    for _ in range(degree):
        upper, lower = [kron(nt, c) for c in coeffs], [kron(ident, c) for c in coeffs]
        coeffs = upper[:1] + [u + v for u, v in zip(upper[1:], lower)] + lower[-1:]
    if variant == "printed" and degree > 0:
        coeffs = coeffs[:2] + [Matrix.identity(coeffs[0].rows)]
    powers = [Matrix.identity(module_op.rows)]
    for _ in coeffs[1:]:
        powers.append(powers[-1] * -module_op)
    size = module_op.rows * n_op.rows**degree
    return sum((kron(c, p) for c, p in zip(coeffs, powers)), Matrix.zero(size, size))


def slow_phi(n_op, module_op, degree, variant):
    """The comparison map as its defining sum of Kronecker products: N^T in
    some slots, the identity in the rest, tensored with a power of N_V.
    `full` sums all 2^n slot subsets with inclusion-exclusion signs;
    `printed` keeps the all-N^T term, the single-slot terms and a trailing
    N_V^2 term."""
    dim, m = n_op.rows, module_op.rows
    if degree == 0:
        return Matrix.identity(m)
    nt = n_op.transpose()
    ident = Matrix.identity(dim)
    powers = [Matrix.identity(m)]
    for _ in range(max(degree, 2)):
        powers.append(powers[-1] * module_op)
    if variant == "printed":
        terms = [(1, [nt] * degree, powers[0])]
        for j in range(degree):
            slots = [nt] * degree
            slots[j] = ident
            terms.append((-1, slots, powers[1]))
        terms.append((1, [ident] * degree, powers[2]))
    else:
        terms = []
        for mask in range(1 << degree):
            slots = [nt if (mask >> a) & 1 else ident for a in range(degree)]
            missing = degree - bin(mask).count("1")
            terms.append(((-1) ** missing, slots, powers[missing]))
    total = Matrix.zero(m * dim**degree, m * dim**degree)
    for sign, slots, post in terms:
        total = total + reduce(kron, slots + [post]).scale(sign)
    return total


def kron_partial_matrix(alg, n_op, rep, degree):
    """The operator differential: `kron_delta_matrix` of the star algebra
    with the induced representation."""
    return kron_delta_matrix(*star_structures(alg, n_op, rep), degree)


def kron_combined_partial_matrix(alg, n_op, rep, degree):
    """partial' = partial - delta (I (x) N_V) on the Kronecker oracles."""
    post = kron(Matrix.identity(alg.dim**degree), rep.module_operator)
    return kron_partial_matrix(alg, n_op, rep, degree) - mat_mul(kron_delta_matrix(alg, rep, degree), post)


def kron_nla_matrix(alg, n_op, rep, degree, variant="full"):
    """The combined differential as the block matrix [[delta, 0], [-phi, -partial']]
    of the Kronecker oracles; degree 0 stacks delta_0 over -I."""
    dlt = kron_delta_matrix(alg, rep, degree)
    if degree == 0:
        return block_matrix([[dlt], [-Matrix.identity(rep.module_dim)]])
    phi = kron_phi_matrix(n_op, rep.module_operator, degree, variant)
    par = kron_combined_partial_matrix(alg, n_op, rep, degree - 1)
    return block_matrix([[dlt, Matrix.zero(dlt.rows, par.cols)], [-phi, -par]])


def assert_same_matrix(got, want):
    """`got` equals `want` entry for entry, each entry of the same type (int
    or Fraction) and each row in the same column order, and stores no zero.
    The order is checked because a product sums a row's terms in that order,
    and with Fraction entries the order can decide an entry's type."""
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.nz == want.nz
    for i, (row, ref) in enumerate(zip(got.nz, want.nz)):
        assert all(row.values()), f"row {i} stores a zero"
        assert [(j, type(x)) for j, x in row.items()] == [(j, type(x)) for j, x in ref.items()], f"row {i}"


def is_integral(*matrices, alg=None) -> bool:
    """Whether every stored entry of the matrices, and every structure
    constant of `alg` when given, is an int."""
    values = [x for m in matrices for row in m.nz for x in row.values()]
    if alg is not None:
        values += [c for v in alg.table.values() for c in v.values()]
    return all(type(x) is int for x in values)


def assert_same_values(got, want, integral):
    """`got` equals `want` as a matrix and stores no zero, and when the inputs
    are `integral` every entry is an int.  The column order within a row and
    the type of an integral entry on rational input are not compared: the
    recursions of phi and partial' sum a row's terms in another order than
    the Kronecker form, and no report reads either."""
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got == want
    for i, row in enumerate(got.nz):
        assert all(row.values()), f"row {i} stores a zero"
        if integral:
            assert all(type(x) is int for x in row.values()), f"row {i} holds a non-int entry"


# The command line as argparse declared it, the oracle of `cli.build_parser`:
# the same verbs, actions, operands, options and handlers.


def _add_kind_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="nijenhuis", choices=OPERATOR_KINDS)
    p.add_argument("--weight", default=None, help="rational weight for weighted kinds")
    # None when not given, so that a convention passed to another kind is an error
    p.add_argument("--convention", default=None, choices=WEIGHT_CONVENTIONS)


def _add_action(actions, name: str, fn, help: str, *operands: str) -> argparse.ArgumentParser:
    """The parser of one action: its positional operands and its handler; the
    caller adds its options.  An option it does not declare exits 2."""
    p = actions.add_parser(name, help=help)
    for operand in operands:
        p.add_argument(operand)
    p.set_defaults(fn=fn)
    return p


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line like any other invalid input: one
    `error:` line and exit 2, instead of a usage block.  -h/--help writes the
    usage to stderr and then exits the same way, since it prints no report.
    Subparsers, and their own subparsers, inherit it."""

    def error(self, message):
        raise BundleError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        super().print_help(sys.stderr)

    def exit(self, status=0, message=None):  # reached only through -h/--help
        raise BundleError(f"{self.prog}: usage printed, no report")


def _add_verify(sub) -> None:
    p = _add_action(sub, "verify", _cmd_verify, "verify algebra/operator/representation identities", "bundle")
    _add_kind_options(p)
    p.add_argument("--no-verify", action="store_true", help="skip ingest verification")


def _add_induce(sub) -> None:
    induce = sub.add_parser("induce", help="induced star bracket or representation")
    actions = induce.add_subparsers(dest="action", required=True)
    _add_action(actions, "bracket", _cmd_induce_bracket, "the star bracket, as a bundle", "bundle")
    _add_action(actions, "rep", _cmd_induce_rep, "the induced representation", "bundle")


def _add_cohomology(sub) -> None:
    p = _add_action(sub, "cohomology", _cmd_cohomology, "cohomology dimensions of a complex", "bundle")
    p.add_argument("--complex", default="la", choices=COMPLEX_KINDS)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--phi", default="full", choices=PHI_VARIANTS)


def _add_search(sub) -> None:
    p = _add_action(sub, "search", _cmd_search, "exhaustive operator grid classification", "bundle")
    _add_kind_options(p)
    p.add_argument("--range", required=True, help="entry numerator range, e.g. -2..2")
    p.add_argument("--den", type=int, default=1)


def _add_selfcheck(sub) -> None:
    p = _add_action(sub, "selfcheck", _cmd_selfcheck, "chain-map and d*d junction diagnostics", "bundle")
    p.add_argument("--phi", default="full", choices=PHI_VARIANTS)
    p.add_argument("--max-degree", type=int, default=2)


def _add_deform(sub) -> None:
    deform = sub.add_parser("deform", help="truncated formal deformation checks")
    actions = deform.add_subparsers(dest="action", required=True)
    _add_action(actions, "check", _cmd_deform_check, "the deformation equations", "bundle", "deformation")
    p = _add_action(actions, "twist", _cmd_deform_twist, "the deformation twisted by a formal isomorphism",
                    "bundle", "deformation")
    p.add_argument("--iso", required=True, help="JSON file with the formal isomorphism")
    p = _add_action(actions, "cocycle", _cmd_deform_cocycle, "is the infinitesimal a cocycle",
                    "bundle", "deformation")
    p.add_argument("--phi", default="full", choices=PHI_VARIANTS)


def _add_extend(sub) -> None:
    extend = sub.add_parser("extend", help="abelian extension build/extract/compare")
    actions = extend.add_subparsers(dest="action", required=True)
    _add_action(actions, "build", _cmd_extend_build, "build and check the extension", "bundle", "extension")
    _add_action(actions, "extract", _cmd_extend_extract, "the cocycle pair of a section", "bundle", "extension")
    p = _add_action(actions, "compare", _cmd_extend_compare, "are two extensions related by a corner",
                    "bundle", "extension", "other")
    p.add_argument("--corner", required=True, help="JSON file with the corner block")


# Each verb's parser, in the order the root parser lists them.
_VERBS = {
    "verify": _add_verify,
    "induce": _add_induce,
    "cohomology": _add_cohomology,
    "search": _add_search,
    "selfcheck": _add_selfcheck,
    "deform": _add_deform,
    "extend": _add_extend,
}


def _root_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """A root parser with no verb yet, and the action its verbs are added to."""
    parser = _Parser(
        prog="nijleib",
        description="Exact verification engine for Nijenhuis operators on Leibniz algebras",
    )
    return parser, parser.add_subparsers(dest="command", required=True)


@lru_cache(maxsize=None)
def argparse_parser() -> argparse.ArgumentParser:
    """The root parser with the parsers of every verb."""
    parser, sub = _root_parser()
    for add in _VERBS.values():
        add(sub)
    return parser


def argparse_parse(argv):
    """`argv` parsed as `cli.main` parsed it with argparse: an exact --range or
    --weight glued to the next token, which may then start with a minus sign."""
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--range", "--weight") and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return argparse_parser().parse_args(merged)


def argparse_main(argv) -> int:
    """`cli.main` on the argparse parser: the same handlers and exit codes."""
    try:
        args = argparse_parse(argv)
        return args.fn(args)
    except (NijleibError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
