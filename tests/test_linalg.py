"""Exact linear algebra: rank/kernel/solve over the rationals.

Rank, kernel and solve share one sparse Gauss-Jordan elimination; plain dense
Gaussian elimination (`gauss_rank`) is kept purely as an independent oracle,
and the two are compared on random dense and sparse rational matrices.  The
elimination kernel is also compared, pivot row for pivot row, with its
scan-all form without a column index (`oracles.slow_eliminate`), on a matrix
and on the augmented matrix [A | b] that `solve_linear` eliminates, also on
one matrix stored as int, integral Fraction and Fraction entries.  On the la,
no and nla complexes of the catalog pairs, `solve_linear` must solve
b = D_n x and must refute b = a row of D_(n+1).  The pivots that `rank` and
`gauss_rank` report must be a row basis and a column basis.  The one sparse sum,
`combine`, is compared with the dense sum, and the search polynomials built
on it with evaluation at rational points.  The matrices stacked from stored
rows, `block_diag` and the [A | b] of `solve_linear`, are compared with the
block grid of `oracles.block_matrix`, 0-row and 0-column blocks included.
`parse_rational` and its int fast path are compared with the parser that
reads every string through `Fraction(text)`, `oracles.slow_parse_rational`.
"""

import copy
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nijleib.algebra import adjoint_representation, catalog_nijenhuis_pairs
from nijleib.cochain import coboundary_matrix, delta_matrix, nla_matrix
from nijleib.errors import BundleError, ShapeError
from nijleib.linalg import (
    Matrix,
    _dense,
    _eliminate,
    _kernel_rows,
    _rational_entry,
    block_diag,
    combine,
    format_rational,
    frac,
    gauss_rank,
    kernel_basis,
    kron,
    mat_mul,
    parse_rational,
    rank,
    row_times,
    solve_linear,
)
from nijleib.operators import _Poly
from oracles import assert_same_matrix, block_matrix, dense_kernel_basis, slow_eliminate, slow_parse_rational

rationals = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)


def random_matrix(draw_rows, draw_cols):
    return st.builds(
        Matrix,
        st.lists(
            st.lists(rationals, min_size=draw_cols, max_size=draw_cols),
            min_size=draw_rows,
            max_size=draw_rows,
        ),
    )


def test_identity_rank():
    assert rank(Matrix.identity(4)) == 4


def test_zero_rank():
    assert rank(Matrix.zero(3, 5)) == 0


def test_singular_example():
    m = Matrix([[frac(1), frac(2)], [frac(2), frac(4)]])
    assert rank(m) == 1
    assert gauss_rank(m) == 1


def test_rational_entries_exact():
    m = Matrix([[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 3), Fraction(1, 3)]])
    assert rank(m) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_rank_agrees_with_gauss_oracle(n, data):
    m = data.draw(random_matrix(n, n + 1))
    assert rank(m) == gauss_rank(m)


sparse_entries = st.tuples(st.integers(min_value=0, max_value=3), rationals).map(
    lambda t: t[1] if t[0] == 0 else Fraction(0)
)


@st.composite
def sparse_systems(draw):
    """A mostly-zero matrix up to 6x9 with repeated and all-zero rows, and a
    right-hand side that is consistent by construction or drawn freely."""
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_cols = draw(st.integers(min_value=1, max_value=9))
    rows: list[list[Fraction]] = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat"]))
        if kind == "zero":
            rows.append([Fraction(0)] * n_cols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(sparse_entries, min_size=n_cols, max_size=n_cols)))
    m = Matrix(rows)
    if draw(st.booleans()):
        rhs = m.apply(tuple(draw(sparse_entries) for _ in range(n_cols)))
    else:
        rhs = tuple(draw(sparse_entries) for _ in range(n_rows))
    return m, rhs


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_elimination_agrees_with_gauss_oracle_on_sparse_systems(system):
    m, rhs = system
    assert rank(m) == gauss_rank(m)

    # free columns are those whose column prefix does not gain rank
    prefix_ranks = [gauss_rank(Matrix([row[:c] for row in m.data])) for c in range(m.cols + 1)]
    free = [c for c in range(m.cols) if prefix_ranks[c + 1] == prefix_ranks[c]]
    basis = kernel_basis(m)
    assert len(basis) == len(free)
    for own, v in zip(free, basis):
        assert [v[c] for c in free] == [1 if c == own else 0 for c in free]
        assert all(x == 0 for x in m.apply(v))

    sol = solve_linear(m, rhs)
    augmented = Matrix([list(row) + [b] for row, b in zip(m.data, rhs)])
    if gauss_rank(augmented) > gauss_rank(m):
        assert sol is None
    else:
        assert sol is not None
        assert m.apply(sol) == rhs
        assert all(sol[c] == 0 for c in free)


def check_pivots(m):
    """Both rank functions report rank-many pivots (row of origin, column),
    the columns ascending and the rows distinct, and m[rows, columns] is
    nonsingular.  The forward-only `rank` reports the pivots of the reduced
    elimination."""
    for rank_fn in (rank, gauss_rank):
        pivots = []
        r = rank_fn(m, pivots)
        assert r == rank_fn(m) == len(pivots)
        rows, cols = [i for i, _ in pivots], [j for _, j in pivots]
        assert len(set(rows)) == r and cols == sorted(set(cols))
        square = Matrix.sparse([{k: m.nz[i][j] for k, j in enumerate(cols) if j in m.nz[i]} for i in rows], r)
        assert gauss_rank(square) == r
    origins = []
    _eliminate(m, origins)
    pivots = []
    rank(m, pivots)
    assert pivots == origins


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_rank_pivots_are_row_and_column_bases(system):
    check_pivots(system[0])


def test_rank_pivots_are_row_and_column_bases_on_catalog_complexes():
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        for kind in ("la", "no", "nla"):
            for d in range(3):
                check_pivots(coboundary_matrix(kind, alg, rep, op, d))


def augmented(m, rhs):
    """[m | rhs], with the entries of both stored as they are."""
    return Matrix._of(tuple({**row, m.cols: b} if b else dict(row) for row, b in zip(m.nz, rhs)), m.cols + 1)


def same_elimination(got, want):
    """Equal pivot rows, down to key order."""
    assert [(c, list(row.items())) for c, row in got.items()] == [(c, list(row.items())) for c, row in want.items()]


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_eliminate_matches_scan_all_oracle_on_sparse_systems(system):
    m, rhs = system
    same_elimination(_eliminate(m), slow_eliminate(m))
    same_elimination(_eliminate(augmented(m, rhs)), slow_eliminate(augmented(m, rhs)))


def test_eliminate_matches_scan_all_oracle_on_catalog_complexes():
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        for degree in range(4):
            for m in (delta_matrix(alg, rep, degree), nla_matrix(alg, op, rep, degree)):
                same_elimination(_eliminate(m), slow_eliminate(m))


def test_solve_linear_on_catalog_complexes():
    """On D_n of the la, no and nla complexes, degrees 0-2: b = D_n x is
    solved, and a nonzero row y of D_(n+1) as b is not, since D_(n+1) D_n = 0
    puts y orthogonal to the image of D_n while y.y > 0."""
    refuted = 0
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        for kind in ("la", "no", "nla"):
            for degree in range(3):
                d = coboundary_matrix(kind, alg, rep, op, degree)
                x = tuple(Fraction(j % 5 - 2, 1 + j % 3) for j in range(d.cols))
                b = d.apply(x)
                same_elimination(_eliminate(augmented(d, b)), slow_eliminate(augmented(d, b)))
                sol = solve_linear(d, b)
                assert sol is not None and d.apply(sol) == b, (name, kind, degree)

                nxt = coboundary_matrix(kind, alg, rep, op, degree + 1)
                y = next((row for row in nxt.data if any(row)), None)
                if y is None or not (nxt * d).is_zero():
                    continue
                assert sum(e * e for e in y) > 0
                same_elimination(_eliminate(augmented(d, y)), slow_eliminate(augmented(d, y)))
                assert solve_linear(d, y) is None, (name, kind, degree)
                refuted += 1
    assert refuted == 45  # every (pair, kind, degree) but the 9 with D_(n+1) = 0


mixed_entries = st.one_of(
    st.just(0),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4).map(Fraction),  # integral, stored as a Fraction
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def mixed_systems(draw):
    """A mostly sparse matrix up to 5x7, with a right-hand side, whose entries
    mix int, integral Fraction and non-integral Fraction values."""
    n_rows = draw(st.integers(min_value=1, max_value=5))
    n_cols = draw(st.integers(min_value=1, max_value=7))
    rows = [draw(st.lists(st.one_of(st.just(0), st.just(0), mixed_entries), min_size=n_cols, max_size=n_cols))]
    for _ in range(n_rows - 1):
        if draw(st.booleans()):  # a row dependent on the earlier ones
            c = draw(mixed_entries)
            rows.append([c * e for e in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(st.one_of(st.just(0), mixed_entries), min_size=n_cols, max_size=n_cols)))
    rhs = tuple(draw(mixed_entries) for _ in range(n_rows))
    return rows, rhs


def exact_values(values):
    """Every value is an int or a Fraction: no float anywhere."""
    return all(type(v) in (int, Fraction) for v in values)


@settings(max_examples=300, deadline=None)
@given(mixed_systems())
def test_mixed_storage_agrees_with_oracles_and_returns_fractions(system):
    """The same matrix stored three ways (the constructor's int-or-Fraction
    form, the drawn mix as is, and Fractions only) is one matrix to ==, hash,
    rank, kernel_basis and solve_linear; all of them agree with
    `slow_eliminate` and `gauss_rank` and return Fractions only."""
    rows, rhs = system
    cols = len(rows[0])
    built = Matrix(rows)
    assert all(type(v) is int if v.denominator == 1 else type(v) is Fraction for row in built.nz for v in row.values())
    stored = [
        built,
        Matrix._of(tuple({j: e for j, e in enumerate(row) if e} for row in rows), cols),
        Matrix._of(tuple({j: Fraction(e) for j, e in enumerate(row) if e} for row in rows), cols),
    ]
    assert all(m == built and hash(m) == hash(built) for m in stored)
    kernels, solutions = [], []
    for m in stored:
        assert all(type(v) is Fraction for row in m.data for v in row)
        assert rank(m) == gauss_rank(m) == len(slow_eliminate(m))
        for a in (m, augmented(m, rhs)):
            got, want = _eliminate(a), slow_eliminate(a)
            same_elimination(got, want)
            assert exact_values(v for pivots in (got, want) for row in pivots.values() for v in row.values())

        basis = kernel_basis(m)
        assert len(basis) == cols - rank(m)
        assert all(type(x) is Fraction for v in basis for x in v)
        assert all(m.apply(v) == (0,) * m.rows for v in basis)
        kernels.append(basis)

        sol = solve_linear(m, rhs)
        slow_pivots = slow_eliminate(augmented(m, rhs))
        if cols in slow_pivots:
            assert sol is None
        else:
            assert all(type(x) is Fraction for x in sol)
            assert sol == tuple(slow_pivots[c].get(cols, 0) if c in slow_pivots else 0 for c in range(cols))
            assert m.apply(sol) == rhs
        solutions.append(sol)
    assert kernels[0] == kernels[1] == kernels[2]
    assert solutions[0] == solutions[1] == solutions[2]


def stored_as_drawn(system):
    """The matrix of a drawn system with its int/Fraction mix stored as is."""
    rows = system[0]
    return Matrix._of(tuple({j: e for j, e in enumerate(row) if e} for row in rows), len(rows[0]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_systems().map(lambda system: system[0]), mixed_systems().map(stored_as_drawn)))
def test_kernel_rows_are_the_dense_kernel_basis(m):
    """`_kernel_rows` holds the canonical kernel basis sparse, and
    `kernel_basis`, its dense view, gives the vectors, order and values that
    the dense body it replaced gives (`oracles.dense_kernel_basis`), on the
    matrices of the elimination property tests."""
    rows = _kernel_rows(m)
    assert kernel_basis(m) == dense_kernel_basis(m) == [_dense(v, m.cols) for v in rows]
    assert all(all(v.values()) and all(0 <= j < m.cols for j in v) for v in rows)
    assert all(type(x) is Fraction for v in kernel_basis(m) for x in v)
    columns = m.transpose().nz
    assert not any(combine((x, columns[j]) for j, x in v.items()) for v in rows)  # m v = 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_rank_nullity(rows, cols, data):
    m = data.draw(random_matrix(rows, cols))
    assert rank(m) + len(kernel_basis(m)) == cols


def test_kernel_vectors_annihilated():
    m = Matrix([[frac(1), frac(2), frac(3)], [frac(2), frac(4), frac(6)]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in m.apply(v))


def test_kernel_basis_canonical_form():
    # free columns get a literal 1 in their own slot, in ascending column order
    m = Matrix([[frac(1), frac(2), frac(3)]])
    basis = kernel_basis(m)
    assert basis[0][1] == 1 and basis[0][2] == 0
    assert basis[1][2] == 1 and basis[1][1] == 0


def test_solve_exact():
    m = Matrix([[frac(2), frac(0)], [frac(0), frac(3)]])
    sol = solve_linear(m, (frac(1), frac(1)))
    assert sol == (Fraction(1, 2), Fraction(1, 3))


def test_solve_inconsistent_returns_none():
    m = Matrix([[frac(1), frac(1)], [frac(1), frac(1)]])
    assert solve_linear(m, (frac(0), frac(1))) is None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_roundtrip(data):
    m = data.draw(random_matrix(3, 3))
    x = tuple(data.draw(rationals) for _ in range(3))
    sol = solve_linear(m, m.apply(x))
    assert sol is not None
    assert m.apply(sol) == m.apply(x)


def stored(rows, cols):
    """The matrix of these dense rows with each nonzero stored as drawn."""
    return Matrix._of(tuple({j: e for j, e in enumerate(row) if e} for row in rows), cols)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.booleans(), st.data())
def test_solve_linear_agrees_with_the_block_grid_system(rows, cols, consistent, data):
    """On any A up to 4x4, 0-row and 0-column A included, and a right-hand
    side of zero, int, integral Fraction and non-integral Fraction entries
    (drawn freely, or A x): the answer is the one read off the scan-all
    elimination of the oracle grid [[A, b]], and a solution solves."""
    m = stored([[data.draw(mixed_entries) for _ in range(cols)] for _ in range(rows)], cols)
    if consistent:
        rhs = m.apply(tuple(frac(data.draw(mixed_entries)) for _ in range(cols)))
    else:
        rhs = tuple(data.draw(mixed_entries) for _ in range(rows))
    pivots = slow_eliminate(block_matrix([[m, Matrix.sparse([{0: b} for b in rhs], 1)]]))
    sol = solve_linear(m, rhs)
    if cols in pivots:
        assert sol is None and not consistent
    else:
        assert sol == tuple(pivots[c].get(cols, 0) if c in pivots else 0 for c in range(cols))
        assert all(type(x) is Fraction for x in sol) and m.apply(sol) == rhs


def test_solve_mixed_right_hand_sides_and_zero_rows():
    m = Matrix([[2, 1], [0, 0], [1, 0]])
    assert solve_linear(m, (Fraction(3, 2), 0, 4)) == (4, Fraction(-13, 2))
    assert solve_linear(m, (Fraction(3, 2), Fraction(0), Fraction(4))) == (4, Fraction(-13, 2))
    assert solve_linear(m, (Fraction(3, 2), Fraction(1, 3), 4)) is None
    assert solve_linear(Matrix.zero(0, 3), ()) == (0, 0, 0)
    assert solve_linear(Matrix.zero(2, 0), (0, Fraction(0))) == ()
    assert solve_linear(Matrix.zero(2, 0), (0, Fraction(1, 2))) is None


def test_mat_mul_shapes():
    a = Matrix.zero(2, 3)
    b = Matrix.zero(4, 2)
    with pytest.raises(ShapeError):
        mat_mul(a, b)


def test_kron_block_structure():
    a = Matrix([[frac(1), frac(2)], [frac(0), frac(1)]])
    b = Matrix.identity(2)
    k = kron(a, b)
    assert k.rows == 4 and k.cols == 4
    assert k.entry(0, 0) == 1 and k.entry(0, 2) == 2
    assert k.entry(1, 3) == 2 and k.entry(1, 1) == 1


def test_block_matrix_assembly():
    m = block_matrix([[Matrix.identity(2), Matrix.zero(2, 1)], [Matrix.zero(1, 2), Matrix.identity(1)]])
    assert m == Matrix.identity(3)
    assert block_diag([Matrix.identity(1), Matrix.identity(2)]) == Matrix.identity(3)


@st.composite
def stored_blocks(draw):
    """A block of up to 3x3, 0xk and kx0 included, whose entries are stored
    as drawn: int, integral Fraction or non-integral Fraction."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return stored([[draw(mixed_entries) for _ in range(cols)] for _ in range(rows)], cols)


@settings(max_examples=200, deadline=None)
@given(st.lists(stored_blocks(), max_size=4))
@example([])
@example([Matrix.zero(0, 2), stored([[Fraction(1, 2)]], 1), Matrix.zero(2, 0), stored([[Fraction(3)]], 1)])
def test_block_diag_is_the_block_grid(blocks):
    """`block_diag` shifts each block's stored rows past the columns before
    it: the oracle grid with zero blocks off the diagonal, down to entry
    types and the column order of each row."""
    grid = [[b if i == j else Matrix.zero(b.rows, c.cols) for j, c in enumerate(blocks)] for i, b in enumerate(blocks)]
    assert_same_matrix(block_diag(blocks), block_matrix(grid))


@pytest.mark.parametrize(
    "text,value",
    [("0", Fraction(0)), ("-3", Fraction(-3)), ("1/2", Fraction(1, 2)), ("-7/3", Fraction(-7, 3))],
)
def test_parse_rational_canonical(text, value):
    assert parse_rational(text) == value
    assert format_rational(value) == text


@pytest.mark.parametrize("bad", ["2/4", "1/1", "-0", "0/3", "1.5", "+2", " 1", "a"])
def test_parse_rational_rejects_noncanonical(bad):
    with pytest.raises(BundleError):
        parse_rational(bad)


def _parsed(parse, value):
    """("ok", value) or (exception type, message) of one parse."""
    try:
        return "ok", parse(value)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.fractions().map(format_rational),
        # at most 6 characters, so the oracle's Fraction(text) stays cheap
        st.text(alphabet="0123456789-+/_.eE \u0663", max_size=6),
        st.none() | st.booleans() | st.integers() | st.floats() | st.lists(st.integers(), max_size=2),
    )
)
@example("01")
@example("+1")
@example("-0")
@example("0/5")
@example("2/4")
@example("1/1")
@example("1/0")
@example("1/-2")
@example(" 1")
@example("1_0")
@example("\u0663")
@example("1" * 5000)
@example("0." + "0" * 4299 + "1")
@example("")
@example("/")
@example("-1/2/3")
@example("1e4300")
@example("1e99999")
@example("1E2")
@example("1")
@example("1.5")
@example(True)
@example(None)
@example([])
def test_parse_rational_agrees_with_the_fraction_parser(value):
    """The int fast path accepts exactly the canonical strings that
    `Fraction(text)` with a format round trip accepts, with the same value,
    and every other input fails with that parser's message, except a text
    with an exponent mark, which fails before `Fraction(text)` computes the
    power, and a text whose value is too long to format back, on which the
    oracle's format step raises the interpreter's int-digit `ValueError`.
    The storage form that the bundle parsers take is an int exactly when
    integral."""
    if isinstance(value, str) and ("e" in value or "E" in value):
        message = f"bad rational {value!r}: a canonical rational has no exponent 'e' or 'E'"
        for parse in (parse_rational, _rational_entry):
            assert _parsed(parse, value) == ("BundleError", message)
        return
    got, want = _parsed(parse_rational, value), _parsed(slow_parse_rational, value)
    if want[0] == "ValueError":
        assert got == ("BundleError", f"bad rational {value!r}: {want[1]}")
        assert _parsed(_rational_entry, value) == got
        return
    assert got == want
    if got[0] == "ok":
        assert type(got[1]) is Fraction
        stored = _rational_entry(value)
        assert stored == got[1] and type(stored) is (int if got[1].denominator == 1 else Fraction)
    else:
        assert _parsed(_rational_entry, value) == want


small_ints = st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=-3, max_value=3)).map(
    lambda t: t[1] if t[0] == 0 else 0
)


@st.composite
def int_rows(draw, rows, cols):
    return [[draw(small_ints) for _ in range(cols)] for _ in range(rows)]


def sparse_of(rows, cols):
    """The matrix of dense integer rows, built through `Matrix.sparse` with
    every zero passed explicitly."""
    return Matrix.sparse([dict(enumerate(row)) for row in rows], cols)


def assert_dense(m, rows, cols, expected):
    assert (m.rows, m.cols) == (rows, cols)
    assert [list(row) for row in m.data] == expected
    assert all(v != 0 for row in m.nz for v in row.values())


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4), st.data())
def test_sparse_operations_agree_with_dense_loops(shape, data):
    p, q, r, s = shape
    a_rows, c_rows = data.draw(int_rows(p, q)), data.draw(int_rows(p, q))
    b_rows, e_rows, f_rows = data.draw(int_rows(q, r)), data.draw(int_rows(s, q)), data.draw(int_rows(s, r))
    a, b, c = sparse_of(a_rows, q), sparse_of(b_rows, r), sparse_of(c_rows, q)
    e, f, g = sparse_of(e_rows, q), sparse_of(f_rows, r), sparse_of(data.draw(int_rows(p, r)), r)
    x = tuple(Fraction(v) for v in data.draw(int_rows(1, q))[0])
    k = data.draw(st.integers(min_value=-2, max_value=2))
    A, B, C, E, F, G = (m.data for m in (a, b, c, e, f, g))

    for m in (a, b, c, e, f, g):
        assert all(v != 0 for row in m.nz for v in row.values())
    if p:
        assert a == Matrix(a_rows) and hash(a) == hash(Matrix(a_rows))
    assert sparse_of([[0] * q for _ in range(p)], q) == Matrix.zero(p, q)
    assert hash(sparse_of([[0] * q for _ in range(p)], q)) == hash(Matrix.zero(p, q))

    prod = [[sum((A[i][t] * B[t][j] for t in range(q)), Fraction(0)) for j in range(r)] for i in range(p)]
    assert_dense(mat_mul(a, b), p, r, prod)
    assert_dense(
        kron(a, b), p * q, q * r, [[A[i // q][j // r] * B[i % q][j % r] for j in range(q * r)] for i in range(p * q)]
    )
    assert_dense(
        block_matrix([[a, g], [e, f]]),
        p + s,
        q + r,
        [list(A[i]) + list(G[i]) for i in range(p)] + [list(E[i]) + list(F[i]) for i in range(s)],
    )
    assert_dense(a + c, p, q, [[A[i][j] + C[i][j] for j in range(q)] for i in range(p)])
    assert_dense(a - c, p, q, [[A[i][j] - C[i][j] for j in range(q)] for i in range(p)])
    assert_dense(-a, p, q, [[-A[i][j] for j in range(q)] for i in range(p)])
    assert_dense(a.scale(k), p, q, [[k * A[i][j] for j in range(q)] for i in range(p)])
    assert_dense(a.transpose(), q, p, [[A[i][j] for i in range(p)] for j in range(q)])
    assert a.apply(x) == tuple(sum((A[i][j] * x[j] for j in range(q)), Fraction(0)) for i in range(p))
    for j in range(q):
        assert a.column(j) == tuple(A[i][j] for i in range(p))
        for i in range(p):
            assert a.entry(i, j) == A[i][j]
    assert a.is_zero() == all(v == 0 for row in A for v in row)


def test_zero_row_matrix_keeps_its_columns():
    m = Matrix.zero(0, 3)
    assert m.cols == 3
    assert kernel_basis(m) == [tuple(Fraction(int(i == j)) for i in range(3)) for j in range(3)]


def test_out_of_range_columns_are_rejected():
    with pytest.raises(ShapeError):
        Matrix.sparse([{3: frac(1)}], 3)
    m = Matrix.identity(3)
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            m.column(bad)
        with pytest.raises(IndexError):
            m.entry(0, bad)


def test_matrix_hashable():
    a = Matrix.identity(2)
    b = Matrix.identity(2)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # a polynomial entry is frozen like a record's dicts, so a generic
    # matrix can key the caches of phi and partial'
    x = Matrix._of(({0: _Poly({(0,): 1})}, {1: _Poly({(0, 1): 2, (): -1})}), 2)
    y = Matrix._of(({0: _Poly({(0,): 1})}, {1: _Poly({(): -1, (0, 1): 2})}), 2)
    assert x == y and hash(x) == hash(y)


coefficients = st.sampled_from((0, 1, -1, 2, Fraction(-1, 2)))
sparse_int_vectors = st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool), max_size=4)


@st.composite
def combine_terms(draw):
    """Random (coefficient, sparse vector) terms, after a head whose sum
    cancels to empty and is followed by a unit term: (c, v), (-c, v), (1, w)."""
    c = draw(coefficients.filter(bool))
    v, w = draw(sparse_int_vectors), draw(sparse_int_vectors)
    tail = draw(st.lists(st.tuples(coefficients, sparse_int_vectors), max_size=6))
    return tail if draw(st.booleans()) else [(c, v), (-c, v), (1, w)] + tail


@settings(max_examples=300, deadline=None)
@given(combine_terms())
def test_combine_is_the_dense_sum_and_shares_nothing(terms):
    before = copy.deepcopy(terms)
    got = combine(terms)
    dense = {k: sum((c * v.get(k, 0) for c, v in terms), Fraction(0)) for _, v in terms for k in v}
    assert got == {k: x for k, x in dense.items() if x}
    assert all(got.values())
    assert terms == before
    for k in list(got):
        got[k] += 7
    got[99] = 1
    assert terms == before


def test_row_times_is_the_row_vector_product():
    a = Matrix([[1, 0, -2], [0, Fraction(1, 2), 3]])
    v = {0: Fraction(2), 1: Fraction(-1)}
    assert row_times(v, a.nz) == {0: 2, 1: Fraction(-1, 2), 2: -7}
    assert row_times({0: Fraction(1), 1: Fraction(4)}, Matrix([[1, 2], [Fraction(-1, 4), Fraction(-1, 2)]]).nz) == {}


monomials = st.lists(st.integers(0, 3), max_size=2).map(lambda vs: tuple(sorted(vs)))
polys = st.dictionaries(monomials, rationals.filter(bool), max_size=5).map(_Poly)


def evaluate(poly, point):
    return sum((c * prod(point[v] for v in mono) for mono, c in poly.items()), Fraction(0))


def assert_poly_form(poly):
    assert isinstance(poly, _Poly)
    assert all(c for c in poly.values()) and all(list(m) == sorted(m) for m in poly)


@settings(max_examples=150, deadline=None)
@given(polys, polys, rationals, st.lists(rationals, min_size=4, max_size=4))
def test_poly_arithmetic_agrees_with_evaluation(p, q, r, point):
    """Sums, negation and products of `_Poly`, with each other and with a
    rational on either side, evaluate to the same rational as the operands."""
    before = (dict(p), dict(q))
    at_p, at_q = evaluate(p, point), evaluate(q, point)
    for got, want in (
        (p + q, at_p + at_q),
        (p + r, at_p + r),
        (r + p, r + at_p),
        (int(r) + p, int(r) + at_p),
        (-p, -at_p),
        (p * q, at_p * at_q),
        (p * r, at_p * r),
        (r * p, r * at_p),
    ):
        assert_poly_form(got)
        assert evaluate(got, point) == want
    assert (dict(p), dict(q)) == before
