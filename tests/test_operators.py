"""Operator identities: Nijenhuis defect, the Rota-Baxter family, the N^2
correspondence, the induced star bracket, and exhaustive grid classification.

The 39-operator classification on the two-dimensional catalog algebra is the
main frozen golden; it is re-derived here by an independent closed-form
filter (c = 0 and (a = d or a - d = b)) over the same grid.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nijleib.algebra import (
    Counterexample,
    LeibnizAlgebra,
    catalog_get,
    catalog_nijenhuis_pairs,
    check_leibniz,
    check_representation,
    adjoint_representation,
    direct_sum,
    trivial_representation,
)
from nijleib import operators
from nijleib.algebra import _defect_table, _dense_pairs, _star_table
from nijleib.errors import PreconditionError, ResourceLimitError
from nijleib.linalg import Matrix, block_diag, frac
from nijleib.operators import (
    OPERATOR_KINDS,
    WEIGHT_CONVENTIONS,
    OperatorKind,
    check_operator,
    correspondence_suite,
    defect_polynomial,
    induced_bracket,
    induced_representation,
    is_nijenhuis,
    iter_grid_matrices,
    modified_rota_baxter,
    nijenhuis,
    operator_defect,
    rota_baxter,
    rota_baxter_weighted,
    search_operators_grid,
)
from nijleib.operators import _p_coefficients
from oracles import from_structure, vec_add, vec_sub
from oracles import any_brackets, bilinear_eval, diag, slow_defect, slow_induced_actions, slow_star, unit


def classification_filter(op: Matrix) -> bool:
    """Closed-form description of Nijenhuis matrices [[a,b],[c,d]] on the
    loday2 bracket, used as an oracle independent of the defect evaluation."""
    a, b = op.entry(0, 0), op.entry(0, 1)
    c, d = op.entry(1, 0), op.entry(1, 1)
    return c == 0 and (a == d or a - d == b)


def _slow_defect_value(alg, n, kind, x, y):
    def bracket(u, v):
        return bilinear_eval(alg.structure, u, v)

    nx, ny = n.apply(x), n.apply(y)
    lhs = bracket(nx, ny)
    inner_rb = tuple(a + b for a, b in zip(bracket(x, ny), bracket(nx, y)))
    if kind.tag == "nijenhuis":
        inner = vec_sub(inner_rb, n.apply(bracket(x, y)))
        return vec_sub(lhs, n.apply(inner))
    if kind.tag == "rota_baxter":
        return vec_sub(lhs, n.apply(inner_rb))
    if kind.tag == "rota_baxter_weighted":
        if kind.convention == "as_printed":
            extra = n.apply(bracket(x, y))
        else:
            extra = bracket(x, y)
        inner = tuple(a + kind.weight * b for a, b in zip(inner_rb, extra))
        return vec_sub(lhs, n.apply(inner))
    if kind.tag == "modified_rota_baxter":
        rhs = tuple(a + kind.weight * b for a, b in zip(n.apply(inner_rb), bracket(x, y)))
        return vec_sub(lhs, rhs)
    raise ValueError(kind.tag)


def slow_operator_defect(alg, n, kind):
    """Oracle of `operator_defect`: each identity evaluated on dense vectors
    with the dense `bilinear_eval` and `Matrix.apply`."""
    return tuple(
        tuple(_slow_defect_value(alg, n, kind, unit(alg, i), unit(alg, j)) for j in range(alg.dim))
        for i in range(alg.dim)
    )


def slow_check_operator(alg, n, kind):
    defect = slow_operator_defect(alg, n, kind)
    for i, j in product(range(alg.dim), repeat=2):
        if any(defect[i][j]):
            return Counterexample(kind.describe(), (i, j), defect[i][j])
    return None


def test_grid_classification_golden(loday2):
    # compared as lists: the order of the search is the order of the CLI report
    found = search_operators_grid(loday2, nijenhuis(), -2, 2, 1)
    assert len(found) == 39
    assert found == [op for op in iter_grid_matrices(2, -2, 2) if classification_filter(op)]


def test_grid_counts_on_three_dimensional_sum():
    # brute-force counts over the 3^9 candidates of dsum(loday2,abelian1)
    alg = catalog_get("dsum(loday2,abelian1)")
    assert len(search_operators_grid(alg, nijenhuis(), -1, 1)) == 447
    assert len(search_operators_grid(alg, rota_baxter(), -1, 1)) == 171


def test_grid_search_on_zero_dimensional_algebra():
    # the one 0x0 matrix is the whole grid, and it passes every identity
    alg = LeibnizAlgebra.abelian(0)
    for kind in (nijenhuis(), modified_rota_baxter(3)):
        assert search_operators_grid(alg, kind, 0, 1) == [Matrix([])]


def test_unknown_operator_kind_rejected():
    # a misspelt tag would otherwise pass every check on a 0-dim algebra
    for tag in ("nijenhuis_typo", "Nijenhuis", ""):
        with pytest.raises(ValueError, match=f"unknown operator kind {tag!r}"):
            OperatorKind(tag)
    kinds = [nijenhuis(), rota_baxter(), rota_baxter_weighted(1), modified_rota_baxter(1)]
    assert tuple(kind.tag for kind in kinds) == OPERATOR_KINDS


KINDS = st.one_of(
    st.just(nijenhuis()),
    st.just(rota_baxter()),
    st.builds(rota_baxter_weighted, st.fractions(-2, 2, max_denominator=3), st.sampled_from(WEIGHT_CONVENTIONS)),
    st.builds(modified_rota_baxter, st.fractions(-2, 2, max_denominator=3)),
)


@st.composite
def sparse_brackets(draw):
    """Dim 1-3 structure constants that are mostly zero, so that some
    operators pass; they need not satisfy the Leibniz identity."""
    dim = draw(st.sampled_from((1, 2, 3)))
    entry = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2))
    return from_structure(
        [[[draw(entry) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    )


@settings(max_examples=60, deadline=None)
@given(sparse_brackets(), KINDS, st.data())
def test_defect_polynomial_reproduces_defect(alg, kind, data):
    """The premise of the compiled search: every defect component is a
    polynomial of degree <= 2 in the entries, in the documented form (sorted
    monomials, no zero coefficient), and it reproduces the dense oracle's
    defect at any rational N."""
    polys = defect_polynomial(alg, kind)
    for poly in polys:
        assert all(len(mono) <= 2 and list(mono) == sorted(mono) for mono in poly), poly
        assert all(type(c) is Fraction and c for c in poly.values()), poly
    entry = st.fractions(-5, 5, max_denominator=7)
    n = Matrix([[data.draw(entry) for _ in range(alg.dim)] for _ in range(alg.dim)])
    values = [n.entry(a // alg.dim, a % alg.dim) for a in range(alg.dim**2)]
    got = [sum(c * prod(values[a] for a in mono) for mono, c in poly.items()) for poly in polys]
    assert got == [v for row in slow_operator_defect(alg, n, kind) for vec in row for v in vec]


@settings(max_examples=80, deadline=None)
@given(sparse_brackets(), KINDS, st.integers(-2, 0), st.integers(1, 3), st.data())
def test_grid_search_matches_brute_force(alg, kind, lo, denominator, data):
    """The pruned search returns exactly the candidates of the brute-force
    grid that the dense oracle accepts, in grid order."""
    width = data.draw(st.integers(1, {1: 5, 2: 3, 3: 2}[alg.dim]))
    hi = lo + width - 1
    expected = [
        m for m in iter_grid_matrices(alg.dim, lo, hi, denominator) if slow_check_operator(alg, m, kind) is None
    ]
    assert search_operators_grid(alg, kind, lo, hi, denominator) == expected


@settings(max_examples=150, deadline=None)
@given(any_brackets(), KINDS, st.data())
def test_operator_defect_matches_dense_oracle(alg, kind, data):
    """The sparse evaluation gives the dense oracle's tensor and the same
    first witness, for rational N with some columns zero."""
    dim = alg.dim
    zero_cols = data.draw(st.sets(st.integers(0, dim - 1))) if dim else set()
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=5))
    n = Matrix([[Fraction(0) if c in zero_cols else data.draw(entry) for c in range(dim)] for _ in range(dim)])
    defect = _dense_pairs(operator_defect(alg, n, kind), dim)
    assert defect == slow_operator_defect(alg, n, kind)
    assert all(type(v) is Fraction for row in defect for vec in row for v in vec)
    assert check_operator(alg, n, kind) == slow_check_operator(alg, n, kind)


@settings(max_examples=200, deadline=None)
@given(any_brackets(), KINDS, st.booleans(), st.data())
def test_check_operator_reads_first_sparse_pair(alg, kind, integral, data):
    """On int-entry and on rational N, the sparse defect holds exactly the
    oracle's nonzero pairs, every value a nonzero Fraction, and
    `check_operator` reports the row-major first of them."""
    dim = alg.dim
    entry = st.integers(-2, 2) if integral else st.fractions(-3, 3, max_denominator=5)
    n = Matrix([[data.draw(entry) for _ in range(dim)] for _ in range(dim)])
    values = operator_defect(alg, n, kind)
    assert all(type(v) is Fraction and v for vec in values.values() for v in vec.values())
    slow = slow_operator_defect(alg, n, kind)
    nonzero = [(i, j) for i, j in product(range(dim), repeat=2) if any(slow[i][j])]
    assert sorted(values) == nonzero
    found = check_operator(alg, n, kind)
    if not nonzero:
        assert found is None
        return
    i, j = nonzero[0]
    assert found == Counterexample(kind.describe(), (i, j), slow[i][j])
    assert all(type(v) is Fraction for v in found.residual)


@pytest.mark.parametrize("integral", (True, False))
def test_check_operator_transposes_nothing(monkeypatch, integral):
    """A leaf's confirmation hands the kernel the rows N stores: no kind
    builds a transpose, on int-entry or on rational N."""
    calls = []
    transpose = Matrix.transpose
    monkeypatch.setattr(Matrix, "transpose", lambda m: calls.append(m) or transpose(m))
    alg = catalog_get("dsum(loday2,abelian1)")
    n = block_diag([Matrix([[2, 1], [0, 1]]), Matrix([[5 if integral else Fraction(5, 3)]])])
    kinds = (nijenhuis(), rota_baxter(), rota_baxter_weighted(2), modified_rota_baxter(Fraction(1, 2)))
    verdicts = [check_operator(alg, n, kind) is None for kind in kinds]
    assert verdicts == [True, False, False, False]
    assert calls == []


def any_operator(dim):
    """A dim x dim matrix, mostly zero or small rationals."""
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=5))
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim).map(Matrix)


@st.composite
def defect_triples(draw):
    """(dim, triples): 1-3 triples (T, A, B) of a bracket table of dim 1-3 and
    two different operators, so exchanging A and B shows."""
    dim = draw(st.integers(1, 3))
    pairs = st.tuples(any_operator(dim), any_operator(dim)).filter(lambda ab: ab[0] != ab[1])
    triples = draw(st.lists(st.tuples(any_brackets(dim), pairs), min_size=1, max_size=3))
    return dim, [(alg.table, a, b) for alg, (a, b) in triples]


@settings(max_examples=200, deadline=None)
@given(defect_triples(), KINDS)
def test_defect_table_matches_per_pair_oracle(drawn, kind):
    """The scatter kernel on triples with A != B gives, on every basis pair,
    the per-pair sum of T(Ax, By) - A(T(Bx, y) + T(x, By)) + p(A, B)T(x, y)
    for the coefficients of each kind.  The kernel takes the operators' rows
    as stored, the oracle their columns."""
    dim, triples = drawn
    p = _p_coefficients(kind)
    units = [{i: Fraction(1)} for i in range(dim)]
    by_columns = [(t, a.transpose().nz, b.transpose().nz) for t, a, b in triples]
    expected = {}
    for i, j in product(range(dim), repeat=2):
        if value := slow_defect(p, by_columns, units[i], units[j]):
            expected[i, j] = value
    assert _defect_table(p, [(t, a.nz, b.nz) for t, a, b in triples]) == expected


@settings(max_examples=100, deadline=None)
@given(any_brackets().flatmap(lambda alg: st.tuples(st.just(alg), any_operator(alg.dim))))
def test_star_table_matches_per_pair_oracle(drawn):
    """The scattered star bracket on the rows of N against the per-pair one
    on its columns, for any N."""
    alg, n = drawn
    cols = n.transpose().nz
    expected = {}
    for i, j in product(range(alg.dim), repeat=2):
        if value := slow_star(alg.table, cols, {i: Fraction(1)}, cols[i], {j: Fraction(1)}, cols[j]):
            expected[i, j] = value
    assert _star_table(alg.table, n.nz) == expected


@settings(max_examples=100, deadline=None)
@given(any_brackets(), st.data())
def test_nijenhuis_defect_is_star_bracket_defect(alg, data):
    """The defect kernel against the star-bracket kernel `_star_table`: on
    (e_i, e_j) the Nijenhuis defect is [Ne_i, Ne_j] - N[e_i, e_j]*, the first
    bracket taken by the dense oracle."""
    d = alg.dim
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=5))
    n = Matrix([[data.draw(entry) for _ in range(d)] for _ in range(d)])
    star_table = _star_table(alg.table, n.nz)
    defect = _dense_pairs(operator_defect(alg, n, nijenhuis()), d)
    for i, j in product(range(d), repeat=2):
        star = star_table.get((i, j), {})
        star_image = n.apply(tuple(star.get(k, Fraction(0)) for k in range(d)))
        assert defect[i][j] == vec_sub(bilinear_eval(alg.structure, n.column(i), n.column(j)), star_image)


@st.composite
def catalog_sums(draw):
    """A direct sum of two or three catalog pairs, of dim 4-7, with the block
    diagonal of their Nijenhuis operators."""
    pairs = catalog_nijenhuis_pairs()
    parts = draw(
        st.lists(st.sampled_from(pairs), min_size=2, max_size=3).filter(lambda ps: sum(p[1].dim for p in ps) <= 7)
    )
    return reduce(direct_sum, (alg for _, alg, _ in parts)), block_diag([op for _, _, op in parts])


@settings(max_examples=100, deadline=None)
@given(catalog_sums(), st.sampled_from(("0", "Id", "M^2", "M^2+M")), KINDS)
def test_check_operator_on_catalog_sums_matches_dense_oracle(pair, which, kind):
    """Past dim 3, on operators that pass: 0, Id and the polynomials M^2 and
    M^2 + M of a Nijenhuis M are Nijenhuis, and every kind gives the dense
    oracle's verdict and first witness on them."""
    alg, m = pair
    n = {"0": Matrix.zero(alg.dim, alg.dim), "Id": Matrix.identity(alg.dim), "M^2": m * m, "M^2+M": m * m + m}[which]
    found = check_operator(alg, n, kind)
    assert found == slow_check_operator(alg, n, kind)
    if kind.tag == "nijenhuis":
        assert found is None


@pytest.mark.parametrize(
    "kind",
    [nijenhuis(), rota_baxter(), rota_baxter_weighted(-1, "as_printed"), modified_rota_baxter(Fraction(1, 2))],
    ids=OperatorKind.describe,
)
def test_all_accepted_grid(kind):
    # every bracket of abelian3 vanishes, so every candidate is confirmed
    grid = list(iter_grid_matrices(3, 0, 1))
    assert len(grid) == 512
    assert search_operators_grid(catalog_get("abelian3"), kind, 0, 1) == grid


@pytest.mark.parametrize("kind", [nijenhuis(), rota_baxter(), rota_baxter_weighted(2)], ids=OperatorKind.describe)
def test_grid_compile_evaluates_no_defect_tensor(monkeypatch, kind):
    """The compile evaluates each identity once per basis pair on polynomial
    columns, not on sample operators: a one-candidate grid on the 7-dim sum
    calls `operator_defect` exactly once, to confirm its one leaf."""
    calls = []

    def counted(*args):
        calls.append(args)
        return operator_defect(*args)

    monkeypatch.setattr(operators, "operator_defect", counted)
    alg = catalog_get("dsum(loday2,dsum(loday2,dsum(square2,abelian1)))")
    assert search_operators_grid(alg, kind, 0, 0) == [Matrix.zero(7, 7)]
    assert len(calls) == 1


def test_grid_iteration_count():
    assert sum(1 for _ in iter_grid_matrices(2, -2, 2)) == 5 ** 4


def test_grid_guard():
    alg = catalog_get("abelian3")  # 11^9 candidates exceed GRID_GUARD
    with pytest.raises(ResourceLimitError):
        search_operators_grid(alg, nijenhuis(), -5, 5, 1)


def test_catalog_pairs_pass(loday2):
    for name, alg, op in catalog_nijenhuis_pairs():
        assert is_nijenhuis(alg, op), name


def test_nijenhuis_defect_nonzero(loday2):
    bad = Matrix([[frac(1), frac(0)], [frac(1), frac(1)]])  # c = 1
    assert not is_nijenhuis(loday2, bad)
    cert = check_operator(loday2, bad, nijenhuis())
    assert cert is not None and cert.identity == "nijenhuis"
    defect = _dense_pairs(operator_defect(loday2, bad, nijenhuis()), loday2.dim)
    assert any(any(any(v) for v in row) for row in defect)


def test_scalar_operators_always_nijenhuis(loday2):
    for lam in (frac(0), frac(3), Fraction(-5, 7)):
        assert is_nijenhuis(loday2, diag([lam, lam]))


def _random_matrix(rng, dim, lo=-3, hi=3):
    return Matrix([[frac(rng.randint(lo, hi)) for _ in range(dim)] for _ in range(dim)])


def _square_zero_samples(rng, count):
    """Rank-one 2x2 matrices u v^T with v.u = 0 square to zero."""
    out = []
    while len(out) < count:
        u = [rng.randint(-3, 3) for _ in range(2)]
        v = [rng.randint(-3, 3) for _ in range(2)]
        if u[0] * v[0] + u[1] * v[1] != 0:
            continue
        out.append(Matrix([[frac(u[i] * v[j]) for j in range(2)] for i in range(2)]))
    return out


def _idempotent_samples(rng, count):
    """P = u v^T with v.u = 1 is idempotent; also include 0 and Id."""
    out = [Matrix.zero(2, 2), Matrix.identity(2)]
    while len(out) < count:
        u = [rng.randint(-3, 3) for _ in range(2)]
        v = [rng.randint(-3, 3) for _ in range(2)]
        if u[0] * v[0] + u[1] * v[1] != 1:
            continue
        out.append(Matrix([[frac(u[i] * v[j]) for j in range(2)] for i in range(2)]))
    return out


def _involution_samples(rng, count):
    """2 u v^T - Id with v.u = 1 squares to the identity."""
    out = [Matrix.identity(2), Matrix.identity(2).scale(-1)]
    while len(out) < count:
        u = [rng.randint(-3, 3) for _ in range(2)]
        v = [rng.randint(-3, 3) for _ in range(2)]
        if u[0] * v[0] + u[1] * v[1] != 1:
            continue
        m = Matrix([[frac(2 * u[i] * v[j]) for j in range(2)] for i in range(2)])
        out.append(m - Matrix.identity(2))
    return out


def _anti_involution_samples(rng, count):
    """[[a,b],[c,-a]] with a^2 + bc = -1 squares to minus the identity."""
    out = []
    while len(out) < count:
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        if b == 0:
            continue
        num = -1 - a * a
        c = Fraction(num, b)
        out.append(Matrix([[frac(a), frac(b)], [c, frac(-a)]]))
    return out


CORRESPONDENCE = [
    ("N2=0", _square_zero_samples, rota_baxter()),
    ("N2=N", _idempotent_samples, rota_baxter_weighted(-1, "standard")),
    ("N2=Id", _involution_samples, modified_rota_baxter(-1)),
    ("N2=-Id", _anti_involution_samples, modified_rota_baxter(1)),
]


@pytest.mark.parametrize("label,sampler,other_kind", CORRESPONDENCE, ids=[c[0] for c in CORRESPONDENCE])
def test_correspondence_classes(label, sampler, other_kind):
    rng = random.Random(hash(label) & 0xFFFF)
    algebras = [catalog_get("loday2"), catalog_get("square2")]
    checked = 0
    for op in sampler(rng, 50):
        alg = algebras[checked % 2]
        nij = check_operator(alg, op, nijenhuis()) is None
        other = check_operator(alg, op, other_kind) is None
        assert nij == other, (label, op.data)
        report = correspondence_suite(alg, op)
        assert label in report["cases"]
        assert report["cases"][label]["agree"]
        checked += 1
    assert checked == 50


def test_correspondence_suite_no_case(loday2):
    # generic operator matches no N^2 pattern: report lists no cases
    op = Matrix([[frac(2), frac(1)], [frac(0), frac(1)]])
    report = correspondence_suite(loday2, op)
    assert report["cases"] == {}
    assert report["nijenhuis_passes"]


def test_weighted_convention_flag(loday2):
    # idempotent Nijenhuis operators satisfy weight -1 under the standard
    # placement (and for idempotents the two placements agree)
    p = Matrix([[frac(1), frac(1)], [frac(0), frac(0)]])
    assert (p * p) == p
    assert is_nijenhuis(loday2, p)
    assert check_operator(loday2, p, rota_baxter_weighted(-1, "standard")) is None
    assert check_operator(loday2, p, rota_baxter_weighted(-1, "as_printed")) is None
    # away from the idempotent locus the flag selects distinct defects:
    # the difference of the two identities is N((N - Id)[x,y])
    q = Matrix([[frac(2), frac(1)], [frac(0), frac(1)]])
    d_std = operator_defect(loday2, q, rota_baxter_weighted(-1, "standard"))
    d_prn = operator_defect(loday2, q, rota_baxter_weighted(-1, "as_printed"))
    assert d_std != d_prn


def test_induced_bracket_properties():
    for name, alg, op in catalog_nijenhuis_pairs():
        star = induced_bracket(alg, op)
        assert check_leibniz(star) is None, name
        assert is_nijenhuis(star, op), name
        for i, j in product(range(alg.dim), repeat=2):
            # the dense star formula [Ne_i, e_j] + [e_i, Ne_j] - N[e_i, e_j]
            ei, ej, ni, nj = unit(alg, i), unit(alg, j), op.column(i), op.column(j)
            rb = vec_add(bilinear_eval(alg.structure, ni, ej), bilinear_eval(alg.structure, ei, nj))
            assert star.bracket_basis(i, j) == vec_sub(rb, op.apply(alg.structure[i][j])), (name, i, j)
            # N is a morphism from the star bracket to the original bracket
            assert op.apply(star.bracket_basis(i, j)) == bilinear_eval(alg.structure, ni, nj), (name, i, j)


def test_induced_bracket_golden(loday2, classified_op):
    star = induced_bracket(loday2, classified_op)
    assert star.structure == loday2.structure


def test_induced_bracket_rejects_non_nijenhuis(loday2):
    bad = Matrix([[frac(1), frac(0)], [frac(1), frac(1)]])
    with pytest.raises(PreconditionError):
        induced_bracket(loday2, bad)


def test_induced_representation_axioms():
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        star = induced_bracket(alg, op)
        irep = induced_representation(rep, alg, op)
        assert check_representation(star, irep) is None, name
        assert check_representation(star, irep, op) is None, name


@st.composite
def nijenhuis_representations(draw):
    """(algebra, representation, N): a catalog pair's adjoint representation
    with its Nijenhuis operator as N and N_V, or a trivial representation of
    module dim 0-3 with a drawn N_V."""
    _, alg, op = draw(st.sampled_from(catalog_nijenhuis_pairs()))
    if draw(st.booleans()):
        return alg, adjoint_representation(alg, op), op
    m = draw(st.integers(0, 3))
    return alg, trivial_representation(alg.dim, m, draw(any_operator(m))), op


@settings(max_examples=100, deadline=None)
@given(nijenhuis_representations())
def test_induced_representation_matches_matrix_oracle(case):
    """The induced actions read off the star table of the semidirect product
    equal L'_i and R'_i by matrix products."""
    alg, rep, n = case
    irep = induced_representation(rep, alg, n)
    for i in range(alg.dim):
        assert (irep.left[i], irep.right[i]) == slow_induced_actions(rep, n, i)


def test_induced_left_action_formula(loday2, classified_op, loday2_adjoint):
    irep = induced_representation(loday2_adjoint, loday2, classified_op)
    n = classified_op
    for i in range(2):
        ne_i = n.column(i)
        l_ne = sum(
            (loday2_adjoint.left[k].scale(c) for k, c in enumerate(ne_i)),
            Matrix.zero(2, 2),
        )
        expected = l_ne - (n * loday2_adjoint.left[i]) + (loday2_adjoint.left[i] * n)
        assert irep.left[i] == expected
