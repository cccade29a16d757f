"""Operator identities: Nijenhuis defect, the Rota-Baxter family, the N^2
correspondence, the induced star bracket, and exhaustive grid classification.

The 39-operator classification on the two-dimensional catalog algebra is the
main frozen golden; it is re-derived here by an independent closed-form
filter (c = 0 and (a = d or a - d = b)) over the same grid.
"""

import random
from fractions import Fraction
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
)
from nijleib.errors import PreconditionError, ResourceLimitError
from nijleib.linalg import Matrix, frac, vec_add, vec_sub
from nijleib.operators import (
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
from oracles import any_brackets, bilinear_eval


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
        tuple(_slow_defect_value(alg, n, kind, alg.unit(i), alg.unit(j)) for j in range(alg.dim))
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
    return LeibnizAlgebra.from_structure(
        [[[draw(entry) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    )


@settings(max_examples=60, deadline=None)
@given(sparse_brackets(), KINDS, st.data())
def test_defect_polynomial_reproduces_defect(alg, kind, data):
    """The premise of the compiled search: every defect component is a
    polynomial of degree <= 2 in the entries, so interpolating it at
    N = 0, E_a, 2E_a, E_a + E_b reproduces it at any rational N."""
    polys = defect_polynomial(alg, kind)
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
    defect = operator_defect(alg, n, kind)
    assert defect == slow_operator_defect(alg, n, kind)
    assert all(type(v) is Fraction for row in defect for vec in row for v in vec)
    assert check_operator(alg, n, kind) == slow_check_operator(alg, n, kind)


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
    defect = operator_defect(loday2, bad, nijenhuis())
    assert any(any(any(v) for v in row) for row in defect)


def test_scalar_operators_always_nijenhuis(loday2):
    for lam in (frac(0), frac(3), Fraction(-5, 7)):
        assert is_nijenhuis(loday2, Matrix.diag([lam, lam]))


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
            ei, ej, ni, nj = alg.unit(i), alg.unit(j), op.column(i), op.column(j)
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
