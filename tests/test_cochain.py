"""Cochain complexes: the Leibniz differential, the operator differential,
the comparison map, the combined complex, and cohomology dimensions.

delta and partial are assembled as matrices one row at a time, so the main
oracle here is a slow pointwise evaluator written straight from the defining
sum (signs and hat-slots spelled out) that never touches the matrix path.
The comparison map is checked against its defining sum of Kronecker
products, and on generic input (every entry of N and N_V its own variable)
against its definition block by block, as delta is against its defining
sum.  Every matrix is also checked against the Kronecker-product
assembly it replaced: delta and partial with entry types and column order
included, phi, partial' and the nla matrix by value, with int entries on
integral input.  Cohomology reports, ranked top
down on pivot rows and compressed matrices, are checked against ranking
every whole matrix (`oracles.slow_cohomology_dims`), on the catalog and on
random integer complexes.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nijleib.algebra import (
    LeibnizAlgebra,
    Representation,
    adjoint_representation,
    catalog_get,
    catalog_nijenhuis_pairs,
    trivial_representation,
)
from nijleib import cochain
from nijleib.cochain import (
    COMPLEX_KINDS,
    PHI_VARIANTS,
    Cochain,
    JunctionFailure,
    _rank_complex,
    all_tuples,
    chain_map_diagnostic,
    chain_map_residual,
    coboundary_matrix,
    cohomology_dims,
    cocycle_membership,
    combined_partial_matrix,
    d_nla,
    delta,
    delta_matrix,
    nla_matrix,
    partial_matrix,
    phi_matrix,
    sample_cocycles,
    space_dim,
)
from nijleib.errors import ResourceLimitError, ShapeError
from nijleib.linalg import (
    Matrix,
    frac,
    gauss_rank,
    kron,
    mat_mul,
    rank,
)
from nijleib.operators import induced_bracket, induced_representation
from oracles import vec_add, vec_scale, zero_vector
from oracles import (
    any_brackets,
    assert_same_values,
    evaluate_cochain,
    generic_delta_inputs,
    generic_matrix,
    identity_cochain,
    is_integral,
    kron_combined_partial_matrix,
    kron_delta_matrix,
    kron_nla_matrix,
    kron_partial_matrix,
    kron_phi_matrix,
    naive_delta_rows,
    naive_phi_rows,
    slow_cohomology_dims,
    slow_complex,
    slow_phi,
    unit,
)


def slow_delta(alg, rep, f):
    """The coboundary sum evaluated verbatim, one basis tuple at a time."""
    n = f.degree
    m = rep.module_dim
    table = {}
    for t in all_tuples(alg.dim, n + 1):
        acc = zero_vector(m)
        for i in range(1, n + 1):  # left-action terms, positions are 1-based
            rest = t[: i - 1] + t[i:]
            term = rep.left[t[i - 1]].apply(f.value(rest))
            acc = vec_add(acc, vec_scale(frac((-1) ** (i + 1)), term))
        if n >= 0:
            term = rep.right[t[n]].apply(f.value(t[:n]))
            acc = vec_add(acc, vec_scale(frac((-1) ** (n + 1)), term))
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                args = [unit(alg, k) for k in t]
                args[j - 1] = alg.bracket_basis(t[i - 1], t[j - 1])
                del args[i - 1]
                acc = vec_add(acc, vec_scale(frac((-1) ** i), evaluate_cochain(f, *args)))
        table[t] = acc
    return Cochain.from_table(n + 1, alg.dim, m, table)


def slow_partial(alg, n_op, rep, f):
    """Operator differential via its fully expanded form: every induced
    action and star bracket written out against the original data."""
    n = f.degree
    m = rep.module_dim
    nv = rep.module_operator
    table = {}
    for t in all_tuples(alg.dim, n + 1):
        acc = zero_vector(m)
        for i in range(1, n + 1):
            rest = t[: i - 1] + t[i:]
            fv = f.value(rest)
            x = unit(alg, t[i - 1])
            nx = n_op.apply(x)
            term = _act_left(rep, nx, fv)
            term = vec_add(term, vec_scale(frac(-1), nv.apply(_act_left(rep, x, fv))))
            term = vec_add(term, _act_left(rep, x, nv.apply(fv)))
            acc = vec_add(acc, vec_scale(frac((-1) ** (i + 1)), term))
        fv = f.value(t[:n])
        x = unit(alg, t[n])
        nx = n_op.apply(x)
        term = _act_right(rep, fv, nx)
        term = vec_add(term, vec_scale(frac(-1), nv.apply(_act_right(rep, fv, x))))
        term = vec_add(term, _act_right(rep, nv.apply(fv), x))
        acc = vec_add(acc, vec_scale(frac((-1) ** (n + 1)), term))
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                xi = unit(alg, t[i - 1])
                xj = unit(alg, t[j - 1])
                star = vec_add(
                    alg.bracket(n_op.apply(xi), xj),
                    vec_add(
                        alg.bracket(xi, n_op.apply(xj)),
                        vec_scale(frac(-1), n_op.apply(alg.bracket(xi, xj))),
                    ),
                )
                args = [unit(alg, k) for k in t]
                args[j - 1] = star
                del args[i - 1]
                acc = vec_add(acc, vec_scale(frac((-1) ** i), evaluate_cochain(f, *args)))
        table[t] = acc
    return Cochain.from_table(n + 1, alg.dim, m, table)


def _act_left(rep, x, v):
    out = zero_vector(rep.module_dim)
    for i, c in enumerate(x):
        if c:
            out = vec_add(out, vec_scale(c, rep.left[i].apply(v)))
    return out


def _act_right(rep, v, x):
    out = zero_vector(rep.module_dim)
    for i, c in enumerate(x):
        if c:
            out = vec_add(out, vec_scale(c, rep.right[i].apply(v)))
    return out


def image(mat, f, shift=1):
    """The cochain of degree f.degree + shift whose vector is mat f.vec."""
    return Cochain(f.degree + shift, f.alg_dim, f.module_dim, mat.apply(f.vec))


def random_cochain(rng, degree, alg_dim, module_dim, lo=-3, hi=3):
    table = {
        t: tuple(frac(rng.randint(lo, hi)) for _ in range(module_dim))
        for t in all_tuples(alg_dim, degree)
    }
    return Cochain.from_table(degree, alg_dim, module_dim, table)


# ---------------------------------------------------------------------------


def test_delta0_formula(loday2, loday2_adjoint):
    v = Cochain(0, 2, 2, (frac(1), frac(2)))
    dv = delta(loday2, loday2_adjoint, v)
    for j in range(2):
        expected = vec_scale(frac(-1), _act_right(loday2_adjoint, (frac(1), frac(2)), unit(loday2, j)))
        assert dv.value((j,)) == expected


def test_delta0_matrix_golden(loday2):
    rep = adjoint_representation(loday2)
    m = delta_matrix(loday2, rep, 0)
    assert (m.rows, m.cols) == (4, 2)
    assert rank(m) == 1


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_delta_matches_slow_oracle(degree, loday2, loday2_adjoint):
    rng = random.Random(17 + degree)
    for _ in range(5):
        f = random_cochain(rng, degree, 2, 2)
        assert delta(loday2, loday2_adjoint, f).values == slow_delta(loday2, loday2_adjoint, f).values


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_partial_matches_expanded_oracle(degree, loday2, classified_op, loday2_adjoint):
    rng = random.Random(23 + degree)
    for _ in range(5):
        f = random_cochain(rng, degree, 2, 2)
        lhs = image(partial_matrix(loday2, classified_op, loday2_adjoint, degree), f)
        rhs = slow_partial(loday2, classified_op, loday2_adjoint, f)
        assert lhs.values == rhs.values


def test_delta_oracle_on_dim3():
    alg = catalog_get("dsum(loday2,abelian1)")
    rep = adjoint_representation(alg)
    rng = random.Random(5)
    f = random_cochain(rng, 1, 3, 3)
    assert delta(alg, rep, f).values == slow_delta(alg, rep, f).values


@settings(max_examples=80, deadline=None)
@given(any_brackets().filter(lambda alg: alg.dim <= 3), st.integers(0, 3), st.data())
def test_delta_matches_slow_oracle_on_any_bracket(alg, degree, data):
    # brackets that need not be Leibniz and actions that need not form a
    # representation, on a module whose dimension differs from the algebra's:
    # the row-by-row matrix must match the defining sum term by term, and the
    # Kronecker form by value
    m = data.draw(st.sampled_from([k for k in (1, 2, 3) if k != alg.dim]))
    left = tuple(data.draw(_square_matrices(m)) for _ in range(alg.dim))
    right = tuple(data.draw(_square_matrices(m)) for _ in range(alg.dim))
    rep = Representation(left, right, module_dim=m)
    f = random_cochain(random.Random(data.draw(st.integers(0, 2**16))), degree, alg.dim, rep.module_dim)
    assert delta(alg, rep, f) == slow_delta(alg, rep, f)
    integral = is_integral(*left, *right, alg=alg)
    assert_same_values(delta_matrix(alg, rep, degree), kron_delta_matrix(alg, rep, degree), integral)


@pytest.mark.parametrize("d, m, n", [(d, m, n) for d in (2, 3) for m in (1, 2, 3) for n in (0, 1, 2)] + [(2, 2, 3)])
def test_delta_is_the_loday_pirashvili_sum_on_generic_input(d, m, n):
    """delta_n on a bracket and actions whose every entry is its own
    variable equals the defining sum (`oracles.naive_delta_rows`) as
    polynomials, so the row builder's formula holds for every input of
    these dimensions over any commutative ring.  A specific input is the
    generic one with each variable set to its value, and the builder
    branches only on which entries a row or a table stores (an absent one
    adds what a zero would) and on cancellation (a deleted entry is a zero):
    both commute with setting the variables, so every entry is the same
    signed sum of inputs as on the generic one."""
    alg, rep = generic_delta_inputs(d, m)
    assert delta_matrix(alg, rep, n).nz == naive_delta_rows(alg, rep, n)


def test_delta_squares_to_zero_all_catalog():
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        for n in range(3):
            prod = mat_mul(delta_matrix(alg, rep, n + 1), delta_matrix(alg, rep, n))
            assert prod.is_zero(), (name, n)


def test_partial_squares_to_zero_all_catalog():
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        for n in range(3):
            prod = mat_mul(partial_matrix(alg, op, rep, n + 1), partial_matrix(alg, op, rep, n))
            assert prod.is_zero(), (name, n)


def test_combined_partial_squares_to_zero(loday2, classified_op, loday2_adjoint):
    for n in range(3):
        prod = mat_mul(
            combined_partial_matrix(loday2, classified_op, loday2_adjoint, n + 1),
            combined_partial_matrix(loday2, classified_op, loday2_adjoint, n),
        )
        assert prod.is_zero()


def test_partial_is_star_delta(loday2, classified_op, loday2_adjoint):
    star = induced_bracket(loday2, classified_op)
    irep = induced_representation(loday2_adjoint, loday2, classified_op)
    for n in range(3):
        assert partial_matrix(loday2, classified_op, loday2_adjoint, n) == delta_matrix(star, irep, n)


# --- comparison map ---------------------------------------------------------


def test_phi_degree0_is_identity(classified_op):
    for variant in ("full", "printed"):
        assert phi_matrix(classified_op, classified_op, 0, variant) == Matrix.identity(2)


@pytest.mark.parametrize("variant", ["full", "printed"])
def test_phi_matches_kronecker_sum_oracle_all_catalog(variant):
    for name, _, op in catalog_nijenhuis_pairs():
        for n in range(5):
            assert phi_matrix(op, op, n, variant) == slow_phi(op, op, n, variant), (name, n)


def _square_matrices(size):
    entries = st.lists(
        st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)]), min_size=size * size, max_size=size * size
    )
    return entries.map(lambda e: Matrix([e[r * size : (r + 1) * size] for r in range(size)]))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 3))
    .filter(lambda dims: dims[0] != dims[1])
    .flatmap(lambda dims: st.tuples(_square_matrices(dims[0]), _square_matrices(dims[1]))),
    st.integers(0, 3),
    st.sampled_from(["full", "printed"]),
)
def test_phi_matches_kronecker_sum_oracle_random(ops, degree, variant):
    # algebra and module dimensions differ, so a mix-up between them shows
    n_op, module_op = ops
    phi = phi_matrix(n_op, module_op, degree, variant)
    assert phi == slow_phi(n_op, module_op, degree, variant)
    assert_same_values(phi, kron_phi_matrix(n_op, module_op, degree, variant), is_integral(n_op, module_op))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 4), st.sampled_from(PHI_VARIANTS), st.data())
def test_recursive_phi_and_partial_prime_match_oracles(d, m, degree, variant, data):
    # phi on any N and N_V, a 0-dim module included; partial' and the nla
    # matrix on any bracket with a scalar operator and zero actions, which
    # form a Nijenhuis representation with any N_V
    n_op, module_op = data.draw(_square_matrices(d)), data.draw(_square_matrices(m))
    phi = phi_matrix(n_op, module_op, degree, variant)
    assert_same_values(phi, kron_phi_matrix(n_op, module_op, degree, variant), is_integral(n_op, module_op))
    if degree <= 3:
        assert phi == slow_phi(n_op, module_op, degree, variant)
    alg = data.draw(any_brackets(d))
    scalar = Matrix.identity(d).scale(data.draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])))
    rep = trivial_representation(d, m, module_op)
    integral = is_integral(scalar, module_op, alg=alg)
    if degree <= 3:
        got = combined_partial_matrix(alg, scalar, rep, degree)
        assert_same_values(got, kron_combined_partial_matrix(alg, scalar, rep, degree), integral)
    got = nla_matrix(alg, scalar, rep, degree, variant)
    assert_same_values(got, kron_nla_matrix(alg, scalar, rep, degree, variant), integral)


@pytest.mark.parametrize("variant", PHI_VARIANTS)
@pytest.mark.parametrize(
    "d, m, n",
    [(1, 1, n) for n in range(5)]
    + [(d, m, n) for d, m in ((2, 1), (1, 2), (2, 2)) for n in range(4)]
    + [(d, m, n) for d, m in ((3, 2), (2, 3), (3, 3)) for n in range(3)],
)
def test_phi_is_its_defining_sum_on_generic_input(d, m, n, variant):
    """phi_n on an N and an N_V whose every entry is its own variable equals
    its definition block by block (`oracles.naive_phi_rows`) as
    polynomials, so the builder's formula holds for every N and N_V of
    these dimensions over any commutative ring.  A specific input is the
    generic one with each variable set to its value, and the builder
    branches only on which entries a row stores (an absent one adds what a
    zero would), on cancellation (a deleted entry is a zero) and on
    `combine`'s coefficient c in {0, 1, -1}, whose skip, copy and negation
    each compute c v: all commute with setting the variables, so every
    entry is the same sum of products of inputs as on the generic one."""
    n_op, module_op = generic_matrix(d, d, 0), generic_matrix(m, m, d * d)
    assert phi_matrix(n_op, module_op, n, variant).nz == naive_phi_rows(n_op, module_op, n, variant)


@pytest.mark.parametrize("d, m, n", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)])
def test_partial_prime_row_builder_on_generic_rows(d, m, n, monkeypatch):
    """partial' = partial - delta (I (x) N_V), row by row, on a partial, a
    delta and an N_V whose every entry is its own variable: the builder's
    formula holds for any rows of these shapes, by the coverage argument of
    the phi test.  partial' as a whole cannot take a generic N: the star
    structures that partial is built from exist only for a Nijenhuis pair,
    and `star_structures` checks that, so partial and delta are put in by
    hand here."""
    rows, cols = m * d ** (n + 1), m * d**n
    module_op = generic_matrix(m, m, 0)
    par, dlt = generic_matrix(rows, cols, m * m), generic_matrix(rows, cols, m * m + rows * cols)
    monkeypatch.setattr(cochain, "partial_matrix", lambda alg, n_op, rep, degree: par)
    monkeypatch.setattr(cochain, "delta_matrix", lambda alg, rep, degree: dlt)
    got = combined_partial_matrix.__wrapped__(None, None, Representation._of({}, module_op, d, m), n)
    assert got == par - mat_mul(dlt, kron(Matrix.identity(d**n), module_op))


def test_phi_variants_agree_at_degree2(classified_op):
    assert phi_matrix(classified_op, classified_op, 2, "full") == phi_matrix(
        classified_op, classified_op, 2, "printed"
    )


def test_phi_variants_differ_at_degree1(classified_op):
    # the printed variant carries an extra N_V^2 term at degree 1
    full = phi_matrix(classified_op, classified_op, 1, "full")
    printed = phi_matrix(classified_op, classified_op, 1, "printed")
    nv2 = classified_op * classified_op
    assert printed - full == kron(Matrix.identity(2), nv2)


def test_phi_full_degree1_formula(loday2, classified_op):
    n = classified_op
    f = Cochain.from_matrix(Matrix([[frac(1), frac(2)], [frac(0), frac(-1)]]))
    pf = image(phi_matrix(n, n, 1, "full"), f, 0)
    assert pf.as_matrix() == (f.as_matrix() * n) - (n * f.as_matrix())


def test_chain_map_identity_operator(loday2):
    ident = Matrix.identity(2)
    rep = adjoint_representation(loday2, ident)
    entries = chain_map_diagnostic(loday2, ident, rep, max_degree=3, variant="full")
    assert [e.commutes for e in entries[1:]] == [True, True, True]
    entries_p = chain_map_diagnostic(loday2, ident, rep, max_degree=3, variant="printed")
    assert entries_p[1].commutes is False
    f = identity_cochain(2)
    residual = chain_map_residual(loday2, ident, rep, f, "printed")
    assert residual.values == delta(loday2, rep, f).values
    assert chain_map_residual(loday2, ident, rep, f, "full").is_zero()


def post_compose(nv, f):
    """N_V o f, one basis tuple at a time."""
    table = {t: nv.apply(v) for t, v in f.values.items()}
    return Cochain.from_table(f.degree, f.alg_dim, f.module_dim, table)


def test_chain_map_residual_matches_slow_oracles():
    """partial(phi f) - phi(delta f) from the slow differentials and the
    Kronecker-sum phi, with partial' = slow partial - slow delta o N_V when
    corrected; every catalog pair, degrees 0-2, both variants."""
    rng = random.Random(37)
    nonzero = set()
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        for n in range(3):
            f = random_cochain(rng, n, alg.dim, alg.dim, -2, 2)
            for variant in ("full", "printed"):
                pf = image(slow_phi(op, op, n, variant), f, 0)
                rhs = image(slow_phi(op, op, n + 1, variant), slow_delta(alg, rep, f), 0)
                for corrected in (False, True):
                    lhs = slow_partial(alg, op, rep, pf)
                    if corrected:
                        lhs = lhs - slow_delta(alg, rep, post_compose(op, pf))
                    got = chain_map_residual(alg, op, rep, f, variant, corrected)
                    assert got == lhs - rhs, (name, n, variant, corrected)
                    if not got.is_zero():
                        nonzero.add((variant, corrected))
    # the plain map fails under both variants, the corrected one under printed
    assert nonzero == {("full", False), ("printed", False), ("printed", True)}


def test_corrected_chain_map_commutes_generically():
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        cap_degree = 2 if alg.dim >= 3 else 3
        entries = chain_map_diagnostic(alg, op, rep, max_degree=cap_degree, variant="full", corrected=True)
        assert all(e.commutes for e in entries), name


def test_plain_chain_map_fails_generically(loday2, classified_op, loday2_adjoint):
    entries = chain_map_diagnostic(loday2, classified_op, loday2_adjoint, max_degree=2, variant="full")
    assert not all(e.commutes for e in entries)
    failing = next(e for e in entries if not e.commutes)
    assert failing.residual is not None and not failing.residual.is_zero()
    # the combined complex absorbs exactly this failure
    report = cohomology_dims("nla", loday2, loday2_adjoint, classified_op, max_degree=2)
    assert all(report.junctions)


def test_combined_partial_is_the_correction(loday2, classified_op, loday2_adjoint):
    rng = random.Random(31)
    g = random_cochain(rng, 1, 2, 2)
    nvg = Cochain.from_matrix(classified_op * g.as_matrix())
    lhs = image(combined_partial_matrix(loday2, classified_op, loday2_adjoint, 1), g)
    rhs = image(partial_matrix(loday2, classified_op, loday2_adjoint, 1), g) - delta(loday2, loday2_adjoint, nvg)
    assert lhs.values == rhs.values


# --- row-by-row assembly against the Kronecker oracles ----------------------
# Each matrix is compared with the chain of whole Kronecker products, sums and
# block stackings it replaced.  delta, partial, phi, partial' and the nla
# matrix keep that chain's values, hold no zero, and are ints on integral
# input; the column order within a row is not compared.  delta and phi on
# random inputs are compared the same way in the any-bracket and random phi
# tests.


def test_assembly_matches_kronecker_oracles_all_catalog():
    # loday2 with its brackets halved: Fraction constants, whose sums in the
    # slots of S_(e2) at degree >= 2 are integral
    halved = LeibnizAlgebra(2, ("e1", "e2"), {(1, 0): {0: Fraction(1, 2)}, (1, 1): {0: Fraction(1, 2)}})
    for name, alg, op in [*catalog_nijenhuis_pairs(), ("loday2/halved", halved, Matrix.identity(2))]:
        rep = adjoint_representation(alg, op)
        integral = is_integral(op, alg=alg)
        for n in range(4):
            assert_same_values(delta_matrix(alg, rep, n), kron_delta_matrix(alg, rep, n), integral)
            assert_same_values(partial_matrix(alg, op, rep, n), kron_partial_matrix(alg, op, rep, n), integral)
            assert_same_values(
                combined_partial_matrix(alg, op, rep, n), kron_combined_partial_matrix(alg, op, rep, n), integral
            )
            for variant in ("full", "printed"):
                assert_same_values(phi_matrix(op, op, n, variant), kron_phi_matrix(op, op, n, variant), integral)
                got = nla_matrix(alg, op, rep, n, variant)
                assert_same_values(got, kron_nla_matrix(alg, op, rep, n, variant), integral)


@settings(max_examples=40, deadline=None)
@given(
    any_brackets().filter(lambda alg: alg.dim <= 3),
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
    st.integers(0, 3),
    st.sampled_from(["full", "printed"]),
    st.data(),
)
def test_nla_matches_kronecker_oracle_on_any_bracket(alg, scalar, degree, variant, data):
    # a scalar operator is Nijenhuis for every bracket, and zero actions with
    # any module operator form a Nijenhuis representation, so the star
    # structures exist while the bracket and N_V stay arbitrary
    m = data.draw(st.sampled_from([k for k in (1, 2, 3) if k != alg.dim]))
    n_op = Matrix.identity(alg.dim).scale(scalar)
    rep = trivial_representation(alg.dim, m, data.draw(_square_matrices(m)))
    integral = is_integral(n_op, rep.module_operator, alg=alg)
    got = nla_matrix(alg, n_op, rep, degree, variant)
    assert_same_values(got, kron_nla_matrix(alg, n_op, rep, degree, variant), integral)


# --- combined complex and cohomology ---------------------------------------


def test_nla_matrix_blocks(loday2, classified_op, loday2_adjoint):
    m = nla_matrix(loday2, classified_op, loday2_adjoint, 2)
    d2 = delta_matrix(loday2, loday2_adjoint, 2)
    assert m.rows == d2.rows + combined_partial_matrix(loday2, classified_op, loday2_adjoint, 1).rows
    # upper-left block is delta, upper-right is zero
    for i in range(d2.rows):
        assert m.data[i][: d2.cols] == d2.data[i]
        assert all(x == 0 for x in m.data[i][d2.cols :])


def test_nla_junctions_full_variant():
    for name, alg, op in catalog_nijenhuis_pairs():
        if alg.dim > 2:
            continue
        rep = adjoint_representation(alg, op)
        report = cohomology_dims("nla", alg, rep, op, max_degree=2)
        assert all(report.junctions), name
        assert report.degree0_caveat


def test_nla_junction_failure_matches_chain_map(loday2, classified_op, loday2_adjoint):
    # under the printed phi the degree-1 junction fails exactly when the
    # corrected chain map fails at degree 1
    report = cohomology_dims("nla", loday2, loday2_adjoint, classified_op, max_degree=2, variant="printed")
    entries = chain_map_diagnostic(
        loday2, classified_op, loday2_adjoint, max_degree=2, variant="printed", corrected=True
    )
    for n in range(2):
        assert report.junctions[n] == entries[n].commutes
    failed = [n for n in range(2) if not report.junctions[n]]
    assert failed, "printed variant should break at least one junction here"
    for f in report.failures:
        assert f.value != 0


def test_junction_failure_withholds_dim(loday2, classified_op, loday2_adjoint):
    report = cohomology_dims("nla", loday2, loday2_adjoint, classified_op, max_degree=2, variant="printed")
    for entry in report.degrees:
        below_ok = entry.degree == 0 or report.junctions[entry.degree - 1]
        assert (entry.dim_h is None) == (not below_ok)


def test_cohomology_golden_h0(loday2):
    rep = adjoint_representation(loday2)
    for rank_fn in (rank, gauss_rank):
        report = cohomology_dims("la", loday2, rep, None, max_degree=1, rank_fn=rank_fn)
        assert report.entry(0).dim_h == 1


def test_cohomology_golden_abelian2_h1():
    # zero actions on a two-dimensional module: every differential vanishes,
    # so H^1 is all of Hom(g, V)
    alg = catalog_get("abelian2")
    rep = trivial_representation(alg.dim, 2)
    for rank_fn in (rank, gauss_rank):
        report = cohomology_dims("la", alg, rep, None, max_degree=1, rank_fn=rank_fn)
        assert report.entry(1).dim_h == 4


def test_cohomology_dims_consistency(loday2, classified_op, loday2_adjoint):
    report = cohomology_dims("no", loday2, loday2_adjoint, classified_op, max_degree=2)
    for entry in report.degrees:
        assert entry.dim_c == space_dim(2, 2, entry.degree)
        if entry.dim_h is not None:
            assert entry.dim_h == entry.dim_z - entry.dim_b


def test_degree_cap_enforced(loday2, loday2_adjoint):
    with pytest.raises(ResourceLimitError):
        coboundary_matrix("la", loday2, loday2_adjoint, None, 5)


# --- membership and sampling ------------------------------------------------


def test_membership_coboundary_roundtrip(loday2, classified_op, loday2_adjoint):
    rng = random.Random(41)
    g = random_cochain(rng, 1, 2, 2)
    dg = delta(loday2, loday2_adjoint, g)
    res = cocycle_membership("la", loday2, loday2_adjoint, None, dg)
    assert res.is_cocycle and res.is_coboundary
    again = delta(loday2, loday2_adjoint, res.preimage)
    assert again.values == dg.values


def test_membership_non_cocycle(loday2, loday2_adjoint):
    f = Cochain.from_matrix(Matrix([[frac(0), frac(0)], [frac(1), frac(0)]]))
    res = cocycle_membership("la", loday2, loday2_adjoint, None, f)
    assert not res.is_cocycle


def test_sampled_cocycles_are_cocycles(loday2, classified_op, loday2_adjoint):
    for sample in sample_cocycles("nla", loday2, loday2_adjoint, classified_op, 2):
        out = d_nla(loday2, classified_op, loday2_adjoint, sample)
        assert out.is_zero()


def test_nla_degree0_junction_holds(loday2, classified_op, loday2_adjoint):
    # the literal degree-0 combined map composes to zero with the corrected
    # lower block, even though it stays flagged as a convention extension
    d0 = nla_matrix(loday2, classified_op, loday2_adjoint, 0)
    d1 = nla_matrix(loday2, classified_op, loday2_adjoint, 1)
    assert mat_mul(d1, d0).is_zero()


# --- cochain container ------------------------------------------------------


def test_cochain_flat_layout():
    # vec is the canonical order: tuple rank in all_tuples, coordinate fastest
    rng = random.Random(3)
    for degree in range(4):
        alg_dim, m = rng.choice([(2, 3), (3, 1), (1, 2)])
        tuples = all_tuples(alg_dim, degree)
        table = {t: tuple(frac(rng.randint(-3, 3)) for _ in range(m)) for t in tuples}
        f = Cochain.from_table(degree, alg_dim, m, table)
        for rank_t, t in enumerate(tuples):
            assert f.vec[rank_t * m : rank_t * m + m] == table[t]
            assert f.value(t) == table[t]
        assert f.values == table
        for bad in (f.vec + (frac(0),), f.vec[:-1]):
            with pytest.raises(ShapeError):
                Cochain(degree, alg_dim, m, bad)
    for bad in ({(0,): (1, 2, 3), (1,): (4,)}, {(0,): (1, 2, 3)}, {(1,): (4,)}):
        with pytest.raises(ShapeError):
            Cochain.from_table(1, 2, 2, bad)
    tensor = tuple(
        tuple(tuple(frac(rng.randint(-3, 3)) for _ in range(3)) for _ in range(2)) for _ in range(2)
    )
    assert Cochain.from_bilinear_tensor(tensor).as_tensor() == tensor


def test_cochain_multilinear_call(loday2):
    # the evaluator the slow coboundary oracles above rest on
    f = Cochain.from_table(
        1, 2, 2, {(0,): (frac(1), frac(0)), (1,): (frac(0), frac(1))}
    )
    x = (frac(2), frac(3))
    assert evaluate_cochain(f, x) == (frac(2), frac(3))


def test_identity_cochain_values():
    # the oracle helper: the identity map of a 3-dim space as a 1-cochain
    f = identity_cochain(3)
    for i in range(3):
        assert f.value((i,)) == tuple(frac(1 if j == i else 0) for j in range(3))
    assert f.as_matrix() == Matrix.identity(3)


@pytest.mark.parametrize("rank_fn", [rank, gauss_rank])
def test_cohomology_reports_match_whole_matrix_oracle_all_catalog(rank_fn):
    """The top-down schedule (row-basis junctions, compressed ranks) gives the
    report of ranking every whole matrix and multiplying whole products,
    junction failures and their witnesses included."""
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        for kind in COMPLEX_KINDS:
            for variant in PHI_VARIANTS:
                got = cohomology_dims(kind, alg, rep, op, 3, variant, rank_fn=rank_fn)
                want = slow_cohomology_dims(kind, alg, rep, op, 3, variant, rank_fn=rank_fn)
                assert got == want, (name, kind, variant)


def elementary_product(draw, size: int):
    """A unimodular integer matrix S as a product of elementary matrices
    I + a e_pq, and S^-1 as the product of the I - a e_pq in reverse."""
    s = inv = Matrix.identity(size)
    for _ in range(draw(st.integers(0, 3 * size)) if size > 1 else 0):
        p, q = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        a = draw(st.sampled_from([-2, -1, 1, 2]))
        step = [{i: 1} for i in range(size)]
        s = s * Matrix.sparse(step[:p] + [{p: 1, q: a}] + step[p + 1 :], size)
        inv = Matrix.sparse(step[:p] + [{p: 1, q: -a}] + step[p + 1 :], size) * inv
    return s, inv


@st.composite
def integer_complexes(draw):
    """D_0..D_N with D_(n+1) D_n = 0 and rank D_n = r_n, as S_(n+1) E_n S_n^-1:
    E_n maps the last r_n coordinates of C^n onto the first r_n of C^(n+1),
    which E_(n+1) does not read, and each S_n is unimodular.  Then, if drawn,
    one entry of one D_n is changed, which may break a junction."""
    count = draw(st.integers(1, 4))
    dims = [draw(st.integers(0, 7)) for _ in range(count + 1)]
    ranks, below = [], 0
    for n in range(count):
        ranks.append(draw(st.integers(0, min(dims[n] - below, dims[n + 1]))))
        below = ranks[-1]
    bases = [elementary_product(draw, d) for d in dims]
    mats = []
    for n, r in enumerate(ranks):
        e = Matrix.sparse([{dims[n] - r + i: 1} if i < r else {} for i in range(dims[n + 1])], dims[n])
        mats.append(bases[n + 1][0] * e * bases[n][1])
    perturbed = draw(st.sampled_from([False, True, True]))
    candidates = [n for n, m in enumerate(mats) if m.rows and m.cols]
    if perturbed and candidates:
        n = draw(st.sampled_from(candidates))
        i, j = draw(st.integers(0, mats[n].rows - 1)), draw(st.integers(0, mats[n].cols - 1))
        rows = [dict(row) for row in mats[n].nz]
        rows[i][j] = rows[i].get(j, 0) + draw(st.sampled_from([-1, 1, 2]))
        mats[n] = Matrix.sparse(rows, mats[n].cols)
    return mats, None if perturbed else ranks


@settings(max_examples=300, deadline=None)
@given(integer_complexes())
def test_rank_schedule_matches_whole_matrix_oracle_on_random_complexes(complex_):
    mats, ranks = complex_
    for rank_fn in (rank, gauss_rank):
        got = _rank_complex(mats, rank_fn)
        assert got == slow_complex(mats, rank_fn)
        if ranks is not None:
            assert got[0] == ranks and all(got[1])


def test_junction_witness_reads_the_whole_product():
    """Row 1 of D_1 is the sum of rows 0 and 2, and `rank` takes its pivots
    from rows 2 and 0 (the sparsest row of column 0, then the lowest of two
    equal rows).  Row 0 times D_0 is zero, so the first nonzero row of the
    whole product D_1 D_0 is row 1, which no pivot came from."""
    d0, d1 = Matrix([[1], [0]]), Matrix([[0, 1], [1, 1], [1, 0]])
    pivots = []
    rank(d1, pivots)
    assert pivots == [(2, 0), (0, 1)]
    for rank_fn in (rank, gauss_rank):
        assert _rank_complex([d0, d1], rank_fn) == ([1, 2], (False,), (JunctionFailure(0, 1, 0, Fraction(1)),))


# int, integral Fraction and Fraction entries, zero half of the time
mixed_entries = st.one_of(
    st.just(0),
    st.integers(-2, 2),
    st.integers(-2, 2).map(Fraction),
    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
)


@st.composite
def cochain_vectors(draw):
    """A cochain shape of degree <= 2 over dims <= 2, 0 included, and two flat
    vectors of that length; the second is often the first, respelled."""
    degree, d, m = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    n = space_dim(d, m, degree)
    a = draw(st.lists(mixed_entries, min_size=n, max_size=n))
    b = draw(st.one_of(st.lists(mixed_entries, min_size=n, max_size=n), st.just([Fraction(x) for x in a])))
    return degree, d, m, a, b


def cochain_routes(degree, d, m, vec):
    """The cochain with flat vector `vec`, by the public constructor and by
    the sparse builders and arithmetic."""
    f, zero = Cochain(degree, d, m, tuple(vec)), Cochain.zero(degree, d, m)
    table = {t: vec[i * m : (i + 1) * m] for i, t in enumerate(all_tuples(d, degree))}
    routes = [f, zero + f, f + zero, f - zero, zero - (-f), f.scale(1), (f + f).scale(Fraction(1, 2))]
    routes.append(Cochain.from_table(degree, d, m, table))
    if degree == 1:
        routes.append(Cochain.from_matrix(f.as_matrix()))
    if degree == 2 and d:
        routes.append(Cochain.from_bilinear_tensor(f.as_tensor()))
    return routes


@settings(max_examples=150, deadline=None)
@given(cochain_vectors())
def test_cochain_sparse_form_agrees_with_its_dense_vector(case):
    """A cochain stores its nonzero coordinates; built by any route, its views
    are the dense vector, two cochains are equal exactly when their dense
    vectors are, and equal cochains hash alike.  The hash is that of the
    stored form: a cochain rebuilt from `nz` hashes the same, without
    building `vec`."""
    degree, d, m, a, b = case
    dense_a, dense_b = tuple(map(Fraction, a)), tuple(map(Fraction, b))
    routes_b = cochain_routes(degree, d, m, b)
    for f in cochain_routes(degree, d, m, a):
        stored = Cochain._of(degree, d, m, dict(f.nz))
        assert hash(stored) == hash(f) and "vec" not in vars(stored)
        assert f.vec == dense_a and f.is_zero() == (not any(a))
        assert all(type(x) is Fraction for x in f.vec) or f.vec == tuple(a)  # the public constructor keeps its tuple
        assert all(f.nz.values()) and all(0 <= k < len(dense_a) for k in f.nz)
        assert f.values == {t: dense_a[i * m : (i + 1) * m] for i, t in enumerate(all_tuples(d, degree))}
        for g in routes_b:
            assert (f == g) == (dense_a == dense_b) and (f != g) == (dense_a != dense_b)
            if f == g:
                assert hash(f) == hash(g)
