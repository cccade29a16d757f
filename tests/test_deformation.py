"""Truncated one-parameter deformations: order-by-order residuals, twisting
by formal isomorphisms, infinitesimal cocycles, and the rigidity readout of
H^2 of the combined complex."""

import random
from itertools import product

import pytest

from nijleib.algebra import (
    Counterexample,
    adjoint_representation,
    catalog_get,
    catalog_nijenhuis_pairs,
    check_leibniz,
)
from nijleib.algebra import _dense_pairs
from nijleib.cochain import Cochain, NLACochain, coboundary_difference, cocycle_membership, cohomology_dims, d_nla
from nijleib.deformation import (
    EquivalenceReport,
    FormalIsomorphism,
    TruncatedDeformation,
    deformation_residual,
    equivalence_check,
    formal_inverse,
    infinitesimal,
    residual_report,
    trivial_deformation,
    twist_by_isomorphism,
)
from nijleib.errors import PreconditionError, ShapeError
from nijleib.linalg import Matrix, frac
from nijleib.operators import is_nijenhuis, nijenhuis, operator_defect
from oracles import bilinear_eval, bilinear_tensor, bilinear_tensor_is_zero, from_structure
from oracles import unit_vector, vec_add, vec_sub, zero_vector


def compose_isomorphisms(a, b):
    """The series product a o b, truncated at the common order."""
    assert a.order == b.order
    zero = Matrix.zero(a.dim, a.dim)
    terms = (
        sum((a.psi_terms[i] * b.psi_terms[n - i] for i in range(n + 1)), zero) for n in range(a.order + 1)
    )
    return FormalIsomorphism(a.order, tuple(terms))


def random_psi1(rng, dim, lo=-3, hi=3):
    return Matrix([[frac(rng.randint(lo, hi)) for _ in range(dim)] for _ in range(dim)])


def test_trivial_deformation_passes(loday2, classified_op):
    d = trivial_deformation(loday2, classified_op, 3)
    report = residual_report(loday2, classified_op, d)
    assert report.passes
    assert report.first_failing_order is None


def test_base_terms_enforced(loday2, classified_op):
    d = trivial_deformation(loday2, classified_op, 1)
    wrong = TruncatedDeformation(1, d.mu_terms, (Matrix.zero(2, 2),) + d.n_terms[1:])
    with pytest.raises(PreconditionError):
        residual_report(loday2, classified_op, wrong)


def test_twisted_trivial_passes_order3():
    rng = random.Random(1)
    for name, alg, op in catalog_nijenhuis_pairs():
        psi1 = random_psi1(rng, alg.dim)
        iso = FormalIsomorphism.linear(psi1, 3)
        d = twist_by_isomorphism(trivial_deformation(alg, op, 3), iso)
        assert residual_report(alg, op, d).passes, name


def test_twist_first_order_terms(loday2, classified_op):
    """Twisting the trivial deformation by Id + t psi produces first-order
    terms delta(psi) and N psi - psi N."""
    rng = random.Random(7)
    rep = adjoint_representation(loday2, classified_op)
    for _ in range(20):
        psi1 = random_psi1(rng, 2)
        iso = FormalIsomorphism.linear(psi1, 1)
        d = twist_by_isomorphism(trivial_deformation(loday2, classified_op, 1), iso)
        inf = infinitesimal(d)
        from nijleib.cochain import delta

        expected_mu1 = delta(loday2, rep, Cochain.from_matrix(psi1))
        assert inf.upper.values == expected_mu1.values
        assert inf.lower.as_matrix() == (classified_op * psi1) - (psi1 * classified_op)


def test_twist_difference_is_exact(loday2, classified_op):
    rng = random.Random(13)
    rep = adjoint_representation(loday2, classified_op)
    for _ in range(20):
        psi1 = random_psi1(rng, 2)
        iso = FormalIsomorphism.linear(psi1, 1)
        d0 = trivial_deformation(loday2, classified_op, 1)
        dt = twist_by_isomorphism(d0, iso)
        pair = NLACochain(Cochain.from_matrix(psi1), Cochain.zero(0, 2, 2))
        expected = d_nla(loday2, classified_op, rep, pair)
        diff_upper = infinitesimal(dt).upper - infinitesimal(d0).upper
        diff_lower = infinitesimal(dt).lower - infinitesimal(d0).lower
        assert (diff_upper - expected.upper).is_zero()
        assert (diff_lower - expected.lower).is_zero()


def test_infinitesimal_class_difference_report(loday2, classified_op):
    psi1 = Matrix([[frac(1), frac(2)], [frac(0), frac(-1)]])
    iso = FormalIsomorphism.linear(psi1, 1)
    d0 = trivial_deformation(loday2, classified_op, 1)
    dt = twist_by_isomorphism(d0, iso)
    assert equivalence_check(d0, dt, iso).passes
    rep = adjoint_representation(loday2, classified_op)
    res = coboundary_difference(loday2, classified_op, rep, infinitesimal(dt) - infinitesimal(d0), psi1)
    assert res.matches
    assert res.residual.is_zero()


def test_infinitesimal_is_cocycle(loday2, classified_op):
    rng = random.Random(19)
    rep = adjoint_representation(loday2, classified_op)
    for _ in range(10):
        psi1 = random_psi1(rng, 2)
        d = twist_by_isomorphism(
            trivial_deformation(loday2, classified_op, 1), FormalIsomorphism.linear(psi1, 1)
        )
        member = cocycle_membership("nla", loday2, rep, classified_op, infinitesimal(d))
        assert member.is_cocycle
        assert member.is_coboundary  # twists of the trivial deformation are exact


def test_perturbed_mu1_fails_with_certificate(loday2, classified_op):
    d0 = trivial_deformation(loday2, classified_op, 1)
    mu1 = [[list(v) for v in row] for row in d0.mu_terms[1]]
    mu1[0][0][1] = frac(1)  # not a cocycle direction for this bracket
    bad = TruncatedDeformation(
        1,
        (d0.mu_terms[0], tuple(tuple(tuple(v) for v in row) for row in mu1)),
        d0.n_terms,
    )
    report = residual_report(loday2, classified_op, bad)
    assert not report.passes
    assert report.first_failing_order == 1
    assert report.leibniz_residual is not None or report.nijenhuis_residual is not None


def test_equivalence_check(loday2, classified_op):
    psi1 = Matrix([[frac(2), frac(1)], [frac(-1), frac(0)]])
    iso = FormalIsomorphism.linear(psi1, 2)
    d0 = trivial_deformation(loday2, classified_op, 2)
    dt = twist_by_isomorphism(d0, iso)
    assert equivalence_check(d0, dt, iso).passes
    # the identity isomorphism does not relate them (psi1 != 0)
    bad = equivalence_check(d0, dt, FormalIsomorphism.identity(2, 2))
    assert not bad.passes
    assert bad.first_failing_order == 1


def test_formal_inverse_composes_to_identity():
    rng = random.Random(29)
    for order in (1, 2, 3):
        psi = FormalIsomorphism(
            order,
            (Matrix.identity(2),) + tuple(random_psi1(rng, 2) for _ in range(order)),
        )
        comp = compose_isomorphisms(formal_inverse(psi), psi)
        assert comp.psi_terms[0] == Matrix.identity(2)
        assert all(m.is_zero() for m in comp.psi_terms[1:])


def random_tensor(rng, dim):
    return bilinear_tensor([[[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)])


def random_series_deformation(rng, alg, op, order):
    """The base structure followed by random terms; not a deformation in general."""
    mu = tuple(random_tensor(rng, alg.dim) for _ in range(order))
    n = tuple(random_psi1(rng, alg.dim, -2, 2) for _ in range(order))
    return TruncatedDeformation(order, (alg.structure,) + mu, (op,) + n)


def random_iso(rng, dim, order):
    return FormalIsomorphism(order, (Matrix.identity(dim),) + tuple(random_psi1(rng, dim) for _ in range(order)))


def test_twist_is_an_action_of_composed_isomorphisms():
    """Every series term is drawn, so each order-n coefficient of twisting,
    composing and the equivalence residual sums over all of its terms."""
    rng = random.Random(5)
    for name, alg, op in catalog_nijenhuis_pairs():
        for order in range(4):
            d = random_series_deformation(rng, alg, op, order)
            a, b = random_iso(rng, alg.dim, order), random_iso(rng, alg.dim, order)
            twisted = twist_by_isomorphism(d, a)
            composed = twist_by_isomorphism(d, compose_isomorphisms(a, b))
            assert twist_by_isomorphism(twisted, b) == composed, (name, order)
            assert equivalence_check(d, twisted, a).passes, (name, order)


def slow_deformation_residual(d, n):
    """Oracle of `deformation_residual`: both order-n families summed term by
    term over every index tuple with i + j = n (i + j + k = n), with the dense
    `bilinear_eval` and `Matrix.apply`."""
    dim, mu, nn = d.dim, d.mu_terms, d.n_terms
    basis = [unit_vector(dim, i) for i in range(dim)]

    def leibniz(x, y, z):
        out = zero_vector(dim)
        for i in range(n + 1):
            a, b = mu[i], mu[n - i]
            out = vec_add(out, bilinear_eval(a, x, bilinear_eval(b, y, z)))
            out = vec_sub(out, bilinear_eval(a, bilinear_eval(b, x, y), z))
            out = vec_sub(out, bilinear_eval(a, y, bilinear_eval(b, x, z)))
        return out

    def nijenhuis_(u, v):
        out = zero_vector(dim)
        for i, j in product(range(n + 1), repeat=2):
            if i + j <= n:
                k = n - i - j
                out = vec_add(out, bilinear_eval(mu[i], nn[j].apply(u), nn[k].apply(v)))
                out = vec_add(out, nn[i].apply(nn[j].apply(bilinear_eval(mu[k], u, v))))
                out = vec_sub(out, nn[i].apply(bilinear_eval(mu[j], nn[k].apply(u), v)))
                out = vec_sub(out, nn[i].apply(bilinear_eval(mu[j], u, nn[k].apply(v))))
        return out

    tri = tuple(tuple(tuple(leibniz(x, y, z) for z in basis) for y in basis) for x in basis)
    return tri, tuple(tuple(nijenhuis_(u, v) for v in basis) for u in basis)


def test_deformation_residual_matches_dense_oracle():
    """Both families at every order of random series on the catalog pairs,
    and on random brackets and operators that satisfy neither identity."""
    rng = random.Random(19)
    cases = list(catalog_nijenhuis_pairs())
    for dim in (1, 2, 3):
        alg = from_structure(random_tensor(rng, dim))
        cases.append((f"random{dim}", alg, random_psi1(rng, dim, -2, 2)))
    failing = 0
    for name, alg, op in cases:
        for order in range(4):
            d = random_series_deformation(rng, alg, op, order)
            for n in range(order + 1):
                tri, bi = deformation_residual(alg, op, d, n)
                assert (tri, bi) == slow_deformation_residual(d, n), (name, order, n)
                failing += not bilinear_tensor_is_zero(bi)
            # order 0 is the Leibniz identity and the Nijenhuis identity of the base
            tri, bi = deformation_residual(alg, op, d, 0)
            first = next(
                (((i, j, k), tri[i][j][k]) for i, j, k in product(range(alg.dim), repeat=3) if any(tri[i][j][k])),
                None,
            )
            assert check_leibniz(alg) == (first and Counterexample("leibniz", *first)), name
            assert bi == _dense_pairs(operator_defect(alg, op, nijenhuis()), alg.dim), name
    assert failing > 0


def slow_equivalence_check(d_plain, d_primed, iso):
    """The conjugation residuals psi o mu' - mu o (psi x psi) and
    psi o N' - N o psi, summed term by term at each order n over every index
    tuple with i + j = n (i + j + k = n for mu o (psi x psi)); the first order
    where either is nonzero fails."""
    dim, psi = d_plain.dim, iso.psi_terms
    basis = [unit_vector(dim, i) for i in range(dim)]
    for n in range(iso.order + 1):

        def mu_res(x, y):
            out = zero_vector(dim)
            for i in range(n + 1):
                out = vec_add(out, psi[i].apply(bilinear_eval(d_primed.mu_terms[n - i], x, y)))
            for i, j in product(range(n + 1), repeat=2):
                if i + j <= n:
                    rhs = bilinear_eval(d_plain.mu_terms[i], psi[j].apply(x), psi[n - i - j].apply(y))
                    out = vec_sub(out, rhs)
            return out

        mu_tensor = tuple(tuple(mu_res(x, y) for y in basis) for x in basis)
        n_res = Matrix.zero(dim, dim)
        for i in range(n + 1):
            n_res = n_res + psi[i] * d_primed.n_terms[n - i] - d_plain.n_terms[i] * psi[n - i]
        if not (bilinear_tensor_is_zero(mu_tensor) and n_res.is_zero()):
            return EquivalenceReport(n, mu_tensor, n_res)
    return EquivalenceReport(None, None, None)


def perturbed(rng, d, order, which):
    """d with one nonzero entry added to mu_order, N_order or both."""
    mus, ns, dim = list(d.mu_terms), list(d.n_terms), d.dim
    if which in ("mu", "both"):
        tensor = [[list(v) for v in row] for row in mus[order]]
        i, j, k = (rng.randrange(dim) for _ in range(3))
        tensor[i][j][k] += rng.choice([-2, -1, 1, 2])
        mus[order] = bilinear_tensor(tensor)
    if which in ("n", "both"):
        entries = [list(row) for row in ns[order].data]
        entries[rng.randrange(dim)][rng.randrange(dim)] += rng.choice([-2, -1, 1, 2])
        ns[order] = Matrix(entries)
    return TruncatedDeformation(d.order, tuple(mus), tuple(ns))


def test_equivalence_check_matches_conjugation_oracle():
    """The twist-based check against the conjugation residuals, on twists of
    random series that are left intact or perturbed at one order; the whole
    report (first failing order and both residuals) must agree."""
    rng = random.Random(31)
    failing = 0
    for name, alg, op in catalog_nijenhuis_pairs():
        for order in range(4):
            for _ in range(6):
                d = random_series_deformation(rng, alg, op, order)
                iso = random_iso(rng, alg.dim, order)
                primed = twist_by_isomorphism(d, iso)
                at = rng.choice([None, *range(order + 1)])
                if at is not None:
                    primed = perturbed(rng, primed, at, rng.choice(["mu", "n", "both"]))
                report = equivalence_check(d, primed, iso)
                assert report == slow_equivalence_check(d, primed, iso), (name, order, at)
                assert report.first_failing_order == at, (name, order, at)
                failing += not report.passes
    assert failing > 0


def test_iso_requires_identity_head():
    with pytest.raises(PreconditionError):
        FormalIsomorphism(1, (Matrix.zero(2, 2), Matrix.identity(2)))


def test_series_term_shapes_are_checked():
    """A 2-dim mu_1 or N_1 under a 3-dim base, a 2x2 psi_1 after a 3x3
    identity, or a negative order is refused when the series is built."""
    alg = catalog_get("dsum(loday2,abelian1)")
    base = trivial_deformation(alg, Matrix.zero(3, 3), 1)
    small = trivial_deformation(catalog_get("loday2"), Matrix.zero(2, 2), 1)
    with pytest.raises(ShapeError, match="mu_1 is not a 3x3x3 tensor"):
        TruncatedDeformation(1, (base.mu_terms[0], small.mu_terms[1]), base.n_terms)
    with pytest.raises(ShapeError, match="N_1 is 2x2, not 3x3"):
        TruncatedDeformation(1, base.mu_terms, (base.n_terms[0], small.n_terms[1]))
    ragged = tuple(row[:2] for row in base.mu_terms[1])
    with pytest.raises(ShapeError, match="mu_1"):
        TruncatedDeformation(1, (base.mu_terms[0], ragged), base.n_terms)
    with pytest.raises(ShapeError, match="psi_1 is 2x2, not 3x3"):
        FormalIsomorphism(1, (Matrix.identity(3), Matrix.zero(2, 2)))
    with pytest.raises(ShapeError, match="psi_0 is 3x2"):
        FormalIsomorphism(0, (Matrix.zero(3, 2),))
    with pytest.raises(ShapeError, match="order"):
        TruncatedDeformation(-1, (), ())
    with pytest.raises(ShapeError, match="order"):
        FormalIsomorphism(-1, ())


def test_rigidity_report_abelian1():
    # H^2 = 0 of the combined complex implies rigidity; the verdict needs
    # passing junctions
    alg = catalog_get("abelian1")
    zero = Matrix.zero(1, 1)
    assert is_nijenhuis(alg, zero)
    report = cohomology_dims("nla", alg, adjoint_representation(alg, zero), zero, max_degree=2)
    assert report.entry(2).dim_h is not None
    assert all(report.junctions)


def test_rigidity_report_loday2(loday2, classified_op):
    # H^2 = 3, so the rigidity criterion is not met
    report = cohomology_dims("nla", loday2, adjoint_representation(loday2, classified_op), classified_op, max_degree=2)
    assert report.entry(2).dim_h == 3
    assert all(report.junctions)
