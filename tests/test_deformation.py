"""Truncated one-parameter deformations: order-by-order residuals, twisting
by formal isomorphisms, infinitesimal cocycles, and the rigidity report."""

import random

import pytest

from nijleib.algebra import adjoint_representation, bilinear_tensor, catalog_get, catalog_nijenhuis_pairs
from nijleib.cochain import Cochain, NLACochain, cocycle_membership, d_nla
from nijleib.deformation import (
    FormalIsomorphism,
    TruncatedDeformation,
    compose_isomorphisms,
    equivalence_check,
    formal_inverse,
    infinitesimal,
    infinitesimal_class_difference,
    residual_report,
    rigidity_report,
    trivial_deformation,
    twist_by_isomorphism,
)
from nijleib.errors import PreconditionError
from nijleib.linalg import Matrix, frac


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
    res = infinitesimal_class_difference(loday2, classified_op, d0, dt, iso)
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


def test_iso_requires_identity_head():
    with pytest.raises(PreconditionError):
        FormalIsomorphism(1, (Matrix.zero(2, 2), Matrix.identity(2)))


def test_rigidity_report_abelian1():
    alg = catalog_get("abelian1")
    zero = Matrix.zero(1, 1)
    report = rigidity_report(alg, zero)
    assert report.h2 is not None
    assert report.criterion_satisfied == (report.h2 == 0)


def test_rigidity_report_loday2(loday2, classified_op):
    report = rigidity_report(loday2, classified_op)
    assert report.h2 == 3
    assert report.criterion_satisfied is False
    assert all(report.cohomology.junctions)
