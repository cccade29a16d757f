"""Truncated one-parameter formal deformations of a Nijenhuis Leibniz algebra.

A deformation is a pair of truncated power series: bilinear terms mu_0..mu_k
and operator terms N_0..N_k, with (mu_0, N_0) the base structure.  Everything
is order-by-order; there is no formal-completion machinery.

Equivalence is conjugation by a formal isomorphism psi with psi_0 = Id:
`twist_by_isomorphism` computes the conjugate and `equivalence_check` compares
against it.  Equivalent deformations have infinitesimals that differ by
d(psi_1, 0), which `cochain.coboundary_difference` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .algebra import (
    BilinearTensor,
    LeibnizAlgebra,
    adjoint_representation,
    bilinear_tensor_is_zero,
    zero_bilinear_tensor,
)
from .algebra import _apply, _bracket, _combine, _leibniz, _on_basis, _table
from .cochain import (
    Cochain,
    CoboundaryDifference,
    CohomologyReport,
    NLACochain,
    coboundary_difference,
    cohomology_dims,
)
from .errors import PreconditionError, ShapeError
from .linalg import Matrix, vec_sub
from .operators import check_operator, nijenhuis


@dataclass(frozen=True)
class TruncatedDeformation:
    order: int
    mu_terms: tuple[BilinearTensor, ...]
    n_terms: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.mu_terms) != self.order + 1 or len(self.n_terms) != self.order + 1:
            raise ShapeError("need exactly order+1 terms in each series")

    @property
    def dim(self) -> int:
        return len(self.mu_terms[0])


def trivial_deformation(alg: LeibnizAlgebra, n_op: Matrix, order: int) -> TruncatedDeformation:
    zero_mu = zero_bilinear_tensor(alg.dim)
    zero_n = Matrix.zero(alg.dim, alg.dim)
    return TruncatedDeformation(
        order,
        (alg.structure,) + (zero_mu,) * order,
        (n_op,) + (zero_n,) * order,
    )


def _compositions(n: int, *series):
    """Term tuples (s_1[i_1], ..., s_k[i_k]) over all i_1 + ... + i_k = n, in
    lexicographic order of the indices.  An index never runs past its series,
    so a short series contributes only the terms it holds.  Every order-n
    coefficient of a product of truncated series is a sum over these tuples."""
    head, *rest = series
    if not rest:
        if n < len(head):
            yield (head[n],)
        return
    for i, term in enumerate(head[: n + 1]):
        for tail in _compositions(n - i, *rest):
            yield (term,) + tail


def _check_base(alg: LeibnizAlgebra, n_op: Matrix, d: TruncatedDeformation) -> None:
    if d.mu_terms[0] != alg.structure or d.n_terms[0] != n_op:
        raise PreconditionError("deformation does not start at the given base structure")


def deformation_residual(
    alg: LeibnizAlgebra, n_op: Matrix, d: TruncatedDeformation, order: int
) -> tuple[tuple, BilinearTensor]:
    """LHS - RHS of the order-n Leibniz and Nijenhuis equation families,
    evaluated on all basis triples / pairs."""
    _check_base(alg, n_op, d)
    if not 0 <= order <= d.order:
        raise PreconditionError(f"order {order} outside 0..{d.order}")
    mus = [_table(m) for m in d.mu_terms]
    cols = [m.transpose().nz for m in d.n_terms]
    pairs = list(_compositions(order, mus, mus))
    # terms (mu_i, N_i), so that one index tuple serves all four Nijenhuis terms
    triples = list(_compositions(order, *[tuple(zip(mus, cols))] * 3))

    def nijenhuis_(u, v):
        # sum over i + j + k = n of mu_i(N_j u, N_k v) + N_i N_j mu_k(u, v)
        #   - N_i (mu_j(N_k u, v) + mu_j(u, N_k v))
        return _combine(
            term
            for (mi, ni), (mj, nj), (mk, nk) in triples
            for term in (
                (1, _bracket(mi, _apply(nj, u), _apply(nk, v))),
                (1, _apply(ni, _apply(nj, _bracket(mk, u, v)))),
                (-1, _apply(ni, _bracket(mj, _apply(nk, u), v))),
                (-1, _apply(ni, _bracket(mj, u, _apply(nk, v)))),
            )
        )

    return _on_basis(alg.dim, 3, partial(_leibniz, pairs)), _on_basis(alg.dim, 2, nijenhuis_)


@dataclass(frozen=True)
class ResidualReport:
    order: int
    first_failing_order: Optional[int]
    leibniz_residual: Optional[tuple]  # tensors at the first failing order
    nijenhuis_residual: Optional[BilinearTensor]

    @property
    def passes(self) -> bool:
        return self.first_failing_order is None


def residual_report(alg: LeibnizAlgebra, n_op: Matrix, d: TruncatedDeformation) -> ResidualReport:
    for n in range(d.order + 1):
        tri, bi = deformation_residual(alg, n_op, d, n)
        if not all(map(bilinear_tensor_is_zero, tri + (bi,))):
            return ResidualReport(d.order, n, tri, bi)
    return ResidualReport(d.order, None, None, None)


def infinitesimal(d: TruncatedDeformation) -> NLACochain:
    """The order-1 pair as a degree-2 element of the combined complex."""
    if d.order < 1:
        raise PreconditionError("infinitesimal needs order >= 1")
    return NLACochain(
        Cochain.from_bilinear_tensor(d.mu_terms[1]),
        Cochain.from_matrix(d.n_terms[1]),
    )


@dataclass(frozen=True)
class FormalIsomorphism:
    order: int
    psi_terms: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.psi_terms) != self.order + 1:
            raise ShapeError("need exactly order+1 series terms")
        dim = self.psi_terms[0].rows
        if self.psi_terms[0] != Matrix.identity(dim):
            raise PreconditionError("formal isomorphism must start at the identity")

    @property
    def dim(self) -> int:
        return self.psi_terms[0].rows

    @classmethod
    def identity(cls, dim: int, order: int) -> "FormalIsomorphism":
        zero = Matrix.zero(dim, dim)
        return cls(order, (Matrix.identity(dim),) + (zero,) * order)

    @classmethod
    def linear(cls, psi1: Matrix, order: int) -> "FormalIsomorphism":
        """Id + t*psi1, padded with zeros up to the given order."""
        zero = Matrix.zero(psi1.rows, psi1.cols)
        terms = [Matrix.identity(psi1.rows), psi1] + [zero] * (order - 1)
        return cls(order, tuple(terms[: order + 1]))


def formal_inverse(iso: FormalIsomorphism) -> FormalIsomorphism:
    """Truncated series inverse via eta_n = -sum_{i=1..n} psi_i eta_{n-i}."""
    zero = Matrix.zero(iso.dim, iso.dim)
    eta: tuple[Matrix, ...] = (Matrix.identity(iso.dim),)
    for n in range(1, iso.order + 1):
        # eta holds n terms here, so the sum leaves out psi_0 eta_n
        eta += (-sum((p * e for p, e in _compositions(n, iso.psi_terms, eta)), zero),)
    return FormalIsomorphism(iso.order, eta)


def compose_isomorphisms(a: FormalIsomorphism, b: FormalIsomorphism) -> FormalIsomorphism:
    if a.order != b.order:
        raise ShapeError("series orders differ")
    zero = Matrix.zero(a.dim, a.dim)
    terms = (
        sum((p * q for p, q in _compositions(n, a.psi_terms, b.psi_terms)), zero)
        for n in range(a.order + 1)
    )
    return FormalIsomorphism(a.order, tuple(terms))


def twist_by_isomorphism(d: TruncatedDeformation, iso: FormalIsomorphism) -> TruncatedDeformation:
    """The deformation (mu', N') with psi o mu' = mu o (psi x psi) and
    psi o N' = N o psi, truncated at the common order."""
    if iso.order != d.order:
        raise ShapeError("deformation and isomorphism orders differ")
    eta, psi = formal_inverse(iso).psi_terms, iso.psi_terms
    zero = Matrix.zero(d.dim, d.dim)
    eta_cols, psi_cols = [e.transpose().nz for e in eta], [p.transpose().nz for p in psi]
    mus = [_table(m) for m in d.mu_terms]

    def mu_term(terms, x, y):
        return _combine((1, _apply(e, _bracket(m, _apply(p, x), _apply(q, y)))) for e, m, p, q in terms)

    orders = range(d.order + 1)
    mu_series = [list(_compositions(n, eta_cols, mus, psi_cols, psi_cols)) for n in orders]
    mu_terms = tuple(_on_basis(d.dim, 2, partial(mu_term, terms)) for terms in mu_series)
    n_terms = tuple(
        sum((e * m * p for e, m, p in _compositions(n, eta, d.n_terms, psi)), zero) for n in orders
    )
    return TruncatedDeformation(d.order, mu_terms, n_terms)


@dataclass(frozen=True)
class EquivalenceReport:
    first_failing_order: Optional[int]
    mu_residual: Optional[BilinearTensor]
    n_residual: Optional[Matrix]

    @property
    def passes(self) -> bool:
        return self.first_failing_order is None


def equivalence_check(
    d_plain: TruncatedDeformation,
    d_primed: TruncatedDeformation,
    iso: FormalIsomorphism,
) -> EquivalenceReport:
    """Exact order-by-order residuals of psi o mu' = mu o (psi x psi) and
    psi o N' = N o psi.  As psi_0 = Id, they vanish below the first order where
    d_primed departs from the twist of d_plain by psi, and equal d_primed - twist there."""
    if d_primed.order != d_plain.order:
        raise ShapeError("orders differ")
    twisted = twist_by_isomorphism(d_plain, iso)
    for n in range(iso.order + 1):
        mu_p, mu_t = d_primed.mu_terms[n], twisted.mu_terms[n]
        mu_res = tuple(tuple(map(vec_sub, p, t)) for p, t in zip(mu_p, mu_t))
        n_res = d_primed.n_terms[n] - twisted.n_terms[n]
        if not (bilinear_tensor_is_zero(mu_res) and n_res.is_zero()):
            return EquivalenceReport(n, mu_res, n_res)
    return EquivalenceReport(None, None, None)


def infinitesimal_class_difference(
    alg: LeibnizAlgebra,
    n_op: Matrix,
    d_plain: TruncatedDeformation,
    d_primed: TruncatedDeformation,
    iso: FormalIsomorphism,
    variant: str = "full",
) -> CoboundaryDifference:
    """Verify that equivalent deformations have infinitesimals differing by
    the coboundary of (psi_1, 0)."""
    check = equivalence_check(d_plain, d_primed, iso)
    if not check.passes:
        raise PreconditionError(
            f"deformations are not equivalent via the given isomorphism "
            f"(first failure at order {check.first_failing_order})"
        )
    diff = infinitesimal(d_primed) - infinitesimal(d_plain)
    rep = adjoint_representation(alg, n_op)
    return coboundary_difference(alg, n_op, rep, diff, iso.psi_terms[1], variant)


@dataclass(frozen=True)
class RigidityReport:
    h2: Optional[int]
    cohomology: CohomologyReport
    criterion_satisfied: Optional[bool]  # None when a junction failure withholds the verdict


def rigidity_report(alg: LeibnizAlgebra, n_op: Matrix, variant: str = "full") -> RigidityReport:
    """One-directional criterion: H^2 of the combined complex = 0 implies
    rigidity.  Nothing is claimed when H^2 is nonzero or a junction fails."""
    bad = check_operator(alg, n_op, nijenhuis())
    if bad is not None:
        raise PreconditionError(f"not a Nijenhuis operator: {bad.describe()}")
    rep = adjoint_representation(alg, n_op)
    report = cohomology_dims("nla", alg, rep, n_op, max_degree=2, variant=variant)
    h2 = report.entry(2).dim_h
    if h2 is None or not all(report.junctions):
        return RigidityReport(h2, report, None)
    return RigidityReport(h2, report, h2 == 0)
