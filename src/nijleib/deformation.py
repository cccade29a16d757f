"""Truncated one-parameter formal deformations of a Nijenhuis Leibniz algebra.

A deformation is a pair of truncated power series: bilinear terms mu_0..mu_k
and operator terms N_0..N_k, with (mu_0, N_0) the base structure.  Everything
is order-by-order; there is no formal-completion machinery.  The order-n
equations are the base identities summed over the compositions of n: the
Leibniz family is the dense view of `algebra._leibniz_table` over the pairs
(mu_a, mu_b), and the Nijenhuis family that of `algebra._defect_table` over
the triples (mu_a, N_b, N_c), so neither identity is written out again here.
`residual_report` reads each order's verdict off the kernel values and builds
the dense view at the first failing order only.

Equivalence is conjugation by a formal isomorphism psi with psi_0 = Id:
`twist_by_isomorphism` computes the conjugate and `equivalence_check` compares
against it.  Equivalent deformations have infinitesimals that differ by
d(psi_1, 0): pass `infinitesimal(d') - infinitesimal(d)` and psi_1 to
`cochain.coboundary_difference`.  Rigidity (H^2 of the combined complex) is
read off `cochain.cohomology_dims`.  The series and the reports are frozen
records (`_record.record`); a series checks its term counts and shapes in
`__post_init__`.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from ._record import record
from .algebra import BilinearTensor, LeibnizAlgebra
from .algebra import _bracket, _defect_table, _dense_pairs, _leibniz_table, _table
from .cochain import Cochain, NLACochain
from .errors import PreconditionError, ShapeError
from .linalg import Matrix, combine, row_times


@record
class TruncatedDeformation:
    order: int
    mu_terms: tuple[BilinearTensor, ...]
    n_terms: tuple[Matrix, ...]

    def __post_init__(self):
        if self.order < 0 or len(self.mu_terms) != self.order + 1 or len(self.n_terms) != self.order + 1:
            raise ShapeError("need exactly order+1 terms in each series")
        dim = self.dim
        for i, mu in enumerate(self.mu_terms):
            if len(mu) != dim or any(len(row) != dim or any(len(v) != dim for v in row) for row in mu):
                raise ShapeError(f"mu_{i} is not a {dim}x{dim}x{dim} tensor")
        _check_square(self.n_terms, dim, "N")

    @property
    def dim(self) -> int:
        return len(self.mu_terms[0])


def _check_square(terms: tuple[Matrix, ...], dim: int, name: str) -> None:
    for i, m in enumerate(terms):
        if (m.rows, m.cols) != (dim, dim):
            raise ShapeError(f"{name}_{i} is {m.rows}x{m.cols}, not {dim}x{dim}")


def trivial_deformation(alg: LeibnizAlgebra, n_op: Matrix, order: int) -> TruncatedDeformation:
    zero_mu = _dense_pairs({}, alg.dim)
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


def _residual_values(alg: LeibnizAlgebra, n_op: Matrix, d: TruncatedDeformation):
    """The order-n residual kernels as a function of n: the nonzero values
    of the Leibniz family on basis triples and of the Nijenhuis family on
    basis pairs.  The mu terms are converted to tables once, here; the N
    terms enter as the rows they store."""
    _check_base(alg, n_op, d)
    mus = [_table(m) for m in d.mu_terms]
    rows = [m.nz for m in d.n_terms]

    def values(order: int) -> tuple[dict, dict]:
        leibniz = _leibniz_table(_compositions(order, mus, mus))
        # sum over a + b + c = n of mu_a(N_b u, N_c v) - N_b [u, v]*, with
        # [u, v]* the star bracket of mu_a and N_c
        return leibniz, _defect_table((0, 0, 1), _compositions(order, mus, rows, rows))

    return values


def _dense_residual(leibniz: dict, nijenhuis: dict, dim: int) -> tuple[tuple, BilinearTensor]:
    """The dense views of the two families' values."""
    tri = tuple(_dense_pairs({(j, k): v for (h, j, k), v in leibniz.items() if h == i}, dim) for i in range(dim))
    return tri, _dense_pairs(nijenhuis, dim)


def deformation_residual(
    alg: LeibnizAlgebra, n_op: Matrix, d: TruncatedDeformation, order: int
) -> tuple[tuple, BilinearTensor]:
    """LHS - RHS of the order-n Leibniz and Nijenhuis equation families,
    evaluated on all basis triples / pairs."""
    values = _residual_values(alg, n_op, d)
    if not 0 <= order <= d.order:
        raise PreconditionError(f"order {order} outside 0..{d.order}")
    return _dense_residual(*values(order), alg.dim)


@record
class ResidualReport:
    order: int
    first_failing_order: Optional[int]
    leibniz_residual: Optional[tuple]  # tensors at the first failing order
    nijenhuis_residual: Optional[BilinearTensor]

    @property
    def passes(self) -> bool:
        return self.first_failing_order is None


def residual_report(alg: LeibnizAlgebra, n_op: Matrix, d: TruncatedDeformation) -> ResidualReport:
    """The first order whose equations fail, read off the kernel values; the
    dense residuals are built for that order only."""
    values = _residual_values(alg, n_op, d)
    for n in range(d.order + 1):
        leibniz, nijenhuis = values(n)
        if leibniz or nijenhuis:
            return ResidualReport(d.order, n, *_dense_residual(leibniz, nijenhuis, alg.dim))
    return ResidualReport(d.order, None, None, None)


def infinitesimal(d: TruncatedDeformation) -> NLACochain:
    """The order-1 pair as a degree-2 element of the combined complex."""
    if d.order < 1:
        raise PreconditionError("infinitesimal needs order >= 1")
    return NLACochain(
        Cochain.from_bilinear_tensor(d.mu_terms[1]),
        Cochain.from_matrix(d.n_terms[1]),
    )


@record
class FormalIsomorphism:
    order: int
    psi_terms: tuple[Matrix, ...]

    def __post_init__(self):
        if self.order < 0 or len(self.psi_terms) != self.order + 1:
            raise ShapeError("need exactly order+1 series terms")
        dim = self.dim
        _check_square(self.psi_terms, dim, "psi")
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


def twist_by_isomorphism(d: TruncatedDeformation, iso: FormalIsomorphism) -> TruncatedDeformation:
    """The deformation (mu', N') with psi o mu' = mu o (psi x psi) and
    psi o N' = N o psi, truncated at the common order."""
    if iso.order != d.order:
        raise ShapeError("deformation and isomorphism orders differ")
    eta, psi = formal_inverse(iso).psi_terms, iso.psi_terms
    zero = Matrix.zero(d.dim, d.dim)
    eta_cols, psi_cols = [e.transpose().nz for e in eta], [p.transpose().nz for p in psi]
    mus = [_table(m) for m in d.mu_terms]

    def mu_table(n):
        # eta_a mu_b(psi_c e_i, psi_e e_j) summed over a + b + c + e = n
        terms = list(_compositions(n, eta_cols, mus, psi_cols, psi_cols))
        pairs = product(range(d.dim), repeat=2)
        return {(i, j): combine((1, row_times(_bracket(m, p[i], q[j]), e)) for e, m, p, q in terms) for i, j in pairs}

    orders = range(d.order + 1)
    mu_terms = tuple(_dense_pairs(mu_table(n), d.dim) for n in orders)
    n_terms = tuple(
        sum((e * m * p for e, m, p in _compositions(n, eta, d.n_terms, psi)), zero) for n in orders
    )
    return TruncatedDeformation(d.order, mu_terms, n_terms)


@record
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
        mu_res = Cochain.from_bilinear_tensor(d_primed.mu_terms[n]) - Cochain.from_bilinear_tensor(twisted.mu_terms[n])
        n_res = d_primed.n_terms[n] - twisted.n_terms[n]
        if not (mu_res.is_zero() and n_res.is_zero()):
            return EquivalenceReport(n, mu_res.as_tensor(), n_res)
    return EquivalenceReport(None, None, None)
