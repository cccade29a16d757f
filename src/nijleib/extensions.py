"""Abelian extensions of a Nijenhuis Leibniz algebra by a module with trivial
bracket, in split coordinates g (+) V.

The build direction assembles the total algebra from a cocycle pair
(psi: g x g -> V, chi: g -> V) over a given representation; extraction from a
section recovers pairs, and the pairs of two sections differ by d(gamma, 0),
gamma the difference of the sections (`cochain.coboundary_difference`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .algebra import (
    Counterexample,
    LeibnizAlgebra,
    Representation,
    check_leibniz,
    check_representation,
)
from .cochain import Cochain, CoboundaryDifference, NLACochain, coboundary_difference
from .errors import PreconditionError, ShapeError
from .linalg import Matrix, Vector, block_matrix, is_zero_vector, zero_vector
from .operators import check_operator, nijenhuis


@dataclass(frozen=True)
class CocyclePair:
    """A candidate degree-2 element (psi, chi) of the combined complex with
    coefficients in the fiber."""

    psi: Cochain  # degree 2, g x g -> V
    chi: Cochain  # degree 1, g -> V

    def __post_init__(self):
        if self.psi.degree != 2 or self.chi.degree != 1:
            raise ShapeError("cocycle pair needs degrees (2, 1)")
        if (self.psi.alg_dim, self.psi.module_dim) != (self.chi.alg_dim, self.chi.module_dim):
            raise ShapeError("pair components live over different spaces")

    @classmethod
    def zero(cls, alg_dim: int, module_dim: int) -> "CocyclePair":
        return cls(
            Cochain.zero(2, alg_dim, module_dim),
            Cochain.zero(1, alg_dim, module_dim),
        )

    def as_nla(self) -> NLACochain:
        return NLACochain(self.psi, self.chi)

    def __sub__(self, other: "CocyclePair") -> NLACochain:
        return self.as_nla() - other.as_nla()


@dataclass(frozen=True)
class Section:
    """A right inverse of the projection, as blocks (Id; sigma)."""

    sigma: Matrix  # fiber_dim x base_dim

    @classmethod
    def canonical(cls, base_dim: int, fiber_dim: int) -> "Section":
        return cls(Matrix.zero(fiber_dim, base_dim))

    def apply(self, x: Vector) -> Vector:
        return tuple(x) + self.sigma.apply(x)


@dataclass(frozen=True)
class ExtensionDatum:
    base_alg: LeibnizAlgebra
    base_op: Matrix
    fiber_dim: int
    fiber_op: Matrix
    rep: Representation  # governing representation of the base on the fiber
    total: LeibnizAlgebra
    total_op: Matrix
    certificates: tuple[Counterexample, ...]  # empty iff all invariants hold

    @property
    def ok(self) -> bool:
        return not self.certificates

    def project(self, z: Vector) -> Vector:
        return z[: self.base_alg.dim]

    def fiber_part(self, z: Vector) -> Vector:
        return z[self.base_alg.dim :]

    def include(self, u: Vector) -> Vector:
        return zero_vector(self.base_alg.dim) + tuple(u)


def build_extension(
    alg: LeibnizAlgebra,
    n_op: Matrix,
    rep: Representation,
    pair: CocyclePair,
) -> ExtensionDatum:
    """Total algebra on g (+) V with bracket
    [(x,u),(y,v)] = ([x,y], psi(x,y) + l(x,v) + r(u,y)) and operator
    N_hat(x,u) = (Nx, chi(x) + N_V u).

    The Leibniz/Nijenhuis invariants of the total structure hold exactly when
    the pair is a combined-complex 2-cocycle (under the inclusion-exclusion
    phi); a non-cocycle input yields failure certificates, not an error.
    """
    n, m = alg.dim, rep.module_dim
    nv = rep.module_operator
    if nv is None:
        raise PreconditionError("the governing representation needs a module operator")
    if pair.psi.alg_dim != n or pair.psi.module_dim != m:
        raise ShapeError("cocycle pair does not match base/fiber dimensions")
    bad = check_representation(alg, rep, n_op)
    if bad is not None:
        raise PreconditionError(f"invalid governing representation: {bad.describe()}")

    psi = pair.psi.as_tensor()
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
    basis = alg.basis + tuple(f"v{b + 1}" for b in range(m))
    total = LeibnizAlgebra(n + m, basis, tuple(structure))
    total_op = block_matrix(
        [
            [n_op, Matrix.zero(n, m)],
            [pair.chi.as_matrix(), nv],
        ]
    )

    certificates = []
    leib = check_leibniz(total)
    if leib is not None:
        certificates.append(leib)
    nij = check_operator(total, total_op, nijenhuis())
    if nij is not None:
        certificates.append(nij)
    return ExtensionDatum(
        base_alg=alg,
        base_op=n_op,
        fiber_dim=m,
        fiber_op=nv,
        rep=rep,
        total=total,
        total_op=total_op,
        certificates=tuple(certificates),
    )


def verify_extension(ext: ExtensionDatum) -> list[Counterexample]:
    """Re-check every structural invariant of the split presentation."""
    problems = []
    n, m = ext.base_alg.dim, ext.fiber_dim
    leib = check_leibniz(ext.total)
    if leib is not None:
        problems.append(leib)
    nij = check_operator(ext.total, ext.total_op, nijenhuis())
    if nij is not None:
        problems.append(nij)
    # the fiber block is an abelian ideal
    for a, b in product(range(m), repeat=2):
        v = ext.total.bracket_basis(n + a, n + b)
        if not is_zero_vector(v):
            problems.append(Counterexample("fiber-abelian", (a, b), v))
            break
    # the projection is a morphism
    for i, j in product(range(n + m), repeat=2):
        lhs = ext.project(ext.total.bracket_basis(i, j))
        pi = ext.project(ext.total.unit(i))
        pj = ext.project(ext.total.unit(j))
        rhs = ext.base_alg.bracket(pi, pj)
        if lhs != rhs:
            problems.append(
                Counterexample("projection-bracket", (i, j), tuple(a - b for a, b in zip(lhs, rhs)))
            )
            break
    for j in range(n + m):
        lhs = ext.project(ext.total_op.column(j))
        rhs = ext.base_op.apply(ext.project(ext.total.unit(j)))
        if lhs != rhs:
            problems.append(
                Counterexample("projection-operator", (j,), tuple(a - b for a, b in zip(lhs, rhs)))
            )
            break
    return problems


def _check_section(ext: ExtensionDatum, s: Section) -> None:
    if s.sigma.rows != ext.fiber_dim or s.sigma.cols != ext.base_alg.dim:
        raise PreconditionError("section block has wrong shape")


def section_to_cocycle(ext: ExtensionDatum, s: Optional[Section] = None) -> CocyclePair:
    """psi(x,y) = [s x, s y] - s([x,y]) and chi(x) = N_hat(s x) - s(N x); both
    land in the fiber because the projection is a morphism."""
    n, m = ext.base_alg.dim, ext.fiber_dim
    if s is None:
        s = Section.canonical(n, m)
    _check_section(ext, s)
    psi_table = {}
    for i, j in product(range(n), repeat=2):
        z = ext.total.bracket(s.apply(ext.base_alg.unit(i)), s.apply(ext.base_alg.unit(j)))
        w = tuple(a - b for a, b in zip(z, s.apply(ext.base_alg.bracket_basis(i, j))))
        if not is_zero_vector(ext.project(w)):
            raise PreconditionError(f"psi({i},{j}) does not land in the fiber")
        psi_table[(i, j)] = ext.fiber_part(w)
    chi_table = {}
    for j in range(n):
        z = ext.total_op.apply(s.apply(ext.base_alg.unit(j)))
        w = tuple(a - b for a, b in zip(z, s.apply(ext.base_op.column(j))))
        if not is_zero_vector(ext.project(w)):
            raise PreconditionError(f"chi({j}) does not land in the fiber")
        chi_table[(j,)] = ext.fiber_part(w)
    return CocyclePair(Cochain.from_table(2, n, m, psi_table), Cochain.from_table(1, n, m, chi_table))


def induced_rep_from_section(ext: ExtensionDatum, s: Optional[Section] = None) -> Representation:
    """Actions l(x,u) = [s x, u] and r(u,x) = [u, s x] through the total
    bracket; independent of the chosen section."""
    n, m = ext.base_alg.dim, ext.fiber_dim
    if s is None:
        s = Section.canonical(n, m)
    _check_section(ext, s)
    left = []
    right = []
    for i in range(n):
        sx = s.apply(ext.base_alg.unit(i))
        lcols = []
        rcols = []
        for b in range(m):
            vb = ext.include(tuple(1 if c == b else 0 for c in range(m)))
            lv = ext.total.bracket(sx, vb)
            rv = ext.total.bracket(vb, sx)
            if not (is_zero_vector(ext.project(lv)) and is_zero_vector(ext.project(rv))):
                raise PreconditionError("induced action does not preserve the fiber")
            lcols.append(ext.fiber_part(lv))
            rcols.append(ext.fiber_part(rv))
        left.append(Matrix.from_columns(lcols))
        right.append(Matrix.from_columns(rcols))
    return Representation(tuple(left), tuple(right), ext.fiber_op)


def section_difference_class(
    ext: ExtensionDatum,
    s1: Section,
    s2: Section,
    variant: str = "full",
) -> CoboundaryDifference:
    """pair(s1) - pair(s2) equals d of (gamma, 0), gamma = s1 - s2, exactly
    under the inclusion-exclusion phi; the printed phi leaves an N_V^2-type
    residual."""
    diff = section_to_cocycle(ext, s1) - section_to_cocycle(ext, s2)
    gamma = s1.sigma - s2.sigma
    return coboundary_difference(ext.base_alg, ext.base_op, ext.rep, diff, gamma, variant)


def corner_isomorphism(ext: ExtensionDatum, corner: Matrix) -> Matrix:
    if corner.rows != ext.fiber_dim or corner.cols != ext.base_alg.dim:
        raise ShapeError("corner block has wrong shape")
    n, m = ext.base_alg.dim, ext.fiber_dim
    return block_matrix(
        [
            [Matrix.identity(n), Matrix.zero(n, m)],
            [corner, Matrix.identity(m)],
        ]
    )


@dataclass(frozen=True)
class TransportResult:
    equal: bool
    pair_a: CocyclePair
    pair_b: CocyclePair


def transport_cocycle_via_isomorphism(
    ext_a: ExtensionDatum,
    ext_b: ExtensionDatum,
    corner: Matrix,
) -> TransportResult:
    """Check that a corner isomorphism xi = (Id, 0; corner, Id) carries the
    cocycle of one extension to the other: pair_A(s) = pair_B(xi o s)."""
    if (ext_a.base_alg, ext_a.base_op) != (ext_b.base_alg, ext_b.base_op):
        raise PreconditionError("extensions have different bases")
    if (ext_a.fiber_dim, ext_a.fiber_op) != (ext_b.fiber_dim, ext_b.fiber_op):
        raise PreconditionError("extensions have different fibers")
    xi = corner_isomorphism(ext_a, corner)
    total_dim = ext_a.total.dim
    # xi must be a bracket-preserving map (g+)V -> (g+)V between the totals
    for i, j in product(range(total_dim), repeat=2):
        lhs = xi.apply(ext_a.total.bracket_basis(i, j))
        rhs = ext_b.total.bracket(xi.column(i), xi.column(j))
        if lhs != rhs:
            raise PreconditionError(
                f"xi is not a Leibniz morphism: bracket identity fails at ({i},{j})"
            )
    if xi * ext_a.total_op != ext_b.total_op * xi:
        raise PreconditionError("xi does not intertwine the total operators")
    s1 = Section.canonical(ext_a.base_alg.dim, ext_a.fiber_dim)
    pair_a = section_to_cocycle(ext_a, s1)
    # xi o s1 has sigma block equal to the corner
    pair_b = section_to_cocycle(ext_b, Section(corner))
    return TransportResult(pair_a == pair_b, pair_a, pair_b)
