"""Abelian extensions of a Nijenhuis Leibniz algebra by a module with trivial
bracket, in split coordinates g (+) V.

The build direction assembles the total algebra from a cocycle pair
(psi: g x g -> V, chi: g -> V) over a given representation, and checks its
Leibniz and Nijenhuis identities only when the certificates are read;
extraction from a section recovers pairs, in one pass of the sparse bracket
kernel of `algebra` over the total bracket table.  Both comparisons are one coboundary identity
(`cochain.coboundary_difference`): the pairs of two sections differ by
d(gamma, 0), gamma the difference of the sections, and two extensions are
isomorphic through xi = (Id, 0; C, Id) exactly when their pairs differ by
d(C, 0).  The pairs, sections and built extensions are frozen records
(`_record.record`); an `ExtensionDatum` keeps its certificates in its
instance `__dict__` once read.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Optional

from ._record import record
from .algebra import (
    Counterexample,
    LeibnizAlgebra,
    Representation,
    check_leibniz,
    check_representation,
)
from .algebra import _bracket, _semidirect_table
from .cochain import Cochain, CoboundaryDifference, NLACochain, coboundary_difference
from .errors import PreconditionError, ShapeError
from .linalg import Matrix, combine, row_times
from .operators import check_operator, nijenhuis


@record
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


@record
class Section:
    """A right inverse of the projection, as blocks (Id; sigma)."""

    sigma: Matrix  # fiber_dim x base_dim


@record
class ExtensionDatum:
    """A built extension.  Its certificates are computed from `total` and
    `total_op` when first read, so extraction and comparison never pay for
    them."""

    base_alg: LeibnizAlgebra
    base_op: Matrix
    rep: Representation  # governing representation of the base on the fiber, with N_V
    total: LeibnizAlgebra
    total_op: Matrix

    @cached_property
    def certificates(self) -> tuple[Counterexample, ...]:
        """Failures of the Leibniz, then the Nijenhuis identity of the total
        structure; empty iff both hold."""
        found = (check_leibniz(self.total), check_operator(self.total, self.total_op, nijenhuis()))
        return tuple(c for c in found if c is not None)

    @property
    def ok(self) -> bool:
        return not self.certificates


def build_extension(
    alg: LeibnizAlgebra,
    n_op: Matrix,
    rep: Representation,
    pair: CocyclePair,
) -> ExtensionDatum:
    """Total algebra on g (+) V with bracket
    [(x,u),(y,v)] = ([x,y], psi(x,y) + l(x,v) + r(u,y)) and operator
    N_hat(x,u) = (Nx, chi(x) + N_V u).

    The bracket table is `algebra._semidirect_table` with psi added: with
    psi = 0 it is the semidirect product on whose Leibniz identity
    `check_representation` reads the plain axioms.  The Leibniz/Nijenhuis
    invariants of the total structure hold exactly when the pair is a
    combined-complex 2-cocycle (under the inclusion-exclusion phi); a
    non-cocycle input yields failure certificates, not an error.  Of the
    inputs only the governing representation is checked here.
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

    psi: dict = {}  # flat index ((i, j), k) of psi's nonzeros, as a table
    for index, c in pair.psi.nz.items():
        pair_index, k = divmod(index, m)
        psi.setdefault(divmod(pair_index, n), {})[k] = c
    table = _semidirect_table(alg, rep, psi)
    basis = alg.basis + tuple(f"v{b + 1}" for b in range(m))
    total = LeibnizAlgebra(n + m, basis, table)
    # rows of [[N, 0], [chi, N_V]]: those of N, then each row of chi with
    # the same row of N_V shifted past the n base columns
    lower = ({**c, **{n + j: e for j, e in v.items()}} for c, v in zip(pair.chi.as_matrix().nz, nv.nz))
    total_op = Matrix._of((*n_op.nz, *lower), n + m)

    return ExtensionDatum(base_alg=alg, base_op=n_op, rep=rep, total=total, total_op=total_op)


def section_to_cocycle(ext: ExtensionDatum, s: Optional[Section] = None) -> CocyclePair:
    """psi(i,j) = [s e_i, s e_j] - s[e_i,e_j] and chi(j) = N_hat s e_j - s N e_j,
    with s v = (v, sigma v) and sigma = 0 when no section is given; both land
    in the fiber because the projection is a morphism."""
    n, m = ext.base_alg.dim, ext.rep.module_dim
    sigma = Matrix.zero(m, n) if s is None else s.sigma
    if (sigma.rows, sigma.cols) != (m, n):
        raise PreconditionError("section block has wrong shape")
    sigma_cols = sigma.transpose().nz
    total, hat_cols = ext.total.table, ext.total_op.transpose().nz
    base, base_cols = ext.base_alg.table, ext.base_op.transpose().nz

    def lift(v: dict) -> dict:
        return {**v, **{n + k: c for k, c in row_times(v, sigma_cols).items()}}

    def fiber(name: str, z: dict, v: dict, t: int) -> dict:
        """z - s v, which must vanish on the base, as the nonzero
        coordinates of the value at the t-th basis tuple of a cochain."""
        w = combine(((1, z), (-1, lift(v))))
        if any(k < n for k in w):
            raise PreconditionError(f"{name} does not land in the fiber")
        return {t * m + k - n: c for k, c in w.items()}

    units = [lift({i: Fraction(1)}) for i in range(n)]
    psi = {}
    for i, j in product(range(n), repeat=2):
        psi.update(fiber(f"psi({i},{j})", _bracket(total, units[i], units[j]), base.get((i, j), {}), i * n + j))
    chi = {}
    for j in range(n):
        chi.update(fiber(f"chi({j})", row_times(units[j], hat_cols), base_cols[j], j))
    return CocyclePair(Cochain._of(2, n, m, psi), Cochain._of(1, n, m, chi))


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


def transport_cocycle_via_isomorphism(
    ext_a: ExtensionDatum,
    ext_b: ExtensionDatum,
    corner: Matrix,
) -> CoboundaryDifference:
    """Check that xi = (Id, 0; corner, Id) is an isomorphism of Nijenhuis
    extensions A -> B.  Split into blocks, xi[.,.]_A = [xi., xi.]_B and
    xi N_A = N_B xi say exactly that pair_A - pair_B = d(corner, 0) under the
    inclusion-exclusion phi, both pairs taken at the canonical section."""
    if (ext_a.base_alg, ext_a.base_op) != (ext_b.base_alg, ext_b.base_op):
        raise PreconditionError("extensions have different bases")
    if ext_a.rep != ext_b.rep:
        raise PreconditionError("extensions have different fibers")
    diff = section_to_cocycle(ext_a) - section_to_cocycle(ext_b)
    return coboundary_difference(ext_a.base_alg, ext_a.base_op, ext_a.rep, diff, corner)
