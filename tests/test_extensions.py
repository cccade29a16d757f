"""Split abelian extensions: building a total algebra from a cocycle pair,
extracting the pair back through sections, and deciding whether a corner
block is an isomorphism of extensions."""

import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nijleib import extensions, replace
from nijleib.algebra import (
    Counterexample,
    LeibnizAlgebra,
    Representation,
    adjoint_representation,
    catalog_nijenhuis_pairs,
    check_leibniz,
    trivial_representation,
)
from nijleib.cochain import Cochain, NLACochain, d_nla, sample_cocycles
from nijleib.errors import NijleibError, PreconditionError, ShapeError
from nijleib.extensions import (
    CocyclePair,
    Section,
    build_extension,
    section_difference_class,
    section_to_cocycle,
    transport_cocycle_via_isomorphism,
)
from nijleib.linalg import Matrix, frac
from nijleib.operators import is_nijenhuis
from oracles import is_zero_vector, zero_vector
from oracles import any_brackets, assert_same_matrix, bilinear_eval, block_matrix, slow_extension_structure, unit


def kernel_pairs(alg, op, rep, rng, count):
    """Random small-coefficient combinations of the kernel basis of the
    degree-2 combined coboundary matrix."""
    basis = sample_cocycles("nla", alg, rep, op, 2)
    out = []
    for _ in range(count):
        acc = None
        for b in basis:
            c = frac(rng.randint(-2, 2))
            scaled = NLACochain(b.upper.scale(c), b.lower.scale(c))
            acc = scaled if acc is None else acc + scaled
        if acc is None:
            m = rep.module_dim
            acc = NLACochain(Cochain.zero(2, alg.dim, m), Cochain.zero(1, alg.dim, m))
        out.append(CocyclePair(acc.upper, acc.lower))
    return out


def random_pair(rng, dim, m=None):
    """A pair with random small entries, a cocycle only by accident."""
    m = dim if m is None else m
    return CocyclePair(
        Cochain(2, dim, m, tuple(frac(rng.randint(-2, 2)) for _ in range(m * dim**2))),
        Cochain(1, dim, m, tuple(frac(rng.randint(-2, 2)) for _ in range(m * dim))),
    )


def random_matrix(rng, rows, cols):
    return Matrix([[frac(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)])


def random_square(rng, dim):
    return random_matrix(rng, dim, dim)


def slow_section_to_cocycle(ext, s=None):
    """Oracle of `section_to_cocycle`: psi(i,j) = [s e_i, s e_j] - s[e_i,e_j]
    and chi(j) = N_hat s e_j - s N e_j on dense vectors, s x = (x, sigma x),
    each checked to vanish on the base before its fiber part is kept."""
    n, m = ext.base_alg.dim, ext.rep.module_dim
    sigma = Matrix.zero(m, n) if s is None else s.sigma
    if sigma.rows != m or sigma.cols != n:
        raise PreconditionError("section block has wrong shape")

    def lift(x):
        return tuple(x) + sigma.apply(x)

    def fiber(w, name):
        if not is_zero_vector(w[:n]):
            raise PreconditionError(f"{name} does not land in the fiber")
        return w[n:]

    units = [lift(unit(ext.base_alg, i)) for i in range(n)]
    psi = {}
    for i, j in product(range(n), repeat=2):
        z = bilinear_eval(ext.total.structure, units[i], units[j])
        w = tuple(a - b for a, b in zip(z, lift(ext.base_alg.structure[i][j])))
        psi[(i, j)] = fiber(w, f"psi({i},{j})")
    chi = {}
    for j in range(n):
        w = tuple(a - b for a, b in zip(ext.total_op.apply(units[j]), lift(ext.base_op.column(j))))
        chi[(j,)] = fiber(w, f"chi({j})")
    return CocyclePair(Cochain.from_table(2, n, m, psi), Cochain.from_table(1, n, m, chi))


def _outcome(fn, ext, s):
    try:
        return fn(ext, s)
    except NijleibError as e:
        return type(e).__name__, str(e)


def slow_transport(ext_a, ext_b, corner):
    """Brute-force oracle: xi = (Id, 0; corner, Id) preserves every bracket of
    total basis vectors and intertwines the total operators, and the cocycle
    of A equals that of B at the section xi o s."""
    n, m = ext_a.base_alg.dim, ext_a.rep.module_dim
    xi = block_matrix([[Matrix.identity(n), Matrix.zero(n, m)], [corner, Matrix.identity(m)]])
    for i, j in product(range(n + m), repeat=2):
        if xi.apply(ext_a.total.bracket_basis(i, j)) != ext_b.total.bracket(xi.column(i), xi.column(j)):
            return False
    if xi * ext_a.total_op != ext_b.total_op * xi:
        return False
    return section_to_cocycle(ext_a) == section_to_cocycle(ext_b, Section(corner))


def test_zero_pair_round_trip(loday2, classified_op, loday2_adjoint):
    pair = CocyclePair.zero(2, 2)
    ext = build_extension(loday2, classified_op, loday2_adjoint, pair)
    assert ext.ok
    recovered = section_to_cocycle(ext)
    assert recovered == pair


def test_cocycle_round_trips(loday2, classified_op, loday2_adjoint):
    rng = random.Random(47)
    for pair in kernel_pairs(loday2, classified_op, loday2_adjoint, rng, 10):
        ext = build_extension(loday2, classified_op, loday2_adjoint, pair)
        assert ext.ok
        assert check_leibniz(ext.total) is None
        assert is_nijenhuis(ext.total, ext.total_op)
        assert section_to_cocycle(ext) == pair


def test_non_cocycle_yields_certificates(loday2, classified_op, loday2_adjoint):
    psi = Cochain.from_bilinear_tensor(
        tuple(
            tuple(tuple(frac(1 if (i, j, k) == (0, 0, 0) else 0) for k in range(2)) for j in range(2))
            for i in range(2)
        )
    )
    pair = CocyclePair(psi, Cochain.zero(1, 2, 2))
    nla = pair.as_nla()
    assert not d_nla(loday2, classified_op, loday2_adjoint, nla).is_zero()
    ext = build_extension(loday2, classified_op, loday2_adjoint, pair)
    assert not ext.ok
    assert any(c.identity in ("leibniz", "nijenhuis") for c in ext.certificates)


def test_certificates_are_computed_only_when_read(loday2, classified_op, loday2_adjoint):
    """`build_extension` checks only the governing representation: extraction,
    section differences and transport never run the Leibniz or Nijenhuis
    check of the total structure.  Read later, the certificates are those the
    build used to compute, Leibniz first, and they are computed once."""
    psi = Cochain.from_bilinear_tensor(
        tuple(
            tuple(tuple(frac(1 if (i, j, k) == (0, 0, 0) else 0) for k in range(2)) for j in range(2))
            for i in range(2)
        )
    )
    pair = CocyclePair(psi, Cochain.zero(1, 2, 2))
    s1, s2 = Section(Matrix([[1, 0], [0, 0]])), Section(Matrix.zero(2, 2))
    unread = AssertionError("the total structure was checked")
    with mock.patch.object(extensions, "check_leibniz", side_effect=unread), mock.patch.object(
        extensions, "check_operator", side_effect=unread
    ):
        ext = build_extension(loday2, classified_op, loday2_adjoint, pair)
        zero = build_extension(loday2, classified_op, loday2_adjoint, CocyclePair.zero(2, 2))
        assert section_to_cocycle(ext) == pair
        assert section_difference_class(ext, s1, s2).matches
        assert not transport_cocycle_via_isomorphism(ext, zero, Matrix.zero(2, 2)).matches
    with mock.patch.object(extensions, "check_leibniz", wraps=check_leibniz) as leibniz:
        assert not ext.ok
        assert ext.certificates == (
            Counterexample("leibniz", (0, 1, 1), tuple(map(frac, (0, 0, 1, 0)))),
            Counterexample("nijenhuis", (1, 1), tuple(map(frac, (0, 0, 1, 0)))),
        )
        assert zero.ok and zero.certificates == ()
    assert leibniz.call_count == 2


@settings(max_examples=80, deadline=None)
@given(any_brackets(), st.integers(1, 2), st.data())
def test_total_table_matches_dense_oracle(alg, m, data):
    """The table union of base bracket, psi and action columns is the dense
    block tensor, for random psi and random actions.  The actions need not
    form a representation, so its check is switched off: the assembly does
    not depend on it, and a failure then shows as a certificate."""
    n = alg.dim
    entry = st.sampled_from((0, 0, 0, 1, -1, Fraction(1, 2)))

    def entries(count):
        return [data.draw(entry) for _ in range(count)]

    def matrix(rows, cols):
        return Matrix([entries(cols) for _ in range(rows)])

    rep = Representation(
        tuple(matrix(m, m) for _ in range(n)), tuple(matrix(m, m) for _ in range(n)), matrix(m, m), module_dim=m
    )
    psi = Cochain.from_table(2, n, m, {t: entries(m) for t in product(range(n), repeat=2)})
    chi = Cochain.from_table(1, n, m, {(j,): entries(m) for j in range(n)})
    with mock.patch.object(extensions, "check_representation", return_value=None):
        ext = build_extension(alg, matrix(n, n), rep, CocyclePair(psi, chi))
    expected = slow_extension_structure(alg, rep, psi)
    assert ext.total.structure == expected
    oracle = LeibnizAlgebra.from_structure(expected, ext.total.basis)
    assert ext.total == oracle and hash(ext.total) == hash(oracle)


@pytest.mark.parametrize("base_dims,fiber_dims", [((0, 0), (1, 2)), ((1, 3), (0, 0)), ((0, 3), (0, 2))])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_total_operator_is_the_block_grid(base_dims, fiber_dims, data):
    """`total_op` is the oracle grid [[N, 0], [chi, N_V]], down to entry
    types and the column order of each row, for random N, chi and N_V over a
    0-dim base, over a 0-dim fiber and over both nonzero.  The actions are
    zero, so the representation check passes whatever N and N_V are."""
    alg = data.draw(any_brackets(data.draw(st.integers(*base_dims))))
    n, m = alg.dim, data.draw(st.integers(*fiber_dims))
    entry = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))

    def matrix(rows, cols):
        return Matrix.sparse([{j: data.draw(entry) for j in range(cols)} for _ in range(rows)], cols)

    n_op, nv = matrix(n, n), matrix(m, m)
    zero = tuple(Matrix.zero(m, m) for _ in range(n))
    rep = Representation(zero, zero, nv, module_dim=m)
    chi = Cochain.from_table(1, n, m, {(j,): [data.draw(entry) for _ in range(m)] for j in range(n)})
    ext = build_extension(alg, n_op, rep, CocyclePair(Cochain.zero(2, n, m), chi))
    assert_same_matrix(ext.total_op, block_matrix([[n_op, Matrix.zero(n, m)], [chi.as_matrix(), nv]]))


def test_total_structure_shape(loday2, classified_op, loday2_adjoint):
    rng = random.Random(53)
    pair = kernel_pairs(loday2, classified_op, loday2_adjoint, rng, 1)[0]
    ext = build_extension(loday2, classified_op, loday2_adjoint, pair)
    assert ext.total.dim == 4
    # fiber brackets vanish and the projection is the coordinate projection
    for a, b in product(range(2), repeat=2):
        assert is_zero_vector(ext.total.bracket_basis(2 + a, 2 + b))
    # the projection is a morphism: base brackets project onto the base bracket
    for i, j in product(range(2), repeat=2):
        assert ext.total.bracket_basis(i, j)[:2] == loday2.bracket_basis(i, j)
    # mixed brackets are the governing actions on the fiber
    for i, b in product(range(2), repeat=2):
        assert ext.total.bracket_basis(i, 2 + b) == zero_vector(2) + loday2_adjoint.left[i].column(b)
        assert ext.total.bracket_basis(2 + b, i) == zero_vector(2) + loday2_adjoint.right[i].column(b)
    # the operator matrix has the base operator in the corner
    for i, j in product(range(2), repeat=2):
        assert ext.total_op.entry(i, j) == classified_op.entry(i, j)
        assert ext.total_op.entry(i, 2 + j) == 0


def test_section_shifts_recover_shifted_pair(loday2, classified_op, loday2_adjoint):
    rng = random.Random(59)
    pair = kernel_pairs(loday2, classified_op, loday2_adjoint, rng, 1)[0]
    ext = build_extension(loday2, classified_op, loday2_adjoint, pair)
    sigma = Matrix([[frac(1), frac(0)], [frac(-2), frac(3)]])
    shifted = section_to_cocycle(ext, Section(sigma))
    assert shifted != pair


def test_section_difference_is_exact(loday2, classified_op, loday2_adjoint):
    rng = random.Random(61)
    pair = kernel_pairs(loday2, classified_op, loday2_adjoint, rng, 1)[0]
    ext = build_extension(loday2, classified_op, loday2_adjoint, pair)
    for _ in range(5):
        s1 = Section(Matrix([[frac(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]))
        s2 = Section(Matrix([[frac(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]))
        res = section_difference_class(ext, s1, s2)
        assert res.matches, (s1.sigma.data, s2.sigma.data)
        assert res.residual.is_zero()


def test_section_difference_printed_variant_residual(loday2, classified_op, loday2_adjoint):
    # under the printed phi the degree-1 comparison map picks up an N_V^2
    # term, so generic section differences stop matching
    ext = build_extension(loday2, classified_op, loday2_adjoint, CocyclePair.zero(2, 2))
    s1 = Section(Matrix([[frac(1), frac(0)], [frac(0), frac(0)]]))
    s2 = Section(Matrix.zero(2, 2))
    res_full = section_difference_class(ext, s1, s2, "full")
    res_printed = section_difference_class(ext, s1, s2, "printed")
    assert res_full.matches
    assert not res_printed.matches


def test_transport_along_corner(loday2, classified_op, loday2_adjoint):
    rng = random.Random(67)
    pair = kernel_pairs(loday2, classified_op, loday2_adjoint, rng, 1)[0]
    ext_a = build_extension(loday2, classified_op, loday2_adjoint, pair)
    lam = Matrix([[frac(1), frac(2)], [frac(0), frac(-1)]])
    pair_b = section_to_cocycle(ext_a, Section(lam))
    ext_b = build_extension(loday2, classified_op, loday2_adjoint, pair_b)
    assert ext_b.ok
    res = transport_cocycle_via_isomorphism(ext_b, ext_a, lam)
    assert res.matches


def test_transport_rejects_non_morphism(loday2, classified_op, loday2_adjoint):
    rng = random.Random(71)
    pair = kernel_pairs(loday2, classified_op, loday2_adjoint, rng, 1)[0]
    ext_a = build_extension(loday2, classified_op, loday2_adjoint, pair)
    ext_b = build_extension(loday2, classified_op, loday2_adjoint, CocyclePair.zero(2, 2))
    lam = Matrix([[frac(1), frac(0)], [frac(0), frac(1)]])
    pair_b = section_to_cocycle(ext_a, Section(lam))
    if pair_b == CocyclePair.zero(2, 2):
        pytest.skip("sampled pair happens to be shift-equivalent to zero")
    res = transport_cocycle_via_isomorphism(ext_a, ext_b, lam)
    assert not res.matches
    assert not res.residual.is_zero()


def test_transport_corner_shape(loday2, classified_op, loday2_adjoint):
    ext = build_extension(loday2, classified_op, loday2_adjoint, CocyclePair.zero(2, 2))
    for rows, cols in ((2, 3), (3, 2), (1, 2)):
        with pytest.raises(ShapeError):
            transport_cocycle_via_isomorphism(ext, ext, Matrix.zero(rows, cols))


def test_transport_matches_brute_force():
    # cocycle and random pairs; B built from A shifted by a section (so the
    # corner is related) or from an independent pair; related and perturbed
    # corners, in both argument orders
    rng = random.Random(73)
    verdicts = set()
    cases = 0
    for name, alg, op in catalog_nijenhuis_pairs():
        n = alg.dim
        rep = adjoint_representation(alg, op)
        cocycles = kernel_pairs(alg, op, rep, rng, 3)
        for k in range(6):
            pair_a = cocycles[k // 2] if k % 2 == 0 else random_pair(rng, n)
            ext_a = build_extension(alg, op, rep, pair_a)
            lam = random_square(rng, n)
            pair_b = section_to_cocycle(ext_a, Section(lam)) if k % 3 else random_pair(rng, n)
            ext_b = build_extension(alg, op, rep, pair_b)
            perturb = random_square(rng, n)
            for x, y, corner in (
                (ext_a, ext_b, -lam),
                (ext_b, ext_a, lam),
                (ext_a, ext_b, perturb - lam),
                (ext_b, ext_a, lam + perturb),
            ):
                res = transport_cocycle_via_isomorphism(x, y, corner)
                assert res.matches == slow_transport(x, y, corner), (name, k, corner.data)
                assert res.matches == res.residual.is_zero()
                verdicts.add(res.matches)
                cases += 1
    assert cases == 144
    assert verdicts == {True, False}


def test_all_catalog_bases_zero_pair():
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        ext = build_extension(alg, op, rep, CocyclePair.zero(alg.dim, alg.dim))
        assert ext.ok, name
        assert section_to_cocycle(ext) == CocyclePair.zero(alg.dim, alg.dim)


def test_section_to_cocycle_matches_dense_oracle():
    """Every catalog pair with its adjoint representation and with a trivial
    2-dim one under a random N_V; cocycle and random pairs; no section, a
    random one and one of the wrong shape; the base bracket or operator of
    the datum left alone or replaced, so that psi or chi leaves the fiber.
    The pair or the error text must agree."""
    rng = random.Random(79)
    seen = set()
    for name, alg, op in catalog_nijenhuis_pairs():
        n = alg.dim
        for rep in (adjoint_representation(alg, op), trivial_representation(n, 2, random_square(rng, 2))):
            m = rep.module_dim
            pairs = kernel_pairs(alg, op, rep, rng, 2) + [random_pair(rng, n, m) for _ in range(2)]
            for pair in pairs:
                ext = build_extension(alg, op, rep, pair)
                for base in (None, "bracket", "operator"):
                    datum = ext
                    if base == "bracket":
                        structure = [[[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)] for _ in range(n)]
                        datum = replace(ext, base_alg=LeibnizAlgebra.from_structure(structure))
                    elif base == "operator":
                        datum = replace(ext, base_op=random_square(rng, n))
                    wrong = Section(random_matrix(rng, *rng.choice([(m + 1, n), (m, n + 1)])))
                    for s in (None, Section(random_matrix(rng, m, n)), wrong):
                        got = _outcome(section_to_cocycle, datum, s)
                        assert got == _outcome(slow_section_to_cocycle, datum, s), (name, m, base)
                        seen.add(got[1].split("(")[0] if isinstance(got, tuple) else "pair")
    assert seen == {"pair", "section block has wrong shape", "psi", "chi"}
