"""Structure-constant algebra layer: brackets, the left Leibniz identity,
representations, and the built-in catalog."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nijleib.algebra import (
    Counterexample,
    LeibnizAlgebra,
    Representation,
    adjoint_representation,
    catalog_get,
    catalog_nijenhuis_pairs,
    check_leibniz,
    check_representation,
    direct_sum,
    trivial_representation,
)
from nijleib.errors import CatalogError, PreconditionError
from nijleib.linalg import Matrix, frac, unit_vector, vec_add, vec_sub
from oracles import any_brackets, bilinear_eval


def test_loday2_bracket_table(loday2):
    # [e2,e1] = e1 and [e2,e2] = e1; every other product vanishes
    e1 = unit_vector(2, 0)
    assert loday2.bracket_basis(1, 0) == e1
    assert loday2.bracket_basis(1, 1) == e1
    assert loday2.bracket_basis(0, 0) == (0, 0)
    assert loday2.bracket_basis(0, 1) == (0, 0)


def test_loday2_is_leibniz(loday2):
    assert check_leibniz(loday2) is None


def test_loday2_left_multipliers(loday2):
    # column j of the left multiplier of e_i is [e_i, e_j]
    L2 = loday2.left_multiplier(1)
    assert L2.column(0) == unit_vector(2, 0)
    assert L2.column(1) == unit_vector(2, 0)
    assert loday2.left_multiplier(0).is_zero()


def test_perturbed_structure_fails_with_certificate(loday2):
    # adding [e1,e1] = e2 breaks the Leibniz identity
    structure = [[list(v) for v in row] for row in loday2.structure]
    structure[0][0][1] = frac(1)
    bad = LeibnizAlgebra.from_structure(structure, loday2.basis)
    cert = check_leibniz(bad)
    assert cert is not None
    assert cert.identity == "leibniz"
    assert any(cert.residual)


def test_bracket_bilinear(loday2):
    x = (frac(2), frac(-1))
    y = (Fraction(1, 2), frac(3))
    z = loday2.bracket(x, y)
    # [x,y] for x = 2e1 - e2, y = e1/2 + 3e2: only the e2 part of x acts
    assert z == (frac(-1) * Fraction(1, 2) + frac(-1) * frac(3), frac(0))


def slow_check_leibniz(alg):
    """Oracle of `check_leibniz`: the identity on dense unit vectors with the
    dense `bilinear_eval`, in the same triple order."""
    def mu(x, y):
        return bilinear_eval(alg.structure, x, y)

    for i, j, k in product(range(alg.dim), repeat=3):
        ei, ej, ek = alg.unit(i), alg.unit(j), alg.unit(k)
        residual = vec_sub(mu(ei, mu(ej, ek)), vec_add(mu(mu(ei, ej), ek), mu(ej, mu(ei, ek))))
        if any(residual):
            return Counterexample("leibniz", (i, j, k), residual)
    return None


@settings(max_examples=200, deadline=None)
@given(any_brackets(), st.data())
def test_sparse_kernel_matches_dense_oracle(alg, data):
    """On brackets that need not be Leibniz: `check_leibniz` gives the dense
    oracle's first failing triple and residual, and `bracket` its vectors."""
    got = check_leibniz(alg)
    assert got == slow_check_leibniz(alg)
    assert got is None or all(type(v) is Fraction for v in got.residual)
    vector = st.lists(st.fractions(-3, 3, max_denominator=4), min_size=alg.dim, max_size=alg.dim).map(tuple)
    x, y = data.draw(vector), data.draw(vector)
    assert alg.bracket(x, y) == bilinear_eval(alg.structure, x, y)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=6, max_size=6).map(
        lambda v: [tuple(map(Fraction, v[:2])), tuple(map(Fraction, v[2:4])), tuple(map(Fraction, v[4:]))]
    )
)
def test_vector_level_leibniz(vectors):
    alg = catalog_get("loday2")
    x, y, z = vectors
    lhs = alg.bracket(x, alg.bracket(y, z))
    rhs1 = alg.bracket(alg.bracket(x, y), z)
    rhs2 = alg.bracket(y, alg.bracket(x, z))
    assert vec_sub(lhs, tuple(a + b for a, b in zip(rhs1, rhs2))) == (0, 0)


def test_adjoint_representation_axioms(loday2):
    rep = adjoint_representation(loday2)
    assert check_representation(loday2, rep) is None


def test_adjoint_matrices(loday2):
    rep = adjoint_representation(loday2)
    assert rep.left[1] == Matrix([[frac(1), frac(1)], [frac(0), frac(0)]])
    assert rep.right[0] == Matrix([[frac(0), frac(1)], [frac(0), frac(0)]])
    assert rep.right[1] == Matrix([[frac(0), frac(1)], [frac(0), frac(0)]])
    assert rep.left[0].is_zero()


def test_trivial_representation_axioms(loday2):
    rep = trivial_representation(loday2.dim, 3)
    assert check_representation(loday2, rep) is None


def test_nijenhuis_rep_axiom_failure(loday2):
    # N_V chosen incompatibly with N = identity on the adjoint module
    rep = adjoint_representation(loday2, Matrix([[frac(0), frac(1)], [frac(1), frac(0)]]))
    cert = check_representation(loday2, rep, Matrix.identity(2))
    assert cert is not None
    assert cert.identity.startswith("rep-nijenhuis")


def test_catalog_entries_are_leibniz():
    for name in ("loday2", "square2", "abelian1", "abelian3", "dsum(loday2,abelian1)"):
        alg = catalog_get(name)
        assert check_leibniz(alg) is None


def test_catalog_unknown_name():
    with pytest.raises(CatalogError):
        catalog_get("heisenberg3")


def test_catalog_square2_table():
    alg = catalog_get("square2")
    assert alg.bracket_basis(0, 0) == unit_vector(2, 1)
    assert alg.bracket_basis(1, 1) == (0, 0)


def test_direct_sum_blocks(loday2):
    ab = catalog_get("abelian1")
    d = direct_sum(loday2, ab)
    assert d.dim == 3
    assert d.bracket_basis(1, 0) == unit_vector(3, 0)
    assert d.bracket_basis(2, 2) == (0, 0, 0)
    assert d.bracket_basis(1, 2) == (0, 0, 0)
    assert check_leibniz(d) is None


def test_catalog_nijenhuis_pairs_verified():
    pairs = catalog_nijenhuis_pairs()
    assert len(pairs) >= 5
    names = [name for name, _, _ in pairs]
    assert "loday2/classified" in names
    assert "loday2/scalar" in names
    for name, alg, op in pairs:
        assert check_leibniz(alg) is None, name
        assert op.rows == alg.dim == op.cols


def test_representation_shape_guard():
    with pytest.raises(Exception):
        Representation((Matrix.identity(2),), (Matrix.identity(3),), None)


def test_adjoint_requires_valid_algebra(loday2):
    structure = [[list(v) for v in row] for row in loday2.structure]
    structure[0][1][0] = frac(5)
    bad = LeibnizAlgebra.from_structure(structure, loday2.basis)
    with pytest.raises(PreconditionError):
        adjoint_representation(bad)


def test_counterexample_describe(loday2):
    structure = [[list(v) for v in row] for row in loday2.structure]
    structure[0][0][1] = frac(1)
    cert = check_leibniz(LeibnizAlgebra.from_structure(structure, loday2.basis))
    text = cert.describe()
    assert "leibniz" in text
    assert str(cert.indices) in text or all(str(i) in text for i in cert.indices)
