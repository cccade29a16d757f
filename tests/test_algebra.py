"""Structure-constant algebra layer: brackets, the left Leibniz identity,
representations, and the built-in catalog."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
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
from nijleib.algebra import _leibniz_table
from nijleib.cochain import Cochain, cocycle_membership, delta, sample_cocycles
from nijleib.deformation import residual_report, trivial_deformation
from nijleib.errors import CatalogError, PreconditionError, ShapeError
from nijleib.extensions import CocyclePair, build_extension, section_to_cocycle
from nijleib.linalg import Matrix, block_diag, frac
from nijleib.operators import (
    check_operator,
    defect_polynomial,
    induced_bracket,
    modified_rota_baxter,
    nijenhuis,
    operator_defect,
    rota_baxter,
    rota_baxter_weighted,
)
from oracles import from_structure, unit_vector, vec_add, vec_sub
from oracles import (
    any_brackets,
    bilinear_eval,
    slow_check_representation,
    slow_direct_sum,
    slow_leibniz,
    slow_nijenhuis_axioms,
    unit,
)


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
    bad = from_structure(structure, loday2.basis)
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
        ei, ej, ek = unit(alg, i), unit(alg, j), unit(alg, k)
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


@st.composite
def table_pairs(draw):
    """1-3 pairs (A, B) of bracket tables of one drawn dimension 0-3, every
    table drawn on its own, so A and B mostly differ."""
    dim = draw(st.integers(0, 3))
    tables = any_brackets(dim).map(lambda alg: alg.table)
    return dim, draw(st.lists(st.tuples(tables, tables), min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(table_pairs())
def test_leibniz_table_matches_per_triple_oracle(drawn):
    """The scatter kernel gives, on every basis triple, the per-triple sum of
    A(x, B(y, z)) - A(B(x, y), z) - A(y, B(x, z)) over the pairs; with A != B,
    exchanging the outer and the inner table would show."""
    dim, pairs = drawn
    units = [{i: Fraction(1)} for i in range(dim)]
    expected = {}
    for t in product(range(dim), repeat=3):
        if value := slow_leibniz(pairs, *(units[i] for i in t)):
            expected[t] = value
    assert _leibniz_table(pairs) == expected


def test_leibniz_table_tells_outer_from_inner():
    # the sum is not symmetric in (A, B): square2 inside loday2 differs from
    # loday2 inside square2, and each matches the oracle
    a, b = catalog_get("loday2").table, catalog_get("square2").table
    assert _leibniz_table(((a, b),)) != _leibniz_table(((b, a),))
    units = [{0: Fraction(1)}, {1: Fraction(1)}]
    for pairs in (((a, b),), ((b, a),)):
        got = _leibniz_table(pairs)
        for t in product(range(2), repeat=3):
            assert got.get(t, {}) == slow_leibniz(pairs, *(units[i] for i in t))


@st.composite
def any_representations(draw):
    """(algebra, representation, N or None): zero, sparse or dense actions on
    a bracket that need not be Leibniz (dim 0-3, module dim 0-3), mostly not
    representations, or the adjoint action of a catalog algebra padded by
    zero, which is one; N and N_V are drawn freely or left out."""
    style = draw(st.sampled_from(("zero", "sparse", "sparse", "dense", "dense", "adjoint")))
    sparse = st.sampled_from((0, 0, 0, 0, 1, -1, 2))
    dense = st.fractions(-2, 2, max_denominator=3)

    def matrix(k, entry):
        return Matrix([[draw(entry) for _ in range(k)] for _ in range(k)])

    if style == "adjoint":
        alg = catalog_get(draw(st.sampled_from(("loday2", "square2", "abelian1", "dsum(loday2,abelian1)"))))
        extra = draw(st.integers(0, 1))
        adj, pad = adjoint_representation(alg), Matrix.zero(extra, extra)
        m = alg.dim + extra
        left = tuple(block_diag([a, pad]) for a in adj.left)
        right = tuple(block_diag([a, pad]) for a in adj.right)
    else:
        alg, m = draw(any_brackets(draw(st.integers(0, 3)))), draw(st.integers(0, 3))
        entry = {"zero": st.just(0), "sparse": sparse, "dense": dense}[style]
        left = tuple(matrix(m, entry) for _ in range(alg.dim))
        right = tuple(matrix(m, entry) for _ in range(alg.dim))
    entry = draw(st.sampled_from((sparse, dense)))
    nv = matrix(m, entry) if draw(st.booleans()) else None
    n_op = matrix(alg.dim, entry) if draw(st.booleans()) else None
    return alg, Representation(left, right, nv, module_dim=m), n_op


@settings(max_examples=300, deadline=None)
@given(any_representations())
def test_check_representation_matches_slow_oracle(case):
    """The semidirect-product reading of the plain axioms gives the matrix
    oracle's verdict: the same identity, indices and residual `Matrix`."""
    alg, rep, n_op = case
    assert check_representation(alg, rep, n_op) == slow_check_representation(alg, rep, n_op)


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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["loday2", "square2", "abelian2", "dsum(loday2,abelian1)"]), st.integers(0, 2), st.data())
def test_nijenhuis_rep_axioms_match_expanded_oracle(name, extra, data):
    """The adjoint module plus `extra` coordinates acted on by zero, so the
    plain axioms hold, with N and N_V drawn freely: `check_representation`
    gives the expanded formula's Counterexample, or None with it."""
    alg = catalog_get(name)
    adj, pad = adjoint_representation(alg), Matrix.zero(extra, extra)
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 2)))

    def matrix(k):
        return Matrix([[data.draw(entry) for _ in range(k)] for _ in range(k)])

    n, nv = matrix(alg.dim), matrix(alg.dim + extra)
    rep = Representation(
        tuple(block_diag([a, pad]) for a in adj.left),
        tuple(block_diag([a, pad]) for a in adj.right),
        nv,
        module_dim=alg.dim + extra,
    )
    assert check_representation(alg, rep) is None
    assert check_representation(alg, rep, n) == slow_nijenhuis_axioms(rep, n)


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


@settings(max_examples=100, deadline=None)
@given(any_brackets(), any_brackets())
def test_direct_sum_matches_dense_oracle(a, b):
    """The shifted table union is the dense block-diagonal tensor, and equals
    (with the same hash) the algebra read off that tensor."""
    total = direct_sum(a, b)
    expected = slow_direct_sum(a, b)
    assert total.structure == expected
    oracle = from_structure(expected, total.basis)
    assert total == oracle and hash(total) == hash(oracle)


@settings(max_examples=100, deadline=None)
@given(any_brackets())
def test_table_is_the_stored_form(alg):
    """The dense view reads back to the same algebra, and equality and the
    hash follow the table: one changed constant makes another algebra."""
    again = from_structure(alg.structure, alg.basis)
    assert again == alg and hash(again) == hash(alg)
    assert alg.table == {
        (a, b): {k: c for k, c in enumerate(vec) if c}
        for a, row in enumerate(alg.structure)
        for b, vec in enumerate(row)
        if any(vec)
    }
    if alg.dim:
        structure = [[list(v) for v in row] for row in alg.structure]
        structure[0][0][0] += 1
        assert from_structure(structure, alg.basis) != alg


@st.composite
def typed_tables(draw):
    """(dim, table, N): a bracket table on dim 1-3 and an operator, each with
    entries all ints, all Fractions that are integral, or Fractions with
    some not integral; neither need satisfy any identity."""
    dim = draw(st.integers(1, 3))
    small = (0, 0, 0, 1, -1, 2)
    styles = {
        "int": st.sampled_from(small),
        "integral": st.sampled_from(small).map(Fraction),
        "rational": st.sampled_from((0, 0, 1, Fraction(2), Fraction(1, 2), Fraction(-3, 2))),
    }
    entry = styles[draw(st.sampled_from(sorted(styles)))]
    table = {}
    for pair in product(range(dim), repeat=2):
        if vec := {k: c for k in range(dim) if (c := draw(entry))}:
            table[pair] = vec
    entry = styles[draw(st.sampled_from(sorted(styles)))]
    return dim, table, Matrix([[draw(entry) for _ in range(dim)] for _ in range(dim)])


def _stored(table):
    """True if every constant of `table` is an int exactly when integral."""
    return all(type(c) is (int if frac(c).denominator == 1 else Fraction) for v in table.values() for c in v.values())


def _fractions(values):
    """True if every value is a Fraction (not an int, not a float)."""
    return all(type(v) is Fraction for v in values)


@settings(max_examples=150, deadline=None)
@given(typed_tables())
@example((1, {(0, 0): {0: Fraction(1)}}, Matrix([[1]])))
@example((1, {(0, 0): {0: Fraction(1, 2)}}, Matrix([[2]])))
@example((1, {(0, 0): {0: 2}}, Matrix([[0]])))
def test_public_values_are_fractions_on_int_tables(case):
    """A bracket table holds its constants as a matrix stores them, an int
    exactly when integral, whatever built it; every public value read off
    it stays a Fraction: the dense views, the defects and their
    polynomials, each certificate's residual, cochains, and kernel and
    solve vectors.  The kernels may return an int or a Fraction for the same
    value, so each conversion is pinned here."""
    dim, table, n = case
    alg = LeibnizAlgebra(dim, tuple(f"e{i + 1}" for i in range(dim)), table)
    assert alg.table == table and _stored(alg.table)
    assert _stored(direct_sum(alg, alg).table)
    assert _stored(from_structure(alg.structure).table)
    assert _fractions(c for row in alg.structure for v in row for c in v)
    x = tuple(Fraction(i + 1) for i in range(dim))
    assert _fractions(alg.bracket(x, x[::-1]))
    residuals = [check_leibniz(alg)]
    for kind in (nijenhuis(), rota_baxter(), rota_baxter_weighted(2), modified_rota_baxter(-1)):
        assert _fractions(c for v in operator_defect(alg, n, kind).values() for c in v.values())
        assert _fractions(c for poly in defect_polynomial(alg, kind) for c in poly.values())
        residuals.append(check_operator(alg, n, kind))
    if residuals[1] is None:
        assert _stored(induced_bracket(alg, n).table)
    rep = Representation((n,) * dim, (n,) * dim, n, module_dim=dim)
    residuals.append(check_representation(alg, rep, n))
    fiber = trivial_representation(dim, 1, Matrix([[Fraction(1)]]))
    ext = build_extension(alg, n, fiber, CocyclePair.zero(dim, 1))
    assert _stored(ext.total.table)
    residuals += ext.certificates
    for c in residuals:
        if c is not None:
            values = [v for row in c.residual.data for v in row] if isinstance(c.residual, Matrix) else c.residual
            assert _fractions(values), c
    report = residual_report(alg, n, trivial_deformation(alg, n, 1))
    if not report.passes:
        assert _fractions(c for t in report.leibniz_residual for row in t for v in row for c in v)
        assert _fractions(c for row in report.nijenhuis_residual for v in row for c in v)
    f = Cochain(1, dim, dim, tuple(Fraction(k % 3 - 1) for k in range(dim * dim)))
    cochains = [delta(alg, rep, f), *sample_cocycles("la", alg, rep, None, 1), section_to_cocycle(ext).psi]
    member = cocycle_membership("la", alg, rep, None, delta(alg, rep, f))
    if member.preimage is not None:
        cochains.append(member.preimage)
    assert all(_fractions(c.vec) for c in cochains)


def test_star_algebra_compares_unequal():
    # [x,y]* = (3/2)[x,y] for N = (3/2) Id: same basis, another bracket
    name, alg, op = catalog_nijenhuis_pairs()[2]
    assert name == "loday2/scalar"
    star = induced_bracket(alg, op)
    assert star.basis == alg.basis and star != alg
    assert star.table == {key: {k: c * Fraction(3, 2) for k, c in vec.items()} for key, vec in alg.table.items()}


@pytest.mark.parametrize(
    "table",
    [
        {(2, 0): {0: frac(1)}},
        {(0, -1): {0: frac(1)}},
        {(0,): {0: frac(1)}},
        {(0, 1): {2: frac(1)}},
        {(0, 1): {0: frac(0)}},
        {(0, 1): {0: frac(1), 1: frac(0)}},
        {(0, 1): {}},
    ],
    ids=["key-row", "key-negative", "key-not-a-pair", "coordinate", "zero", "zero-beside-nonzero", "empty"],
)
def test_constructor_rejects_keys_off_the_basis_and_stored_zeros(table):
    with pytest.raises(ShapeError):
        LeibnizAlgebra(2, ("e1", "e2"), table)


@pytest.mark.parametrize(
    "structure", [[[[0, 0], [0]], [[0, 0], [0, 0]]], [[[0, 0]], [[0, 0], [0, 0]]], [[[0]], [[0]]]]
)
def test_from_structure_rejects_ragged_tensors(structure):
    with pytest.raises(ShapeError):
        from_structure(structure)


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
        Representation((Matrix.identity(2),), (Matrix.identity(3),), None, module_dim=2)
    z = Matrix.zero(1, 1)
    with pytest.raises(ShapeError, match="2 left but 1 right"):  # the algebra dimension is ambiguous
        Representation((z, z), (z,), module_dim=1)


def test_adjoint_requires_valid_algebra(loday2):
    structure = [[list(v) for v in row] for row in loday2.structure]
    structure[0][1][0] = frac(5)
    bad = from_structure(structure, loday2.basis)
    with pytest.raises(PreconditionError):
        adjoint_representation(bad)


def test_counterexample_describe(loday2):
    structure = [[list(v) for v in row] for row in loday2.structure]
    structure[0][0][1] = frac(1)
    cert = check_leibniz(from_structure(structure, loday2.basis))
    text = cert.describe()
    assert "leibniz" in text
    assert str(cert.indices) in text or all(str(i) in text for i in cert.indices)


# int, integral Fraction and Fraction entries, zero half of the time
mixed_entries = st.one_of(
    st.just(0),
    st.integers(-2, 2),
    st.integers(-2, 2).map(Fraction),
    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
)


@st.composite
def action_sets(draw, d=None, m=None):
    """(left, right, module operator, d, m): 2d action matrices on an m-dim
    module, d and m at most 2, 0 included."""
    d = draw(st.integers(0, 2)) if d is None else d
    m = draw(st.integers(0, 2)) if m is None else m

    def matrix():
        return Matrix([[draw(mixed_entries) for _ in range(m)] for _ in range(m)])

    left, right = tuple(matrix() for _ in range(d)), tuple(matrix() for _ in range(d))
    return left, right, draw(st.one_of(st.none(), st.builds(matrix))), d, m


@st.composite
def action_set_pairs(draw):
    first = draw(action_sets())
    left, right, op, d, m = first
    second = draw(
        st.one_of(
            action_sets(),
            action_sets(d=d, m=m),
            st.just((right, left, op, d, m)),  # the sides swapped
            st.just(tuple(tuple(Matrix([[Fraction(x) for x in row] for row in a.data]) for a in side)
                          for side in (left, right)) + (op, d, m)),  # respelled as Fractions
        )
    )
    return first, second


def representation_routes(left, right, op, d, m):
    """The representation with these actions, by the public constructor and
    by the package's own builders."""
    rep = Representation(left, right, op, module_dim=m)
    routes = [rep, Representation(left, right, module_dim=m).with_module_operator(op)]
    routes.append(Representation(rep.left, rep.right, rep.module_operator, module_dim=m))
    if all(a.is_zero() for a in (*left, *right)):
        routes.append(trivial_representation(d, m, op))
    return routes


@settings(max_examples=150, deadline=None)
@given(action_set_pairs())
def test_representation_table_agrees_with_its_action_matrices(pair):
    """A representation stores its actions as one module table; built by any
    route, its views `left` and `right` are the matrices it was given (also
    as dense rows), two representations are equal exactly when their
    matrices, operators and both dimensions are, and equal ones hash alike,
    as the field tuple does."""
    (la, ra, oa, da, ma), (lb, rb, ob, db, mb) = pair
    dense_a, dense_b = (la, ra, oa, da, ma), (lb, rb, ob, db, mb)
    routes_b = representation_routes(*dense_b)
    for rep in representation_routes(*dense_a):
        assert rep.left == la and rep.right == ra and (rep.algebra_dim, rep.module_dim) == (da, ma)
        assert [x.data for x in (*rep.left, *rep.right)] == [x.data for x in (*la, *ra)]
        assert hash(rep) == hash((rep.left, rep.right, rep.module_operator, rep.module_dim))
        for other in routes_b:
            assert (rep == other) == (dense_a == dense_b) and (rep != other) == (dense_a != dense_b)
            if rep == other:
                assert hash(rep) == hash(other)


@pytest.mark.parametrize("name", ["loday2", "square2", "abelian3", "dsum(loday2,abelian1)", "abelian0"])
def test_adjoint_table_agrees_with_the_multiplication_matrices(name):
    """The adjoint representation's table, built off the bracket table in one
    pass, equals the representation given by the matrices of left and right
    multiplication, read off the dense structure tensor."""
    alg = catalog_get(name)
    c = alg.structure

    def mult(i, left):
        return Matrix([[c[i][j][k] if left else c[j][i][k] for j in range(alg.dim)] for k in range(alg.dim)])

    left = tuple(mult(i, True) for i in range(alg.dim))
    right = tuple(mult(i, False) for i in range(alg.dim))
    assert adjoint_representation(alg) == Representation(left, right, module_dim=alg.dim)
    assert adjoint_representation(alg).left == left and adjoint_representation(alg).right == right
