"""Isomorphism invariance: a Nijenhuis Leibniz algebra moved to another basis
by a rational change of basis Q keeps every verdict and every cohomology
dimension.  The moved pairs have dense rational tables, operators and
actions, where the catalog holds a few 0/1 constants, so the kernels' sparse
forms and their Fraction paths are exercised on them.  The move is the naive
dense `oracles.transport`, which shares no code with the kernels."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nijleib.algebra import adjoint_representation, catalog_nijenhuis_pairs, check_leibniz, check_representation
from nijleib.cochain import cohomology_dims
from nijleib.operators import is_nijenhuis
from oracles import dense_inverse, transport

PAIRS = catalog_nijenhuis_pairs()
# entries -3..3 over denominators 1, 2 and 3
ENTRIES = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
COMPLEXES = [("la", "full"), ("no", "full"), ("nla", "full"), ("nla", "printed")]


def dimensions(alg, op, rep):
    """C, Z, B and H per degree and the junction flags, to degree 3, of each
    complex; the junction witnesses are not invariant entry by entry."""
    out = []
    for kind, variant in COMPLEXES:
        report = cohomology_dims(kind, alg, rep, op, max_degree=3, variant=variant)
        out.append(([(e.dim_c, e.dim_z, e.dim_b, e.dim_h) for e in report.degrees], report.junctions))
    return out


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(range(len(PAIRS))), st.data())
def test_verdicts_and_dimensions_survive_a_change_of_basis(index, data):
    name, alg, op = PAIRS[index]
    q = [[data.draw(ENTRIES) for _ in range(alg.dim)] for _ in range(alg.dim)]
    assume(dense_inverse(q) is not None)
    moved_alg, moved_op, moved_rep = transport(alg, op, q)
    assert check_leibniz(alg) is None and check_leibniz(moved_alg) is None, name
    assert is_nijenhuis(alg, op) and is_nijenhuis(moved_alg, moved_op), name
    # the adjoint representation, moved as matrices, is the moved algebra's own
    assert moved_rep == adjoint_representation(moved_alg, moved_op), name
    assert check_representation(moved_alg, moved_rep, moved_op) is None, name
    rep = adjoint_representation(alg, op)
    assert dimensions(alg, op, rep) == dimensions(moved_alg, moved_op, moved_rep), name
