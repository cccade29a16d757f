"""File formats: strict parsing, canonical serialization, round trips."""

import json
from fractions import Fraction

import pytest

from nijleib.bundles import (
    AlgebraBundle,
    emit_json,
    parse_algebra_bundle,
    parse_deformation,
    parse_extension,
    parse_isomorphism,
    serialize_algebra_bundle,
    serialize_deformation,
    serialize_extension,
    serialize_isomorphism,
    to_json,
)
from nijleib.algebra import catalog_get
from nijleib.errors import BundleError
from nijleib.linalg import Matrix, frac
from nijleib.operators import nijenhuis, search_operators_grid


def test_parse_fixture_bundle(fixtures_dir):
    text = (fixtures_dir / "loday2_classified.json").read_text()
    bundle = parse_algebra_bundle(text)
    assert bundle.algebra.dim == 2
    assert bundle.operator == Matrix([[frac(2), frac(1)], [frac(0), frac(1)]])
    assert bundle.representation == "adjoint"


def test_round_trip_is_identity(fixtures_dir):
    for name in ("loday2_classified.json", "loday2_plain.json", "square2_shift.json"):
        text = (fixtures_dir / name).read_text()
        bundle = parse_algebra_bundle(text)
        assert serialize_algebra_bundle(bundle) == text


def test_serialization_omits_zero_brackets(loday2):
    text = serialize_algebra_bundle(AlgebraBundle(loday2, None, None))
    doc = json.loads(text)
    assert set(doc["algebra"]["brackets"]) == {"e2,e1", "e2,e2"}


def test_explicit_representation_round_trip(loday2):
    rep_doc = {
        "dimension": 1,
        "left": [[["0"]], [["1"]]],
        "right": [[["0"]], [["0"]]],
        "operator": [["2"]],
    }
    doc = {
        "algebra": {
            "dimension": 2,
            "basis": ["e1", "e2"],
            "brackets": {"e2,e1": {"e1": "1"}, "e2,e2": {"e1": "1"}},
        },
        "representation": rep_doc,
    }
    bundle = parse_algebra_bundle(json.dumps(doc))
    rep = bundle.resolve_representation()
    assert rep.module_dim == 1
    assert rep.left[1].entry(0, 0) == 1
    text = serialize_algebra_bundle(bundle)
    assert parse_algebra_bundle(text).representation == rep


def test_zero_dim_algebra_representation_round_trip():
    # no action matrices to read the module dimension from: it is the file's
    doc = {
        "algebra": {"dimension": 0, "basis": [], "brackets": {}},
        "representation": {"dimension": 2, "left": [], "right": [], "operator": [["0", "1"], ["0", "0"]]},
    }
    bundle = parse_algebra_bundle(json.dumps(doc))
    rep = bundle.resolve_representation()
    assert rep.module_dim == 2
    assert parse_algebra_bundle(serialize_algebra_bundle(bundle)).representation == rep


@pytest.mark.parametrize(
    "mutate,message_part",
    [
        (lambda d: d["algebra"].pop("dimension"), "missing key"),
        (lambda d: d["algebra"]["brackets"].update({"e9,e1": {"e1": "1"}}), "unknown basis pair"),
        (lambda d: d["algebra"]["brackets"]["e2,e1"].update({"e1": "2/4"}), "non-canonical"),
        (lambda d: d.update({"operator": [["1", "0"]]}), "shape"),
        (lambda d: d["algebra"].update({"basis": ["e1", "e1"]}), "distinct"),
        (lambda d: d["algebra"].update({"basis": ["x,1", "e2"]}), "algebra.basis[0]: label 'x,1'"),
    ],
)
def test_strict_parsing_rejections(fixtures_dir, mutate, message_part):
    doc = json.loads((fixtures_dir / "loday2_classified.json").read_text())
    mutate(doc)
    with pytest.raises(BundleError) as err:
        parse_algebra_bundle(json.dumps(doc))
    assert message_part in str(err.value)


def test_non_leibniz_algebra_rejected():
    doc = {
        "algebra": {
            "dimension": 2,
            "basis": ["e1", "e2"],
            "brackets": {"e1,e1": {"e2": "1"}, "e2,e1": {"e1": "1"}, "e2,e2": {"e1": "1"}},
        }
    }
    with pytest.raises(BundleError) as err:
        parse_algebra_bundle(json.dumps(doc))
    assert "Leibniz" in str(err.value)
    # ingest verification can be bypassed explicitly
    bundle = parse_algebra_bundle(json.dumps(doc), verify=False)
    assert bundle.algebra.dim == 2


def test_deformation_round_trip(fixtures_dir):
    text = (fixtures_dir / "deformation_twisted.json").read_text()
    d = parse_deformation(text, 2)
    assert d.order == 2
    assert serialize_deformation(d) == text


def test_deformation_shape_guard(fixtures_dir):
    doc = json.loads((fixtures_dir / "deformation_twisted.json").read_text())
    doc["n"] = doc["n"][:-1]
    with pytest.raises(BundleError):
        parse_deformation(json.dumps(doc), 2)


def test_isomorphism_round_trip(fixtures_dir):
    text = (fixtures_dir / "iso_linear.json").read_text()
    iso = parse_isomorphism(text, 2)
    assert iso.psi_terms[0] == Matrix.identity(2)
    assert serialize_isomorphism(iso) == text


def test_isomorphism_head_must_be_identity():
    doc = {"order": 0, "psi": [[["0", "0"], ["0", "0"]]]}
    with pytest.raises(BundleError):
        parse_isomorphism(json.dumps(doc), 2)


def test_extension_round_trip(fixtures_dir):
    text = (fixtures_dir / "extension_cocycle.json").read_text()
    ext = parse_extension(text, 2)
    assert ext.fiber_dim == 2
    assert serialize_extension(ext) == text


def test_extension_of_a_zero_dim_base_round_trips():
    text = '{"chi":[[]],"fiber_dim":1,"fiber_operator":[["1"]],"psi":[]}\n'
    ext = parse_extension(text, 0)
    assert (ext.pair.psi.alg_dim, ext.pair.psi.module_dim) == (0, 1)
    assert (ext.pair.chi.as_matrix().rows, ext.pair.chi.as_matrix().cols) == (1, 0)
    assert serialize_extension(ext) == text


def test_extension_with_a_zero_dim_fiber_round_trips():
    """chi of a 0-dim fiber over a 2-dim base is 0 x 2, and serializes as []."""
    text = '{"chi":[],"fiber_dim":0,"fiber_operator":[],"psi":[[[],[]],[[],[]]]}\n'
    ext = parse_extension(text, 2)
    assert (ext.pair.chi.as_matrix().rows, ext.pair.chi.as_matrix().cols) == (0, 2)
    assert serialize_extension(ext) == text
    assert parse_extension(serialize_extension(ext), 2) == ext


def test_to_json_of_shared_rows_formats_each_matrix_alone():
    """Matrices that share row objects, at other positions and in matrices of
    other widths, give the JSON of each matrix formatted alone; so do the
    leaves of a grid search, which share their rows."""
    r0, r1, r2 = {0: 1}, {1: Fraction(-1, 2)}, {}
    a, b, c = Matrix._of((r0, r1), 2), Matrix._of((r1, r0), 2), Matrix._of((r2, r0, r1), 3)
    value = [a, b, (c, [a, b]), Fraction(1, 3)]
    alone = [to_json(a), to_json(b), [to_json(c), [to_json(a), to_json(b)]], "1/3"]
    assert alone[:3] == [[["1", "0"], ["0", "-1/2"]], [["0", "-1/2"], ["1", "0"]], alone[2]]
    assert alone[2][0] == [["0", "0", "0"], ["1", "0", "0"], ["0", "-1/2", "0"]]
    assert to_json(value) == alone
    found = search_operators_grid(catalog_get("dsum(loday2,abelian1)"), nijenhuis(), -1, 1, 2)
    assert emit_json(to_json(found)) == emit_json([to_json(m) for m in found])


def test_emit_json_is_canonical():
    a = emit_json({"b": 1, "a": [2, 3]})
    b = emit_json({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}\n'


def test_malformed_json_is_a_bundle_error():
    with pytest.raises(BundleError):
        parse_algebra_bundle("{not json")
