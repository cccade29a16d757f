"""Command-line behavior: exit codes, canonical JSON reports, determinism."""

import contextlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nijleib import adjoint_representation
from nijleib.bundles import AlgebraBundle, serialize_algebra_bundle
from nijleib.cli import EXIT_FAIL, EXIT_INVALID, EXIT_PASS, main
from nijleib.cochain import COMPLEX_KINDS, PHI_VARIANTS
from nijleib.operators import WEIGHT_CONVENTIONS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


def test_verify_pass(capsys, fixtures_dir):
    code, out, err = run(capsys, "verify", fx(fixtures_dir, "loday2_classified.json"))
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["checks"]["leibniz"] is True
    assert "tool_version" in doc


def test_verify_fail_with_certificate(capsys, fixtures_dir):
    code, out, err = run(capsys, "verify", fx(fixtures_dir, "loday2_nonnijenhuis.json"))
    assert code == EXIT_FAIL
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    cert = doc["counterexample"]
    assert cert["identity"] == "nijenhuis"
    assert cert["indices"]
    assert cert["residual"]


def test_verify_invalid_input(capsys, fixtures_dir, tmp_path):
    # each case is invalid input to some verb: exit 2, no report, and one
    # error: line in place of a traceback
    bundle = fx(fixtures_dir, "loday2_classified.json")
    deformation, iso = fx(fixtures_dir, "deformation_twisted.json"), fx(fixtures_dir, "iso_linear.json")
    extension = fx(fixtures_dir, "extension_cocycle.json")
    mu_not_a_list = tmp_path / "mu5.json"
    mu_not_a_list.write_text('{"order": 0, "mu": 5, "n": 5}')
    not_an_object = tmp_path / "five.json"
    not_an_object.write_text("5")
    bad_corner = tmp_path / "corner.json"
    bad_corner.write_text('{"corner": [[')
    actions_not_lists = tmp_path / "rep5.json"
    actions_not_lists.write_text(
        '{"algebra": {"dimension": 1, "basis": ["a"]},'
        ' "representation": {"dimension": 1, "left": 5, "right": 5}}'
    )
    labels_not_strings = tmp_path / "labels.json"
    labels_not_strings.write_text('{"algebra": {"dimension": 2, "basis": [["a"], ["b"]]}}')
    # JSON booleans are not integers, although Python's bool is an int
    dimension_true = tmp_path / "dimtrue.json"
    dimension_true.write_text('{"algebra": {"dimension": true, "basis": ["a"]}}')
    order_true = tmp_path / "ordertrue.json"
    trivial = json.loads((fixtures_dir / "deformation_trivial.json").read_text())
    order_true.write_text(json.dumps({"order": True, "mu": trivial["mu"][:2], "n": trivial["n"][:2]}))
    cases = [
        ("verify", fx(fixtures_dir, "bad_rational.json")),
        ("verify", bundle, "--kind", "rota_baxter_weighted", "--weight", "abc"),
        ("search", fx(fixtures_dir, "loday2_plain.json"), "--range", "-1..1", "--den", "0"),
        ("deform", "check", bundle, str(mu_not_a_list)),
        ("deform", "check", bundle, str(not_an_object)),
        ("extend", "build", bundle, str(not_an_object)),
        (
            "extend",
            "compare",
            bundle,
            fx(fixtures_dir, "extension_related.json"),
            fx(fixtures_dir, "extension_cocycle.json"),
            "--corner",
            str(bad_corner),
        ),
        ("selfcheck", bundle, "--max-degree", "9"),
        ("selfcheck", bundle, "--max-degree", "-1"),
        ("cohomology", bundle, "--max-degree", "-1"),
        ("cohomology", bundle, "--max-degree", "abc"),
        ("cohomology", bundle, "--complex", "xyz"),
        ("verify",),
        (),
        ("verify", str(actions_not_lists)),
        ("verify", str(labels_not_strings)),
        ("verify", str(dimension_true)),
        ("deform", "check", bundle, str(order_true)),
        # the degree cap and the grid guard are fixed: no option raises them
        ("cohomology", bundle, "--complex", "la", "--max-degree", "6", "--cap", "6"),
        ("search", fx(fixtures_dir, "loday2_plain.json"), "--range", "-1..1", "--guard", "10"),
        # a weight or a convention that the kind does not take is not ignored
        ("search", fx(fixtures_dir, "loday2_plain.json"), "--range", "-1..1", "--kind", "rota_baxter",
         "--convention", "as_printed"),
        ("search", fx(fixtures_dir, "loday2_plain.json"), "--range", "-1..1", "--weight", "2"),
        ("verify", bundle, "--kind", "modified_rota_baxter", "--weight", "1", "--convention", "standard"),
        ("verify", bundle, "--kind", "rota_baxter", "--weight", "-1"),
        ("verify", fx(fixtures_dir, "loday2_plain.json"), "--weight", "2"),
        # an action reads only the operands and options it declares
        ("deform", "check", bundle, deformation, "--iso", iso),
        ("deform", "check", bundle, deformation, "--phi", "printed"),
        ("deform", "twist", bundle, deformation, "--iso", iso, "--phi", "printed"),
        ("deform", "cocycle", bundle, deformation, "--iso", iso),
        ("extend", "build", bundle, extension, fx(fixtures_dir, "extension_related.json")),
        ("extend", "extract", bundle, extension, "--corner", fx(fixtures_dir, "corner.json")),
        ("deform", "twist", bundle, deformation),
        ("deform", bundle, deformation),
        # --phi follows its action
        ("deform", "--phi", "printed", "cocycle", bundle, deformation),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVALID, argv
        assert out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


def _fuzz_bundles(fixtures_dir, loday2, classified_op):
    # two valid documents: a fixture, and the same algebra with its adjoint
    # representation written out explicitly (so representation fields exist)
    fixture = json.loads((fixtures_dir / "loday2_classified.json").read_text())
    explicit = AlgebraBundle(loday2, classified_op, adjoint_representation(loday2, classified_op))
    return [fixture, json.loads(serialize_algebra_bundle(explicit))]


def _field_paths(node, path=()):
    """Every key/index path below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# any JSON value, weighted towards the labels and rationals a bundle uses
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.sampled_from(["0", "1", "-1/2", "e1", "e2", "e2,e1", "adjoint"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(["e1", "e2", "e2,e1"]), inner, max_size=3),
    max_leaves=8,
)


def _write_fresh(path, text):
    # a new file each time: on some filesystems truncating an existing file
    # costs tens of milliseconds, creating one a few microseconds
    path.unlink(missing_ok=True)
    path.write_text(text)


def _assert_exit_contract(argv, where):
    """Exit 0, 1 or 2; exit 0/1 print a report and nothing on stderr, exit 2
    prints no report and exactly one error: line.  Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INVALID), (argv, where)
    if code == EXIT_INVALID:
        assert out == "", (argv, where)
        assert err.startswith("error:") and err.count("\n") == 1, (argv, where, err)
    else:
        assert err == "", (argv, where, err)
        # a report without a verdict (a printed bundle or deformation) passes
        verdict = json.loads(out).get("verdict", "pass")
        assert verdict == ("pass" if code == EXIT_PASS else "fail"), (argv, where)
    return code


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=JSON_VALUES)
def test_exit_code_contract_on_mutated_bundles(fixtures_dir, loday2, classified_op, tmp_path, value):
    # each field of a valid bundle in turn replaced by a JSON value
    bundle = tmp_path / "fuzzed.json"
    for doc in _fuzz_bundles(fixtures_dir, loday2, classified_op):
        for path in _field_paths(doc):
            _write_fresh(bundle, json.dumps(_replaced(doc, path, value)))
            for argv in (["verify", str(bundle)], ["cohomology", str(bundle), "--max-degree", "1"]):
                _assert_exit_contract(argv, path)


FUZZED = "<fuzzed>"


def _fuzz_fixture_fields(fixtures_dir, tmp_path, value, runs):
    """For each fixture named in `runs`: the whole document, then each of its
    fields, replaced by `value`, and each of the fixture's argument lists run on
    the result (FUZZED stands for the fuzzed file)."""
    fuzzed = tmp_path / "fuzzed.json"
    for name, argvs in runs.items():
        doc = json.loads((fixtures_dir / name).read_text())
        for path in [()] + list(_field_paths(doc)):
            _write_fresh(fuzzed, json.dumps(_replaced(doc, path, value) if path else value))
            for argv in argvs:
                _assert_exit_contract([str(fuzzed) if a == FUZZED else a for a in argv], (name, path))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=JSON_VALUES)
def test_exit_code_contract_on_mutated_extension_files(fixtures_dir, tmp_path, value):
    bundle, other = fx(fixtures_dir, "loday2_classified.json"), fx(fixtures_dir, "extension_cocycle.json")
    extension, corner = fx(fixtures_dir, "extension_related.json"), fx(fixtures_dir, "corner.json")
    _fuzz_fixture_fields(fixtures_dir, tmp_path, value, {
        "extension_related.json": [
            ["extend", "build", bundle, FUZZED],
            ["extend", "compare", bundle, FUZZED, other, "--corner", corner],
        ],
        "corner.json": [["extend", "compare", bundle, extension, other, "--corner", FUZZED]],
    })


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=JSON_VALUES)
def test_exit_code_contract_on_mutated_deformation_files(fixtures_dir, tmp_path, value):
    bundle, iso = fx(fixtures_dir, "loday2_classified.json"), fx(fixtures_dir, "iso_linear.json")
    deformation = fx(fixtures_dir, "deformation_twisted.json")
    _fuzz_fixture_fields(fixtures_dir, tmp_path, value, {
        "deformation_twisted.json": [
            ["deform", "check", bundle, FUZZED],
            ["deform", "cocycle", bundle, FUZZED],
            ["deform", "twist", bundle, FUZZED, "--iso", iso],
        ],
        "iso_linear.json": [["deform", "twist", bundle, deformation, "--iso", FUZZED]],
    })


# Each action of the CLI: the kinds of its operands, the options it declares
# and which of those it requires.
CLI_ACTIONS = {
    ("verify",): (("bundle",), ("--kind", "--weight", "--convention", "--no-verify"), ()),
    ("induce", "bracket"): (("bundle",), (), ()),
    ("induce", "rep"): (("bundle",), (), ()),
    ("cohomology",): (("bundle",), ("--complex", "--max-degree", "--phi"), ()),
    ("search",): (("bundle",), ("--kind", "--weight", "--convention", "--range", "--den"), ("--range",)),
    ("selfcheck",): (("bundle",), ("--phi", "--max-degree"), ()),
    ("deform", "check"): (("bundle", "deformation"), (), ()),
    ("deform", "twist"): (("bundle", "deformation"), ("--iso",), ("--iso",)),
    ("deform", "cocycle"): (("bundle", "deformation"), ("--phi",), ()),
    ("extend", "build"): (("bundle", "extension"), (), ()),
    ("extend", "extract"): (("bundle", "extension"), (), ()),
    ("extend", "compare"): (("bundle", "extension", "extension"), ("--corner",), ("--corner",)),
}
FIXTURE_NAMES = sorted(p.name for p in (Path(__file__).parent / "fixtures").glob("*.json"))
# no -h or --help: argparse prints usage and exits 0 without a report
JUNK = ["", "xyz", "-", "-5", "1/0", "..", "{}"]
# the fixtures that fit each kind of file, with loday2_classified.json as the bundle
FILES = {
    "bundle": ["loday2_classified.json"],
    "deformation": ["deformation_trivial.json", "deformation_twisted.json"],
    "extension": ["extension_cocycle.json", "extension_related.json"],
    "iso": ["iso_linear.json"],
    "corner": ["corner.json"],
}
# each option's fitting values and its unfitting ones; None marks a flag
OPTION_VALUES = {
    "--kind": (["nijenhuis", "rota_baxter", "rota_baxter_weighted", "modified_rota_baxter"], JUNK),
    "--weight": (["1", "-1", "1/2"], ["abc"] + JUNK),
    "--convention": (list(WEIGHT_CONVENTIONS), JUNK),
    "--no-verify": None,
    "--complex": (list(COMPLEX_KINDS), JUNK),
    "--max-degree": (["0", "1", "2"], ["-1", "9", "abc"]),
    "--phi": (list(PHI_VARIANTS), JUNK),
    "--range": (["-1..1", "0..1", "1..0"], ["2"] + JUNK),
    "--den": (["1", "2"], ["0", "abc"]),
    "--iso": (FILES["iso"], FIXTURE_NAMES + JUNK),
    "--corner": (FILES["corner"], FIXTURE_NAMES + JUNK),
}


@st.composite
def cli_argument_lists(draw, fixtures_dir):
    """A verb and an action, operands, and options of that action and of any
    other, each mostly fitting; with whether the table above makes the line
    malformed."""

    def value(fitting, unfitting):
        name = draw(st.sampled_from(fitting if draw(st.integers(0, 3)) else unfitting))
        return fx(fixtures_dir, name) if name in FIXTURE_NAMES else name

    command = draw(st.sampled_from(sorted(CLI_ACTIONS)))
    operands, declared, required = CLI_ACTIONS[command]
    drop_action = len(command) == 2 and draw(st.integers(0, 7)) == 0
    argv = list(command[:1] if drop_action else command)
    count = draw(st.sampled_from([len(operands)] * 4 + [len(operands) - 1, len(operands) + 1]))
    # one operand too many is one more bundle
    argv += [value(FILES[kind], FIXTURE_NAMES + JUNK) for kind in (operands + ("bundle",))[:count]]
    options = list(required) if draw(st.integers(0, 3)) else []
    options += draw(st.lists(st.sampled_from(declared), max_size=2)) if declared else []
    # an option of any action, those of the sibling actions drawn twice as often
    siblings = sorted({o for c, (_, opts, _) in CLI_ACTIONS.items() if c[0] == command[0] for o in opts})
    options += [draw(st.sampled_from(siblings + sorted(OPTION_VALUES)))] if draw(st.booleans()) else []
    for option in draw(st.permutations(options)):
        argv.append(option)
        if OPTION_VALUES[option] is not None:
            argv.append(value(*OPTION_VALUES[option]))
    malformed = (
        drop_action
        or count != len(operands)
        or any(option not in declared for option in options)
        or not set(required) <= set(options)
    )
    return argv, malformed


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_exit_code_contract_on_argument_lists(fixtures_dir, data):
    # an operand or an option that the action does not declare, even one that
    # a sibling action declares, is invalid input: never silently ignored
    argv, malformed = data.draw(cli_argument_lists(fixtures_dir))
    code = _assert_exit_contract(argv, "argv")
    if malformed:
        assert code == EXIT_INVALID, argv


def _readme_cli_lines():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("nijleib ")]


def test_readme_cli_block_runs(monkeypatch):
    # every example line of the README's CLI block parses and reports, and
    # each action appears in it
    monkeypatch.chdir(Path(__file__).parent.parent)
    lines = _readme_cli_lines()
    for argv in lines:
        assert _assert_exit_contract(argv, "README") in (EXIT_PASS, EXIT_FAIL), argv
    shown = {tuple(argv[: len(command)]) for argv in lines for command in CLI_ACTIONS}
    assert set(CLI_ACTIONS) <= shown


def test_missing_file_is_invalid(capsys, fixtures_dir):
    code, _, err = run(capsys, "verify", fx(fixtures_dir, "no_such_file.json"))
    assert code == EXIT_INVALID
    assert "error:" in err


def test_directory_argument_is_invalid(capsys, tmp_path):
    code, out, err = run(capsys, "verify", str(tmp_path))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_verify_weighted_kind_requires_weight(capsys, fixtures_dir):
    code, _, err = run(
        capsys,
        "verify",
        fx(fixtures_dir, "loday2_classified.json"),
        "--kind",
        "rota_baxter_weighted",
    )
    assert code == EXIT_INVALID
    assert "--weight" in err


def test_induce_bracket_round_trips(capsys, fixtures_dir):
    code, out, _ = run(capsys, "induce", "bracket", fx(fixtures_dir, "loday2_classified.json"))
    assert code == EXIT_PASS
    doc = json.loads(out)
    # the classified operator leaves the loday2 bracket fixed
    assert doc["algebra"]["brackets"] == {"e2,e1": {"e1": "1"}, "e2,e2": {"e1": "1"}}


def test_induce_rep(capsys, fixtures_dir):
    code, out, _ = run(capsys, "induce", "rep", fx(fixtures_dir, "loday2_classified.json"))
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert len(doc["left"]) == 2 and len(doc["right"]) == 2


def test_cohomology_la(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "cohomology",
        fx(fixtures_dir, "loday2_classified.json"),
        "--complex",
        "la",
        "--max-degree",
        "2",
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["degrees"][0]["H"] == 1
    assert doc["verdict"] == "pass"
    assert all(doc["junctions"])


def test_cohomology_nla_golden(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "cohomology",
        fx(fixtures_dir, "loday2_classified.json"),
        "--complex",
        "nla",
        "--max-degree",
        "3",
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    got = [(e["C"], e["H"]) for e in doc["degrees"]]
    assert got == [(2, 0), (6, 1), (12, 3), (24, 5)]
    assert doc["degree0_caveat"] is True


def test_search_grid_count(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "search",
        fx(fixtures_dir, "loday2_plain.json"),
        "--range",
        "-2..2",
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["count"] == 39
    assert len(doc["operators"]) == 39


def test_search_guard_trips(capsys, fixtures_dir):
    # 61^4 candidates exceed the fixed grid guard; rejected before enumeration
    code, _, err = run(capsys, "search", fx(fixtures_dir, "loday2_plain.json"), "--range", "-30..30")
    assert code == EXIT_INVALID
    assert "error:" in err and "guard" in err


def test_search_bad_range(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "search", fx(fixtures_dir, "loday2_plain.json"), "--range", "2"
    )
    assert code == EXIT_INVALID
    assert "range" in err


def test_selfcheck_full_passes(capsys, fixtures_dir):
    code, out, _ = run(capsys, "selfcheck", fx(fixtures_dir, "loday2_classified.json"))
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert all(e["commutes"] for e in doc["chain_map_combined"])


def test_selfcheck_printed_reports_failure(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "selfcheck",
        fx(fixtures_dir, "loday2_classified.json"),
        "--phi",
        "printed",
    )
    assert code == EXIT_FAIL
    doc = json.loads(out)
    failing = [e for e in doc["chain_map_combined"] if not e["commutes"]]
    assert failing
    assert "counterexample" in failing[0]


def test_deform_check_pass(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "deform",
        "check",
        fx(fixtures_dir, "loday2_classified.json"),
        fx(fixtures_dir, "deformation_twisted.json"),
    )
    assert code == EXIT_PASS
    assert json.loads(out)["verdict"] == "pass"


def test_certificate_goldens(capsys, fixtures_dir, tmp_path):
    """Exact reports of the two verbs that print bracket-evaluation residuals:
    a Leibniz certificate from `verify --no-verify` (and the same failure as an
    ingest error without it), and both residual families of `deform check`.
    Without the Leibniz identity there is no adjoint representation: that
    check fails, next to the Leibniz certificate."""
    bundle = tmp_path / "nonleibniz.json"
    doc = (
        '{"algebra":{"basis":["e1","e2"],"brackets":{"e1,e2":{"e1":"1/2"},"e2,e1":{"e1":"1","e2":"-2"},'
        '"e2,e2":{"e1":"1"}},"dimension":2},"operator":[["2","1"],["0","1"]]'
    )
    bundle.write_text(doc + "}")
    adjoint = tmp_path / "nonleibniz_adjoint.json"
    adjoint.write_text(doc + ',"representation":"adjoint"}')
    deformation = json.loads((fixtures_dir / "deformation_trivial.json").read_text())
    deformation["mu"][1][0][0] = ["1", "0"]
    (tmp_path / "bad_deformation.json").write_text(json.dumps(deformation))
    assert run(capsys, "verify", str(bundle), "--no-verify") == (
        EXIT_FAIL,
        '{"certificates":[{"identity":"leibniz","indices":[0,1,0],"residual":["-1","0"]},'
        '{"identity":"nijenhuis","indices":[1,1],"residual":["3/2","0"]}],'
        '"checks":{"leibniz":false,"nijenhuis":false},"command":"verify",'
        '"counterexample":{"identity":"leibniz","indices":[0,1,0],"residual":["-1","0"]},'
        '"tool_version":"0.1.0","verdict":"fail"}\n',
        "",
    )
    assert run(capsys, "verify", str(adjoint), "--no-verify") == (
        EXIT_FAIL,
        '{"certificates":[{"identity":"leibniz","indices":[0,1,0],"residual":["-1","0"]},'
        '{"identity":"nijenhuis","indices":[1,1],"residual":["3/2","0"]}],'
        '"checks":{"leibniz":false,"nijenhuis":false,"representation":false},"command":"verify",'
        '"counterexample":{"identity":"leibniz","indices":[0,1,0],"residual":["-1","0"]},'
        '"tool_version":"0.1.0","verdict":"fail"}\n',
        "",
    )
    assert run(capsys, "verify", str(bundle)) == (
        EXIT_INVALID,
        "",
        "error: algebra fails the Leibniz identity: leibniz fails at (0, 1, 0): "
        "residual (Fraction(-1, 1), Fraction(0, 1))\n",
    )
    code, out, err = run(
        capsys, "deform", "check", fx(fixtures_dir, "loday2_classified.json"), str(tmp_path / "bad_deformation.json")
    )
    assert (code, err) == (EXIT_FAIL, "")
    assert out == (
        '{"command":"deform-check","counterexample":{"first_failing_order":1,'
        '"leibniz_residual":[[[["0","0"],["0","0"]],[["0","0"],["1","0"]]],'
        '[[["-1","0"],["-1","0"]],[["-1","0"],["0","0"]]]],'
        '"nijenhuis_residual":[[["0","0"],["0","0"]],[["0","0"],["1","0"]]]},'
        '"order":2,"tool_version":"0.1.0","verdict":"fail"}\n'
    )


def test_deform_twist_then_check(capsys, fixtures_dir, tmp_path):
    code, out, _ = run(
        capsys,
        "deform",
        "twist",
        fx(fixtures_dir, "loday2_classified.json"),
        fx(fixtures_dir, "deformation_trivial.json"),
        "--iso",
        fx(fixtures_dir, "iso_linear.json"),
    )
    assert code == EXIT_PASS
    twisted = tmp_path / "twisted.json"
    twisted.write_text(out)
    code2, out2, _ = run(
        capsys,
        "deform",
        "check",
        fx(fixtures_dir, "loday2_classified.json"),
        str(twisted),
    )
    assert code2 == EXIT_PASS


def test_deform_cocycle(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "deform",
        "cocycle",
        fx(fixtures_dir, "loday2_classified.json"),
        fx(fixtures_dir, "deformation_twisted.json"),
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["is_cocycle"] is True


def test_extend_build_and_extract(capsys, fixtures_dir):
    bundle = fx(fixtures_dir, "loday2_classified.json")
    code, out, _ = run(capsys, "extend", "build", bundle, fx(fixtures_dir, "extension_cocycle.json"))
    assert code == EXIT_PASS
    assert json.loads(out)["total_dimension"] == 4

    code, out, _ = run(
        capsys, "extend", "extract", bundle, fx(fixtures_dir, "extension_cocycle.json")
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert "psi" in doc and "chi" in doc


def test_extend_compare_via_corner(capsys, fixtures_dir):
    bundle = fx(fixtures_dir, "loday2_classified.json")
    code, out, _ = run(
        capsys,
        "extend",
        "compare",
        bundle,
        fx(fixtures_dir, "extension_related.json"),
        fx(fixtures_dir, "extension_cocycle.json"),
        "--corner",
        fx(fixtures_dir, "corner.json"),
    )
    assert code == EXIT_PASS
    assert json.loads(out)["equal"] is True


def test_extend_compare_requires_corner(capsys, fixtures_dir):
    bundle = fx(fixtures_dir, "loday2_classified.json")
    code, _, err = run(
        capsys,
        "extend",
        "compare",
        bundle,
        fx(fixtures_dir, "extension_related.json"),
        fx(fixtures_dir, "extension_cocycle.json"),
    )
    assert code == EXIT_INVALID
    assert "corner" in err


# Every report verb, on passing and failing inputs, with its expected exit
# code.  The two bad_* files are written by the test: mu_1(e1, e1) = e1 is not
# a Leibniz 2-cocycle of loday2 with its adjoint representation.
VERDICT_RUNS = {
    "verify-pass": (EXIT_PASS, "verify", "loday2_classified.json"),
    "verify-fail": (EXIT_FAIL, "verify", "loday2_nonnijenhuis.json"),
    "induce-rep": (EXIT_PASS, "induce", "rep", "loday2_classified.json"),
    "cohomology-pass": (EXIT_PASS, "cohomology", "loday2_classified.json", "--complex", "nla"),
    "cohomology-fail": (
        EXIT_FAIL, "cohomology", "loday2_classified.json", "--complex", "nla", "--phi", "printed",
        "--max-degree", "3",
    ),
    "search": (EXIT_PASS, "search", "loday2_plain.json", "--range", "-1..1"),
    "selfcheck-pass": (EXIT_PASS, "selfcheck", "loday2_classified.json"),
    "selfcheck-fail": (EXIT_FAIL, "selfcheck", "loday2_classified.json", "--phi", "printed"),
    "deform-check-pass": (EXIT_PASS, "deform", "check", "loday2_classified.json", "deformation_twisted.json"),
    "deform-check-fail": (EXIT_FAIL, "deform", "check", "loday2_classified.json", "bad_deformation.json"),
    "deform-cocycle-pass": (
        EXIT_PASS, "deform", "cocycle", "loday2_classified.json", "deformation_twisted.json",
    ),
    "deform-cocycle-fail": (EXIT_FAIL, "deform", "cocycle", "loday2_classified.json", "bad_deformation.json"),
    "extend-build-pass": (EXIT_PASS, "extend", "build", "loday2_classified.json", "extension_cocycle.json"),
    "extend-build-fail": (EXIT_FAIL, "extend", "build", "loday2_classified.json", "bad_extension.json"),
    "extend-extract": (EXIT_PASS, "extend", "extract", "loday2_classified.json", "extension_cocycle.json"),
    "extend-compare": (
        EXIT_PASS, "extend", "compare", "loday2_classified.json", "extension_related.json",
        "extension_cocycle.json", "--corner", "corner.json",
    ),
    "extend-compare-fail": (
        EXIT_FAIL, "extend", "compare", "loday2_classified.json", "extension_related.json",
        "extension_cocycle.json", "--corner", "bad_corner.json",
    ),
}


@pytest.mark.parametrize("run_spec", VERDICT_RUNS.values(), ids=VERDICT_RUNS.keys())
def test_verdict_matches_exit_code(capsys, fixtures_dir, tmp_path, run_spec):
    expected, *argv = run_spec
    deformation = json.loads((fixtures_dir / "deformation_trivial.json").read_text())
    deformation["mu"][1][0][0] = ["1", "0"]
    (tmp_path / "bad_deformation.json").write_text(json.dumps(deformation))
    extension = json.loads((fixtures_dir / "extension_zero.json").read_text())
    extension["psi"][0][0] = ["1", "0"]
    (tmp_path / "bad_extension.json").write_text(json.dumps(extension))
    # the identity corner is not an isomorphism between the two fixture extensions
    (tmp_path / "bad_corner.json").write_text(json.dumps([["1", "0"], ["0", "1"]]))
    paths = [
        str(tmp_path / a) if a.startswith("bad_") else fx(fixtures_dir, a) if a.endswith(".json") else a
        for a in argv
    ]
    code, out, _ = run(capsys, *paths)
    doc = json.loads(out)
    assert code == expected
    assert doc["verdict"] == ("pass" if code == EXIT_PASS else "fail")
    assert "tool_version" in doc


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "nijleib.cli", *argv],
        capture_output=True,
    )


def test_repeated_invocations_byte_identical(fixtures_dir):
    argv = [
        "cohomology",
        fx(fixtures_dir, "loday2_classified.json"),
        "--complex",
        "nla",
        "--max-degree",
        "2",
    ]
    first = run_proc(*argv)
    second = run_proc(*argv)
    assert first.returncode == second.returncode == EXIT_PASS
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_entry_point_installed(fixtures_dir):
    proc = subprocess.run(
        ["nijleib", "verify", fx(fixtures_dir, "loday2_classified.json")],
        capture_output=True,
    )
    assert proc.returncode == EXIT_PASS
