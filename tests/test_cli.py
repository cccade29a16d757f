"""Command-line behavior: exit codes, canonical JSON reports, determinism."""

import contextlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nijleib import adjoint_representation, cli, linalg
from nijleib.bundles import AlgebraBundle, serialize_algebra_bundle
from nijleib.cli import EXIT_FAIL, EXIT_INVALID, EXIT_PASS, main
from nijleib.cochain import COMPLEX_KINDS, PHI_VARIANTS
from nijleib.errors import BundleError
from nijleib.linalg import format_rational, parse_rational
from nijleib.operators import WEIGHT_CONVENTIONS
from oracles import argparse_main, argparse_parse


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
    # no bracket key "x,y" could name a label with a comma; without brackets
    # this file was once accepted as an abelian algebra
    comma_label = tmp_path / "comma.json"
    comma_label.write_text('{"algebra": {"dimension": 2, "basis": ["x,1", "y"]}}')
    # JSON booleans are not integers, although Python's bool is an int
    dimension_true = tmp_path / "dimtrue.json"
    dimension_true.write_text('{"algebra": {"dimension": true, "basis": ["a"]}}')
    order_true = tmp_path / "ordertrue.json"
    trivial = json.loads((fixtures_dir / "deformation_trivial.json").read_text())
    order_true.write_text(json.dumps({"order": True, "mu": trivial["mu"][:2], "n": trivial["n"][:2]}))
    # a deformation whose order-0 term is not the bundle's operator, or not
    # its bracket: every deform action refuses it
    other_n, other_mu = tmp_path / "other_n.json", tmp_path / "other_mu.json"
    shifted = json.loads(json.dumps(trivial))
    shifted["n"][0][0][0] = "7"
    other_n.write_text(json.dumps(shifted))
    shifted = json.loads(json.dumps(trivial))
    shifted["mu"][0][1][0][0] = "5"
    other_mu.write_text(json.dumps(shifted))
    other_base = [
        ("deform", action, bundle, str(path), *extra)
        for path in (other_n, other_mu)
        for action, extra in (("check", ()), ("cocycle", ()), ("twist", ("--iso", iso)))
    ]
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
        ("verify", str(comma_label)),
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
        *other_base,
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVALID, argv
        assert out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
    for argv in other_base:
        assert run(capsys, *argv)[2] == "error: deformation does not start at the given base structure\n", argv
    assert "algebra.basis[0]" in run(capsys, "verify", str(comma_label))[2]
    # -h/--help prints no report either: usage on stderr, then one error: line
    for argv in [("-h",), ("--help",), ("deform", "-h"), ("deform", "check", "-h"), ("cohomology", bundle, "--help")]:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVALID, argv
        assert out == "", argv
        _assert_one_error_line(err, True, argv)


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


# digit strings past the interpreter's 4300-digit int-to-str limit, as an
# integer, a denominator and a decimal whose value is too long to print back
LONG_DIGITS = ["1" * 5000, "1/" + "3" * 4301, "0." + "0" * 4299 + "1"]

# any JSON value, weighted towards the labels and rationals a bundle uses
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.sampled_from(["0", "1", "-1/2", "e1", "e2", "e2,e1", "adjoint"])
    | st.sampled_from(LONG_DIGITS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(["e1", "e2", "e2,e1"]), inner, max_size=3),
    max_leaves=8,
)


def _write_fresh(path, text):
    # a new file each time: on some filesystems truncating an existing file
    # costs tens of milliseconds, creating one a few microseconds
    path.unlink(missing_ok=True)
    path.write_text(text)


def _assert_one_error_line(err, help_asked, context):
    """stderr of exit 2: one error: line, last; only -h/--help writes its
    usage block above it."""
    lines = err.splitlines()
    assert err.endswith("\n") and lines[-1].startswith("error:"), (context, err)
    assert not any(line.startswith("error:") for line in lines[:-1]), (context, err)
    assert len(lines) == 1 or (help_asked and lines[0].startswith("usage: nijleib")), (context, err)


def _asks_help(token):
    """-h, --help or a prefix of it that no other option shares."""
    return token == "-h" or (len(token) > 2 and "--help".startswith(token))


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
        _assert_one_error_line(err, any(_asks_help(token) for token in argv), (argv, where))
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
JUNK = ["", "xyz", "-", "-5", "1/0", "..", "{}", "-h", "--help"]
# the fixtures that fit each kind of file, with loday2_classified.json as the bundle
FILES = {
    "bundle": ["loday2_classified.json"],
    "deformation": ["deformation_trivial.json", "deformation_twisted.json"],
    "extension": ["extension_cocycle.json", "extension_related.json"],
    "iso": ["iso_linear.json"],
    "corner": ["corner.json"],
}
NINES = "9" * 4300  # the longest digit string that int() reads
# each option's fitting values and its unfitting ones; None marks a flag
OPTION_VALUES = {
    "--kind": (["nijenhuis", "rota_baxter", "rota_baxter_weighted", "modified_rota_baxter"], JUNK),
    "--weight": (["1", "-1", "1/2"], ["abc", "0.5", "1e5000", "1e-5000", "1" * 5000] + JUNK),
    "--convention": (list(WEIGHT_CONVENTIONS), JUNK),
    "--no-verify": None,
    "--complex": (list(COMPLEX_KINDS), JUNK),
    "--max-degree": (["0", "1", "2"], ["-1", "9", "abc"]),
    "--phi": (list(PHI_VARIANTS), JUNK),
    "--range": (["-1..1", "0..1", "1..0"], ["2", "0..1e5000", "0.." + "1" * 5000, f"-{NINES}..{NINES}"] + JUNK),
    "--den": (["1", "2"], ["0", "abc"]),
    "--iso": (FILES["iso"], FIXTURE_NAMES + JUNK),
    "--corner": (FILES["corner"], FIXTURE_NAMES + JUNK),
}


# tokens at the edges of the option grammar: `--`, operands that start with
# "-", prefixes, and values after `=`
EDGE_TOKENS = ["--", "-", "-5", "-1.5", "-x", "-x y", "--max=1", "--ra", "--he", "--no-verify=1"]


@st.composite
def cli_argument_lists(draw, fixtures_dir, edge=False):
    """A verb and an action, operands, and options of that action and of any
    other, each mostly fitting; with whether the table above makes the line
    malformed.  With `edge`, options may be abbreviated, values may be
    EDGE_TOKENS, and up to two more EDGE_TOKENS go anywhere in the line, which
    then says nothing about whether it is malformed (None)."""

    def value(fitting, unfitting):
        if edge and not draw(st.integers(0, 5)):
            return draw(st.sampled_from(EDGE_TOKENS))
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
        argv.append(option[: draw(st.integers(4, len(option)))] if edge else option)
        if OPTION_VALUES[option] is not None:
            argv.append(value(*OPTION_VALUES[option]))
    malformed = (
        drop_action
        or count != len(operands)
        or any(option not in declared for option in options)
        or not set(required) <= set(options)
    )
    if edge:
        for token in draw(st.lists(st.sampled_from(EDGE_TOKENS), max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), token)
        malformed = None
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


def _outcome(argv, entry=main):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    return code, out.getvalue(), err.getvalue()


def _parsed(parse, argv):
    """The handler and the values that `parse` reads off `argv`, or None when
    it refuses the command line."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return parse(argv)
    except BundleError:
        return None


def _by_argparse(argv):
    args = vars(argparse_parse(argv))
    del args["command"]
    args.pop("action", None)
    return args.pop("fn"), args


def _by_table(argv):
    handler, args = cli.build_parser()(argv)
    return handler, vars(args)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_parser_reads_like_argparse(fixtures_dir, data):
    # the argparse declarations in tests/oracles.py are the oracle of the
    # table parser: the same exit code and report on every command line, and
    # on those argparse accepts, the same handler, operands and option values
    argv, _ = data.draw(cli_argument_lists(fixtures_dir, edge=True))
    want = _parsed(_by_argparse, argv)
    if want is not None and [] in want[1].values():
        # argparse strips a second `--`, an operand, to an empty list, on
        # which the handlers raised TypeError; the table reads the file `--`
        want = want[0], {key: "--" if value == [] else value for key, value in want[1].items()}
        assert _parsed(_by_table, argv) == want and _outcome(argv)[0] == EXIT_INVALID, argv
        return
    assert _parsed(_by_table, argv) == want, argv
    assert _outcome(argv)[:2] == _outcome(argv, argparse_main)[:2], argv


def _readme_cli_block():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    return text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]


def _readme_cli_lines():
    return [shlex.split(line)[1:] for line in _readme_cli_block().splitlines() if line.startswith("nijleib ")]


def test_readme_cli_block_runs(monkeypatch):
    # every example line of the README's CLI block parses and reports, and
    # each action appears in it
    monkeypatch.chdir(Path(__file__).parent.parent)
    lines = _readme_cli_lines()
    for argv in lines:
        assert _assert_exit_contract(argv, "README") in (EXIT_PASS, EXIT_FAIL), argv
    shown = {tuple(argv[: len(command)]) for argv in lines for command in CLI_ACTIONS}
    assert set(CLI_ACTIONS) <= shown


def test_usage_lines_are_the_readme_comment_lines(capsys):
    # -h prints one usage line per action, generated from the table, and the
    # README's CLI block opens each action's examples with the same line
    comments = [line[2:] for line in _readme_cli_block().splitlines() if line.startswith("# ")]
    lines = cli._usage("nijleib", cli._VERBS)
    assert len(lines) == len(CLI_ACTIONS)
    for line in lines:
        usage = line.removeprefix("nijleib ")
        assert any(c == usage or c.startswith(usage + "  ") for c in comments), usage
    code, out, err = run(capsys, "deform", "-h")
    deform = [line for line in lines if line.startswith("nijleib deform ")]
    assert err.splitlines()[:-1] == ["usage: " + deform[0], *("       " + line for line in deform[1:])]


def _args(*argv):
    """The values the table parser reads off `argv`, or None if it refuses it."""
    parsed = _parsed(_by_table, list(argv))
    return parsed and parsed[1]


def test_option_grammar(capsys, fixtures_dir):
    bundle = fx(fixtures_dir, "loday2_classified.json")
    # an option by its name or a unique prefix, its value next or after `=`;
    # the last occurrence wins, and options and operands interleave
    want = {"bundle": bundle, "complex": "nla", "max_degree": 1, "phi": "full"}
    for argv in (
        (bundle, "--max", "1", "--co", "nla"),
        (bundle, "--max=1", "--co=nla"),
        (bundle, "--max-degree", "0", "--complex", "no", "--max-degree=1", "--complex=nla"),
        ("--complex", "nla", bundle, "--max-degree", "1"),
    ):
        assert _args("cohomology", *argv) == want, argv
    # `--` is dropped and every token after it is an operand; after the last
    # option some operand must follow
    assert _args("verify", "--", bundle)["bundle"] == bundle
    assert _args("verify", bundle, "--")["bundle"] == bundle
    assert run(capsys, "verify", "--", bundle)[0] == run(capsys, "verify", bundle, "--")[0] == EXIT_PASS
    assert _args("verify", "--", "-h")["bundle"] == "-h"
    assert _args("verify", "--no-verify", bundle, "--")["no_verify"] is True
    assert _args("verify", bundle, "--no-verify", "--") is None
    # a second `--` is an operand too (argparse made it an empty list)
    assert _args("deform", "check", "--", bundle, "--")["deformation"] == "--"
    # an exact --range or --weight takes the next token whatever it is;
    # every other option, an abbreviated --ra included, refuses one that
    # looks like an option
    assert _args("search", bundle, "--range", "-1..1")["range"] == "-1..1"
    assert _args("search", bundle, "--range", "0..1", "--weight", "--kind")["weight"] == "--kind"
    for argv in (("search", bundle, "--ra", "-1..1"), ("deform", "twist", bundle, bundle, "--iso", "-x"),
                 ("verify", bundle, "--kind", "-h"), ("cohomology", bundle, "--phi", "--", "full")):
        assert _args(*argv) is None, argv
    # a negative number, `-` and a token with a space are operands or values
    for operand in ("-5", "-", "-1.5", "-x y"):
        assert _args("verify", operand)["bundle"] == operand
    # int options are read by int()
    for text, value in (("-1", -1), ("+1", 1), (" 1", 1), ("1_0", 10), ("\u0663", 3)):
        assert _args("cohomology", bundle, "--max-degree", text)["max_degree"] == value
    refused = [
        ("verify", bundle, "--no-verify=1"),  # a flag takes no value
        ("cohomology", bundle, "--max-degree", "1" * 5000),
        ("cohomology", bundle, "--complex", "xyz"),
        ("cohomology", bundle, "--=1"),  # a prefix of every option
        ("search", bundle),  # --range is required
        ("verify",),
        ("verify", bundle, bundle),
        ("deform", "--phi", "printed", "cocycle", bundle, bundle),  # an option before its action
        ("deform", "--phi", "cocycle", bundle, bundle),
        ("xyz", bundle),
        ("deform", "xyz", bundle, bundle),
        ("deform",),
        ("cohomology", bundle, "-max-degree", "1"),
    ]
    for argv in refused:
        assert _args(*argv) is None, argv


def test_help_prints_usage_unless_an_earlier_token_fails(capsys, fixtures_dir):
    bundle = fx(fixtures_dir, "loday2_classified.json")
    for argv in (["--he"], ["verify", "--h"], ["cohomology", bundle, "--help", "--complex", "bad"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, ""), argv
        assert err.startswith("usage: nijleib") and err.count("error:") == 1, (argv, err)
    # tokens are read left to right: the bad choice fails before --help
    for argv in (["cohomology", bundle, "--complex", "bad", "--help"], ["search", bundle, "--weight", "--kind"],
                 ["-h=1"], ["verify", "-hx"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, "") and err.startswith("error:") and err.count("\n") == 1, (argv, err)


def test_operand_files_are_opened_as_named(capsys, fixtures_dir):
    # an empty operand names no file; a path through a file names none either
    code, out, err = run(capsys, "verify", "")
    assert (code, out, err) == (EXIT_INVALID, "", "error: [Errno 2] No such file or directory: ''\n")
    code, out, err = run(capsys, "verify", fx(fixtures_dir, "loday2_classified.json") + "/")
    assert (code, out) == (EXIT_INVALID, "") and err.startswith("error:") and err.count("\n") == 1, err


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


# a 0-dim algebra has no action matrices, so the module dimension comes from
# the file's representation.dimension: H^0 of la (and no) is the whole 2-dim
# module, and a 2x2 module operator fits it
ZERO_DIM_ALGEBRA = {"basis": [], "brackets": {}, "dimension": 0}
ZERO_DIM_MODULE = {"dimension": 2, "left": [], "right": []}


@pytest.mark.parametrize(
    "module_operator, complex_kind",
    [(False, "la"), (True, "la"), (True, "no")],
    ids=["plain-la", "module-operator-la", "module-operator-no"],
)
def test_zero_dim_algebra_keeps_module_dim(capsys, tmp_path, module_operator, complex_kind):
    doc = {"algebra": ZERO_DIM_ALGEBRA, "representation": dict(ZERO_DIM_MODULE)}
    if module_operator:
        doc["operator"] = []
        doc["representation"]["operator"] = [["1", "0"], ["0", "2"]]
    path = tmp_path / "zero_dim.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "cohomology", str(path), "--complex", complex_kind, "--max-degree", "2")
    assert code == EXIT_PASS
    report = json.loads(out)
    assert [(e["C"], e["H"]) for e in report["degrees"]] == [(2, 2), (0, 0), (0, 0)]


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


def test_search_guard_trips_on_a_count_too_long_to_print(capsys, tmp_path):
    # 2^14400 has more than 4300 digits; the guard names it as a power, and
    # once exited 1 with the ValueError of formatting it
    dim = 120
    bundle = tmp_path / "abelian120.json"
    basis = [f"e{i}" for i in range(1, dim + 1)]
    bundle.write_text(json.dumps({"algebra": {"basis": basis, "brackets": {}, "dimension": dim}}))
    code, out, err = run(capsys, "search", str(bundle), "--range", "0..1")
    assert (code, out) == (EXIT_INVALID, "")
    assert err == f"error: grid of 2^{dim * dim} candidates exceeds guard 10000000\n"


# spellings that the package's one rational parser refuses: exponents, a
# numerator past the int-digit limit and non-canonical forms
REFUSED_WEIGHTS = ["1e5000", "1e-5000", "1e999999999", "1" * 5000, "0.5", "2/4", "+1"]


@pytest.mark.parametrize("weight", REFUSED_WEIGHTS, ids=lambda w: w[:12])
def test_weight_is_a_canonical_rational(capsys, fixtures_dir, weight):
    """--weight is read by `parse_rational`, like every rational of a bundle.
    An exponent spelling once exited 1 with the int-digit ValueError, and a
    non-canonical one such as 0.5 was accepted."""
    bundle = fx(fixtures_dir, "loday2_classified.json")
    for argv in (
        ("verify", bundle, "--kind", "rota_baxter_weighted", "--weight", weight),
        ("search", bundle, "--range", "0..1", "--kind", "modified_rota_baxter", "--weight", weight),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, "") and err.startswith("error: --weight: ") and err.count("\n") == 1


def test_search_range_past_the_digit_limit_is_invalid_input(capsys, fixtures_dir):
    """An end too long for `int` and a width too long to print in the guard's
    message once exited 1 with the interpreter's ValueError."""
    for bounds in ("0.." + "1" * 5000, f"-{NINES}..{NINES}"):
        code, out, err = run(capsys, "search", fx(fixtures_dir, "loday2_plain.json"), "--range", bounds)
        assert (code, out) == (EXIT_INVALID, "") and err.startswith("error: ") and err.count("\n") == 1


def test_search_on_a_zero_dim_algebra_reads_no_entry_values(tmp_path):
    """A 0-dim algebra has one candidate, the empty matrix, whatever the
    range; the search once built the entry table over the whole range first.
    On 10^4300 values that never ends, so the run has a time limit."""
    bundle = tmp_path / "zero.json"
    bundle.write_text(json.dumps({"algebra": {"basis": [], "brackets": {}, "dimension": 0}}))
    proc = run_proc("search", str(bundle), "--range", f"-{NINES}..{NINES}", timeout=60)
    assert proc.returncode == EXIT_PASS, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["count"], doc["operators"], doc["range"]) == (1, [[]], [-int(NINES), int(NINES)])


def test_verify_large_abelian_bundle_with_the_adjoint_representation(tmp_path):
    """The adjoint representation of a 20,000-dim abelian algebra has an empty
    table, and checking it reads that table: the run fits in 2 GB of address
    space and 10 s.  It once built 40,000 action matrices of 20,000 empty
    rows and ran out of memory."""
    dim = 20000
    bundle = tmp_path / "abelian.json"
    basis = [f"e{i}" for i in range(1, dim + 1)]
    bundle.write_text(json.dumps({"algebra": {"basis": basis, "brackets": {}, "dimension": dim},
                                  "representation": "adjoint"}))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = run_proc("verify", str(bundle), timeout=10, preexec_fn=limit_address_space)
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert json.loads(proc.stdout)["checks"] == {"leibniz": True, "representation": True}


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


@pytest.mark.parametrize("phi", PHI_VARIANTS)
def test_selfcheck_junctions_need_no_rank(capsys, monkeypatch, fixtures_dir, phi):
    """selfcheck reports the junctions of `cohomology_dims` without
    eliminating a matrix."""
    bundle = fx(fixtures_dir, "loday2_classified.json")
    code, out, _ = run(capsys, "selfcheck", bundle, "--phi", phi)
    _, cohomology_out, _ = run(capsys, "cohomology", bundle, "--complex", "nla", "--phi", phi)
    assert json.loads(out)["junctions"] == json.loads(cohomology_out)["junctions"]

    def no_elimination(m):
        raise AssertionError("selfcheck eliminated a matrix")

    monkeypatch.setattr(linalg, "_eliminate", no_elimination)
    assert run(capsys, "selfcheck", bundle, "--phi", phi) == (code, out, "")


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


def test_extend_over_a_zero_dim_base(capsys, tmp_path):
    """A 0-dim base with a 1-dim fiber: the total algebra is the abelian fiber
    with operator N_V, and the pair read back is the empty one."""
    bundle, extension = tmp_path / "base.json", tmp_path / "extension.json"
    rep = {"dimension": 1, "left": [], "operator": [["1"]], "right": []}
    bundle.write_text(json.dumps({"algebra": {"basis": [], "brackets": {}, "dimension": 0}, "operator": [],
                                  "representation": rep}))
    extension.write_text('{"chi":[[]],"fiber_dim":1,"fiber_operator":[["1"]],"psi":[]}\n')
    code, out, _ = run(capsys, "extend", "build", str(bundle), str(extension))
    assert code == EXIT_PASS
    assert json.loads(out)["total_dimension"] == 1
    code, out, _ = run(capsys, "extend", "extract", str(bundle), str(extension))
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert (doc["psi"], doc["chi"]) == ([], [[]])


def test_extend_with_a_zero_dim_fiber(capsys, fixtures_dir, tmp_path):
    """A 0-dim fiber over loday2, whose 0-dim representation `verify`
    accepts: chi and the corner are 0 x 2 matrices, written `[]`, and the
    total algebra is loday2 itself."""
    doc = json.loads((fixtures_dir / "loday2_classified.json").read_text())
    doc["representation"] = {"dimension": 0, "left": [[], []], "operator": [], "right": [[], []]}
    bundle, extension, corner = tmp_path / "base.json", tmp_path / "extension.json", tmp_path / "corner.json"
    bundle.write_text(json.dumps(doc))
    extension.write_text('{"chi":[],"fiber_dim":0,"fiber_operator":[],"psi":[[[],[]],[[],[]]]}\n')
    corner.write_text("[]")
    assert run(capsys, "verify", str(bundle))[0] == EXIT_PASS
    code, out, _ = run(capsys, "extend", "build", str(bundle), str(extension))
    assert code == EXIT_PASS
    assert json.loads(out)["total_dimension"] == 2
    code, out, _ = run(capsys, "extend", "extract", str(bundle), str(extension))
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert (doc["psi"], doc["chi"]) == ([[[], []], [[], []]], [])
    code, out, _ = run(
        capsys, "extend", "compare", str(bundle), str(extension), str(extension), "--corner", str(corner)
    )
    assert code == EXIT_PASS
    assert json.loads(out)["equal"] is True


def test_ragged_matrix_error_is_located(capsys, fixtures_dir, tmp_path):
    """A ragged matrix names the field it sits in, like every other parse
    error, instead of the bare `ragged rows` of the matrix constructor."""
    doc = json.loads((fixtures_dir / "loday2_classified.json").read_text())
    doc["operator"] = [["1", "0"], ["0"]]
    bundle = tmp_path / "ragged.json"
    bundle.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(bundle)) == (EXIT_INVALID, "", "error: operator: ragged rows\n")


@pytest.mark.parametrize(
    "verb, fixture, path, where",
    [
        ("extend build", "extension_cocycle.json", ("psi", 1, 0, 1), "extension.psi[1][0][1]"),
        ("deform check", "deformation_trivial.json", ("mu", 2, 0, 1, 0), "deformation.mu[2][0][1][0]"),
    ],
)
def test_tensor_entry_error_is_located(capsys, fixtures_dir, tmp_path, verb, fixture, path, where):
    """A bad rational inside a tensor names its entry, down to the coordinate
    of the vector that holds it."""
    doc = _replaced(json.loads((fixtures_dir / fixture).read_text()), path, "2/4")
    bad = tmp_path / fixture
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *verb.split(), fx(fixtures_dir, "loday2_classified.json"), str(bad))
    assert (code, out) == (EXIT_INVALID, "")
    assert err == f"error: {where}: non-canonical rational '2/4'; expected '1/2'\n"


@pytest.mark.parametrize("constant", ["1e4300", "1e99999", "1E2", "2.5e-1"])
def test_exponent_rational_is_invalid_input(capsys, fixtures_dir, tmp_path, constant):
    """A constant spelled with an exponent is invalid input, rejected before
    its power is computed: "1e4300" once exited 1 with the traceback of the
    interpreter's int-digit limit."""
    doc = json.loads((fixtures_dir / "loday2_classified.json").read_text())
    bad = tmp_path / "exponent.json"
    bad.write_text(json.dumps(_replaced(doc, ("algebra", "brackets", "e2,e1", "e1"), constant)))
    code, out, err = run(capsys, "verify", str(bad))
    assert (code, out) == (EXIT_INVALID, "")
    assert err == (
        f"error: algebra.brackets['e2,e1']['e1']: bad rational {constant!r}: "
        "a canonical rational has no exponent 'e' or 'E'\n"
    )


def test_long_decimal_rational_is_invalid_input(capsys, fixtures_dir, tmp_path):
    """A decimal spelling whose value has a denominator past the int-to-str
    digit limit is invalid input: it once exited 1 with the traceback of the
    `ValueError` that formatting the value back raised."""
    constant = "0." + "0" * 4299 + "1"
    doc = json.loads((fixtures_dir / "loday2_classified.json").read_text())
    bad = tmp_path / "decimal.json"
    bad.write_text(json.dumps(_replaced(doc, ("algebra", "brackets", "e2,e1", "e1"), constant)))
    code, out, err = run(capsys, "verify", str(bad))
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith(f"error: algebra.brackets['e2,e1']['e1']: bad rational {constant!r}: Exceeds the limit")
    assert err.count("\n") == 1 and err.endswith("\n")


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


# Reports whose entries come out of integral matrices, which store their
# entries as int: each entry must still reach the JSON as a rational string.
ENTRY_RUNS = {
    "deform-twist": (
        EXIT_PASS, "deform", "twist", "loday2_classified.json", "deformation_twisted.json",
        "--iso", "iso_linear.json",
    ),
    "induce-bracket": (EXIT_PASS, "induce", "bracket", "loday2_classified.json"),
    "induce-rep": (EXIT_PASS, "induce", "rep", "loday2_classified.json"),
    "extend-extract": (EXIT_PASS, "extend", "extract", "loday2_classified.json", "extension_cocycle.json"),
    "verify-fail": (EXIT_FAIL, "verify", "loday2_nonnijenhuis.json"),
    "verify-fail-weight": (
        EXIT_FAIL, "verify", "loday2_classified.json", "--kind", "modified_rota_baxter", "--weight", "1/2",
    ),
    "selfcheck-fail": (EXIT_FAIL, "selfcheck", "loday2_classified.json", "--phi", "printed"),
    "cohomology-junction-fail": (
        EXIT_FAIL, "cohomology", "loday2_classified.json", "--complex", "nla", "--phi", "printed",
    ),
    "search-den": (EXIT_PASS, "search", "loday2_plain.json", "--range", "-1..1", "--den", "2"),
}
# the only report fields that hold JSON numbers: counts, indices and shapes
COUNT_FIELDS = {
    "B", "C", "H", "Z", "col", "coordinate", "count", "degree", "denominator", "dimension", "indices",
    "order", "range", "row", "total_dimension", "tuple",
}
# the fields that hold matrix, vector, tensor or residual entries
ENTRY_FIELDS = {
    "brackets", "chi", "left", "mu", "n", "operator", "operators", "psi", "residual", "right", "value",
}


def _leaves(node, field=None):
    """(field, leaf) for every leaf of a JSON document, field being the
    innermost key that names a count or entry field."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, key if key in COUNT_FIELDS | ENTRY_FIELDS else field)
    elif isinstance(node, list):
        for value in node:
            yield from _leaves(value, field)
    else:
        yield field, node


@pytest.mark.parametrize("run_spec", ENTRY_RUNS.values(), ids=ENTRY_RUNS.keys())
def test_report_entries_are_rational_strings(capsys, fixtures_dir, run_spec):
    expected, *argv = run_spec
    code, out, _ = run(capsys, *[fx(fixtures_dir, a) if a.endswith(".json") else a for a in argv])
    assert code == expected
    leaves = list(_leaves(json.loads(out)))
    assert any(field in ENTRY_FIELDS for field, _ in leaves)
    for field, leaf in leaves:
        if field in ENTRY_FIELDS:
            assert isinstance(leaf, str) and format_rational(parse_rational(leaf)) == leaf, (field, leaf)
        elif isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
            assert field in COUNT_FIELDS and isinstance(leaf, int), (field, leaf)


def run_proc(*argv, **options):
    return subprocess.run(
        [sys.executable, "-m", "nijleib.cli", *argv],
        capture_output=True,
        **options,
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


def test_startup_imports_neither_dataclasses_nor_inspect():
    """Every verb starts by importing `nijleib.cli`.  `dataclasses` would pull
    in `inspect` and the compiler modules with it, so a fresh interpreter
    holds neither after that import."""
    check = "import sys, nijleib.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_startup_imports_neither_argparse_nor_pathlib():
    """The command line is read off a table and operand files with open(), so
    importing `nijleib.cli` loads neither argparse nor the gettext it pulls in;
    and without `site`, whose .pth files may load it, no pathlib either."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for flags, check, want in (
        ([], "sorted({'argparse', 'gettext'} & set(sys.modules))", "[]"),
        (["-S"], "'pathlib' in sys.modules", "False"),
    ):
        code = f"import sys, nijleib.cli; print({check})"
        proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want + "\n", ""), flags


def test_entry_point_installed(fixtures_dir):
    proc = subprocess.run(
        ["nijleib", "verify", fx(fixtures_dir, "loday2_classified.json")],
        capture_output=True,
    )
    assert proc.returncode == EXIT_PASS
