"""Command-line surface.

One verb per construction: verify, cohomology, search, selfcheck, and the
actions of induce (bracket, rep), deform (check, twist, cocycle) and extend
(build, extract, compare).  `_VERBS` is the command line as one table, each
verb or action with its handler, operands and options, so an operand or option
that an action does not declare is invalid input.  `build_parser` reads a
command line off it in one pass, in argparse's grammar (unique prefixes,
`--opt=value`, `--`) without importing argparse; -h prints its usage lines.
Reports are canonical JSON on stdout (byte-identical for identical
invocations); diagnostics go to stderr.
Exit codes: 0 = pass, 1 = a mathematical property fails (certificate
attached), 2 = invalid input or a resource guard.
"""

from __future__ import annotations

import functools
import re
import sys
from types import SimpleNamespace

from .algebra import (
    Counterexample,
    check_leibniz,
    check_representation,
)
from .bundles import (
    TOOL_VERSION,
    AlgebraBundle,
    ExtensionFile,
    emit_json,
    parse_algebra_bundle,
    parse_corner,
    parse_deformation,
    parse_extension,
    parse_isomorphism,
    serialize_algebra_bundle,
    serialize_deformation,
    to_json,
)
from .cochain import (
    COMPLEX_KINDS,
    PHI_VARIANTS,
    chain_map_diagnostic,
    cohomology_dims,
    cocycle_membership,
)
from .cochain import _junctions
from .deformation import (
    infinitesimal,
    residual_report,
    twist_by_isomorphism,
)
from .deformation import _check_base
from .errors import BundleError, NijleibError, PreconditionError
from .extensions import build_extension, section_to_cocycle, transport_cocycle_via_isomorphism
from .linalg import Matrix, format_rational, parse_rational
from .operators import (
    OPERATOR_KINDS,
    WEIGHT_CONVENTIONS,
    OperatorKind,
    check_operator,
    induced_bracket,
    induced_representation,
    search_operators_grid,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


def _certificate_json(c: Counterexample) -> dict:
    return {"identity": c.identity, "indices": list(c.indices), "residual": to_json(c.residual)}


def _finish(report: dict, ok: bool) -> int:
    """Set the verdict, write the report and return the matching exit code."""
    report["verdict"] = "pass" if ok else "fail"
    report.setdefault("tool_version", TOOL_VERSION)
    sys.stdout.write(emit_json(report))
    return EXIT_PASS if ok else EXIT_FAIL


def _kind_from_args(args) -> OperatorKind:
    # OperatorKind defaults every kind to the standard convention, so only the
    # command line can tell a convention given to another kind
    if args.convention is not None and args.kind != "rota_baxter_weighted":
        raise BundleError(f"--convention applies only to rota_baxter_weighted, not {args.kind}")
    try:
        weight = None if args.weight is None else parse_rational(args.weight)
        return OperatorKind(args.kind, weight, args.convention or "standard")
    except ValueError as exc:  # a BundleError of the parser, or the kind's own check
        raise BundleError(f"--weight: {exc}") from None


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _load_bundle(path: str, verify: bool = True) -> AlgebraBundle:
    return parse_algebra_bundle(_read(path), verify=verify)


def _operator(bundle: AlgebraBundle, needed_by: str) -> Matrix:
    """The bundle's operator; `needed_by` names what requires one."""
    if bundle.operator is None:
        raise BundleError(f"{needed_by} needs an operator in the bundle")
    return bundle.operator


def _cmd_verify(args) -> int:
    bundle = _load_bundle(args.bundle, verify=not args.no_verify)
    kind = _kind_from_args(args)
    alg = bundle.algebra
    certificates = []
    checks = {}
    leib = check_leibniz(alg)
    checks["leibniz"] = leib is None
    if leib is not None:
        certificates.append(_certificate_json(leib))
    if bundle.operator is not None:
        op_bad = check_operator(alg, bundle.operator, kind)
        checks[kind.describe()] = op_bad is None
        if op_bad is not None:
            certificates.append(_certificate_json(op_bad))
    if bundle.representation is not None:
        try:
            rep = bundle.resolve_representation()
        except PreconditionError:  # no adjoint action without the Leibniz identity, certified above
            checks["representation"] = False
        else:
            rep_bad = check_representation(alg, rep, bundle.operator)
            checks["representation"] = rep_bad is None
            if rep_bad is not None:
                certificates.append(_certificate_json(rep_bad))
    report = {"command": "verify", "checks": checks}
    if certificates:
        report["counterexample"] = certificates[0]
        report["certificates"] = certificates
    return _finish(report, not certificates)


def _cmd_induce_bracket(args) -> int:
    bundle = _load_bundle(args.bundle)
    star = induced_bracket(bundle.algebra, _operator(bundle, "induce"))
    sys.stdout.write(serialize_algebra_bundle(AlgebraBundle(star, bundle.operator, None)))
    return EXIT_PASS


def _cmd_induce_rep(args) -> int:
    bundle = _load_bundle(args.bundle)
    n_op = _operator(bundle, "induce")
    star_rep = induced_representation(bundle.resolve_representation(), bundle.algebra, n_op)
    report = {
        "command": "induce-rep",
        "left": to_json(star_rep.left),
        "right": to_json(star_rep.right),
        "operator": to_json(star_rep.module_operator),
    }
    return _finish(report, True)


def _cmd_cohomology(args) -> int:
    bundle = _load_bundle(args.bundle)
    rep = bundle.resolve_representation()
    if args.complex != "la":
        _operator(bundle, f"complex {args.complex!r}")
    report = cohomology_dims(
        args.complex,
        bundle.algebra,
        rep,
        bundle.operator,
        max_degree=args.max_degree,
        variant=args.phi,
    )
    degrees = [
        {
            "degree": e.degree,
            "C": e.dim_c,
            "Z": e.dim_z,
            "B": e.dim_b,
            "H": e.dim_h,
            "junction_ok": (e.degree == 0) or report.junctions[e.degree - 1],
        }
        for e in report.degrees
    ]
    doc = {
        "command": "cohomology",
        "complex": report.kind,
        "phi_variant": report.variant,
        "degrees": degrees,
        "junctions": list(report.junctions),
        "degree0_caveat": report.degree0_caveat,
    }
    if report.failures:
        doc["counterexample"] = [
            {
                "degree": f.degree,
                "row": f.row,
                "col": f.col,
                "value": format_rational(f.value),
            }
            for f in report.failures
        ]
    return _finish(doc, all(report.junctions))


_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _cmd_search(args) -> int:
    bundle = _load_bundle(args.bundle)
    m = _RANGE_RE.match(args.range)
    if not m:
        raise BundleError(f"bad --range {args.range!r}; expected 'lo..hi'")
    try:
        lo, hi = int(m.group(1)), int(m.group(2))
    except ValueError as exc:  # an end past the interpreter's int-digit limit
        raise BundleError(f"bad --range: {exc}") from None
    kind = _kind_from_args(args)
    found = search_operators_grid(bundle.algebra, kind, lo, hi, args.den)
    report = {
        "command": "search",
        "kind": kind.describe(),
        "range": [lo, hi],
        "denominator": args.den,
        "count": len(found),
        "operators": to_json(found),
    }
    return _finish(report, True)


def _cmd_selfcheck(args) -> int:
    bundle = _load_bundle(args.bundle)
    n_op = _operator(bundle, "selfcheck")
    rep = bundle.resolve_representation()

    def diag_entries(corrected: bool) -> list:
        out = []
        for e in chain_map_diagnostic(
            bundle.algebra, n_op, rep, max_degree=args.max_degree, variant=args.phi, corrected=corrected
        ):
            item = {"degree": e.degree, "commutes": e.commutes}
            if not e.commutes:
                item["counterexample"] = {
                    "basis_input": {
                        "tuple": list(e.witness_input[0]),
                        "coordinate": e.witness_input[1],
                    },
                    "residual": {
                        ",".join(map(str, t)): to_json(v)
                        for t, v in sorted(e.residual.values.items())
                    },
                }
            out.append(item)
        return out

    plain_diag = diag_entries(False)
    corr_diag = diag_entries(True)
    junctions = _junctions("nla", bundle.algebra, rep, n_op, args.max_degree, args.phi)
    ok = all(item["commutes"] for item in corr_diag) and all(junctions)
    report = {
        "command": "selfcheck",
        "phi_variant": args.phi,
        "chain_map": plain_diag,
        "chain_map_combined": corr_diag,
        "junctions": list(junctions),
        "degree0_caveat": True,  # as in every nla `CohomologyReport`
    }
    return _finish(report, ok)


def _deformation_args(args):
    """The bundle, its operator and the deformation that a deform action
    reads, which must start at the bundle's (mu, N)."""
    bundle = _load_bundle(args.bundle)
    n_op = _operator(bundle, "deform")
    d = parse_deformation(_read(args.deformation), bundle.algebra.dim)
    _check_base(bundle.algebra, n_op, d)
    return bundle, n_op, d


def _cmd_deform_check(args) -> int:
    bundle, n_op, d = _deformation_args(args)
    rep = residual_report(bundle.algebra, n_op, d)
    report = {"command": "deform-check", "order": d.order}
    if not rep.passes:
        report["counterexample"] = {
            "first_failing_order": rep.first_failing_order,
            "leibniz_residual": to_json(rep.leibniz_residual),
            "nijenhuis_residual": to_json(rep.nijenhuis_residual),
        }
    return _finish(report, rep.passes)


def _cmd_deform_twist(args) -> int:
    bundle, _, d = _deformation_args(args)
    iso = parse_isomorphism(_read(args.iso), bundle.algebra.dim)
    sys.stdout.write(serialize_deformation(twist_by_isomorphism(d, iso)))
    return EXIT_PASS


def _cmd_deform_cocycle(args) -> int:
    """Is the infinitesimal a degree-2 cocycle of the combined complex?"""
    bundle, n_op, d = _deformation_args(args)
    rep = bundle.resolve_representation()
    member = cocycle_membership("nla", bundle.algebra, rep, n_op, infinitesimal(d), variant=args.phi)
    report = {
        "command": "deform-cocycle",
        "phi_variant": args.phi,
        "is_cocycle": member.is_cocycle,
        "is_coboundary": member.is_coboundary,
    }
    if not member.is_cocycle:
        report["counterexample"] = {"mu1": to_json(d.mu_terms[1]), "n1": to_json(d.n_terms[1])}
    return _finish(report, member.is_cocycle)


def _extension_args(args):
    """The bundle and the extension file that an extend action reads."""
    bundle = _load_bundle(args.bundle)
    return bundle, parse_extension(_read(args.extension), bundle.algebra.dim)


def _build_from_files(bundle: AlgebraBundle, ext_file: ExtensionFile):
    n_op = _operator(bundle, "extend")
    rep = bundle.resolve_representation()
    if rep.module_dim != ext_file.fiber_dim:
        raise BundleError("representation module dimension != fiber_dim")
    rep = rep.with_module_operator(ext_file.fiber_operator)
    return build_extension(bundle.algebra, n_op, rep, ext_file.pair)


def _cmd_extend_build(args) -> int:
    ext = _build_from_files(*_extension_args(args))
    report = {"command": "extend-build", "total_dimension": ext.total.dim}
    if not ext.ok:
        report["counterexample"] = [_certificate_json(c) for c in ext.certificates]
    return _finish(report, ext.ok)


def _cmd_extend_extract(args) -> int:
    pair = section_to_cocycle(_build_from_files(*_extension_args(args)))
    report = {
        "command": "extend-extract",
        "psi": to_json(pair.psi.as_tensor()),
        "chi": to_json(pair.chi.as_matrix()),
    }
    return _finish(report, True)


def _cmd_extend_compare(args) -> int:
    bundle, ext_file = _extension_args(args)
    other_file = parse_extension(_read(args.other), bundle.algebra.dim)
    corner = parse_corner(_read(args.corner), (ext_file.fiber_dim, bundle.algebra.dim))
    ext_a = _build_from_files(bundle, ext_file)
    ext_b = _build_from_files(bundle, other_file)
    result = transport_cocycle_via_isomorphism(ext_a, ext_b, corner)
    report = {"command": "extend-compare", "equal": result.matches}
    if not result.matches:
        report["counterexample"] = {
            "psi": to_json(result.residual.upper.as_tensor()),
            "chi": to_json(result.residual.lower.as_matrix()),
        }
    return _finish(report, result.matches)


# The command line: (handler, operands, options) for each verb and each action
# of a verb with actions.  An option maps to (metavar, read, default); `read` is
# int, str or the tuple of its choices, None for a flag.  A metavar of None shows
# the choices, and the default ... marks an option that must be given.
_KIND_OPTIONS = {
    "--kind": ("KIND", OPERATOR_KINDS, "nijenhuis"),
    "--weight": ("W", str, None),
    # None when not given, so that a convention passed to another kind is an error
    "--convention": (None, WEIGHT_CONVENTIONS, None),
}
_PHI = {"--phi": (None, PHI_VARIANTS, "full")}
_MAX_DEGREE = {"--max-degree": ("N", int, 2)}
_VERBS = {
    "verify": (_cmd_verify, ("bundle",), {**_KIND_OPTIONS, "--no-verify": (None, None, False)}),
    "induce": {
        "bracket": (_cmd_induce_bracket, ("bundle",), {}),
        "rep": (_cmd_induce_rep, ("bundle",), {}),
    },
    "cohomology": (_cmd_cohomology, ("bundle",), {"--complex": (None, COMPLEX_KINDS, "la"), **_MAX_DEGREE, **_PHI}),
    "search": (_cmd_search, ("bundle",), {"--range": ("LO..HI", str, ...), "--den": ("D", int, 1), **_KIND_OPTIONS}),
    "selfcheck": (_cmd_selfcheck, ("bundle",), {**_PHI, **_MAX_DEGREE}),
    "deform": {
        "check": (_cmd_deform_check, ("bundle", "deformation"), {}),
        "twist": (_cmd_deform_twist, ("bundle", "deformation"), {"--iso": ("ISOMORPHISM", str, ...)}),
        "cocycle": (_cmd_deform_cocycle, ("bundle", "deformation"), _PHI),
    },
    "extend": {
        "build": (_cmd_extend_build, ("bundle", "extension"), {}),
        "extract": (_cmd_extend_extract, ("bundle", "extension"), {}),
        "compare": (_cmd_extend_compare, ("bundle", "extension", "other"), {"--corner": ("CORNER", str, ...)}),
    },
}
_HELP = ("-h", "--help")
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative number: an operand or a value


def _usage(prog: str, entry) -> list[str]:
    """One usage line per action under `entry`, as the README lists them."""
    if isinstance(entry, dict):
        return [line for name, sub in entry.items() for line in _usage(f"{prog} {name}", sub)]
    words = [prog, *map(str.upper, entry[1])]
    for option, (metavar, read, default) in entry[2].items():
        word = f"{option} {metavar or '|'.join(read)}" if read else option
        words.append(word if default is ... else f"[{word}]")
    return [" ".join(words)]


def _option(prog: str, token: str, names) -> tuple | None:
    """The option of `names` that `token` gives, exactly or as a unique prefix, and
    its `=value` or None; ("", None) for an unknown option, None for an operand."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if name in names:
        return name, value if eq else None
    if token[1] == "-":
        found = [(n, value if eq else None) for n in names if n.startswith(name)]
    else:  # a short option runs into its value
        found = [(token[:2], token[2:])] if token[:2] in names else []
    if len(found) > 1:
        raise BundleError(f"{prog}: ambiguous option: {token} could match {', '.join(n for n, _ in found)}")
    if found:
        return found[0]
    return None if _NUMBER.match(token) or " " in token else ("", None)


def _parse(verbs: dict, argv) -> tuple:
    """The handler of the action that `argv` names, and its operands and options
    as attributes, read left to right as argparse read them.  An option's value
    is the next token unless that looks like an option; an exact --range or
    --weight takes it whatever it is.  Unknown or missing words fail at the end."""
    tokens = []
    for token in argv:
        if tokens and tokens[-1] in ("--range", "--weight"):
            tokens[-1] += f"={token}"
        else:
            tokens.append(token)
    prog, entry, names, values = "nijleib", verbs, _HELP, {}
    extras, given, after, dashed, i = [], [], 0, False, 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token == "--" and not dashed and not isinstance(entry, dict):
            dashed = True
            continue
        hit = None if dashed or token == "--" else _option(prog, token, names)
        if hit is None:  # an operand, or the name of a verb or action
            after += 1
            if not isinstance(entry, dict):
                given.append(token)
            elif token in entry:
                prog, entry = f"{prog} {token}", entry[token]
                if not isinstance(entry, dict):
                    names, values = (*_HELP, *entry[2]), {o: spec[2] for o, spec in entry[2].items()}
            else:
                raise BundleError(f"{prog}: invalid choice: {token!r} (choose from {', '.join(map(repr, entry))})")
            continue
        (name, value), after = hit, 0
        if not name:
            extras.append(token)
            continue
        read = None if name in _HELP else entry[2][name][1]
        if read is None:
            if value is not None:
                raise BundleError(f"{prog}: argument {name}: ignored explicit argument {value!r}")
            if name in _HELP:
                sys.stderr.write("usage: " + "\n       ".join(_usage(prog, entry)) + "\n")
                raise BundleError(f"{prog}: usage printed, no report")
            value = True
        elif value is None:
            if i == len(tokens) or tokens[i] == "--" or _option(prog, tokens[i], names) is not None:
                raise BundleError(f"{prog}: argument {name}: expected one argument")
            value, i = tokens[i], i + 1
        if read is int:
            try:
                value = int(value)
            except ValueError:
                raise BundleError(f"{prog}: argument {name}: invalid int value: {value!r}") from None
        elif read not in (None, str) and value not in read:
            choices = ", ".join(map(repr, read))
            raise BundleError(f"{prog}: argument {name}: invalid choice: {value!r} (choose from {choices})")
        values[name] = value
    if isinstance(entry, dict):
        raise BundleError(f"{prog}: expected one of {', '.join(map(repr, entry))}")
    handler, operands, _ = entry
    missing = [*operands[len(given):], *(o for o, v in values.items() if v is ...)]
    if missing:
        raise BundleError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    extras += given[len(operands):] + ["--"] * (dashed and not after)
    if extras:
        raise BundleError(f"nijleib: unrecognized arguments: {' '.join(extras)}")
    options = {o[2:].replace("-", "_"): v for o, v in values.items()}
    return handler, SimpleNamespace(**dict(zip(operands, given)), **options)


def build_parser():
    """The parser of every verb: a command line to its action's handler and arguments."""
    return functools.partial(_parse, _VERBS)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        handler, args = build_parser()(argv)
        return handler(args)
    except (NijleibError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
