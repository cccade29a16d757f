"""Command-line surface.

One verb per construction: verify, cohomology, search, selfcheck, and the
actions of induce (bracket, rep), deform (check, twist, cocycle) and extend
(build, extract, compare).  `build_parser` declares each verb or action with
its own operands, options and handler, so an operand or option that an
action does not declare is invalid input; `main` builds the parsers of the
verb it is given alone.  Reports are canonical JSON on
stdout (byte-identical for identical invocations); diagnostics go to stderr.
Exit codes: 0 = pass, 1 = a mathematical property fails (certificate
attached), 2 = invalid input or a resource guard.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

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


def _load_bundle(path: str, verify: bool = True) -> AlgebraBundle:
    return parse_algebra_bundle(Path(path).read_text(), verify=verify)


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
    d = parse_deformation(Path(args.deformation).read_text(), bundle.algebra.dim)
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
    iso = parse_isomorphism(Path(args.iso).read_text(), bundle.algebra.dim)
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
    return bundle, parse_extension(Path(args.extension).read_text(), bundle.algebra.dim)


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
    other_file = parse_extension(Path(args.other).read_text(), bundle.algebra.dim)
    corner = parse_corner(Path(args.corner).read_text(), (ext_file.fiber_dim, bundle.algebra.dim))
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


def _add_kind_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="nijenhuis", choices=OPERATOR_KINDS)
    p.add_argument("--weight", default=None, help="rational weight for weighted kinds")
    # None when not given, so that a convention passed to another kind is an error
    p.add_argument("--convention", default=None, choices=WEIGHT_CONVENTIONS)


def _add_action(actions, name: str, fn, help: str, *operands: str) -> argparse.ArgumentParser:
    """The parser of one action: its positional operands and its handler; the
    caller adds its options.  An option it does not declare exits 2."""
    p = actions.add_parser(name, help=help)
    for operand in operands:
        p.add_argument(operand)
    p.set_defaults(fn=fn)
    return p


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line like any other invalid input: one
    `error:` line and exit 2, instead of a usage block.  -h/--help writes the
    usage to stderr and then exits the same way, since it prints no report.
    Subparsers, and their own subparsers, inherit it."""

    def error(self, message):
        raise BundleError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        super().print_help(sys.stderr)

    def exit(self, status=0, message=None):  # reached only through -h/--help
        raise BundleError(f"{self.prog}: usage printed, no report")


def _add_verify(sub) -> None:
    p = _add_action(sub, "verify", _cmd_verify, "verify algebra/operator/representation identities", "bundle")
    _add_kind_options(p)
    p.add_argument("--no-verify", action="store_true", help="skip ingest verification")


def _add_induce(sub) -> None:
    induce = sub.add_parser("induce", help="induced star bracket or representation")
    actions = induce.add_subparsers(dest="action", required=True)
    _add_action(actions, "bracket", _cmd_induce_bracket, "the star bracket, as a bundle", "bundle")
    _add_action(actions, "rep", _cmd_induce_rep, "the induced representation", "bundle")


def _add_cohomology(sub) -> None:
    p = _add_action(sub, "cohomology", _cmd_cohomology, "cohomology dimensions of a complex", "bundle")
    p.add_argument("--complex", default="la", choices=COMPLEX_KINDS)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--phi", default="full", choices=PHI_VARIANTS)


def _add_search(sub) -> None:
    p = _add_action(sub, "search", _cmd_search, "exhaustive operator grid classification", "bundle")
    _add_kind_options(p)
    p.add_argument("--range", required=True, help="entry numerator range, e.g. -2..2")
    p.add_argument("--den", type=int, default=1)


def _add_selfcheck(sub) -> None:
    p = _add_action(sub, "selfcheck", _cmd_selfcheck, "chain-map and d*d junction diagnostics", "bundle")
    p.add_argument("--phi", default="full", choices=PHI_VARIANTS)
    p.add_argument("--max-degree", type=int, default=2)


def _add_deform(sub) -> None:
    deform = sub.add_parser("deform", help="truncated formal deformation checks")
    actions = deform.add_subparsers(dest="action", required=True)
    _add_action(actions, "check", _cmd_deform_check, "the deformation equations", "bundle", "deformation")
    p = _add_action(actions, "twist", _cmd_deform_twist, "the deformation twisted by a formal isomorphism",
                    "bundle", "deformation")
    p.add_argument("--iso", required=True, help="JSON file with the formal isomorphism")
    p = _add_action(actions, "cocycle", _cmd_deform_cocycle, "is the infinitesimal a cocycle",
                    "bundle", "deformation")
    p.add_argument("--phi", default="full", choices=PHI_VARIANTS)


def _add_extend(sub) -> None:
    extend = sub.add_parser("extend", help="abelian extension build/extract/compare")
    actions = extend.add_subparsers(dest="action", required=True)
    _add_action(actions, "build", _cmd_extend_build, "build and check the extension", "bundle", "extension")
    _add_action(actions, "extract", _cmd_extend_extract, "the cocycle pair of a section", "bundle", "extension")
    p = _add_action(actions, "compare", _cmd_extend_compare, "are two extensions related by a corner",
                    "bundle", "extension", "other")
    p.add_argument("--corner", required=True, help="JSON file with the corner block")


# Each verb's parser, in the order the root parser lists them.
_VERBS = {
    "verify": _add_verify,
    "induce": _add_induce,
    "cohomology": _add_cohomology,
    "search": _add_search,
    "selfcheck": _add_selfcheck,
    "deform": _add_deform,
    "extend": _add_extend,
}


def _root_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """A root parser with no verb yet, and the action its verbs are added to."""
    parser = _Parser(
        prog="nijleib",
        description="Exact verification engine for Nijenhuis operators on Leibniz algebras",
    )
    return parser, parser.add_subparsers(dest="command", required=True)


# The root parser that single verbs are added to as they are first named.
_shared_root = functools.cache(_root_parser)


@functools.cache
def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The root parser with the parsers of every verb, or one that holds the
    parsers of `verb` and of the verbs named before it in this process.  A
    command line whose first word is a verb parses the same way on either:
    every token after the verb goes to that verb's parser."""
    if verb is not None:
        parser, sub = _shared_root()
        if verb not in sub.choices:
            _VERBS[verb](sub)
        return parser
    parser, sub = _root_parser()
    for add in _VERBS.values():
        add(sub)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the named verb's parsers are built.  No verb, an unknown one or a
    # help request gets the full parser, whose error and help lines name
    # every verb.
    verb = argv[0] if argv and argv[0] in _VERBS and not {"-h", "--help"} & set(argv) else None
    parser = build_parser(verb)
    # glue values onto options whose arguments may start with a minus sign
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--range", "--weight") and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    try:
        args = parser.parse_args(merged)
        return args.fn(args)
    except (NijleibError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
