"""Command-line surface.

One verb per construction: verify, induce, cohomology, deform, extend,
search, selfcheck.  Reports are canonical JSON on stdout (byte-identical for
identical invocations); diagnostics go to stderr.  Exit codes: 0 = pass,
1 = a mathematical property fails (certificate attached), 2 = invalid input
or a resource guard.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
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
    matrix_to_json,
    parse_algebra_bundle,
    parse_corner,
    parse_deformation,
    parse_extension,
    parse_isomorphism,
    serialize_algebra_bundle,
    serialize_deformation,
    tensor_to_json,
    vector_to_json,
)
from .cochain import (
    chain_map_diagnostic,
    cohomology_dims,
    cocycle_membership,
)
from .deformation import (
    infinitesimal,
    residual_report,
    twist_by_isomorphism,
)
from .errors import BundleError, NijleibError
from .extensions import build_extension, section_to_cocycle, transport_cocycle_via_isomorphism
from .linalg import Matrix, format_rational
from .operators import (
    OperatorKind,
    check_operator,
    induced_bracket,
    induced_representation,
    modified_rota_baxter,
    nijenhuis,
    rota_baxter,
    rota_baxter_weighted,
    search_operators_grid,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


def _residual_json(residual):
    if isinstance(residual, Matrix):
        return matrix_to_json(residual)
    if isinstance(residual, tuple):
        if residual and isinstance(residual[0], Fraction):
            return vector_to_json(residual)
        return [_residual_json(r) for r in residual]
    if isinstance(residual, Fraction):
        return format_rational(residual)
    return residual


def _certificate_json(c: Counterexample) -> dict:
    return {
        "identity": c.identity,
        "indices": list(c.indices),
        "residual": _residual_json(c.residual),
    }


def _finish(report: dict, ok: bool) -> int:
    """Set the verdict, write the report and return the matching exit code."""
    report["verdict"] = "pass" if ok else "fail"
    report.setdefault("tool_version", TOOL_VERSION)
    sys.stdout.write(emit_json(report))
    return EXIT_PASS if ok else EXIT_FAIL


def _weight(args) -> Fraction:
    if args.weight is None:
        raise BundleError("--weight is required for weighted kinds")
    try:
        return Fraction(args.weight)
    except (ValueError, ZeroDivisionError):
        raise BundleError(f"bad --weight {args.weight!r}; expected a rational") from None


def _kind_from_args(args) -> OperatorKind:
    kind = args.kind
    if args.convention is not None and kind != "rota_baxter_weighted":
        raise BundleError(f"--convention applies only to rota_baxter_weighted, not {kind}")
    if args.weight is not None and kind in ("nijenhuis", "rota_baxter"):
        raise BundleError(f"--weight applies only to weighted kinds, not {kind}")
    if kind == "nijenhuis":
        return nijenhuis()
    if kind == "rota_baxter":
        return rota_baxter()
    if kind == "rota_baxter_weighted":
        return rota_baxter_weighted(_weight(args), args.convention or "standard")
    if kind == "modified_rota_baxter":
        return modified_rota_baxter(_weight(args))
    raise BundleError(f"unknown operator kind {kind!r}")


def _load_bundle(path: str, verify: bool = True) -> AlgebraBundle:
    return parse_algebra_bundle(Path(path).read_text(), verify=verify)


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
        rep = bundle.resolve_representation()
        rep_bad = check_representation(alg, rep, bundle.operator)
        checks["representation"] = rep_bad is None
        if rep_bad is not None:
            certificates.append(_certificate_json(rep_bad))
    report = {"command": "verify", "checks": checks}
    if certificates:
        report["counterexample"] = certificates[0]
        report["certificates"] = certificates
    return _finish(report, not certificates)


def _cmd_induce(args) -> int:
    bundle = _load_bundle(args.bundle)
    if bundle.operator is None:
        raise BundleError("bundle has no operator to induce from")
    if args.what == "bracket":
        star = induced_bracket(bundle.algebra, bundle.operator)
        out = serialize_algebra_bundle(AlgebraBundle(star, bundle.operator, None))
        sys.stdout.write(out)
        return EXIT_PASS
    rep = bundle.resolve_representation()
    star_rep = induced_representation(rep, bundle.algebra, bundle.operator)
    report = {
        "command": "induce-rep",
        "left": [matrix_to_json(m) for m in star_rep.left],
        "right": [matrix_to_json(m) for m in star_rep.right],
        "operator": matrix_to_json(star_rep.module_operator),
    }
    return _finish(report, True)


def _cmd_cohomology(args) -> int:
    bundle = _load_bundle(args.bundle)
    rep = bundle.resolve_representation()
    if args.complex != "la" and bundle.operator is None:
        raise BundleError(f"complex {args.complex!r} needs an operator in the bundle")
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
    lo, hi = int(m.group(1)), int(m.group(2))
    kind = _kind_from_args(args)
    found = search_operators_grid(bundle.algebra, kind, lo, hi, args.den)
    report = {
        "command": "search",
        "kind": kind.describe(),
        "range": [lo, hi],
        "denominator": args.den,
        "count": len(found),
        "operators": [matrix_to_json(op) for op in found],
    }
    return _finish(report, True)


def _cmd_selfcheck(args) -> int:
    bundle = _load_bundle(args.bundle)
    if bundle.operator is None:
        raise BundleError("selfcheck needs an operator in the bundle")
    rep = bundle.resolve_representation()

    def diag_entries(corrected: bool) -> list:
        out = []
        for e in chain_map_diagnostic(
            bundle.algebra, bundle.operator, rep, max_degree=args.max_degree, variant=args.phi, corrected=corrected
        ):
            item = {"degree": e.degree, "commutes": e.commutes}
            if not e.commutes:
                item["counterexample"] = {
                    "basis_input": {
                        "tuple": list(e.witness_input[0]),
                        "coordinate": e.witness_input[1],
                    },
                    "residual": {
                        ",".join(map(str, t)): vector_to_json(v)
                        for t, v in sorted(e.residual.values.items())
                    },
                }
            out.append(item)
        return out

    plain_diag = diag_entries(False)
    corr_diag = diag_entries(True)
    coh = cohomology_dims(
        "nla",
        bundle.algebra,
        rep,
        bundle.operator,
        max_degree=args.max_degree,
        variant=args.phi,
    )
    ok = all(item["commutes"] for item in corr_diag) and all(coh.junctions)
    report = {
        "command": "selfcheck",
        "phi_variant": args.phi,
        "chain_map": plain_diag,
        "chain_map_combined": corr_diag,
        "junctions": list(coh.junctions),
        "degree0_caveat": coh.degree0_caveat,
    }
    return _finish(report, ok)


def _cmd_deform(args) -> int:
    bundle = _load_bundle(args.bundle)
    if bundle.operator is None:
        raise BundleError("deformation commands need an operator in the bundle")
    alg, n_op = bundle.algebra, bundle.operator
    d = parse_deformation(Path(args.deformation).read_text(), alg.dim)
    if args.what == "check":
        rep = residual_report(alg, n_op, d)
        report = {"command": "deform-check", "order": d.order}
        if not rep.passes:
            report["counterexample"] = {
                "first_failing_order": rep.first_failing_order,
                "leibniz_residual": _residual_json(rep.leibniz_residual),
                "nijenhuis_residual": _residual_json(rep.nijenhuis_residual),
            }
        return _finish(report, rep.passes)
    if args.what == "twist":
        if args.iso is None:
            raise BundleError("deform twist needs --iso")
        iso = parse_isomorphism(Path(args.iso).read_text(), alg.dim)
        twisted = twist_by_isomorphism(d, iso)
        sys.stdout.write(serialize_deformation(twisted))
        return EXIT_PASS
    # cocycle: is the infinitesimal a degree-2 cocycle of the combined complex
    rep = bundle.resolve_representation()
    pair = infinitesimal(d)
    member = cocycle_membership("nla", alg, rep, n_op, pair, variant=args.phi)
    report = {
        "command": "deform-cocycle",
        "phi_variant": args.phi,
        "is_cocycle": member.is_cocycle,
        "is_coboundary": member.is_coboundary,
    }
    if not member.is_cocycle:
        report["counterexample"] = {
            "mu1": tensor_to_json(d.mu_terms[1]),
            "n1": matrix_to_json(d.n_terms[1]),
        }
    return _finish(report, member.is_cocycle)


def _build_from_files(bundle: AlgebraBundle, ext_file: ExtensionFile):
    if bundle.operator is None:
        raise BundleError("extension commands need an operator in the bundle")
    rep = bundle.resolve_representation()
    if rep.module_dim != ext_file.fiber_dim:
        raise BundleError("representation module dimension != fiber_dim")
    rep = rep.with_module_operator(ext_file.fiber_operator)
    return build_extension(bundle.algebra, bundle.operator, rep, ext_file.pair)


def _cmd_extend(args) -> int:
    bundle = _load_bundle(args.bundle)
    ext_file = parse_extension(Path(args.extension).read_text(), bundle.algebra.dim)
    if args.what == "build":
        ext = _build_from_files(bundle, ext_file)
        report = {"command": "extend-build", "total_dimension": ext.total.dim}
        if not ext.ok:
            report["counterexample"] = [_certificate_json(c) for c in ext.certificates]
        return _finish(report, ext.ok)
    if args.what == "extract":
        ext = _build_from_files(bundle, ext_file)
        pair = section_to_cocycle(ext)
        report = {
            "command": "extend-extract",
            "psi": tensor_to_json(pair.psi.as_tensor()),
            "chi": matrix_to_json(pair.chi.as_matrix()),
        }
        return _finish(report, True)
    # compare
    if args.other is None or args.corner is None:
        raise BundleError("extend compare needs OTHER_EXTENSION and --corner")
    other_file = parse_extension(Path(args.other).read_text(), bundle.algebra.dim)
    corner = parse_corner(Path(args.corner).read_text(), (ext_file.fiber_dim, bundle.algebra.dim))
    ext_a = _build_from_files(bundle, ext_file)
    ext_b = _build_from_files(bundle, other_file)
    result = transport_cocycle_via_isomorphism(ext_a, ext_b, corner)
    report = {"command": "extend-compare", "equal": result.matches}
    if not result.matches:
        report["counterexample"] = {
            "psi": tensor_to_json(result.residual.upper.as_tensor()),
            "chi": matrix_to_json(result.residual.lower.as_matrix()),
        }
    return _finish(report, result.matches)


def _add_kind_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kind",
        default="nijenhuis",
        choices=["nijenhuis", "rota_baxter", "rota_baxter_weighted", "modified_rota_baxter"],
    )
    p.add_argument("--weight", default=None, help="rational weight for weighted kinds")
    # None when not given, so that a convention passed to another kind is an error
    p.add_argument("--convention", default=None, choices=["standard", "as_printed"])


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line like any other invalid input: one
    `error:` line and exit 2, instead of a usage block.  Subparsers inherit it."""

    def error(self, message):
        raise BundleError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nijleib",
        description="Exact verification engine for Nijenhuis operators on Leibniz algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify algebra/operator/representation identities")
    p.add_argument("bundle")
    _add_kind_options(p)
    p.add_argument("--no-verify", action="store_true", help="skip ingest verification")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("induce", help="induced star bracket or representation")
    p.add_argument("what", choices=["bracket", "rep"])
    p.add_argument("bundle")
    p.set_defaults(fn=_cmd_induce)

    p = sub.add_parser("cohomology", help="cohomology dimensions of a complex")
    p.add_argument("bundle")
    p.add_argument("--complex", default="la", choices=["la", "no", "nla"])
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--phi", default="full", choices=["full", "printed"])
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("search", help="exhaustive operator grid classification")
    p.add_argument("bundle")
    _add_kind_options(p)
    p.add_argument("--range", required=True, help="entry numerator range, e.g. -2..2")
    p.add_argument("--den", type=int, default=1)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("selfcheck", help="chain-map and d*d junction diagnostics")
    p.add_argument("bundle")
    p.add_argument("--phi", default="full", choices=["full", "printed"])
    p.add_argument("--max-degree", type=int, default=2)
    p.set_defaults(fn=_cmd_selfcheck)

    p = sub.add_parser("deform", help="truncated formal deformation checks")
    p.add_argument("what", choices=["check", "twist", "cocycle"])
    p.add_argument("bundle")
    p.add_argument("deformation")
    p.add_argument("--iso", default=None)
    p.add_argument("--phi", default="full", choices=["full", "printed"])
    p.set_defaults(fn=_cmd_deform)

    p = sub.add_parser("extend", help="abelian extension build/extract/compare")
    p.add_argument("what", choices=["build", "extract", "compare"])
    p.add_argument("bundle")
    p.add_argument("extension")
    p.add_argument("other", nargs="?", default=None)
    p.add_argument("--corner", default=None, help="JSON file with the corner block")
    p.set_defaults(fn=_cmd_extend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
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
