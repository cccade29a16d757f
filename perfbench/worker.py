"""One pass over a workload's job list, in a fresh interpreter.

    python3 worker.py ROOT MANIFEST RESULT MODE

MODE is `probe` (set up and exit), `pass` (run every job), `ref` (run every
job, then check the outputs against the oracles) or `trace` (run every job
with the per-layer tracer installed).  The worker prints `ready` on stdout
once `nijleib` is imported and the inputs are loaded; the parent times set-up
up to that line.  Each job is one `nijleib.cli.main(argv)` call with stdout
and stderr captured.  Results go to the RESULT file as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def main() -> int:
    root, manifest_path, result_path, mode = sys.argv[1:5]
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import nijleib
    from nijleib import cli

    if not Path(nijleib.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported nijleib from {nijleib.__file__}, not from {src}", file=sys.stderr)
        return 2
    manifest = json.loads(Path(manifest_path).read_text())
    for name in manifest["files"]:  # jobs read them again, as the CLI does
        Path(name).read_bytes()
    print("ready", flush=True)
    if mode == "probe":
        return 0

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.install()
    jobs = []
    for index, job in enumerate(manifest["jobs"]):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(job["argv"]))
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed job, not a failed pass
            code, error = None, traceback.format_exc()
        wall = perf_counter() - start
        jobs.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                     "error": error, "wall_s": wall})
    result = {
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if mode == "ref":
        result["oracle"] = [check_job(job, res) for job, res in zip(manifest["jobs"], jobs)]
    if tracer is not None:
        result["trace"] = tracer.stats
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))
    return 0


def check_job(job: dict, res: dict):
    """Problems found by the oracle for one job's output, or None."""
    problems = []
    expect = job["expect_exit"]
    if res["error"] is not None:
        return ["raised:\n" + res["error"]]
    if expect is not None and res["exit"] != expect:
        problems.append(f"exit {res['exit']}, expected {expect}")
    if res["exit"] == 2:
        if res["stdout"] or not res["stderr"].startswith("error:"):
            problems.append("exit 2 must print only an error: line on stderr")
        return problems or None
    try:
        doc = json.loads(res["stdout"])
    except json.JSONDecodeError:
        return problems + ["stdout is not one JSON document"]
    if res["stderr"]:
        problems.append("unexpected stderr: " + res["stderr"][:200])
    if "verdict" in doc and doc["verdict"] != ("pass" if res["exit"] == 0 else "fail"):
        problems.append(f"verdict {doc['verdict']!r} disagrees with exit {res['exit']}")
    oracle = job.get("oracle") or {}
    if oracle.get("type") == "cohomology":
        problems += check_cohomology(doc, oracle["dims"])
    elif oracle.get("type") == "search":
        problems += check_search(job["argv"], doc, oracle["all_accepted"])
    return problems or None


def _opt(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def check_cohomology(doc, pinned) -> list:
    """The reported dimensions are the ones the workload pins for its
    construction (checked against the gauss_rank oracle by check_pins.py)."""
    got = [[d["C"], d["Z"], d["B"], d["H"]] for d in doc["degrees"]]
    if got != pinned:
        return [f"dims {got} disagree with the dims {pinned} of the construction"]
    return []


def check_search(argv, doc, all_accepted: bool) -> list:
    """The reported operators are exactly the grid's accepted candidates.

    The accepted set is recomputed by brute force: every matrix of
    `iter_grid_matrices`, checked with `check_operator`.
    """
    from fractions import Fraction

    from nijleib import operators
    from nijleib.bundles import matrix_from_json, parse_algebra_bundle

    tag = _opt(argv, "--kind", "nijenhuis")
    if tag in ("rota_baxter_weighted", "modified_rota_baxter"):
        weight = Fraction(_opt(argv, "--weight", None))
        kind = operators.OperatorKind(tag, weight, _opt(argv, "--convention", "standard")
                                      if tag == "rota_baxter_weighted" else "standard")
    else:
        kind = operators.OperatorKind(tag)
    alg = parse_algebra_bundle(Path(argv[1]).read_text()).algebra
    lo, hi = (int(x) for x in _opt(argv, "--range", None).split(".."))
    den = int(_opt(argv, "--den", "1"))
    problems = []
    ops = [matrix_from_json(m, "operator", (alg.dim, alg.dim)) for m in doc["operators"]]
    if doc["count"] != len(ops) or len(set(ops)) != len(ops):
        problems.append("count disagrees with the distinct operators listed")
    want = [m for m in operators.iter_grid_matrices(alg.dim, lo, hi, den)
            if operators.check_operator(alg, m, kind) is None]
    missing, extra = set(want) - set(ops), set(ops) - set(want)
    if missing or extra:
        problems.append(f"{len(missing)} accepted candidates missing and {len(extra)} operators "
                        f"listed that the brute-force search rejects or that are off the grid")
    if all_accepted and len(ops) != (hi - lo + 1) ** (alg.dim**2):
        problems.append(f"{len(ops)} accepted where every candidate should be")
    return problems


if __name__ == "__main__":
    sys.exit(main())
