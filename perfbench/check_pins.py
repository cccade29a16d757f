"""Check the cohomology dimensions pinned in workloads.py against the plain
Gaussian rank oracle.

    python3 perfbench/check_pins.py [SEED ...]

Run from the root of a source checkout.  For each seed (default 0 to 39),
every cohomology job of the generated inputs is recomputed in process with
`cochain.cohomology_dims(..., rank_fn=linalg.gauss_rank)` and compared with
the C, Z, B and H the job pins.  cohom-large is checked on the first seed
only: its operators are fixed, so its pins do not depend on the seed, and one
check takes about 15 s.  Exits 1 on a mismatch.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from nijleib.bundles import parse_algebra_bundle  # noqa: E402
from nijleib.cochain import cohomology_dims  # noqa: E402
from nijleib.linalg import gauss_rank  # noqa: E402
from worker import _opt  # noqa: E402
from workloads import generate  # noqa: E402


def mismatches(workload: str, seed: int):
    inputs = generate(workload, seed)
    for job in inputs.jobs:
        if (job.oracle or {}).get("type") != "cohomology":
            continue
        argv = job.argv
        bundle = parse_algebra_bundle(inputs.files[argv[1]])
        report = cohomology_dims(
            _opt(argv, "--complex", "la"), bundle.algebra, bundle.resolve_representation(),
            bundle.operator, int(_opt(argv, "--max-degree", "2")), _opt(argv, "--phi", "full"),
            rank_fn=gauss_rank,
        )
        got = [[e.dim_c, e.dim_z, e.dim_b, e.dim_h] for e in report.degrees]
        if got != job.oracle["dims"]:
            yield (f"{workload} seed {seed}: {' '.join(argv)}: gauss_rank gives {got}, "
                   f"pinned {job.oracle['dims']}")


def main(argv) -> int:
    seeds = [int(s) for s in argv] or list(range(40))
    bad = [m for s in seeds for m in mismatches("certify-small", s)]
    bad += list(mismatches("cohom-large", seeds[0]))
    for line in bad:
        print(line)
    print(f"{len(bad)} mismatches ({len(seeds)} certify-small seeds, 1 cohom-large seed)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
