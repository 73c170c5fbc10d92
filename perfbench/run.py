"""Run one vissm benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload train-vim --seed 1 --seconds 20 --trace 0

Run from the root of a vissm checkout: the library is imported from
``src/`` there, never from an installed copy. OpenBLAS, OpenMP and MKL are
pinned to one thread before numpy loads, so a run uses one core.

The last line of standard output is
``{"correct": .., "attempted": .., "failed": .., "metrics": {..}}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. End-to-end times are taken at the speed of a reference
kernel timed in the same run (units ``ref_ms`` and ``img/ref_s``, and
``setup_s``; see ``workloads``); the matching wall-clock milliseconds and
images per second are printed to standard error. The full report (and,
when traced, every span) is written to
``.perfbench/<workload>-seed<n>-trace<t>.json``. A failed correctness check
exits with 1; a run that cannot start exits with 2 and prints no result.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def import_library() -> None:
    src = ROOT / "src"
    if not (src / "vissm" / "__init__.py").is_file():
        print(f"perfbench: no vissm sources under {src}; run from a vissm checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read once, when numpy first loads below
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose one of {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    bench, outcome = workloads.run_workload(args.workload, args.seed, args.seconds,
                                            bool(args.trace), str(OUT_DIR))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    workloads.write_report(outcome, str(OUT_DIR / name))
    figures = {k: v for k, v in outcome.report["figures"].items() if k != "per_subset"}
    print(json.dumps({"environment": outcome.report["environment"], "figures": figures}),
          file=sys.stderr)
    for route in bench.missing:
        print(f"perfbench: not traced, the library has no {route}", file=sys.stderr)
    for failure in bench.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)

    units = workloads.UNITS
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
