"""olivenet benchmark: one workload per run, or all of them.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload loocv-train --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --record BENCH_1.json

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it give the environment, the sample count of
each metric and the names the metrics go by in the project's issues.
See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("loocv-train", "grade-one", "cli-pipeline")
#: BLAS runs one thread in this process and, through the inherited
#: environment, in every child, so that the two ``--jobs 2`` workers never
#: ask for more threads than there are cores.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="with --workload all: write every result to this JSON file")
    return p.parse_args(argv)


def run_one(args) -> dict:
    """Run one workload in this process; print its metrics; return its record."""
    import workloads

    traced = bool(args.trace)
    key = f"{args.workload}{'/trace' if traced else ''}"
    res = workloads.WORKLOADS[args.workload][traced](
        workloads.Context(ROOT, args.seed, args.seconds))
    print(f"# {key}: attempted {res.attempted}, failed {res.failed}")
    for metric, m in res.metrics.items():
        n = res.samples.get(metric)
        print(f"#   {metric} = {m['value']:.6g} {m['unit']}" + (f" (n={n})" if n is not None else ""))
    for k, v in res.details.items():
        print(f"#   {k}: {json.dumps(v)}")
    return {key: {"attempted": res.attempted, "failed": res.failed, "metrics": res.metrics,
                  "samples": res.samples, "details": res.details}}


def run_all(args) -> dict:
    """Every workload, timed then traced, each in its own process.

    Separate processes keep ``peak_rss_mb`` and warm caches from leaking
    from one workload into the next.
    """
    results = {}
    scratch = ROOT / ".bench_work" / "all"
    scratch.mkdir(parents=True, exist_ok=True)
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            record = scratch / f"{name}-{trace}.json"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--record", str(record)],
                stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(l for l in lines[:-1] if not l.startswith("# environment")))
            if proc.returncode != 0:
                raise RuntimeError(f"{name} --trace {trace} exited {proc.returncode}")
            results.update(json.loads(record.read_text(encoding="utf-8"))["results"])
    shutil.rmtree(scratch, ignore_errors=True)
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "olivenet" / "__init__.py").is_file():
        print(f"error: no olivenet sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The thread pin must be in place before numpy loads BLAS.
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    from environment import environment

    results = run_all(args) if args.workload == "all" else run_one(args)
    env = environment(ROOT)
    print("# environment: " + json.dumps(env, sort_keys=True))
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "environment": env,
             "results": results}, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{k}/{m}": v for k, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
