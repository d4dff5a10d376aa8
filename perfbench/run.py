"""tensordti benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark builds nothing and
runs ``tensordti`` from ``src/``. Workloads: train-paper, screen-library,
train-desk-dta (see workloads.py). With ``--trace 0`` the last line of
stdout is a JSON object holding every end-to-end metric; with ``--trace 1``
it holds every per-layer metric, from a traced pass plus an untraced one.
``--seed holdout`` selects the seed kept out of tuning, for gain claims.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# BLAS/OpenMP threads for this process and every stage. Results are
# byte-reproducible only at a fixed thread count; one thread is also the
# steadiest on a small shared machine and never exceeds nproc.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HOLDOUT_SEED = 1_000_003


def _seed(raw: str) -> int:
    return HOLDOUT_SEED if raw == "holdout" else int(raw)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_seed, required=True, help="integer, or 'holdout'")
    p.add_argument("--seconds", type=float, required=True, help="how long to measure passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fingerprint(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        "holdout_seed": seed == HOLDOUT_SEED,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tensordti" / "cli.py").is_file():
        print(f"error: no tensordti source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print("fingerprint " + json.dumps(fingerprint(args.seed), sort_keys=True))

    # a terminated run still kills and reaps its running stage and cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = ROOT / ".perfbench_runs"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
        tally = run.tally
        fail_frac = len(tally.failures) / max(1, tally.attempted)
        if args.trace:
            values, absent = layers.per_layer(run, fail_frac)
            defs = layers.per_layer_defs()
        else:
            values, absent = layers.end_to_end(run), []
            defs = layers.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    plain = sum(1 for p in run.passes if not p.traced)
    print(f"workload {args.workload}: {plain} untraced / {len(run.passes) - plain} traced passes, "
          f"{len(run.setup_s)} set-ups, {tally.attempted} stages and checks attempted, {len(tally.failures)} failed")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    if absent:
        print("absent: " + ", ".join(absent))
    if args.trace:
        print("baseline rows:")
        for row in layers.baseline_rows(values):
            print("  " + row)
    for name, unit, better in defs:
        print(f"  {name:<48} {values[name]:>14.6g} {unit:<8} {better} is better")
    if not args.trace:
        extras = layers.workload_extras(run, fail_frac)
        for name, unit, better in layers.E2E_EXTRA:
            print(f"  {name:<48} {extras[name]:>14.6g} {unit:<8} {better} is better (not bounded)")
    result = {
        "correct": not tally.failures,
        "attempted": max(1, tally.attempted),
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in defs},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
