"""Run every workload, each in a fresh process, and print every metric.

    python3 perfbench/run_all.py [--seed 0] [--trace]

Run from the repository root.  Runs every workload of BENCHMARK.json for
its ``run_seconds``.  Prints one line per metric (workload,
name, value, unit), with the per-layer metrics of a traced run when
``--trace`` is given, and writes the results with a description of the
machine to ``.perfbench_runs/summary-seed<N>.json``.  Exit code 1 when
any run fails its output check or its trace completeness check.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench import environment  # noqa: E402  (no numpy at import)

RUN = os.path.join(ROOT, "perfbench", "run.py")
RUN_TIMEOUT_S = 900


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="also run the traced pass")
    args = parser.parse_args(argv)

    environment.pin_blas_threads(environment.nproc())
    summary = {"environment": environment.describe(), "seed": args.seed,
               "seconds": spec["run_seconds"], "runs": {}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1) if args.trace else (0,):
            result = run_one(workload, args.seed, spec["run_seconds"], trace)
            summary["runs"][f"{workload}/trace{trace}"] = result
            ok = ok and result["correct"]
            print(f"{workload}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
            sys.stdout.flush()

    out = os.path.join(ROOT, ".perfbench_runs", f"summary-seed{args.seed}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"summary: {os.path.relpath(out, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
