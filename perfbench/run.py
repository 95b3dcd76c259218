"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload stream-gdumb --seed 0 --seconds 35 --trace 0

Run from the repository root; the program is imported from ``src/``.
The run lasts at most ``--seconds``.  It alternates set-up, which starts
a fresh interpreter that imports the program and builds the inputs from
the seed, with timed ``gmcoreset.cli.main`` calls.  A call starts only
when a call of mean length would still end in time, and there is always
at least one.  Set-up is repeated after the last call until there are
SETUP_SAMPLES of them; its median is reported.  Every call's output is
checked.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` one more call runs with spans
recorded around every public function of the package, and the line
carries the per-layer metrics instead.  Exit code 0 on a completed
run (check failures are reported in the line), 2 when the program's
sources are missing.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
REFERENCES = os.path.join(ROOT, "perfbench", "references.json")
SETUP_SAMPLES = 8

END_TO_END_UNITS = {
    "run_s": "s",
    "examples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "acc_final_mean": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_references(workload: str, seed: int):
    """The recorded output for (workload, seed), or None when none was recorded."""
    with open(REFERENCES) as fh:
        table = json.load(fh)["references"]
    return table.get(workload, {}).get(str(seed))


def set_up(workload, seed: int, workdir: str):
    """One set-up; returns the inputs and its wall time.

    A set-up is a fresh interpreter's start and program import, timed in
    a child because a process pays it once, plus the workload's input
    generation.
    """
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gmcoreset.cli"], cwd=ROOT, check=True,
                   env={**os.environ, "PYTHONPATH": SRC})
    prepared = workload.prepare(seed, workdir)
    return prepared, time.perf_counter() - started


def timed_call(cli, argv):
    """Exit code, wall time, and whether the call started a child process."""
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a crash is a failed call, reported like any other
        traceback.print_exc()
        rc = 1
    seconds = time.perf_counter() - started
    return rc, seconds, resource.getrusage(resource.RUSAGE_CHILDREN) != children_before


def check_calls(workload, prepared, calls, reference):
    """One Outcome per call; without a reference, all calls must also agree."""
    from perfbench.workloads import Outcome

    outcomes = [workload.check(prepared, outdir, rc, reference) for rc, _, outdir in calls]
    if reference is None and all(o.ok for o in outcomes):
        outputs = {json.dumps(workload.reference_of(outdir)) for _, _, outdir in calls}
        if len(outputs) > 1:
            outcomes = [
                Outcome(False, prepared.planned_tasks, "calls of one run produced different outputs")
                for _ in calls
            ]
    for (_, _, outdir), outcome in zip(calls, outcomes):
        if not outcome.ok:
            print(f"check failed: {outdir}: {outcome.message}", file=sys.stderr)
    return outcomes


def call(cli, workload, prepared, outdir: str):
    os.makedirs(outdir)
    rc, seconds, forked = timed_call(cli, workload.argv(prepared, outdir))
    if forked:
        print(f"error: {outdir}: the call started a child process; it must stay single-process",
              file=sys.stderr)
        rc = 1
    return rc, seconds, outdir


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    from perfbench import environment

    environment.pin_blas_threads(environment.nproc())
    if not os.path.isfile(os.path.join(SRC, "gmcoreset", "cli.py")):
        print(f"error: the gmcoreset sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from gmcoreset import cli
    from perfbench import layers, tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    reference = load_references(workload.name, args.seed)
    if reference is None:
        print(f"note: no recorded output for seed {args.seed}; structural checks only",
              file=sys.stderr)

    workdir = os.path.join(RUNS_DIR, f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    calls, setup_times = [], []  # (rc, seconds, outdir); seconds
    deadline = time.perf_counter() + args.seconds
    # Set-up samples are spread over the window, so that on a shared host
    # whose speed switches between modes they see the modes the calls see.
    # run_s is the mean, not the median: the mean weighs each mode by its
    # share of the window, where the median jumps to whichever mode holds
    # most of the calls.
    run_s = 0.0
    while True:
        prepared, seconds = set_up(workload, args.seed, workdir)
        setup_times.append(seconds)
        if calls and time.perf_counter() + run_s > deadline:  # stop before overrunning
            break
        calls.append(call(cli, workload, prepared, os.path.join(workdir, f"call{len(calls)}")))
        run_s = statistics.fmean(seconds for _, seconds, _ in calls)
    while len(setup_times) < SETUP_SAMPLES:
        prepared, seconds = set_up(workload, args.seed, workdir)
        setup_times.append(seconds)
    setup_s = statistics.median(setup_times)
    if args.trace:
        with tracer.Tracer(layers.tracer_modules(), layers.PROBES, layers.UNTRACED) as tr:
            traced = workload.prepare(args.seed, workdir)
            calls.append(call(cli, workload, traced, os.path.join(workdir, "traced")))

    outcomes = check_calls(workload, prepared, calls, reference)
    attempted = prepared.planned_tasks * len(calls)
    failed = sum(o.failed_tasks for o in outcomes)
    correct = failed == 0
    if args.trace:
        counts = layers.span_counts(tr.spans)
        for name, want in prepared.expected_counts.items():
            if counts[name] != want:
                correct = False
                print(f"trace incomplete: {counts[name]} {name} spans, expected {want}",
                      file=sys.stderr)
        tracer.write_spans(tr.spans, os.path.join(workdir, "spans.jsonl"))
        values = layers.per_layer_metrics(tr.spans, (calls[-1][1] - run_s) / run_s)
        units = layers.PER_LAYER_UNITS
    else:
        values = {
            "run_s": run_s,
            "examples_per_s": prepared.examples / run_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "acc_final_mean": workload.quality(prepared, calls[0][2]) if outcomes[0].ok else 0.0,
        }
        units = END_TO_END_UNITS
    for _, _, outdir in calls:
        shutil.rmtree(outdir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({**result, "call_s": [seconds for _, seconds, _ in calls],
                   "setup_sample_s": setup_times}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
