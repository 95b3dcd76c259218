"""Record the outputs that ``run.py`` checks each call against.

    python3 perfbench/make_references.py --seeds 0-31

For every workload and seed this runs the workload's CLI call once and
stores the sha256 of ``raw.csv`` (sweeps) or the selected row indices
and weights (select) in ``perfbench/references.json``, keeping entries
it does not regenerate.  Record references only from a commit whose
outputs are known good: they pin the program's results, not its speed.
"""

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench import environment  # noqa: E402  (no numpy at import)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 0,3,5-7")
    args = parser.parse_args(argv)

    environment.pin_blas_threads(environment.nproc())
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from gmcoreset import cli
    from perfbench.run import REFERENCES, RUNS_DIR
    from perfbench.workloads import WORKLOADS

    with open(REFERENCES) as fh:
        table = json.load(fh)
    status = 0
    for name, workload in WORKLOADS.items():
        for seed in parse_seeds(args.seeds):
            workdir = os.path.join(RUNS_DIR, "references", f"{name}-seed{seed}")
            os.makedirs(workdir, exist_ok=True)
            prepared = workload.prepare(seed, workdir)
            outdir = os.path.join(workdir, "out")
            os.makedirs(outdir, exist_ok=True)
            rc = cli.main(workload.argv(prepared, outdir))
            outcome = workload.check(prepared, outdir, rc, None)
            if outcome.ok:
                table["references"].setdefault(name, {})[str(seed)] = workload.reference_of(outdir)
                print(f"{name} seed {seed}: recorded", flush=True)
            else:
                status = 1
                print(f"{name} seed {seed}: not recorded: {outcome.message}", flush=True)
            shutil.rmtree(workdir, ignore_errors=True)
            with open(REFERENCES, "w") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
