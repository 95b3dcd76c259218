"""Command line: offline coreset selection, experiment sweeps, reports.

Subcommands::

    gmcoreset select DATA.csv -n SIZE --out coreset.csv   # weighted subset
    gmcoreset run --config exp.cfg --out results/         # full sweep
    gmcoreset report results/                              # summary tables

Configuration files are flat ``key = value`` lines with ``#`` comments
and comma-separated lists.  Precedence: command-line flags over file
values over defaults.  Exit codes: 0 success, 1 runtime failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager
from dataclasses import astuple, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import harness, nn, scenarios
from .grad_embed import EmbeddingConfig, embedding_peak_bytes


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in str(text).split(",") if part.strip())


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in str(text).split(",") if part.strip())


def _parse_opt_int(text: str):
    return None if str(text).strip().lower() in ("", "none") else int(text)


def _fmt(value) -> str:
    """A results-file field: a float by its repr, ``None`` empty, a sequence comma-joined."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ",".join(map(_fmt, value))
    return "" if value is None else str(value)


_DEFAULT = harness.ExperimentConfig()  # the one home of the sweep's defaults

# key -> (parser, default); the manifest writes every key back out, so a
# manifest is itself a runnable configuration.
CONFIG_SCHEMA = {
    "scenario": (str, "sorted"),
    "dataset": (str, "synthetic"),
    "label_column": (str, "-1"),
    "has_header": (_parse_bool, True),
    "standardize": (_parse_bool, True),
    "test_fraction": (float, 0.2),
    "data_seed": (int, 0),
    "num_batches": (int, 10),
    "classes_per_task": (int, 2),
    "sort_feature": (int, 0),
    "synth_classes": (int, 4),
    "synth_per_class": (int, 500),
    "synth_dims": (int, 8),
    "synth_drift": (float, 2.0),
    "methods": (_parse_str_list, _DEFAULT.methods),
    "paradigm": (str, _DEFAULT.paradigm),
    "memory_sizes": (_parse_int_list, ()),  # empty = defaults restricted to feasible sizes
    "seeds": (_parse_int_list, _DEFAULT.seeds),
    "step_size": (float, _DEFAULT.train.step_size),
    "batch_size": (int, _DEFAULT.train.batch_size),
    "epochs": (int, _DEFAULT.train.epochs),
    "replay_epochs": (_parse_opt_int, _DEFAULT.replay_epochs),
    "hidden": (_parse_int_list, _DEFAULT.hidden),
    "proj_dim": (int, _DEFAULT.embedding.proj_dim),
    "draws": (int, _DEFAULT.embedding.draws),
    "init_seed": (int, _DEFAULT.embedding.init_seed),
    "proj_seed": (int, _DEFAULT.embedding.projection_seed),
    "jobs": (int, 1),
    "out": (str, "results"),
}


class ConfigError(ValueError):
    """An up-front check's failure, for which ``main`` exits 2; only ``up_front`` makes one."""


@contextmanager
def up_front():
    """Re-raise a ``ValueError`` or ``OSError`` of a command's up-front checks as a
    ``ConfigError``, for which ``main`` exits 2."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigError(exc) from exc


# The gradients of a one-class softmax classifier vanish, so there is
# nothing to match and nothing to learn.
SINGLE_CLASS = "the dataset holds a single class, whose gradients all vanish; need >= 2 classes"


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and ``#`` comments ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def resolve_config(file_values: dict[str, str], overrides: dict[str, str]) -> dict:
    """Apply defaults, file values, then overrides; reject unknown keys, and values that
    would not read back from a ``key = value`` line: those holding ``#`` or a line break,
    or starting or ending with whitespace."""
    unknown = sorted(set(file_values) - set(CONFIG_SCHEMA))
    if unknown:
        raise ValueError("unknown configuration keys: " + ", ".join(unknown))
    resolved = {}
    for key, (parser, default) in CONFIG_SCHEMA.items():
        if key in overrides and overrides[key] is not None:
            raw = overrides[key]
        elif key in file_values:
            raw = file_values[key]
        else:
            resolved[key] = default
            continue
        raw = str(raw)
        if "#" in raw or len((raw + ".").splitlines()) > 1 or raw != raw.strip():
            raise ValueError(
                f"bad value for {key!r}: {raw!r} would not read back from the manifest "
                "(it holds '#' or a line break, or starts or ends with whitespace)"
            )
        try:
            resolved[key] = parser(raw)
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r}: {exc}")
    return resolved


def _read_csv(cfg: dict) -> scenarios.Dataset:
    """The CSV file at ``dataset``; ``label_column`` is a column index or name."""
    try:
        label = int(cfg["label_column"])
    except ValueError:
        label = cfg["label_column"]
    return scenarios.load_csv(cfg["dataset"], label, cfg["has_header"])


def build_scenario(cfg: dict) -> scenarios.ContinualScenario:
    if cfg["data_seed"] < 0:
        raise ValueError(f"data_seed must be >= 0, got {cfg['data_seed']}")
    if cfg["dataset"] == "synthetic":
        data = scenarios.synth_blobs(
            cfg["data_seed"], cfg["synth_per_class"], cfg["synth_classes"],
            cfg["synth_dims"], cfg["synth_drift"],
        )
    else:
        data = _read_csv(cfg)
    train, test = scenarios.train_test_split(data, cfg["test_fraction"], cfg["data_seed"])
    if cfg["standardize"]:
        train, test = scenarios.standardize_features(train, test)
    kind = cfg["scenario"]
    if kind == "sorted":
        return scenarios.make_sorted_scenario(train, test, cfg["sort_feature"], cfg["num_batches"])
    if kind == "class_incremental":
        return scenarios.make_class_incremental(train, test, cfg["classes_per_task"])
    if kind == "iid_incremental":
        return scenarios.make_iid_incremental(
            train, test, cfg["num_batches"], seed=cfg["data_seed"]
        )
    raise ValueError(f"unknown scenario kind {cfg['scenario']!r}")


def experiment_config(cfg: dict) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        methods=tuple(cfg["methods"]),
        paradigm=cfg["paradigm"],
        memory_sizes=tuple(cfg["memory_sizes"]) or harness.DEFAULT_MEMORY_SIZES,
        seeds=tuple(cfg["seeds"]),
        train=nn.TrainConfig(
            step_size=cfg["step_size"], batch_size=cfg["batch_size"], epochs=cfg["epochs"]
        ),
        embedding=EmbeddingConfig(
            draws=cfg["draws"], proj_dim=cfg["proj_dim"],
            projection_seed=cfg["proj_seed"], init_seed=cfg["init_seed"],
        ),
        hidden=tuple(cfg["hidden"]),
        replay_epochs=cfg["replay_epochs"],
    )


# --- output files -----------------------------------------------------------

RAW_HEADER = "scenario,paradigm,method,memory_size,seed,task_index,test_accuracy,wall_time_s"
AGG_HEADER = "scenario,paradigm,method,memory_size,mean_final_acc,std_final_acc,num_seeds"
PER_TASK_HEADER = "scenario,paradigm,method,memory_size,task_index,mean_acc,std_acc,num_seeds"


RUN_FILES = ("raw.csv", "timings.csv", "class_frequencies.csv", "scenario.txt", "manifest.txt")
REPORT_FILES = ("report_final_accuracy.csv", "report_per_task.csv")


def results_dir(out_dir: str, names) -> partial:
    """Make ``out_dir`` and return its path joiner, unless it is a directory the process
    cannot write into or a result file that ``names`` lists is there as anything but a
    writable regular file."""
    out = partial(os.path.join, out_dir)
    if os.path.isdir(out_dir) and not os.access(out_dir, os.W_OK | os.X_OK):
        raise ValueError(f"--out {out_dir}: the directory is not writable")
    for name in names:
        path = out(name)
        if os.path.lexists(path) and not (os.path.isfile(path) and os.access(path, os.W_OK)):
            raise ValueError(f"--out {out_dir}: {name or out_dir} exists and is not a writable file")
    os.makedirs(out_dir, exist_ok=True)
    return out


def write_csv(path: str, header: str, records) -> None:
    """``header``, then one line of comma-joined ``_fmt`` fields per record."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(_fmt, record)) + "\n" for record in records)


def write_key_values(path: str, values: dict, comments=()) -> None:
    """``# comment`` lines, then a ``key = value`` line per item for ``parse_config_text``."""
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        fh.writelines(f"{key} = {_fmt(value)}\n" for key, value in values.items())


def _accuracy(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(value)
    return value


# the parser of each of raw.csv's numeric fields, and what a value it rejects is not
RAW_NUMBERS = {
    "memory_size": (int, "an integer"), "seed": (int, "an integer"),
    "task_index": (int, "an integer"), "test_accuracy": (_accuracy, "a number in [0, 1]"),
}


def read_raw_csv(path: str) -> list[harness.ResultRow]:
    """raw.csv's rows, each with a wall time of 0.0: ``run`` leaves that field empty.

    A missing column, a row whose length is not the header's or a value that does not
    parse raises, naming the file, the line and the field; so does a row that repeats an
    earlier row's (scenario, paradigm, method, memory_size, seed, task_index), naming both
    lines and that key.
    """
    names = RAW_HEADER.split(",")
    with open(path, newline="") as fh:
        lines = csv.reader(fh)
        header = next(lines, None)
        if header is None:  # an empty file holds no rows, checked by the caller
            return []
        missing = [name for name in names if name not in header]
        if missing:
            raise ValueError(f"{path}: no {', '.join(missing)} column")
        rows, first_line = [], {}
        for fields in filter(None, lines):
            where = f"{path} line {lines.line_num}"
            if len(fields) < len(header):
                raise ValueError(f"{where}: {len(fields)} fields, so no {header[len(fields)]}")
            if len(fields) > len(header):
                raise ValueError(f"{where}: {len(fields)} fields, past the last column, {header[-1]}")
            rec = dict(zip(header, fields))
            for name, (parse, kind) in RAW_NUMBERS.items():
                try:
                    rec[name] = parse(rec[name])
                except ValueError:
                    raise ValueError(f"{where}: {name} {rec[name]!r} is not {kind}") from None
            key = tuple(map(rec.get, names[:6]))
            if key in first_line:
                raise ValueError(
                    f"{where}: repeats line {first_line[key]}'s row for "
                    + ", ".join(f"{name} {value}" for name, value in zip(names, key))
                )
            first_line[key] = lines.line_num
            rows.append(harness.ResultRow(*map(rec.get, names[:-1]), 0.0))
    return rows


class AggregateRow(NamedTuple):
    """``PER_TASK_HEADER``'s fields: one (scenario, paradigm, method, memory size, task)."""
    scenario: str
    paradigm: str
    method: str
    memory_size: int
    task_index: int
    mean_acc: float
    std_acc: float
    num_seeds: int


def aggregate_rows(rows: list[harness.ResultRow]) -> list[AggregateRow]:
    """Accuracy over seeds per (scenario, paradigm, method, memory size, task).

    The mean, the ddof-1 standard deviation (0.0 for a single seed) and
    the seed count, sorted by key.
    """
    grouped: dict[tuple, list[float]] = {}
    for r in rows:
        key = (r.scenario, r.paradigm, r.method, r.memory_size, r.task_index)
        grouped.setdefault(key, []).append(r.test_accuracy)
    out = []
    for key in sorted(grouped):
        accs = np.asarray(grouped[key])
        std = float(accs.std(ddof=1)) if len(accs) > 1 else 0.0
        out.append(AggregateRow(*key, float(accs.mean()), std, len(accs)))
    return out


def final_accuracy_table(rows, aggregates) -> str:
    """Method x memory-size final accuracy (mean±sd over seeds) per scenario and paradigm.

    A (method, size) with fewer final-task seeds than the header counts, where
    some seed's cell failed mid-run, reads "failed".
    """
    blocks = []
    for scenario, paradigm in sorted({(r.scenario, r.paradigm) for r in rows}):
        own = [r for r in rows if (r.scenario, r.paradigm) == (scenario, paradigm)]
        seeds = len({r.seed for r in own})
        cells = {
            (a.method, a.memory_size): f"{a.mean_acc:.3f}±{a.std_acc:.3f}"
            for a in aggregates
            if (a.scenario, a.paradigm, a.num_seeds) == (scenario, paradigm, seeds)
        }
        sizes = sorted({r.memory_size for r in own})
        lines = [
            f"final accuracy, {scenario} scenario, {paradigm} ({seeds} seeds)",
            f"{'method':18s} " + " ".join(f"{s:>13d}" for s in sizes),
        ]
        for method in sorted({r.method for r in own}):
            marks = (cells.get((method, size), "failed") for size in sizes)
            lines.append(f"{method:18s} " + " ".join(f"{m:>13s}" for m in marks))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# --- subcommands -------------------------------------------------------------


def resolve_args(args, file_values: dict[str, str] | None = None) -> dict:
    """``resolve_config`` with the flags whose ``dest`` is a schema key as overrides."""
    flags = {key: getattr(args, key, None) for key in CONFIG_SCHEMA}
    return resolve_config(file_values or {}, flags)


def checked_config(cfg: dict, data: scenarios.Dataset | scenarios.ContinualScenario):
    """``cfg``'s sweep config and learner on ``data``, after the rules ``run`` and ``select`` share.

    One class, values ``ExperimentConfig`` rejects, memory sizes beyond the embedding dimension
    and a method whose learner (``run`` only) plus embedding of an update's pool, the rows its
    memory holds plus those it is offered (gradient matching only), exceeds physical memory raise.
    """
    if data.num_classes < 2:
        raise ValueError(SINGLE_CLASS)
    config = experiment_config(cfg)
    arch = nn.MlpArch(data.num_features, config.hidden, data.num_classes)
    sizes = harness.feasible_memory_sizes(config, arch, cfg["memory_sizes"])
    config = replace(config, memory_sizes=sizes)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if isinstance(data, scenarios.ContinualScenario):
        rows = max(sizes) + max(b.num_examples for b in data.batches)  # largest memory + batch
        learner = nn.learner_peak_bytes(
            arch, config.train.batch_size, data.test.num_examples, config.paradigm == "replay"
        )
    else:
        rows, learner = data.num_examples, 0  # every row, offered to an empty memory; no model
    for method in config.methods:
        embedding = 0
        if method in harness.GMC_METHODS:
            embedding = embedding_peak_bytes(harness.method_embedding(config, method, 0), arch, rows)
        if learner + embedding > physical:
            raise ValueError(
                f"{method} needs {learner / 2**30:.3g} GiB for its model and "
                f"{embedding / 2**30:.3g} GiB to embed {rows} examples, more than the "
                f"{physical / 2**30:.3g} GiB of physical memory (reduce hidden, draws or proj_dim)"
            )
    return config, arch


# select's --embedding values, each the gradient-matching method that pins that mode alone
SELECT_METHODS = {pins["mode"]: m for m, pins in harness.GMC_PINS.items() if len(pins) == 1}


def cmd_select(args) -> int:
    method = SELECT_METHODS[args.embedding]
    with up_front():
        cfg = {**resolve_args(args), "methods": (method,)}
        data = _read_csv(cfg)
        if cfg["standardize"]:
            (data,) = scenarios.standardize_features(data)
        config, arch = checked_config(cfg, data)
        (size,), out = config.memory_sizes, cfg["out"]
        if size > data.num_examples:
            raise ValueError(f"coreset size {size} exceeds the dataset size {data.num_examples}")
        # select, unlike run, makes no directory
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"--out {out}: directory {os.path.dirname(out)} does not exist")
        results_dir(os.path.dirname(out) or ".", [os.path.basename(out)])
    # the coreset is the first record of a seed-0 stream; select's methods call no learner
    selection, _ = next(harness.Rehearsal(config, method, size, arch, 0).updates([data], None))
    write_csv(out, "row_index,weight", zip(selection.indices, selection.weights))
    if selection.truncated:
        print(
            f"note: wrote {len(selection.indices)} of the {size} rows asked for; "
            f"the gradient embeddings of the other rows depend linearly on them",
            file=sys.stderr,
        )
    return 0


def cmd_run(args) -> int:
    with up_front():
        file_values = {}
        if args.config:
            with open(args.config) as fh:
                file_values = parse_config_text(fh.read(), args.config)
        cfg = resolve_args(args, file_values)
        if cfg["jobs"] < 1:
            raise ValueError(f"jobs must be >= 1, got {cfg['jobs']}")
        scenario = build_scenario(cfg)
        config, _ = checked_config(cfg, scenario)
        cfg["memory_sizes"] = config.memory_sizes
        out = results_dir(cfg["out"], RUN_FILES)

    rows, failures = harness.sweep(config, scenario, jobs=cfg["jobs"])
    rows = [astuple(r) for r in rows]
    # raw.csv leaves the wall time empty, so an identical configuration reproduces it byte for
    # byte; timings.csv holds the measured times
    write_csv(out("raw.csv"), RAW_HEADER, [(*r[:-1], None) for r in rows])
    write_csv(out("timings.csv"), RAW_HEADER, rows)
    table = scenarios.class_frequencies(scenario)
    header = ",".join(["task_index", *(f"class_{c}" for c in range(table.shape[1]))])
    write_csv(out("class_frequencies.csv"), header, ((t, *row) for t, row in enumerate(table)))
    write_key_values(out("scenario.txt"), {
        "kind": scenario.kind,
        "seed": cfg["data_seed"],
        "num_batches": scenario.num_tasks,
        "batch_sizes": [b.num_examples for b in scenario.batches],
        "test_size": scenario.test.num_examples,
        "num_classes": scenario.num_classes,
        "num_features": scenario.num_features,
    })
    # cfg holds every CONFIG_SCHEMA key in order, so the manifest is itself a runnable config
    source = [f"source config: {args.config}"] if args.config else []
    write_key_values(
        out("manifest.txt"), cfg, ["resolved run configuration; reusable as --config", *source]
    )
    for failure in failures:
        print(
            f"cell failed: method={failure.method} memory_size={failure.memory_size} "
            f"seed={failure.seed} task={failure.task_index}: {failure.message}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def cmd_report(args) -> int:
    raw_path = os.path.join(args.results_dir, "raw.csv")
    scenario_path = os.path.join(args.results_dir, "scenario.txt")
    # a missing or malformed results file is no configuration error: it exits 1
    rows = read_raw_csv(raw_path)
    if not rows:
        raise ValueError(f"{raw_path}: no result rows")
    with open(scenario_path) as fh:
        num_batches = parse_config_text(fh.read(), scenario_path).get("num_batches", "missing")
    last = max(r.task_index for r in rows)
    if not (num_batches.isdecimal() and int(num_batches) > last):
        raise ValueError(
            f"{scenario_path}: num_batches is {num_batches}, "
            f"not an integer above {raw_path}'s largest task_index, {last}"
        )
    final = int(num_batches) - 1
    with up_front():
        sizes = sorted({r.memory_size for r in rows})
        size = sizes[-1] if args.memory_size is None else args.memory_size
        if size not in sizes:
            raise ValueError(
                f"memory size {size} is not in {raw_path}, "
                f"which holds sizes {','.join(map(str, sizes))}"
            )
        out = results_dir(args.out or args.results_dir, REPORT_FILES)

    aggregates = aggregate_rows(rows)
    finals = [a for a in aggregates if a.task_index == final]
    # AGG_HEADER's fields: all but the task index
    write_csv(out("report_final_accuracy.csv"), AGG_HEADER, [(*a[:4], *a[5:]) for a in finals])
    print(final_accuracy_table(rows, finals))
    per_task = [a for a in aggregates if a.memory_size == size]
    write_csv(out("report_per_task.csv"), PER_TASK_HEADER, per_task)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gmcoreset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sel = sub.add_parser("select", help="select a weighted coreset from a CSV dataset")
    sel.add_argument("dataset", help="path to a CSV dataset")
    # dests are CONFIG_SCHEMA keys, resolved by run's rules
    sel.add_argument("-n", "--size", dest="memory_sizes", metavar="SIZE", type=int,
                     required=True, help="coreset size")
    sel.add_argument("--out", default="coreset.csv", help="output CSV (row_index, weight)")
    sel.add_argument("--label-column", help="label column name or index")
    sel.add_argument("--header", dest="has_header", action=argparse.BooleanOptionalAction)
    sel.add_argument("--standardize", action=argparse.BooleanOptionalAction)
    sel.add_argument("--embedding", choices=SELECT_METHODS, default="random_projection")
    for flag in ("--proj-dim", "--draws", "--init-seed", "--proj-seed", "--hidden"):
        sel.add_argument(flag)

    run = sub.add_parser("run", help="run an experiment sweep from a configuration")
    run.add_argument("--config", help="flat key = value configuration file")
    run.add_argument("--out", help="output directory")
    run.add_argument("--seed", dest="seeds", help="comma-separated seed list")
    run.add_argument("--jobs", help="parallel sweep cells")
    run.add_argument("--memory-sizes", help="comma-separated memory sizes")
    run.add_argument("--method", dest="methods", help="comma-separated method names")
    run.add_argument("--paradigm", choices=harness.PARADIGMS)
    run.add_argument("--proj-dim")
    run.add_argument("--draws")

    rep = sub.add_parser("report", help="summarize a results directory")
    rep.add_argument("results_dir")
    rep.add_argument("--out", help="directory for report tables (default: results dir)")
    rep.add_argument("--memory-size", type=int, help="memory size for the per-task table")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run a command; the one place a failure becomes an exit code, after one ``error:``
    line: 2 for a ``ConfigError`` of the up-front checks, 1 for any other exception."""
    args = build_parser().parse_args(argv)
    try:
        return {"select": cmd_select, "run": cmd_run, "report": cmd_report}[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
