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
from dataclasses import replace

from . import harness, nn, scenarios
from .grad_embed import EmbeddingConfig, embed_batch, embedding_peak_bytes
from .matching_pursuit import omp_select


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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return "" if value is None else str(value)


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
    "methods": (_parse_str_list, ("gmc",)),
    "paradigm": (str, "gdumb"),
    "memory_sizes": (_parse_int_list, ()),  # empty = defaults restricted to feasible sizes
    "seeds": (_parse_int_list, (0, 1, 2, 3, 4)),
    "step_size": (float, 1e-3),
    "batch_size": (int, 100),
    "epochs": (int, 200),
    "replay_epochs": (_parse_opt_int, None),
    "hidden": (_parse_int_list, (128, 128)),
    "proj_dim": (int, 2000),
    "draws": (int, 4),
    "init_seed": (int, 0),
    "proj_seed": (int, 0),
    "jobs": (int, 1),
    "out": (str, "results"),
}


class ConfigError(ValueError):
    pass


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
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def resolve_config(file_values: dict[str, str], overrides: dict[str, str]) -> dict:
    """Apply defaults, file values, then overrides; reject unknown keys."""
    unknown = sorted(set(file_values) - set(CONFIG_SCHEMA))
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
    resolved = {}
    for key, (parser, default) in CONFIG_SCHEMA.items():
        if key in overrides and overrides[key] is not None:
            raw = overrides[key]
        elif key in file_values:
            raw = file_values[key]
        else:
            resolved[key] = default
            continue
        try:
            resolved[key] = parser(str(raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}")
    return resolved


def manifest_text(resolved: dict, config_path: str | None) -> str:
    """The fully resolved config of a run, itself reusable as --config."""
    lines = ["# resolved run configuration; reusable as --config"]
    if config_path:
        lines.append(f"# source config: {config_path}")
    for key in CONFIG_SCHEMA:
        lines.append(f"{key} = {_fmt(resolved[key])}")
    return "\n".join(lines) + "\n"


def _read_csv(cfg: dict) -> scenarios.Dataset:
    """The CSV file at ``dataset``; ``label_column`` is a column index or name."""
    try:
        label = int(cfg["label_column"])
    except ValueError:
        label = cfg["label_column"]
    return scenarios.load_csv(cfg["dataset"], label, cfg["has_header"])


def load_dataset(cfg: dict) -> scenarios.Dataset:
    if cfg["dataset"] == "synthetic":
        return scenarios.synth_blobs(
            cfg["data_seed"], cfg["synth_per_class"], cfg["synth_classes"],
            cfg["synth_dims"], cfg["synth_drift"],
        )
    return _read_csv(cfg)


def build_scenario(cfg: dict) -> scenarios.ContinualScenario:
    data = load_dataset(cfg)
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
    raise ConfigError(f"unknown scenario kind {cfg['scenario']!r}")


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


def write_raw_csv(path: str, rows, with_timings: bool = False) -> None:
    """Raw per-task rows.

    The wall_time_s field is left empty in raw.csv so re-running an
    identical configuration reproduces the file byte for byte; measured
    times go to the timings.csv companion (with_timings=True).
    """
    with open(path, "w", newline="") as fh:
        fh.write(RAW_HEADER + "\n")
        for r in rows:
            stamp = repr(r.wall_time) if with_timings else ""
            fh.write(
                f"{r.scenario},{r.paradigm},{r.method},{r.memory_size},"
                f"{r.seed},{r.task_index},{r.test_accuracy!r},{stamp}\n"
            )


def write_aggregate_csv(path: str, aggregates, per_task: bool = False) -> None:
    """Final-task rows, or with ``per_task`` every task's row with its index."""
    with open(path, "w", newline="") as fh:
        fh.write((PER_TASK_HEADER if per_task else AGG_HEADER) + "\n")
        for a in aggregates:
            task = f"{a.task_index}," if per_task else ""
            fh.write(
                f"{a.scenario},{a.paradigm},{a.method},{a.memory_size},{task}"
                f"{a.mean_acc!r},{a.std_acc!r},{a.num_seeds}\n"
            )


def write_frequency_csv(path: str, scenario) -> None:
    table = scenarios.class_frequencies(scenario)
    with open(path, "w", newline="") as fh:
        fh.write("task_index," + ",".join(f"class_{c}" for c in range(table.shape[1])) + "\n")
        for t, row in enumerate(table):
            fh.write(f"{t}," + ",".join(repr(float(v)) for v in row) + "\n")


def read_raw_csv(path: str) -> list[harness.ResultRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(harness.ResultRow(
                rec["scenario"], rec["paradigm"], rec["method"],
                int(rec["memory_size"]), int(rec["seed"]), int(rec["task_index"]),
                float(rec["test_accuracy"]),
                float(rec["wall_time_s"]) if rec["wall_time_s"] else 0.0,
            ))
    return rows


def final_accuracy_table(rows, aggregates) -> str:
    """Method x memory-size final accuracy (mean±sd over seeds) per scenario and paradigm.

    A (method, size) with rows but no final-task row, a cell that failed
    mid-run, reads "failed".
    """
    blocks = []
    for scenario, paradigm in sorted({(r.scenario, r.paradigm) for r in rows}):
        own = [r for r in rows if (r.scenario, r.paradigm) == (scenario, paradigm)]
        cells = {
            (a.method, a.memory_size): f"{a.mean_acc:.3f}±{a.std_acc:.3f}"
            for a in aggregates if (a.scenario, a.paradigm) == (scenario, paradigm)
        }
        sizes = sorted({r.memory_size for r in own})
        lines = [
            f"final accuracy, {scenario} scenario, {paradigm} "
            f"({len({r.seed for r in own})} seeds)",
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


def checked_config(cfg: dict, data: scenarios.Dataset | scenarios.ContinualScenario, pool_rows):
    """``cfg``'s sweep config and learner on ``data``, after the rules ``run`` and ``select`` share.

    One class, values ``ExperimentConfig`` rejects, memory sizes beyond the embedding dimension
    and an embedding of ``pool_rows(memory_sizes)`` examples beyond physical memory raise.
    """
    if data.num_classes < 2:
        raise ConfigError(SINGLE_CLASS)
    config = experiment_config(cfg)
    arch = nn.MlpArch(data.num_features, config.hidden, data.num_classes)
    sizes = harness.feasible_memory_sizes(config, arch, cfg["memory_sizes"])
    config, rows = replace(config, memory_sizes=sizes), pool_rows(sizes)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for method in (m for m in config.methods if m in harness.GMC_METHODS):
        need = embedding_peak_bytes(harness.method_embedding(config, method, 0), arch, rows)
        if need > physical:
            raise ConfigError(
                f"embedding {rows} examples needs {need / 2**30:.3g} GiB, more than the "
                f"{physical / 2**30:.3g} GiB of physical memory (reduce draws or proj_dim)"
            )
    return config, arch


# select's --embedding values, each the gradient-matching method that pins that mode alone
SELECT_METHODS = {pins["mode"]: m for m, pins in harness.GMC_PINS.items() if len(pins) == 1}


def cmd_select(args) -> int:
    method = SELECT_METHODS[args.embedding]
    try:
        cfg = {**resolve_args(args), "methods": (method,)}
        data = _read_csv(cfg)
        # one update of an empty memory embeds every row
        config, arch = checked_config(cfg, data, lambda sizes: data.num_examples)
        (size,), out = config.memory_sizes, cfg["out"]
        if size > data.num_examples:
            raise ConfigError(f"coreset size {size} exceeds the dataset size {data.num_examples}")
        if os.path.isdir(out):
            raise ConfigError(f"--out {out} is a directory")
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ConfigError(f"--out {out}: directory {os.path.dirname(out)} does not exist")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg["standardize"]:
        data, _ = scenarios.standardize_features(data, data)
    try:
        embedding = harness.method_embedding(config, method, 0)
        G = embed_batch(data.features, data.labels, arch, embedding)
        selection = omp_select(G, G.data.sum(axis=1), size)
        with open(out, "w", newline="") as fh:
            fh.write("row_index,weight\n")
            for ix, w in zip(selection.indices, selection.weights):
                fh.write(f"{int(ix)},{float(w)!r}\n")
        if selection.truncated:
            print(
                f"note: wrote {len(selection.indices)} of the {size} rows asked for; "
                f"the gradient embeddings of the other rows depend linearly on them",
                file=sys.stderr,
            )
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    file_values: dict[str, str] = {}
    try:
        if args.config:
            with open(args.config) as fh:
                file_values = parse_config_text(fh.read(), args.config)
        cfg = resolve_args(args, file_values)
        if cfg["jobs"] < 1:
            raise ConfigError(f"jobs must be >= 1, got {cfg['jobs']}")
        scenario = build_scenario(cfg)
        # a gmc update embeds at most the memory plus the batch
        batch_rows = max(b.num_examples for b in scenario.batches)
        config, _ = checked_config(cfg, scenario, lambda sizes: max(sizes) + batch_rows)
        cfg["memory_sizes"] = config.memory_sizes
        out_dir = cfg["out"]
        os.makedirs(out_dir, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = harness.sweep(config, scenario, jobs=cfg["jobs"])
    write_raw_csv(os.path.join(out_dir, "raw.csv"), result.rows)
    write_raw_csv(os.path.join(out_dir, "timings.csv"), result.rows, with_timings=True)
    final = scenario.num_tasks - 1
    write_aggregate_csv(
        os.path.join(out_dir, "aggregate.csv"),
        [a for a in harness.aggregate_rows(result.rows) if a.task_index == final],
    )
    write_frequency_csv(os.path.join(out_dir, "class_frequencies.csv"), scenario)
    scenarios.write_scenario_manifest(
        scenario, os.path.join(out_dir, "scenario.txt"), seed=cfg["data_seed"]
    )
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(manifest_text(cfg, args.config))
    if result.failures:
        for failure in result.failures:
            print(
                f"cell failed: method={failure.method} memory_size={failure.memory_size} "
                f"seed={failure.seed} task={failure.task_index}: {failure.message}",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_report(args) -> int:
    raw_path = os.path.join(args.results_dir, "raw.csv")
    scenario_path = os.path.join(args.results_dir, "scenario.txt")
    try:
        rows = read_raw_csv(raw_path)
        if not rows:
            raise ValueError(f"{raw_path}: no result rows")
        with open(scenario_path) as fh:
            final = int(parse_config_text(fh.read(), scenario_path)["num_batches"]) - 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sizes = sorted({r.memory_size for r in rows})
    size = sizes[-1] if args.memory_size is None else args.memory_size
    if size not in sizes:
        print(
            f"error: memory size {size} is not in {raw_path}, "
            f"which holds sizes {','.join(map(str, sizes))}",
            file=sys.stderr,
        )
        return 2
    out_dir = args.out or args.results_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    aggregates = harness.aggregate_rows(rows)
    finals = [a for a in aggregates if a.task_index == final]
    write_aggregate_csv(os.path.join(out_dir, "report_final_accuracy.csv"), finals)
    print(final_accuracy_table(rows, finals))
    write_aggregate_csv(
        os.path.join(out_dir, "report_per_task.csv"),
        [a for a in aggregates if a.memory_size == size], per_task=True,
    )
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
    args = build_parser().parse_args(argv)
    if args.command == "select":
        return cmd_select(args)
    if args.command == "run":
        return cmd_run(args)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
