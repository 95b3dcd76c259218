"""Per-layer metrics of gmcoreset, derived from the spans of a traced call.

A layer is one module of the package.  Times are in seconds unless the
name says otherwise; "computed" byte and flop counts follow from array
shapes, they are not measured traffic.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np
# Held before a tracer rebinds the module's names, so a probe's call adds no span.
from gmcoreset.matching_pursuit import selection_residual

from .tracer import Span, children, covered, outermost

MODULES = ("scenarios", "grad_embed", "matching_pursuit", "memory", "nn", "harness", "cli")

# Parameter init counts as its caller's self time.
UNTRACED = ("nn.init_sample",)

SIGN = "grad_embed.sign_projection"
STEP = ("nn.loss_and_grad", "nn.adam_step")
TRAIN = ("nn.train", "nn.train_steps")
EMBED = ("grad_embed.embed_batch", "grad_embed.embed_batch_at_params")
UPDATES = (
    "memory.gmc_update",
    "memory.local_gmc_update",
    "memory.reservoir_update",
    "memory.class_balance_update",
    "memory.sliding_window_update",
    "memory.facility_location_update",
)

# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "scenarios.build_s": "s",
    "scenarios.load_csv_s": "s",
    "grad_embed.embed_s": "s",
    "grad_embed.embed_calls": "count",
    "grad_embed.columns": "count",
    "grad_embed.sign_s": "s",
    "grad_embed.sign_calls": "count",
    "grad_embed.sign_bytes": "bytes",
    "grad_embed.grad_bytes": "bytes",
    "matching_pursuit.omp_s": "s",
    "matching_pursuit.omp_calls": "count",
    "matching_pursuit.picks": "count",
    "matching_pursuit.s_per_pick": "s",
    "matching_pursuit.dict_columns": "count",
    "matching_pursuit.corr_flops": "flop",
    "matching_pursuit.truncated": "count",
    "matching_pursuit.residual_rel": "ratio",
    "memory.gmc_update.self_s": "s",
    "memory.facility_location_update.s": "s",
    "memory.reservoir_update.s": "s",
    "memory.class_balance_update.s": "s",
    "memory.update_calls": "count",
    "memory.items_offered": "count",
    "memory.admit_ratio": "ratio",
    "nn.step_s": "s",
    "nn.steps": "count",
    "nn.step_us": "us",
    "nn.train_self_s": "s",
    "nn.evaluate_s": "s",
    "harness.cell_s": "s",
    "harness.cells": "count",
    "harness.self_s": "s",
    "harness.sweep_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


# --- probes: counters read from a traced call's arguments and result --------


def _probe_sign(args: dict, result) -> dict:
    return {"bytes": 8 * int(args["proj_dim"]) * int(args["input_dim"])}


def _probe_embed(args: dict, result) -> dict:
    draws, config = args["draws"], args["config"]
    columns = len(args["features"])
    per_draw = [
        sum(w.size + b.size for w, b in zip(p.weights, p.biases))
        if config.mode == "random_projection"
        else p.weights[-1].size + p.biases[-1].size
        for p in draws
    ]
    return {"columns": columns, "grad_bytes": 8 * columns * sum(per_draw)}


def _probe_omp(args: dict, result) -> dict:
    G, target = args["G"], args["target"]
    dim, num_columns = G.data.shape
    norm = float(np.linalg.norm(target))
    return {
        "picks": result.size,
        "dict_columns": num_columns,
        "corr_flops": 2 * dim * num_columns * result.size,
        "truncated": int(result.truncated),
        "residual_rel": (
            float(np.linalg.norm(selection_residual(G, target, result))) / norm if norm > 0 else 0.0
        ),
    }


def _probe_update(args: dict, result) -> dict:
    """Items offered, and how many of the batch's rows the new memory holds."""
    memory = result[1] if isinstance(result, tuple) else result
    batch = np.asarray(args["batch_features"], dtype=np.float64)
    rows = {row.tobytes() for row in batch}
    admitted = sum(row.tobytes() in rows for row in memory.features) if memory.size else 0
    return {"offered": len(batch), "admitted": int(admitted)}


PROBES = {
    SIGN: _probe_sign,
    "grad_embed.embed_batch_at_params": _probe_embed,
    "matching_pursuit.omp_select": _probe_omp,
    **{name: _probe_update for name in UPDATES},
}


def tracer_modules():
    """The package's modules, plus the package for its re-exported aliases."""
    import importlib

    package = importlib.import_module("gmcoreset")
    return [importlib.import_module(f"gmcoreset.{m}") for m in MODULES] + [package]


# --- derivation --------------------------------------------------------------


def span_counts(spans: list[Span]) -> Counter:
    return Counter(span.name for span in spans)


def per_layer_metrics(spans: list[Span], overhead_frac: float) -> dict[str, float]:
    """Every metric of PER_LAYER_UNITS from one traced window."""
    kids = children(spans)

    def named(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def total(indices):
        return sum(spans[i].duration for i in indices)

    def attr(indices, key):
        return sum(spans[i].attrs.get(key, 0) for i in indices)

    def within(roots, stop):
        """Time inside ``roots`` not covered by descendants matching ``stop``."""
        return sum(spans[i].duration - covered(spans, kids, i, stop) for i in roots)

    def ratio(num, den):
        return num / den if den else 0.0

    sign, embed = named(SIGN), named("grad_embed.embed_batch_at_params")
    omp, updates = named("matching_pursuit.omp_select"), named(*UPDATES)
    adam = named("nn.adam_step")
    step_s = total(named(*STEP))
    omp_s = total(omp)
    picks = attr(omp, "picks")
    outer_embed = outermost(spans, lambda s: s.name in EMBED)
    outer_train = outermost(spans, lambda s: s.name in TRAIN)
    cells = named("harness.run_cell")

    metrics = {
        "scenarios.build_s": total(outermost(
            spans, lambda s: s.layer == "scenarios" and s.name != "scenarios.load_csv")),
        "scenarios.load_csv_s": total(named("scenarios.load_csv")),
        "grad_embed.embed_s": within(
            outer_embed, lambda s: s.layer != "grad_embed" or s.name == SIGN),
        "grad_embed.embed_calls": len(embed),
        "grad_embed.columns": attr(embed, "columns"),
        "grad_embed.sign_s": total(sign),
        "grad_embed.sign_calls": len(sign),
        "grad_embed.sign_bytes": attr(sign, "bytes"),
        "grad_embed.grad_bytes": attr(embed, "grad_bytes"),
        "matching_pursuit.omp_s": omp_s,
        "matching_pursuit.omp_calls": len(omp),
        "matching_pursuit.picks": picks,
        "matching_pursuit.s_per_pick": ratio(omp_s, picks),
        "matching_pursuit.dict_columns": attr(omp, "dict_columns"),
        "matching_pursuit.corr_flops": attr(omp, "corr_flops"),
        "matching_pursuit.truncated": attr(omp, "truncated"),
        "matching_pursuit.residual_rel": (
            statistics.median(spans[i].attrs["residual_rel"] for i in omp) if omp else 0.0),
        "memory.gmc_update.self_s": within(named("memory.gmc_update"), lambda s: s.layer != "memory"),
        "memory.facility_location_update.s": total(named("memory.facility_location_update")),
        "memory.reservoir_update.s": total(named("memory.reservoir_update")),
        "memory.class_balance_update.s": total(named("memory.class_balance_update")),
        "memory.update_calls": len(updates),
        "memory.items_offered": attr(updates, "offered"),
        "memory.admit_ratio": ratio(attr(updates, "admitted"), attr(updates, "offered")),
        "nn.step_s": step_s,
        "nn.steps": len(adam),
        "nn.step_us": 1e6 * ratio(step_s, len(adam)),
        "nn.train_self_s": within(outer_train, lambda s: s.layer != "nn" or s.name in STEP),
        "nn.evaluate_s": total(outermost(spans, lambda s: s.name == "nn.evaluate")),
        "harness.cell_s": total(cells),
        "harness.cells": len(cells),
        "harness.self_s": within(cells, lambda s: s.layer != "harness"),
        "harness.sweep_self_s": within(
            named("harness.sweep"), lambda s: s.layer != "harness" or s.name == "harness.run_cell"),
        "cli.self_s": within(named("cli.main"), lambda s: s.layer != "cli"),
        "trace.overhead_frac": overhead_frac,
    }
    return metrics
