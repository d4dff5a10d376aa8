"""Metric definitions and their computation from one benchmark run.

End-to-end metrics come from the untraced passes, with times in reference
seconds (see ``workloads.REF_S``); per-layer metrics come
from the traced passes' spans, plus the untraced per-stage figures
(``cli.*``, wall seconds) and the unbounded end-to-end figures (``e2e.*``):
those that exist on only some workloads, and the wall-time readings.
"""

from __future__ import annotations

import statistics

import tracer
import workloads

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("predict_pairs_per_s", "pairs/s", "higher"),
]

# span name -> statistics reported for it
SPAN_STATS = [
    ("model.encode_drug", ("s", "cols")),
    ("model.encode_protein_with_pocket", ("s", "cols", "gflop")),
    ("model.interaction_logit", ("s", "cols")),
    ("model.confidence", ("s", "cols")),
    ("embeddings.EmbeddingStore.matrix", ("s", "cols")),
    ("model.unfamiliarity_many", ("s", "cols")),
    ("model.reconstruct", ("s", "cols")),
    ("losses.reconstruction_loss", ("s", "useful_frac")),
    ("nn.Tape.token_xent", ("s",)),
    ("nn.Tape.backward", ("s", "p50_ms", "p90_ms")),
    ("nn.adam_step", ("s", "p50_ms", "p90_ms", "params", "bytes")),
    ("training.train", ("s", "self_s", "epochs")),
    ("screening.random_baseline", ("s", "trials")),
    ("screening.random_topk_baseline", ("s", "trials")),
    ("screening.enrichment_report", ("s", "self_s")),
    ("screening.load_scores", ("s",)),
    ("screening.load_actives", ("s",)),
    ("training.load_predictions", ("s", "rows")),
    ("screening.rank", ("s",)),
    ("screening.filter_unfamiliar", ("s", "kept_frac")),
    ("embeddings.load_embeddings", ("s", "rows", "bytes")),
    ("embeddings.load_interactions", ("s", "rows")),
    ("embeddings.load_smiles", ("s",)),
    ("util.sha256_file", ("s", "bytes")),
    ("training.save_predictions", ("s", "rows")),
    ("training.evaluate", ("s", "self_s")),
    ("losses.composite_loss", ("s",)),
    ("losses.bce_with_logits", ("s",)),
    ("losses.contrastive_cosine", ("s",)),
    ("losses.confidence_loss", ("s",)),
    ("losses.mse_loss", ("s",)),
    ("tokenizer.SmilesTokenizer.tokenize", ("calls", "s")),
    ("model.save_checkpoint", ("s", "bytes")),
    ("model.load_checkpoint", ("s",)),
    ("metrics.aupr", ("s",)),
    ("metrics.f1", ("s",)),
    ("metrics.pcc", ("s",)),
    ("metrics.rmse", ("s",)),
    ("metrics.confusion_confidence", ("s",)),
    ("synthetic.gen_synthetic", ("s",)),
    ("pipeline.split", ("s",)),
]

STAT_UNITS = {
    "s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "calls": ("count", "lower"),
    "cols": ("count", "lower"),
    "rows": ("count", "lower"),
    "trials": ("count", "lower"),
    "params": ("count", "lower"),
    "epochs": ("count", "higher"),
    "bytes": ("B", "lower"),
    "gflop": ("GFLOP", "lower"),
    "useful_frac": ("ratio", "higher"),
    "kept_frac": ("ratio", "higher"),
}

# counters that describe one call rather than a whole pass
PER_CALL = {"nn.adam_step"}

# percentiles need this many calls (at least ten samples beyond them)
MIN_CALLS = {"p50_ms": 20, "p90_ms": 100}

STEP_SPAN = "training._forward_losses"

# one training step, as in the ROADMAP Baseline table: forward parts are
# spans inside the training forward pass, the rest are per optimizer step
TRAIN_STEP = [
    ("drug_encoder", "model.encode_drug"),
    ("protein_encoder", "model.encode_protein_with_pocket"),
    ("classifier", "model.interaction_logit"),
    ("conf_head", "model.confidence"),
    ("autoencoder", "model.reconstruct"),
    ("token_xent", "nn.Tape.token_xent"),
    ("backward", "nn.Tape.backward"),
    ("adam", "nn.adam_step"),
]

STAGES = ("train", "predict", "rank", "enrich", "report")

E2E_EXTRA = [
    ("train_pairs_per_s", "pairs/s", "higher"),
    ("test_aupr", "ratio", "higher"),
    ("test_rmse", "affinity", "lower"),
    ("screen_ef1", "x", "higher"),
    ("fail_frac", "ratio", "lower"),
    ("setup_wall_s", "s", "lower"),
    ("total_wall_s", "s", "lower"),
    ("predict_wall_pairs_per_s", "pairs/s", "higher"),
    ("host_slowdown", "ratio", "lower"),
]


def per_layer_defs() -> list[tuple[str, str, str]]:
    defs = []
    for span, stats in SPAN_STATS:
        defs += [(f"{span}.{stat}", *STAT_UNITS[stat]) for stat in stats]
    defs += [(f"train_step.{part}_ms", "ms", "lower") for part, _ in TRAIN_STEP]
    defs.append(("train_step.total_ms", "ms", "lower"))
    for stage in STAGES:
        defs += [(f"cli.{stage}.s", "s", "lower"), (f"cli.{stage}.rss_mb", "MB", "lower")]
    defs.append(("trace.overhead_frac", "ratio", "lower"))
    defs += [(f"e2e.{name}", unit, better) for name, unit, better in E2E_EXTRA]
    return defs


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def slowdown(run) -> float:
    """The run's median reference time over that of a quiet host."""
    return _median(run.ref_s) / workloads.REF_S


def end_to_end(run) -> dict[str, float]:
    """Wall times divided by the run's slowdown (rates multiplied)."""
    plain = [p for p in run.passes if p.ok and not p.traced]
    slow = slowdown(run)
    return {
        "setup_s": _median(run.setup_s) / slow,
        "total_s": _median(p.total_s for p in plain) / slow,
        "peak_rss_mb": _median(max(s.rss_mb for s in p.stages) for p in plain),
        "predict_pairs_per_s": _median(r for p in plain for r in p.values["predict_pairs_per_s"]) * slow,
    }


def _stat(stats: dict, span: str, stat: str) -> float:
    st = stats.get(span)
    if st is None:
        return 0.0
    if stat in ("s", "self_s", "calls"):
        return st[stat]
    if stat in MIN_CALLS:
        durations = sorted(st["durations"])
        if len(durations) < MIN_CALLS[stat]:
            return 0.0
        q = statistics.quantiles(durations, n=10 if stat == "p90_ms" else 2, method="inclusive")
        return 1000.0 * q[-1]
    counts = st["counts"]
    if stat == "useful_frac":
        return counts["useful"] / counts["positions"] if counts.get("positions") else 0.0
    if stat == "kept_frac":
        return counts["kept"] / counts["total"] if counts.get("total") else 0.0
    value = counts.get(stat, 0.0)
    return value / st["calls"] if span in PER_CALL else value


def train_step_ms(stats: dict) -> dict[str, float]:
    steps = stats.get("nn.adam_step", {}).get("calls", 0)
    fwd_steps = stats.get(STEP_SPAN, {}).get("calls", 0)
    out = {}
    for part, span in TRAIN_STEP:
        st = stats.get(span)
        if st is None or not steps:
            out[part] = 0.0
        elif part in ("backward", "adam"):
            out[part] = 1000.0 * st["s"] / steps
        else:
            out[part] = 1000.0 * st["in_step_s"] / fwd_steps
    total = sum(stats.get(s, {}).get("s", 0.0) for s in (STEP_SPAN, "losses.composite_loss", "nn.Tape.backward", "nn.adam_step"))
    out["total"] = 1000.0 * total / steps if steps else 0.0
    return out


def per_layer(run, fail_frac: float) -> tuple[dict[str, float], list[str]]:
    plain = [p for p in run.passes if p.ok and not p.traced]
    traced = [p for p in run.passes if p.ok and p.traced]
    stats, absent = tracer.aggregate(
        [f for p in traced for f in p.span_files], n_passes=max(1, len(traced)), step_span=STEP_SPAN
    )
    if run.setup_spans is not None:
        setup_stats, setup_absent = tracer.aggregate([run.setup_spans], n_passes=len(run.setup_s) or 1)
        stats.update(setup_stats)
        absent += setup_absent
    values = {}
    for span, wanted in SPAN_STATS:
        for stat in wanted:
            values[f"{span}.{stat}"] = _stat(stats, span, stat)
    for part, ms in train_step_ms(stats).items():
        values[f"train_step.{part}_ms"] = ms
    for stage in STAGES:
        values[f"cli.{stage}.s"] = _median(p.wall(stage) for p in plain)
        values[f"cli.{stage}.rss_mb"] = _median(
            max((s.rss_mb for s in p.stages if s.name == stage), default=0.0) for p in plain
        )
    untraced_total = _median(p.total_s for p in plain)
    traced_total = _median(p.total_s for p in traced)
    values["trace.overhead_frac"] = traced_total / untraced_total - 1.0 if untraced_total and traced_total else 0.0
    for name, value in workload_extras(run, fail_frac).items():
        values[f"e2e.{name}"] = value
    return values, sorted(set(absent))


def workload_extras(run, fail_frac: float) -> dict[str, float]:
    """The end-to-end figures that exist on only some workloads (0 elsewhere),
    the end-to-end times as measured in wall seconds, and the slowdown."""
    plain = [p for p in run.passes if p.ok and not p.traced]
    out = {name: _median(p.values[name] for p in plain if name in p.values) for name, _, _ in E2E_EXTRA}
    out["fail_frac"] = fail_frac
    out["setup_wall_s"] = _median(run.setup_s)
    out["total_wall_s"] = _median(p.total_s for p in plain)
    out["predict_wall_pairs_per_s"] = _median(r for p in plain for r in p.values["predict_pairs_per_s"])
    out["host_slowdown"] = slowdown(run)
    return out


def baseline_rows(values: dict[str, float]) -> list[str]:
    """The ROADMAP Baseline table's rows, from one traced run."""
    v = values
    steps = v["train_step.total_ms"]
    return [
        f"train step (forward + loss + backward + Adam): {steps:.1f} ms",
        f"  forward: drug / protein encoder: {v['train_step.drug_encoder_ms']:.1f} / {v['train_step.protein_encoder_ms']:.1f} ms",
        f"  forward: classifier / conf head: {v['train_step.classifier_ms']:.1f} / {v['train_step.conf_head_ms']:.1f} ms",
        f"  forward: AE encoder+decoder: {v['train_step.autoencoder_ms']:.1f} ms",
        f"  forward: token_xent: {v['train_step.token_xent_ms']:.1f} ms ({_share(v['train_step.token_xent_ms'], steps)})",
        f"  backward, all: {v['train_step.backward_ms']:.1f} ms ({_share(v['train_step.backward_ms'], steps)})",
        f"  adam_step ({v['nn.adam_step.params']:.0f} params): {v['train_step.adam_ms']:.1f} ms ({_share(v['train_step.adam_ms'], steps)})",
        f"inference (predict stage, untraced): {v['e2e.predict_wall_pairs_per_s']:.0f} pairs/s",
        f"enrich, all calls (untraced): {v['cli.enrich.s']:.2f} s",
        f"embedding load (traced): {v['embeddings.load_embeddings.s']:.2f} s for {v['embeddings.load_embeddings.rows']:.0f} rows",
    ]


def _share(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.0f}%" if whole else "n/a"
