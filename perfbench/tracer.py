"""Span tracer for the benchmark's traced runs.

Used two ways:

* as a child entry point, ``python3 perfbench/tracer.py SPANS RUN_ID -- <cli args>``:
  installs wrappers around the public functions listed in ``TARGETS``, runs
  ``tensordti.cli.main`` with the remaining arguments, and writes the spans
  it kept in memory to SPANS (JSON lines) when the command ends;
* in-process, through :class:`Recorder` and :func:`install`, around the
  benchmark's own set-up calls.

Each wrapped name is patched where callers look it up: ``tensordti``
modules import these functions by name (``from .nn import adam_step``), so
every loaded ``tensordti.*`` module that holds the original object gets the
wrapper. A target that no longer exists is recorded as absent and never
fails the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable


def _cols(arg):
    def count(bound, result):
        x = bound[arg]
        x = getattr(x, "value", x)  # tape Node or ndarray
        return {"cols": int(x.shape[1])}

    return count


def _file_bytes(arg):
    def count(bound, result):
        return {"bytes": os.path.getsize(bound[arg])}

    return count


def _rows(bound, result):
    return {"rows": len(result)}


def _load_embeddings(bound, result):
    return {"rows": len(result), "bytes": os.path.getsize(bound["path"])}


def _encoder_gflop(bound, result):
    """Computed, not measured: 2 flops per multiply-add of every dense layer
    in the protein (and pocket) towers."""
    state = bound["state"]
    x = getattr(bound["protein_vec"], "value", bound["protein_vec"])
    layers = list(state.encoder_protein)
    if bound.get("pocket_vec") is not None and state.encoder_pocket is not None:
        layers += state.encoder_pocket
    macs = sum(layer.weight.value.size for layer in layers) * x.shape[1]
    return {"cols": int(x.shape[1]), "gflop": 2.0 * macs / 1e9}


def _recon_useful(bound, result):
    mask = bound["pad_mask"]
    return {"useful": float(mask.sum()), "positions": float(mask.size)}


def _adam(bound, result):
    """Computed bytes: Adam reads p, g, m, v and writes p, m, v (7 float64
    arrays of the parameter count) per step."""
    n = sum(p.value.size for p in bound["params"])
    return {"params": n, "bytes": 7 * 8 * n}


def _trials(bound, result):
    return {"trials": int(bound["trials"])}


def _kept(bound, result):
    return {"kept": len(result[0]), "total": len(bound["rows"])}


def _epochs(bound, result):
    _, report = result
    return {"epochs": sum(len(run.epochs) for run in report.runs)}


# (module, qualified name, counter). A counter maps the bound arguments and
# the result to counts; counts come from argument shapes, never from timers.
TARGETS = [
    ("tensordti.model", "encode_drug", _cols("vec")),
    ("tensordti.model", "encode_protein_with_pocket", _encoder_gflop),
    ("tensordti.model", "interaction_logit", _cols("e_d")),
    ("tensordti.model", "confidence", _cols("e_d")),
    ("tensordti.model", "reconstruct", _cols("drug_vec")),
    ("tensordti.model", "unfamiliarity_many", _cols("drug_matrix")),
    ("tensordti.model", "save_checkpoint", _file_bytes("path")),
    ("tensordti.model", "load_checkpoint", None),
    ("tensordti.embeddings", "EmbeddingStore.matrix", lambda b, r: {"cols": len(b["ids"])}),
    ("tensordti.embeddings", "load_embeddings", _load_embeddings),
    ("tensordti.embeddings", "load_interactions", _rows),
    ("tensordti.embeddings", "load_smiles", None),
    ("tensordti.losses", "composite_loss", None),
    ("tensordti.losses", "bce_with_logits", None),
    ("tensordti.losses", "contrastive_cosine", None),
    ("tensordti.losses", "confidence_loss", None),
    ("tensordti.losses", "mse_loss", None),
    ("tensordti.losses", "reconstruction_loss", _recon_useful),
    ("tensordti.nn", "Tape.token_xent", None),
    ("tensordti.nn", "Tape.backward", None),
    ("tensordti.nn", "adam_step", _adam),
    ("tensordti.training", "train", _epochs),
    # private, wrapped only to tell training-step forwards from scoring ones
    ("tensordti.training", "_forward_losses", None),
    ("tensordti.training", "evaluate", None),
    ("tensordti.training", "load_predictions", _rows),
    ("tensordti.training", "save_predictions", lambda b, r: {"rows": len(b["records"])}),
    ("tensordti.screening", "random_baseline", _trials),
    ("tensordti.screening", "random_topk_baseline", _trials),
    ("tensordti.screening", "enrichment_report", None),
    ("tensordti.screening", "load_scores", None),
    ("tensordti.screening", "load_actives", None),
    ("tensordti.screening", "rank", None),
    ("tensordti.screening", "filter_unfamiliar", _kept),
    ("tensordti._util", "sha256_file", _file_bytes("path")),
    ("tensordti.tokenizer", "SmilesTokenizer.tokenize", None),
    ("tensordti.metrics", "aupr", None),
    ("tensordti.metrics", "f1", None),
    ("tensordti.metrics", "pcc", None),
    ("tensordti.metrics", "rmse", None),
    ("tensordti.metrics", "confusion_confidence", None),
]

# set-up calls the benchmark makes in its own process
SETUP_TARGETS = [
    ("tensordti.synthetic", "gen_synthetic", None),
    ("tensordti.pipeline", "split", None),
]


class Recorder:
    """Spans kept in memory: [name, start, end, parent index, run id, counts]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.counter_errors: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.run_id, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    bound = sig.bind(*args, **kwargs).arguments
                    span[5] = counter(bound, result)
                except Exception:  # a renamed argument must not fail the run
                    self.counter_errors.add(name)
            return result

        return wrapper

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"absent": self.absent, "counter_errors": sorted(self.counter_errors)}) + "\n")
            for name, start, end, parent, run_id, counts in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": run_id, "counts": counts}
                    )
                    + "\n"
                )


def install(recorder: Recorder, targets) -> Callable[[], None]:
    """Patch every target; return a function that restores the originals."""
    undo = []
    for module_name, _, _ in targets:
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass
    modules = [m for n, m in list(sys.modules.items()) if n == "tensordti" or n.startswith("tensordti.")]
    for module_name, qualname, counter in targets:
        name = f"{module_name.removeprefix('tensordti.').lstrip('_')}.{qualname}"
        try:
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except (KeyError, AttributeError):
            recorder.absent.append(name)
            continue
        wrapper = recorder.wrap(name, original, counter)
        holders = [owner] if path else [m for m in modules if any(v is original for v in vars(m).values())]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))

    def restore():
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)

    return restore


def aggregate(span_files, n_passes: int = 1, step_span: str | None = None) -> tuple[dict, list[str]]:
    """Per span name: calls, s, self_s, durations and summed counts, divided
    by the number of pipeline passes the files cover (durations excepted).
    `in_step_s` is the time spent inside a `step_span` ancestor."""
    stats: dict[str, dict] = {}
    absent: set[str] = set()
    for path in span_files:
        with open(path, "r", encoding="utf-8") as f:
            header = json.loads(f.readline())
            absent.update(header["absent"])
            absent.update(f"{name} (counts)" for name in header["counter_errors"])
            spans = [json.loads(line) for line in f]
        child_time = [0.0] * len(spans)
        in_step = [False] * len(spans)
        for i, s in enumerate(spans):  # parents precede their children
            parent = s["parent"]
            if parent is not None:
                child_time[parent] += s["end"] - s["start"]
                in_step[i] = in_step[parent] or spans[parent]["name"] == step_span
        for i, s in enumerate(spans):
            st = stats.setdefault(
                s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "in_step_s": 0.0, "durations": [], "counts": {}}
            )
            dur = s["end"] - s["start"]
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += dur - child_time[i]
            st["in_step_s"] += dur if in_step[i] else 0.0
            st["durations"].append(dur)
            for key, value in (s["counts"] or {}).items():
                st["counts"][key] = st["counts"].get(key, 0) + value
    for st in stats.values():
        for key in ("calls", "s", "self_s", "in_step_s"):
            st[key] /= n_passes
        st["counts"] = {k: v / n_passes for k, v in st["counts"].items()}
    return stats, sorted(absent)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS RUN_ID -- <tensordti cli args>", file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    import tensordti.cli  # noqa: F401  (loads every module the CLI uses)

    recorder = Recorder(run_id)
    install(recorder, TARGETS)
    try:
        return tensordti.cli.main(cli_args)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
