"""Output checks. Each check returns a list of problems; empty means pass.

The checks read the CLI's output files with their own parsers and compare
against independent oracles: the public tape-path model functions, the
enrichment identities, and the exact order-statistic mean of a random
ranking.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-9


def read_tsv(path: str | Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        return [dict(zip(header, line.rstrip("\n").split("\t"))) for line in f if line.strip()]


def ceil_count(x: float) -> int:
    """ceil(x), forgiving float noise just below an integer (the rule the
    enrichment report states, restated here so the check stands alone)."""
    r = round(x)
    return int(r) if abs(x - r) < 1e-9 else math.ceil(x)


def checkpoint_loads(path: Path) -> list[str]:
    from tensordti import model

    try:
        model.load_checkpoint(path)
    except Exception as exc:  # any failure to load is the finding
        return [f"{path.name} does not load: {type(exc).__name__}: {exc}"]
    return []


def train_report(path: Path, epochs: int) -> list[str]:
    """Every seed ran exactly `epochs` epochs and every loss is finite."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    problems = [] if report["runs"] else ["train report has no runs"]
    for run in report["runs"]:
        if len(run["epochs"]) != epochs:
            problems.append(f"seed {run['seed']}: {len(run['epochs'])} epochs, configured {epochs}")
        for e in run["epochs"]:
            for key, value in e.items():
                if key.startswith("l_") and value is not None and not math.isfinite(value):
                    problems.append(f"seed {run['seed']} epoch {e['epoch']}: {key} = {value}")
    return problems


def sample_indices(n: int, k: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(n), min(k, n)))


def predictions(pred_path: Path, ckpt_path: Path, fixture, expected: set, sample: int, seed: int) -> list[str]:
    """Coverage of the expected (drug, target) pairs, then logit, confidence
    and unfamiliarity of a fixed sample against the tape-path oracle.

    `fixture` provides drugs / proteins / pockets stores, `pocket_of` and
    `smiles` as generated, independent of the program's loaders.
    """
    from tensordti import model

    rows = read_tsv(pred_path)
    keys = [(r["drug_id"], r["target_id"]) for r in rows]
    problems = []
    if len(set(keys)) != len(keys):
        problems.append(f"{len(keys) - len(set(keys))} duplicate pairs")
    if set(keys) != expected:
        problems.append(f"pairs differ from the requested split: {len(set(keys) ^ expected)} mismatched")
    if problems:
        return problems

    pick = [rows[i] for i in sample_indices(len(rows), sample, seed)]
    state = model.load_checkpoint(ckpt_path)
    drug_ids = [r["drug_id"] for r in pick]
    x_d = fixture.drugs.matrix(drug_ids)
    x_p = fixture.proteins.matrix([r["target_id"] for r in pick])
    x_k = None
    if state.encoder_pocket is not None:
        x_k = fixture.pockets.matrix([fixture.pocket_of[r["target_id"]] for r in pick])
    e_d = model.encode_drug(state, x_d)
    e_p = model.encode_protein_with_pocket(state, x_p, x_k)
    logit_node = model.interaction_logit(state, e_d, e_p)
    conf = model.confidence(state, e_d, e_p, logit_node).value.reshape(-1)
    logit = logit_node.value.reshape(-1)
    unf = _unfamiliarity_oracle(state, x_d, [fixture.smiles[d] for d in drug_ids])

    for name, want in (("logit", logit), ("confidence", conf), ("unfamiliarity", unf)):
        got = np.array([float(r[name]) for r in pick])
        err = np.max(np.abs(got - want))
        if not err <= ORACLE_TOL:
            i = int(np.argmax(np.abs(got - want)))
            problems.append(
                f"{name} of {drug_ids[i]}|{pick[i]['target_id']}: {got[i]!r} vs oracle {want[i]!r} (|d| {err:.3g})"
            )
    return problems


def _unfamiliarity_oracle(state, x_d: np.ndarray, smiles: list[str]) -> np.ndarray:
    """U = log(mean over non-PAD positions of -log softmax(token) + eps),
    from the autoencoder's logits on the tape path."""
    from tensordti import model

    c = state.config
    cube = model.reconstruct(state, x_d).value.reshape(c.max_len, c.vocab_size, -1)
    seqs = [state.tokenizer.tokenize(s) for s in smiles]
    ids = np.stack([s.ids for s in seqs], axis=1)
    mask = np.stack([state.tokenizer.pad_mask(s) for s in seqs], axis=1)
    shifted = cube - cube.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = np.take_along_axis(logp, ids[:, None, :], axis=1)[:, 0, :]
    nll = -(picked * mask).sum(axis=0) / mask.sum(axis=0)
    return np.log(nll + c.unfamiliarity_eps)


def ranked(ranked_path: Path, preds: dict) -> list[str]:
    """A duplicate-free permutation of the target's compounds, numbered
    1..N, in two_key order: predicted positives first, then confidence
    ascending, ties by id."""
    rows = read_tsv(ranked_path)
    ids = [r["compound_id"] for r in rows]
    problems = []
    if [r["rank"] for r in rows] != [str(i) for i in range(1, len(rows) + 1)]:
        problems.append("rank column is not 1..N")
    if len(set(ids)) != len(ids):
        problems.append(f"{len(ids) - len(set(ids))} duplicate compound ids")
    if set(ids) != set(preds):
        problems.append(f"{len(set(ids) ^ set(preds))} ids differ from the target's predictions")
        return problems

    def key(cid):
        p = preds[cid]
        return (0 if p["pred_label"] == "1" else 1, float(p["confidence"]), cid)

    for pos in range(1, len(ids)):
        if key(ids[pos - 1]) > key(ids[pos]):
            problems.append(f"not in two_key order at rank {pos + 1}: {ids[pos - 1]} before {ids[pos]}")
            break
    return problems


def by_k(row: dict) -> list[tuple[float, float]]:
    return sorted((float(k), v) for k, v in row.items())


def enrichment(report_path: Path, ranked_ids: list[str], actives: set) -> list[str]:
    """EF = recall * N / k at every cutoff, recall of the tensordti ranking
    recomputed from ranked.tsv, and budgets non-decreasing in k. The
    `random` column is a Monte-Carlo estimate whose adjacent k can share a
    target count; random_baseline checks it against the exact mean."""
    rep = json.loads(Path(report_path).read_text(encoding="utf-8"))
    n, a = rep["n_library"], rep["n_actives"]
    problems = []
    if n != len(ranked_ids) or a != len(actives):
        return [f"N={n}, A={a}; expected N={len(ranked_ids)}, A={len(actives)}"]
    for method, row in rep["ef"].items():
        for k, ef in by_k(row):
            cutoff = min(n, max(1, ceil_count(k * n / 100.0)))
            recall = dict(by_k(rep["recall"][method]))[k]
            if abs(ef - recall * n / cutoff) > 1e-9 * max(1.0, abs(ef)):
                problems.append(f"{method} k={k:g}: EF {ef} != recall*N/k = {recall * n / cutoff}")
            if method == "tensordti":
                want = len(set(ranked_ids[:cutoff]) & actives) / a
                if abs(recall - want) > 1e-12:
                    problems.append(f"tensordti k={k:g}: recall {recall} != {want} from ranked.tsv")
    for table in ("ar_budget", "topk_budget"):
        for method, row in (rep.get(table) or {}).items():
            if method == "random":
                continue
            values = [v for _, v in by_k(row)]
            if any(b < a_ - 1e-12 for a_, b in zip(values, values[1:])):
                problems.append(f"{table}[{method}] decreases in k: {values}")
    return problems


def random_baseline(report_path: Path, trials: int) -> list[str]:
    """The `random` AR budget lies within 5 Monte-Carlo standard errors of
    the exact mean of the t-th smallest of A uniform positions in 1..N,
    t(N+1)/(A+1). A closed form passes with zero error."""
    rep = json.loads(Path(report_path).read_text(encoding="utf-8"))
    n, a = rep["n_library"], rep["n_actives"]
    problems = []
    for k, got in by_k(rep["ar_budget"]["random"]):
        t = max(1, ceil_count(k * a / 100.0))
        mean = 100.0 * t * (n + 1) / (a + 1) / n
        var = t * (a - t + 1) * (n + 1) * (n - a) / ((a + 1) ** 2 * (a + 2))
        se = 100.0 * math.sqrt(var) / n / math.sqrt(trials)
        if abs(got - mean) > 5 * se + 1e-9:
            problems.append(f"random AR k={k:g}: {got:.4f}% vs exact {mean:.4f}% (5 SE = {5 * se:.4f})")
    return problems


def report(metrics_path: Path, n_expected: int, mode: str) -> list[str]:
    m = json.loads(Path(metrics_path).read_text(encoding="utf-8"))
    problems = [] if m["n"] == n_expected else [f"n = {m['n']}, expected {n_expected}"]
    keys = ("aupr", "f1") if mode == "dti" else ("rmse",)
    for key in keys:
        v = m.get(key)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
            problems.append(f"{key} = {v!r}")
    return problems
