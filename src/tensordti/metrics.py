"""Evaluation metrics: AUPR (average precision), F1, PCC, RMSE, the
per-mode bundle of them, and per-confusion-category confidence summaries."""

from __future__ import annotations

import numpy as np

from .errors import DataError

# a probability at or above it predicts a positive
DECISION_THRESHOLD = 0.5


def _scores_labels(scores, labels):
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1).astype(np.int64)
    if s.shape != y.shape:
        raise DataError(f"scores ({s.size}) and labels ({y.size}) differ in length")
    if not np.all(np.isfinite(s)):
        raise DataError("scores contain non-finite values")
    if not np.all((y == 0) | (y == 1)):
        raise DataError("labels must be 0/1")
    return s, y


def aupr(scores, labels) -> float:
    """Average precision over the score-descending ranking.

    Ties are broken deterministically by input position (stable sort on
    descending score), i.e. a score-then-id sort where the id is the input
    index.
    """
    s, y = _scores_labels(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.size:
        raise DataError(f"aupr needs both classes; got {n_pos} positives of {y.size}")
    order = np.argsort(-s, kind="stable")
    ranked = y[order]
    cum_tp = np.cumsum(ranked)
    ranks = np.arange(1, y.size + 1)
    precision_at_pos = cum_tp[ranked == 1] / ranks[ranked == 1]
    return float(precision_at_pos.sum() / n_pos)


def f1(scores, labels) -> float:
    """Harmonic mean of precision and recall at DECISION_THRESHOLD; 0 when
    precision + recall is 0."""
    s, y = _scores_labels(scores, labels)
    pred = s >= DECISION_THRESHOLD
    tp = int(np.sum(pred & (y == 1)))
    fp = int(np.sum(pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def _pair(x, y):
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    b = np.asarray(y, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise DataError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise DataError("need at least 2 points")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DataError("values contain non-finite entries")
    return a, b


def pcc(x, y) -> float:
    a, b = _pair(x, y)
    da = a - a.mean()
    db = b - b.mean()
    sa = float(np.sqrt((da * da).sum()))
    sb = float(np.sqrt((db * db).sum()))
    if sa == 0.0 or sb == 0.0:
        raise DataError("pcc undefined: zero variance in an argument")
    return float((da * db).sum() / (sa * sb))


def rmse(x, y) -> float:
    a, b = _pair(x, y)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def metric_bundle(classification: bool, predicted, truth) -> dict:
    """A mode's reported metrics: AUPR and F1 of probabilities against 0/1
    labels, or RMSE and PCC of predicted against true affinities (an
    undefined PCC is None, with the reason in `pcc_error`)."""
    if classification:
        return {"aupr": aupr(predicted, truth), "f1": f1(predicted, truth)}
    out = {"rmse": rmse(predicted, truth)}
    try:
        out["pcc"] = pcc(predicted, truth)
    except DataError as exc:
        out["pcc"] = None
        out["pcc_error"] = str(exc)
    return out


def confusion_confidence(labels, probs, confidences) -> dict:
    """Categorize at DECISION_THRESHOLD and summarize the confidence score per
    TP/FP/TN/FN category: {"total", "tp", "fp", "tn", "fn"}, each category
    with its count, mean confidence and quartiles (None when empty)."""
    p, y = _scores_labels(probs, labels)
    c = np.asarray(confidences, dtype=np.float64).reshape(-1)
    if c.size != y.size:
        raise DataError("confidences length mismatch")
    pred = p >= DECISION_THRESHOLD

    def stats(mask) -> dict:
        vals = c[mask]
        if vals.size == 0:
            return {"count": 0, "mean_confidence": None, "q25": None, "q50": None, "q75": None}
        q25, q50, q75 = np.quantile(vals, [0.25, 0.5, 0.75])
        return {
            "count": int(vals.size),
            "mean_confidence": float(vals.mean()),
            "q25": float(q25),
            "q50": float(q50),
            "q75": float(q75),
        }

    return {
        "total": int(y.size),
        "tp": stats(pred & (y == 1)),
        "fp": stats(pred & (y == 0)),
        "tn": stats(~pred & (y == 0)),
        "fn": stats(~pred & (y == 1)),
    }
