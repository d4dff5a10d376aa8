"""Evaluation metrics: AUPR (average precision), F1, PCC, RMSE, the
per-mode bundle of them, and per-confusion-category confidence summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


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


def f1(scores, labels, threshold: float = 0.5) -> float:
    """Harmonic mean of precision and recall at `threshold` (score >= threshold
    predicts positive); 0 when precision + recall is 0."""
    s, y = _scores_labels(scores, labels)
    if not np.isfinite(threshold):
        raise DataError("threshold must be finite")
    pred = s >= threshold
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


@dataclass
class CategoryStats:
    count: int
    mean_confidence: float | None
    q25: float | None
    q50: float | None
    q75: float | None


@dataclass
class ConfusionSummary:
    tp: CategoryStats
    fp: CategoryStats
    tn: CategoryStats
    fn: CategoryStats
    total: int

    def as_dict(self) -> dict:
        out = {"total": self.total}
        for name in ("tp", "fp", "tn", "fn"):
            c: CategoryStats = getattr(self, name)
            out[name] = {
                "count": c.count,
                "mean_confidence": c.mean_confidence,
                "q25": c.q25,
                "q50": c.q50,
                "q75": c.q75,
            }
        return out


def confusion_confidence(labels, probs, confidences, threshold: float = 0.5) -> ConfusionSummary:
    """Categorize at `threshold` and summarize the confidence score per
    TP/FP/TN/FN category."""
    p, y = _scores_labels(probs, labels)
    c = np.asarray(confidences, dtype=np.float64).reshape(-1)
    if c.size != y.size:
        raise DataError("confidences length mismatch")
    pred = p >= threshold

    def stats(mask) -> CategoryStats:
        vals = c[mask]
        if vals.size == 0:
            return CategoryStats(0, None, None, None, None)
        q25, q50, q75 = np.quantile(vals, [0.25, 0.5, 0.75])
        return CategoryStats(int(vals.size), float(vals.mean()), float(q25), float(q50), float(q75))

    return ConfusionSummary(
        tp=stats(pred & (y == 1)),
        fp=stats(pred & (y == 0)),
        tn=stats(~pred & (y == 0)),
        fn=stats(~pred & (y == 1)),
        total=int(y.size),
    )
