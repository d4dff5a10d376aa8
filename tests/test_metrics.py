import itertools
import math

import numpy as np
import pytest

from tensordti.errors import DataError
from tensordti.metrics import aupr, confusion_confidence, f1, metric_bundle, pcc, rmse


# -- brute-force oracles (kept independent of the implementations under test) --


def ap_oracle(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranked = [labels[i] for i in order]
    n_pos = sum(ranked)
    total = 0.0
    tp = 0
    for rank, lab in enumerate(ranked, 1):
        if lab == 1:
            tp += 1
            total += tp / rank
    return total / n_pos


def f1_oracle(scores, labels, threshold=0.5):
    tp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 1)
    fp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 0)
    fn = sum(1 for s, y in zip(scores, labels) if s < threshold and y == 1)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def pcc_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.sqrt(sum((a - mx) ** 2 for a in x))
    sy = math.sqrt(sum((b - my) ** 2 for b in y))
    return cov / (sx * sy)


def rmse_oracle(x, y):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)) / len(x))


# -- aupr ------------------------------------------------------------------------


def test_aupr_all_positives_first():
    assert aupr([0.9, 0.8, 0.7], [1, 1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_aupr_interleaved_case():
    assert aupr([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-9)


def test_aupr_random_scores_near_positive_rate():
    rng = np.random.default_rng(0)
    n = 10_000
    for rho in (0.2, 0.5):
        labels = (rng.random(n) < rho).astype(int)
        scores = rng.random(n)
        assert aupr(scores, labels) == pytest.approx(rho, abs=0.03)


def test_aupr_single_class_errors():
    with pytest.raises(DataError):
        aupr([0.5, 0.6], [1, 1])
    with pytest.raises(DataError):
        aupr([0.5, 0.6], [0, 0])


def test_aupr_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    scores = rng.random(50)
    labels = rng.integers(0, 2, 50)
    if labels.sum() in (0, 50):
        labels[0] = 1 - labels[0]
    base = aupr(scores, labels)
    assert aupr(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
    assert aupr(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)


def test_aupr_tie_handling_matches_oracle():
    scores = [0.5, 0.5, 0.5, 0.2]
    labels = [1, 0, 1, 0]
    assert aupr(scores, labels) == pytest.approx(ap_oracle(scores, labels), abs=1e-12)


def test_aupr_perfect_leq_one_property():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(3, 30))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        value = aupr(rng.random(n), labels)
        assert 0.0 < value <= 1.0


# -- f1 ----------------------------------------------------------------------------


def test_f1_perfect():
    assert f1([0.9, 0.1], [1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_f1_all_predicted_negative():
    assert f1([0.1, 0.2], [1, 0]) == pytest.approx(0.0, abs=1e-12)


def test_f1_arithmetic_case():
    # TP=2, FP=1, FN=1 -> 2/3
    scores = [0.9, 0.8, 0.7, 0.1]
    labels = [1, 1, 0, 1]
    assert f1(scores, labels) == pytest.approx(2.0 / 3.0, abs=1e-12)


# -- exhaustive small-input oracle comparisons ----------------------------------------


def test_metrics_match_oracles_exhaustively_small():
    """All labeled inputs of size <= 6 against brute force."""
    score_menu = [0.1, 0.4, 0.5, 0.9]
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        for labels in itertools.product([0, 1], repeat=n):
            if sum(labels) in (0, n):
                continue
            scores = rng.choice(score_menu, size=n).tolist()
            assert aupr(scores, labels) == pytest.approx(ap_oracle(scores, labels), abs=1e-9)
            assert f1(scores, labels) == pytest.approx(f1_oracle(scores, labels), abs=1e-9)


def test_pcc_rmse_match_oracles_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.standard_normal(100).tolist()
        y = (0.5 * np.asarray(x) + rng.standard_normal(100)).tolist()
        assert pcc(x, y) == pytest.approx(pcc_oracle(x, y), abs=1e-9)
        assert rmse(x, y) == pytest.approx(rmse_oracle(x, y), abs=1e-9)


def test_aupr_f1_match_oracles_random_100():
    rng = np.random.default_rng(5)
    for _ in range(100):
        labels = rng.integers(0, 2, 100)
        if labels.sum() in (0, 100):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(100), 2)  # force some ties
        assert aupr(scores, labels) == pytest.approx(ap_oracle(scores.tolist(), labels.tolist()), abs=1e-9)
        assert f1(scores, labels) == pytest.approx(f1_oracle(scores.tolist(), labels.tolist()), abs=1e-9)


# -- pcc / rmse -----------------------------------------------------------------------


def test_pcc_affine_relation():
    x = [0.0, 1.0, 2.0, 3.0]
    assert pcc(x, [2 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)
    assert pcc(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_pcc_zero_variance_errors_rmse_still_works():
    x = [0.0, 0.0]
    y = [1.0, 1.0]
    assert rmse(x, y) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DataError):
        pcc(x, y)


def test_pcc_positive_affine_invariance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    base = pcc(x, y)
    assert pcc(2.5 * x + 3, y) == pytest.approx(base, abs=1e-12)
    assert pcc(x, 0.1 * y - 9) == pytest.approx(base, abs=1e-12)


def test_rmse_translation_covariance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(25)
    y = rng.standard_normal(25)
    assert rmse(x + 4.2, y + 4.2) == pytest.approx(rmse(x, y), abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("metric", [pcc, rmse])
def test_pcc_rmse_reject_non_finite_values(metric, bad):
    """A missing prediction read as nan must not come out as a nan metric."""
    with pytest.raises(DataError, match="non-finite"):
        metric([1.0, bad, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="non-finite"):
        metric([1.0, 2.0, 3.0], [1.0, bad, 3.0])


def test_metric_bundle_per_mode():
    assert metric_bundle(True, [0.9, 0.2, 0.7, 0.4], [1, 0, 1, 0]) == {"aupr": 1.0, "f1": 1.0}
    x, y = [1.0, 2.0, 4.0], [1.0, 2.0, 3.0]
    assert metric_bundle(False, x, y) == {"rmse": rmse(x, y), "pcc": pcc(x, y)}
    assert metric_bundle(False, [2.0, 2.0], [1.0, 3.0]) == {
        "rmse": 1.0,
        "pcc": None,
        "pcc_error": "pcc undefined: zero variance in an argument",
    }


# -- confusion / confidence summary ------------------------------------------------------


def test_confusion_all_correct_no_false_categories():
    summary = confusion_confidence([1, 0, 1], [0.9, 0.1, 0.8], [0.1, 0.2, 0.3])
    assert summary["fp"]["count"] == 0 and summary["fn"]["count"] == 0
    assert summary["tp"]["count"] == 2 and summary["tn"]["count"] == 1


def test_confusion_counts_sum_to_total():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 2, 200)
    probs = rng.random(200)
    confs = rng.random(200)
    s = confusion_confidence(labels, probs, confs)
    assert sum(s[c]["count"] for c in ("tp", "fp", "tn", "fn")) == s["total"] == 200


def test_confusion_summary_statistics():
    s = confusion_confidence([1, 1], [0.9, 0.8], [0.2, 0.4])
    assert s["tp"]["mean_confidence"] == pytest.approx(0.3, abs=1e-12)
    assert s["tp"]["q50"] == pytest.approx(0.3, abs=1e-12)
    assert s["fn"] == {"count": 0, "mean_confidence": None, "q25": None, "q50": None, "q75": None}
    assert list(s) == ["total", "tp", "fp", "tn", "fn"] and s["tp"]["count"] == 2
