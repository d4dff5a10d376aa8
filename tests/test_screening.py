import itertools
import math
import re

import numpy as np
import pytest

from tensordti.embeddings import load_interactions
from tensordti.errors import DataError, FormatError, MissingColumnError, UsageError
from tensordti.screening import (
    ActiveSet,
    ceil_count,
    ef_at_k,
    enrichment_report,
    enrichment_tsv,
    filter_unfamiliar,
    kpct_actives_budget,
    load_actives,
    load_predictions,
    load_scores,
    random_budget,
    rank,
    recall_at_k,
    take,
    topk_potency_budget,
)


def actives(ids, potency=None):
    return ActiveSet(ids=frozenset(ids), potency=potency)


def table(ids, **columns):
    """A score table of `ids`; a column not given is None on every row."""
    empty = {c: [None] * len(ids) for c in ("score", "label", "confidence", "unfamiliarity")}
    return {"compound_id": list(ids), **empty, **columns}


# -- brute-force oracles -------------------------------------------------------


def budget_oracle(ranked_ids, active_ids, k_percent):
    need = ceil_count(k_percent * len(active_ids) / 100.0)
    need = max(1, need)
    found = 0
    for pos, cid in enumerate(ranked_ids, 1):
        if cid in active_ids:
            found += 1
            if found >= need:
                return 100.0 * pos / len(ranked_ids)
    raise AssertionError("unreachable for valid inputs")


def topk_budget_oracle(ranked_ids, active_ids, potency, k_percent):
    m = max(1, ceil_count(k_percent * len(active_ids) / 100.0))
    chosen = sorted(active_ids, key=lambda c: (-potency[c], c))[:m]
    return 100.0 * max(ranked_ids.index(c) + 1 for c in chosen) / len(ranked_ids)


def recall_oracle(ranked_ids, active_ids, k):
    return sum(1 for c in ranked_ids[:k] if c in active_ids) / len(active_ids)


def mc_budget_oracle(n, a, t, trials, seed):
    """Monte-Carlo mean and SD, in percent of N, of the budget a uniformly
    random ranking needs to recover t of a actives."""
    rng = np.random.default_rng(seed)
    budgets = np.empty(trials)
    for i in range(trials):
        positions = rng.permutation(n)[:a] + 1
        budgets[i] = 100.0 * np.partition(positions, t - 1)[t - 1] / n
    return float(budgets.mean()), float(budgets.std())


# -- ceil_count ------------------------------------------------------------------


def test_ceil_count_forgives_float_noise():
    assert ceil_count(0.2 * 375) == 75  # 75.00000000000001 in floats
    assert ceil_count(0.01 * 796) == 8
    assert ceil_count(7.2) == 8
    assert ceil_count(398.0) == 398


# -- ranking ----------------------------------------------------------------------


def test_two_key_rank_example():
    scores = table(["a", "b", "c"], score=[0.0] * 3, label=[1, 1, 0], confidence=[0.2, 0.1, 0.05])
    assert rank(scores, "two_key") == ["b", "a", "c"]


def test_docking_rank_most_negative_first():
    assert rank(table(["x", "y", "z"], score=[-9.1, -7.0, -8.2]), "docking") == ["x", "z", "y"]


def test_rank_ties_break_by_id():
    scores = table(["c", "a", "b"], score=[1.0] * 3, label=[1] * 3, confidence=[0.5] * 3)
    assert rank(scores, "docking") == ["a", "b", "c"]
    assert rank(scores, "two_key") == ["a", "b", "c"]


def test_two_key_missing_confidence_errors():
    with pytest.raises(MissingColumnError):
        rank(table(["a"], score=[0.0], label=[1]), "two_key")


@pytest.mark.parametrize(
    "criterion, column, message",
    [
        ("docking", "score", "docking needs a score for 'b'"),
        ("two_key", "label", "two_key ranking needs a label for 'b'"),
        ("two_key", "confidence", "two_key ranking needs a confidence for 'b'"),
    ],
)
def test_rank_names_the_first_id_missing_a_value(criterion, column, message):
    full = {"score": [1.0, 2.0, 3.0], "label": [1, 0, 1], "confidence": [0.1, 0.2, 0.3]}
    full[column] = [1 if column == "label" else 0.5, None, None]
    with pytest.raises(MissingColumnError, match=f"^{re.escape(message)}$"):
        rank(table(["a", "b", "c"], **full), criterion)


def test_take_keeps_the_order_it_is_given():
    scores = table(["a", "b", "c"], score=[1.0, 2.0, 3.0])
    assert take(scores, [2, 0]) == table(["c", "a"], score=[3.0, 1.0])
    assert take(scores, []) == table([])


def test_rank_argrank_invariance():
    """Any strictly monotone transform of scores leaves the ranking, recall,
    EF and budgets unchanged."""
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(30)
    ids = [f"c{i:02d}" for i in range(len(scores))]
    base = rank(table(ids, score=scores.tolist()), "docking")
    transformed = table(ids, score=[float(np.exp(0.5 * s) * 3 + 1) for s in scores])
    assert rank(transformed, "docking") == base
    act = actives(base[2:9:3])
    for k in (1.0, 20.0, 50.0, 100.0):
        assert kpct_actives_budget(rank(transformed, "docking"), act, k) == kpct_actives_budget(base, act, k)


# -- recall / EF ------------------------------------------------------------------------


def test_recall_and_ef_toy_case():
    ranked = list([f"c{i}" for i in range(1, 11)])
    act = actives({"c1", "c6"})
    assert recall_at_k(ranked, act, 5) == pytest.approx(0.5)
    assert ef_at_k(ranked, act, 5) == pytest.approx(1.0)


def test_perfect_ranking_max_enrichment():
    ranked = list(["a", "b"] + [f"d{i}" for i in range(8)])
    act = actives({"a", "b"})
    assert recall_at_k(ranked, act, 2) == pytest.approx(1.0)
    assert ef_at_k(ranked, act, 2) == pytest.approx(10 / 2)


def test_k_equals_n():
    ranked = list([f"c{i}" for i in range(10)])
    act = actives({"c3", "c7", "c9"})
    assert recall_at_k(ranked, act, 10) == pytest.approx(1.0)
    assert ef_at_k(ranked, act, 10) == pytest.approx(1.0)


def test_ef_identity_on_random_rankings():
    rng = np.random.default_rng(1)
    for trial in range(1000):
        n = int(rng.integers(2, 30))
        ids = [f"c{i:02d}" for i in range(n)]
        ranked = list(rng.permutation(ids).tolist())
        a = int(rng.integers(1, n + 1))
        act = actives(set(rng.choice(ids, size=a, replace=False).tolist()))
        k = int(rng.integers(1, n + 1))
        r = recall_at_k(ranked, act, k)
        assert ef_at_k(ranked, act, k) == r * n / k  # exact identity


# -- budgets -----------------------------------------------------------------------------


def test_budget_toy_case():
    ranked = list([f"c{i}" for i in range(1, 11)])
    act = actives({"c1", "c6"})
    assert kpct_actives_budget(ranked, act, 50) == pytest.approx(10.0)
    assert kpct_actives_budget(ranked, act, 100) == pytest.approx(60.0)


def test_budget_all_actives_at_top_closed_form():
    n, a = 20, 4
    ranked = list([f"a{i}" for i in range(a)] + [f"d{i}" for i in range(n - a)])
    act = actives({f"a{i}" for i in range(a)})
    for k in (10, 25, 50, 75, 100):
        expected = 100.0 * max(1, ceil_count(k * a / 100)) / n
        assert kpct_actives_budget(ranked, act, k) == pytest.approx(expected)


def test_budget_monotone_in_k():
    rng = np.random.default_rng(2)
    ids = [f"c{i:02d}" for i in range(40)]
    ranked = list(rng.permutation(ids).tolist())
    act = actives(set(rng.choice(ids, 11, replace=False).tolist()))
    budgets = [kpct_actives_budget(ranked, act, k) for k in np.linspace(1, 100, 33)]
    assert all(b1 <= b2 + 1e-12 for b1, b2 in zip(budgets, budgets[1:]))


def test_budget_unreachable_actives_error():
    ranked = list(["c1", "c2"])
    act = actives({"c1", "zz"})
    with pytest.raises(DataError):
        kpct_actives_budget(ranked, act, 100)


def test_budgets_match_oracle_all_permutations_n8():
    """Exhaustive check on every permutation of an 8-compound library."""
    ids = list("abcdefgh")
    act_ids = {"b", "e", "g"}
    act = actives(act_ids, potency={"b": 3.0, "e": 1.0, "g": 2.0})
    for perm in itertools.permutations(ids):
        ranked = list(perm)
        for k in (25.0, 66.7, 100.0):
            assert kpct_actives_budget(ranked, act, k) == pytest.approx(
                budget_oracle(list(perm), act_ids, k), abs=1e-12
            )
            assert topk_potency_budget(ranked, act, k) == pytest.approx(
                topk_budget_oracle(list(perm), act_ids, act.potency, k), abs=1e-12
            )


def test_budgets_match_oracle_random_libraries_up_to_12():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(9, 13))
        ids = [f"c{i:02d}" for i in range(n)]
        ranked = list(rng.permutation(ids).tolist())
        a = int(rng.integers(1, n))
        chosen = rng.choice(ids, a, replace=False).tolist()
        pot = {c: float(rng.standard_normal()) for c in chosen}
        act = actives(set(chosen), potency=pot)
        k = float(rng.uniform(1, 100))
        assert kpct_actives_budget(ranked, act, k) == pytest.approx(
            budget_oracle(ranked, act.ids, k), abs=1e-12
        )
        assert topk_potency_budget(ranked, act, k) == pytest.approx(
            topk_budget_oracle(ranked, act.ids, pot, k), abs=1e-12
        )
        kc = int(rng.integers(1, n + 1))
        assert recall_at_k(ranked, act, kc) == pytest.approx(recall_oracle(ranked, act.ids, kc), abs=1e-12)


def test_topk_single_most_potent_active():
    ranked = list([f"c{i}" for i in range(1, 11)])
    act = actives({"c3", "c8"}, potency={"c3": 9.0, "c8": 5.0})
    # k=50% of 2 actives -> top-1 subset {c3} at rank 3
    assert topk_potency_budget(ranked, act, 50) == pytest.approx(30.0)


def test_topk_toy_from_tables():
    # N=10, actives a@rank2 (pIC50 8), b@rank7 (pIC50 6); k=50% -> {a} -> 20%
    ids = ["x1", "a", "x2", "x3", "x4", "x5", "b", "x6", "x7", "x8"]
    act = actives({"a", "b"}, potency={"a": 8.0, "b": 6.0})
    assert topk_potency_budget(list(ids), act, 50) == pytest.approx(20.0)


def test_topk_full_set_equals_kpct_at_100():
    rng = np.random.default_rng(4)
    ids = [f"c{i:02d}" for i in range(15)]
    ranked = list(rng.permutation(ids).tolist())
    chosen = rng.choice(ids, 5, replace=False).tolist()
    act = actives(set(chosen), potency={c: float(i) for i, c in enumerate(chosen)})
    assert topk_potency_budget(ranked, act, 100) == pytest.approx(kpct_actives_budget(ranked, act, 100))


def test_topk_missing_potency_errors():
    act = actives({"a"})
    with pytest.raises(MissingColumnError):
        topk_potency_budget(list(["a", "b"]), act, 100)


def test_topk_hit_fraction_alternative_semantics():
    # the fraction of actives inside the top k% slice is recall at ceil(k% of N)
    ranked = list([f"c{i}" for i in range(1, 11)])
    act = actives({"c1", "c6"})
    assert recall_at_k(ranked, act, 5) == pytest.approx(0.5)
    assert recall_at_k(ranked, act, 10) == pytest.approx(1.0)


# -- random baselines ------------------------------------------------------------------------


def test_random_baseline_full_recall_band():
    mean, sd = random_budget(n=200, a=10, t=10)
    assert 90.0 < mean <= 100.0
    assert sd >= 0.0


def test_random_baseline_everything_active():
    mean, sd = random_budget(n=10, a=10, t=3)
    # budget is deterministic: ceil(25% of 10) = 3 -> 30%
    assert mean == pytest.approx(30.0, abs=1e-12)
    assert sd == 0.0


def test_random_baseline_matches_order_statistic_expectation():
    n, a, k = 500, 50, 20.0
    target = ceil_count(k * a / 100)
    mc_mean, _ = mc_budget_oracle(n, a, target, trials=3000, seed=2)
    mean, _ = random_budget(n, a, target)
    assert mean == pytest.approx(mc_mean, abs=0.5)


@pytest.mark.parametrize(
    "n, a, t",
    [
        (1000, 20, 1),  # t = 1
        (1000, 20, 4),  # 20% of A
        (1000, 20, 20),  # t = a
        (500, 1, 1),  # a = 1
        (40, 40, 13),  # a = N
        (2450, 8, 8),  # top-potency: t = a = m, ceil(1% of 796) = 8
    ],
)
def test_random_budget_matches_monte_carlo_oracle(n, a, t):
    trials = 20_000
    mc_mean, mc_sd = mc_budget_oracle(n, a, t, trials, seed=n + a + t)
    mean, sd = random_budget(n, a, t)
    assert abs(mean - mc_mean) <= 5 * mc_sd / math.sqrt(trials) + 1e-9
    assert sd == pytest.approx(mc_sd, rel=0.03, abs=1e-12)


def test_random_budget_everything_active_is_exact():
    for n, t in ((1, 1), (7, 3), (40, 13), (2450, 796)):
        assert random_budget(n, n, t) == (100 * t / n, 0.0)


@pytest.mark.parametrize("n, a, t", [(10, 5, 0), (10, 5, 6), (10, 11, 1), (10, 0, 0)])
def test_random_budget_rejects_out_of_range(n, a, t):
    with pytest.raises(UsageError):
        random_budget(n, a, t)


# -- unfamiliarity filter ----------------------------------------------------------------------


def table_with_unf(values, labels=None, scores=None):
    ids = [f"c{i}" for i in range(len(values))]
    labels = labels or [None] * len(values)
    scores = scores or [1.0] * len(values)
    return table(ids, score=scores, label=labels, unfamiliarity=[float(u) for u in values])


def test_filter_all_zero_is_identity():
    scores = table_with_unf([0.0, 0.0, 0.0])
    kept, _ = filter_unfamiliar(scores, 1.0)
    assert kept == scores


def test_filter_boundary_is_strict():
    kept, _ = filter_unfamiliar(table_with_unf([0.5, 1.0, 1.5]), 1.0)
    assert kept["compound_id"] == ["c0"]


def test_filter_idempotent():
    once, _ = filter_unfamiliar(table_with_unf(np.linspace(0, 2, 9).tolist()), 1.0)
    twice, _ = filter_unfamiliar(once, 1.0)
    assert once == twice


def test_filter_census_schema():
    scores = table_with_unf([0.5, 1.2, 0.1, 0.9], labels=[1, 1, 0, None], scores=[1.0, None, 2.0, 3.0])
    _, census = filter_unfamiliar(scores, 1.0)
    assert {c["population"] for c in census} == {"predicted_positive", "predicted_negative", "all"}
    for c in census:
        assert set(c) == {"population", "total", "docked", "unfamiliar_below"}
    pos = next(c for c in census if c["population"] == "predicted_positive")
    assert pos["total"] == 2 and pos["docked"] == 1 and pos["unfamiliar_below"] == 1


def test_filter_requires_unfamiliarity():
    with pytest.raises(MissingColumnError):
        filter_unfamiliar(table(["a"], score=[1.0]), 1.0)


def test_filter_names_the_first_id_missing_an_unfamiliarity():
    scores = table(["a", "b", "c"], score=[1.0] * 3, unfamiliarity=[0.5, None, None])
    with pytest.raises(MissingColumnError, match="^unfamiliarity missing for 'b'$"):
        filter_unfamiliar(scores, 1.0)


# -- enrichment report ----------------------------------------------------------------------------


def test_enrichment_report_toy_verified_cell_by_cell():
    ids = [f"c{i}" for i in range(10)]
    act_ids = {"c0", "c5"}
    pot = {"c0": 7.5, "c5": 6.0}
    act = actives(act_ids, potency=pot)
    rankings = {
        "good": list(ids),
        "bad": list(ids[::-1]),
    }
    report = enrichment_report(rankings, act, k_grid=(50.0, 100.0))
    for method, ranked in rankings.items():
        for k in (50.0, 100.0):
            assert report["ar_budget"][method][str(k)] == pytest.approx(budget_oracle(ranked, act_ids, k))
            assert report["topk_budget"][method][str(k)] == pytest.approx(
                topk_budget_oracle(ranked, act_ids, pot, k)
            )
            cutoff = max(1, ceil_count(k * 10 / 100))
            assert report["recall"][method][str(k)] == pytest.approx(recall_oracle(ranked, act_ids, cutoff))
            assert report["ef"][method][str(k)] == pytest.approx(report["recall"][method][str(k)] * 10 / cutoff)
    for k, t in (("50.0", 1), ("100.0", 2)):
        assert (report["ar_budget"]["random"][k], report["random_sd"]["ar_budget"][k]) == random_budget(10, 2, t)
        assert (report["topk_budget"]["random"][k], report["random_sd"]["topk_budget"][k]) == random_budget(10, t, t)
    assert report["k_grid"] == [50.0, 100.0]
    assert report["n_library"] == 10 and report["n_actives"] == 2
    # the random column comes last in the budget tables
    assert list(report["ar_budget"]) == list(report["topk_budget"]) == ["good", "bad", "random"]
    assert "kpct_actives_budget" in enrichment_tsv(report)


def test_enrichment_random_method_within_ci_of_baseline():
    rng = np.random.default_rng(7)
    ids = [f"c{i:03d}" for i in range(120)]
    act = actives(set(rng.choice(ids, 30, replace=False).tolist()))
    budgets = []
    for trial in range(60):
        ranked = list(rng.permutation(ids).tolist())
        budgets.append(kpct_actives_budget(ranked, act, 50.0))
    mean_b, _ = random_budget(120, 30, ceil_count(50.0 * 30 / 100))
    se = np.std(budgets) / math.sqrt(len(budgets))
    assert abs(np.mean(budgets) - mean_b) < 4 * se + 0.5


def test_enrichment_report_default_grid():
    from tensordti.screening import DEFAULT_K_GRID

    assert DEFAULT_K_GRID == (1.0, 5.0, 20.0, 50.0, 100.0)


def test_enrichment_report_mismatched_sizes_rejected():
    with pytest.raises(DataError, match="differ"):
        enrichment_report({"a": list(["x", "y"]), "b": list(["x"])}, actives({"x"}))


def test_enrichment_report_requires_actives_in_library():
    with pytest.raises(DataError, match="missing"):
        enrichment_report({"a": list(["x", "y"])}, actives({"z"}))


# -- file I/O ------------------------------------------------------------------------------------


def test_load_scores_and_actives(tmp_path):
    scores = tmp_path / "scores.tsv"
    scores.write_text(
        "compound_id\tmethod\tscore\tlabel\tconfidence\tunfamiliarity\tpotency\n"
        "c1\tglide\t-9.1\t\t\t\t\n"
        "c2\tglide\t-8.0\t1\t0.2\t0.5\t7.5\n"
    )
    loaded = load_scores(scores)
    assert loaded["score"][0] == -9.1 and loaded["label"][0] is None
    assert loaded["potency"][1] == 7.5

    acts = tmp_path / "actives.tsv"
    acts.write_text("compound_id\tpotency\nc2\t7.5\n")
    act = load_actives(acts)
    assert act.ids == frozenset({"c2"})
    assert act.potency == {"c2": 7.5}


def test_load_actives_refuses_a_repeated_compound_id(tmp_path):
    path = tmp_path / "actives.tsv"
    path.write_text("compound_id\tpotency\nc1\t7.5\nc1\t2.0\nc2\t3\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: repeated compound_id 'c1'")):
        load_actives(path)


def test_load_scores_missing_required_column(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("compound_id\tscore\nc1\t1.0\n")
    with pytest.raises(MissingColumnError):
        load_scores(bad)


INTERACTIONS_HEAD = "drug_id\ttarget_id\tpocket_id\tlabel\taffinity\tsplit\nD0\tT0\t\t1\t6.5\t\n"

def test_load_scores_refuses_a_repeated_column(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("compound_id\tmethod\tscore\tscore\nc1\tglide\t-9.1\t-3\n")
    with pytest.raises(FormatError, match="repeated column"):
        load_scores(path)


NUMERIC_FIELD_CASES = {
    "predictions.prob": (
        load_predictions,
        "drug_id\ttarget_id\tlogit\tprob\tpred_label\taffinity_pred\tconfidence\tunfamiliarity\n"
        "D0\tT0\t1.5\t0.8\t1\t\t0.1\t0.2\n"
        "D1\tT0\t1.5\tabc\t1\t\t0.1\t0.2\n",
        "prob 'abc'",
    ),
    "scores.score": (
        load_scores,
        "compound_id\tmethod\tscore\nc1\tglide\t-9.1\nc2\tglide\tx\n",
        "score 'x'",
    ),
    "scores.label": (
        load_scores,
        "compound_id\tmethod\tscore\tlabel\nc1\tglide\t-9.1\t0\nc2\tglide\t-8.0\tyes\n",
        "label 'yes'",
    ),
    "actives.potency": (load_actives, "compound_id\tpotency\nc1\t7.5\nc2\tabc\n", "potency 'abc'"),
    "interactions.label": (load_interactions, INTERACTIONS_HEAD + "D1\tT0\t\tyes\t\t\n", "label 'yes'"),
    "interactions.affinity": (load_interactions, INTERACTIONS_HEAD + "D1\tT0\t\t\t7.x\t\n", "affinity '7.x'"),
    "interactions.label_nan": (load_interactions, INTERACTIONS_HEAD + "D1\tT0\t\tnan\t\t\n", "label 'nan'"),
}


@pytest.mark.parametrize("case", sorted(NUMERIC_FIELD_CASES))
def test_tsv_readers_reject_non_numeric_field_with_path_and_line(tmp_path, case):
    reader, text, field = NUMERIC_FIELD_CASES[case]
    path = tmp_path / "input.tsv"
    path.write_text(text)
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: {field}")):
        reader(path)


NON_FINITE_FIELD_CASES = {
    "predictions.logit": (
        load_predictions,
        "drug_id\ttarget_id\tlogit\tprob\tpred_label\taffinity_pred\tconfidence\tunfamiliarity\n"
        "D0\tT0\t1.5\t0.8\t1\t\t0.1\t0.2\n"
        "D1\tT0\tnan\t0.8\t1\t\t0.1\t0.2\n",
        "logit 'nan'",
    ),
    "scores.score_nan": (load_scores, "compound_id\tmethod\tscore\nc1\tglide\t-9.1\nc2\tglide\tnan\n", "score 'nan'"),
    "scores.score_inf": (load_scores, "compound_id\tmethod\tscore\nc1\tglide\t-9.1\nc2\tglide\tinf\n", "score 'inf'"),
    "scores.score_minus_inf": (
        load_scores, "compound_id\tmethod\tscore\nc1\tglide\t-9.1\nc2\tglide\t-inf\n", "score '-inf'"
    ),
    "actives.potency": (load_actives, "compound_id\tpotency\nc1\t7.5\nc2\tnan\n", "potency 'nan'"),
    "interactions.affinity_nan": (load_interactions, INTERACTIONS_HEAD + "D1\tT0\t\t\tnan\t\n", "affinity 'nan'"),
    "interactions.affinity_inf": (load_interactions, INTERACTIONS_HEAD + "D1\tT0\t\t\tinf\t\n", "affinity 'inf'"),
    "interactions.affinity_minus_inf": (
        load_interactions, INTERACTIONS_HEAD + "D1\tT0\t\t\t-inf\t\n", "affinity '-inf'"
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_FIELD_CASES))
def test_tsv_readers_reject_non_finite_field_with_path_and_line(tmp_path, case):
    reader, text, field = NON_FINITE_FIELD_CASES[case]
    path = tmp_path / "input.tsv"
    path.write_text(text)
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: {field} is not finite")):
        reader(path)


def test_invalid_k_rejected():
    ranked = list(["a", "b"])
    act = actives({"a"})
    with pytest.raises(UsageError):
        kpct_actives_budget(ranked, act, 0)
    with pytest.raises(UsageError):
        recall_at_k(ranked, act, 0)
    with pytest.raises(UsageError):
        recall_at_k(ranked, act, 3)
