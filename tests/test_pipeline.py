import dataclasses

import numpy as np
import pytest

from tensordti.embeddings import InteractionRecord
from tensordti.errors import ConfigError, DataError
from tensordti.pipeline import SplitSpec, balance_train, split


def rec(d, t, label=None, affinity=None, split="unassigned", pocket=None):
    return InteractionRecord(d, t, pocket_id=pocket, label=label, affinity=affinity, split=split)


def grid(n_drugs, n_targets, label_fn=lambda i, j: (i + j) % 2, split_tag="unassigned"):
    return [
        rec(f"D{i}", f"T{j}", label=label_fn(i, j), split=split_tag)
        for i in range(n_drugs)
        for j in range(n_targets)
    ]


# -- split ----------------------------------------------------------------------


def test_random_split_exact_sizes():
    records = grid(10, 10)
    tagged = split(records, SplitSpec(strategy="random", seed=0))
    sizes = {s: sum(1 for r in tagged if r.split == s) for s in ("train", "valid", "test")}
    assert sizes == {"train": 70, "valid": 10, "test": 20}


def test_unseen_drug_split_no_leakage():
    records = grid(20, 8)
    tagged = split(records, SplitSpec(strategy="unseen_drug", seed=1))
    train_drugs = {r.drug_id for r in tagged if r.split == "train"}
    valid_drugs = {r.drug_id for r in tagged if r.split == "valid"}
    test_drugs = {r.drug_id for r in tagged if r.split == "test"}
    assert not train_drugs & test_drugs
    assert not valid_drugs & test_drugs
    assert not train_drugs & valid_drugs


def test_unseen_target_split_no_leakage():
    records = grid(8, 20)
    tagged = split(records, SplitSpec(strategy="unseen_target", seed=2))
    train_targets = {r.target_id for r in tagged if r.split == "train"}
    test_targets = {r.target_id for r in tagged if r.split == "test"}
    assert not train_targets & test_targets


def test_no_pair_in_two_splits():
    records = grid(12, 12)
    tagged = split(records, SplitSpec(strategy="random", seed=3))
    seen = {}
    for r in tagged:
        key = (r.drug_id, r.target_id)
        assert key not in seen
        seen[key] = r.split


def test_split_deterministic():
    records = grid(10, 10)
    a = split(records, SplitSpec(seed=4))
    b = split(records, SplitSpec(seed=4))
    assert a == b


def test_split_empty_partition_errors():
    records = grid(2, 1)
    with pytest.raises(DataError, match="empty"):
        split(records, SplitSpec(strategy="random", fractions=(0.5, 0.25, 0.25), seed=0))


def test_split_rejects_pretagged_unless_external():
    records = grid(4, 4, split_tag="train")
    with pytest.raises(DataError):
        split(records, SplitSpec(strategy="random"))
    assert split(records, SplitSpec(strategy="external_tag")) == records


def test_external_tag_requires_tags():
    records = grid(4, 4)
    with pytest.raises(DataError):
        split(records, SplitSpec(strategy="external_tag"))


def test_fraction_validation():
    with pytest.raises(ConfigError):
        SplitSpec(fractions=(0.5, 0.5, 0.5))
    with pytest.raises(ConfigError):
        SplitSpec(fractions=(0.7, 0.3, 0.0))
    with pytest.raises(ConfigError):  # nan passed both checks, then split crashed in floor()
        SplitSpec(fractions=(float("nan"),) * 3)


def test_unseen_target_defeats_memorization():
    """A pair-memorization scorer collapses to chance on unseen targets while
    the planted-factor scorer stays near-perfect."""
    from tensordti.metrics import aupr
    from tensordti.synthetic import SyntheticConfig, gen_synthetic

    data = gen_synthetic(SyntheticConfig(n_drugs=60, n_targets=30, noise=0.0, seed=5))
    tagged = split(data.interactions, SplitSpec(strategy="unseen_target", seed=5))
    train = [r for r in tagged if r.split == "train"]
    test = [r for r in tagged if r.split == "test"]
    memory = {(r.drug_id, r.target_id): r.label for r in train}
    memo_scores = [memory.get((r.drug_id, r.target_id), 0.5) for r in test]
    di = {d: i for i, d in enumerate(data.drug_ids)}
    ti = {t: j for j, t in enumerate(data.target_ids)}
    factor_scores = [
        float(data.drug_factors[:, di[r.drug_id]] @ data.target_factors[:, ti[r.target_id]]) for r in test
    ]
    labels = [r.label for r in test]
    rate = np.mean(labels)
    memo_aupr = aupr(memo_scores, labels)
    factor_aupr = aupr(factor_scores, labels)
    assert abs(memo_aupr - rate) < 0.1  # chance level
    assert factor_aupr > 0.99


# -- balance_train ----------------------------------------------------------------


def test_balance_train_subsamples_majority_only_in_train():
    records = (
        [rec(f"D{i}", "T0", label=1, split="train") for i in range(100)]
        + [rec(f"D{i}", "T1", label=0, split="train") for i in range(300)]
        + [rec(f"D{i}", "T2", label=0, split="test") for i in range(50)]
    )
    balanced = balance_train(records, seed=0)
    train = [r for r in balanced if r.split == "train"]
    assert sum(r.label == 1 for r in train) == 100
    assert sum(r.label == 0 for r in train) == 100
    assert sum(r.split == "test" for r in balanced) == 50


def test_balance_train_identity_when_balanced():
    records = [rec(f"D{i}", "T0", label=i % 2, split="train") for i in range(10)]
    assert balance_train(records, seed=1) == records


def test_balance_train_single_class_errors():
    records = [rec(f"D{i}", "T0", label=1, split="train") for i in range(5)]
    with pytest.raises(DataError):
        balance_train(records)


def test_bindingdb_style_test_imbalance_retained():
    # ~1:6 pos:neg in test stays untouched while train balances to 1:1
    records = (
        [rec(f"D{i}", "T0", label=1, split="train") for i in range(60)]
        + [rec(f"D{i}", "T1", label=0, split="train") for i in range(20)]
        + [rec(f"D{i}", "T2", label=1, split="test") for i in range(10)]
        + [rec(f"D{i}", "T3", label=0, split="test") for i in range(60)]
    )
    balanced = balance_train(records, seed=2)
    test = [r for r in balanced if r.split == "test"]
    assert sum(r.label == 1 for r in test) == 10
    assert sum(r.label == 0 for r in test) == 60
    train = [r for r in balanced if r.split == "train"]
    assert sum(r.label == 1 for r in train) == sum(r.label == 0 for r in train) == 20


def test_balance_deterministic():
    records = [rec(f"D{i}", "T0", label=int(i < 30), split="train") for i in range(100)]
    assert balance_train(records, seed=3) == balance_train(records, seed=3)


def test_records_immutable_semantics():
    r = rec("D0", "T0", label=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.label = 0
