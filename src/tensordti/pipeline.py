"""Dataset construction: train/valid/test splitting and train-set class
balancing.

Labels and affinities arrive with the interactions file; both operations
are deterministic functions of (records, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import SPLIT_STRATEGIES
from .embeddings import InteractionRecord
from .errors import ConfigError, DataError


@dataclass
class SplitSpec:
    strategy: str = "random"
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 0
    balance_train: bool = False

    def __post_init__(self):
        if self.strategy not in SPLIT_STRATEGIES:
            raise ConfigError(f"unknown split strategy {self.strategy!r}")
        if len(self.fractions) != 3 or not all(f > 0 for f in self.fractions):
            raise ConfigError(f"fractions must be 3 positive numbers, got {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ConfigError(f"fractions must sum to 1, got {sum(self.fractions)}")


def split(records: list[InteractionRecord], spec: SplitSpec) -> list[InteractionRecord]:
    """Tag records into train/valid/test.

    random: pair-level partition. unseen_drug / unseen_target: entity-level
    partition so no test entity appears in train or valid.
    """
    if spec.strategy == "external_tag":
        untagged = sum(1 for r in records if r.split == "unassigned")
        if untagged:
            raise DataError(f"external_tag requires pre-tagged records; {untagged} untagged")
        return list(records)
    if any(r.split != "unassigned" for r in records):
        raise DataError("records already tagged; use strategy external_tag to keep tags")
    if not records:
        raise DataError("no records to split")

    # the unit of the partition: a pair (its position) or a drug or target id
    if spec.strategy == "random":
        keys = list(range(len(records)))
    else:
        keys = [r.drug_id if spec.strategy == "unseen_drug" else r.target_id for r in records]
    units = sorted(set(keys))
    order = np.random.default_rng(spec.seed).permutation(len(units))
    n_train = int(math.floor(spec.fractions[0] * len(units)))
    n_valid = int(math.floor(spec.fractions[1] * len(units)))
    tag = {}
    for pos, idx in enumerate(order):
        tag[units[idx]] = "train" if pos < n_train else ("valid" if pos < n_train + n_valid else "test")
    out = [replace(r, split=tag[k]) for r, k in zip(records, keys)]

    sizes = {s: sum(1 for r in out if r.split == s) for s in ("train", "valid", "test")}
    empty = [s for s, n in sizes.items() if n == 0]
    if empty:
        raise DataError(f"empty partition(s) {empty} with sizes {sizes}")
    return out


def balance_train(records: list[InteractionRecord], seed: int = 0) -> list[InteractionRecord]:
    """Subsample the majority class to the minority size, train split only."""
    train_idx = [i for i, r in enumerate(records) if r.split == "train"]
    if not train_idx:
        raise DataError("no train records to balance")
    pos = [i for i in train_idx if records[i].label == 1]
    neg = [i for i in train_idx if records[i].label == 0]
    if not pos or not neg:
        raise DataError(f"cannot balance: train has {len(pos)} positives / {len(neg)} negatives")
    if len(pos) == len(neg):
        return list(records)
    major, minor = (pos, neg) if len(pos) > len(neg) else (neg, pos)
    rng = np.random.default_rng(seed)
    keep = set(rng.choice(np.array(major), size=len(minor), replace=False).tolist())
    drop = set(major) - keep
    return [r for i, r in enumerate(records) if i not in drop]

