"""Dataset construction: affinity-threshold labeling, negative sampling
(random and pocket-dissimilar), splitting, and train-set class balancing.

All operations are deterministic functions of (input, seed); sub-streams
are derived with splitmix64 so shard order cannot change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._util import parse_number, read_tsv, splitmix64
from .embeddings import InteractionRecord
from .errors import ConfigError, DataError, FormatError

STRATEGIES = ("random", "unseen_drug", "unseen_target", "external_tag")
NEG_STRATEGIES = ("random_pair", "pocket_dissimilar")


@dataclass
class SplitSpec:
    strategy: str = "random"
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 0
    balance_train: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown split strategy {self.strategy!r}")
        if len(self.fractions) != 3 or min(self.fractions) <= 0:
            raise ConfigError(f"fractions must be 3 positive numbers, got {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ConfigError(f"fractions must sum to 1, got {sum(self.fractions)}")


@dataclass
class NegSampleSpec:
    strategy: str = "random_pair"
    ratio: float = 1.0
    threshold: float = 0.7  # pocket dissimilarity cutoff

    def __post_init__(self):
        if self.strategy not in NEG_STRATEGIES:
            raise ConfigError(f"unknown negative-sampling strategy {self.strategy!r}")
        if self.ratio <= 0:
            raise ConfigError("ratio must be > 0")


@dataclass
class EntityPool:
    """Entities eligible for negative pairs (one split's worth)."""

    drug_ids: list[str]
    target_ids: list[str]
    pocket_by_target: dict[str, str] | None = None
    dissimilarity: dict[tuple[str, str], float] | None = None

    def dissim(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        table = self.dissimilarity or {}
        return table.get((a, b), table.get((b, a), 0.0))


def load_pocket_scores(path: str | Path) -> dict[tuple[str, str], float]:
    """TSV `pocket_a pocket_b score` with dissimilarity scores in [0, 1]."""
    rows = read_tsv(path)
    header = next(rows)
    if header != ["pocket_a", "pocket_b", "score"]:
        raise FormatError(f"{path}: header {header} != ['pocket_a', 'pocket_b', 'score']")
    out: dict[tuple[str, str], float] = {}
    for where, (a, b, raw) in rows:
        score = parse_number(raw, float, where, "score")
        if not 0.0 <= score <= 1.0:
            raise FormatError(f"{where}: score {score} outside [0, 1]")
        out[(a, b)] = score
    return out


def label_by_kd(records: list[InteractionRecord], threshold: float = 30.0) -> list[InteractionRecord]:
    """label = 1 iff Kd < threshold (strict); the affinity is retained.

    Affinities must be raw dissociation constants in nM, the unit the
    threshold is read in; nothing is converted.
    """
    out = []
    for r in records:
        if r.affinity is None:
            raise DataError(f"record ({r.drug_id}, {r.target_id}) has no affinity to threshold")
        out.append(replace(r, label=int(r.affinity < threshold)))
    return out


def sample_negatives(
    positives: list[InteractionRecord],
    spec: NegSampleSpec,
    pool: EntityPool,
    seed: int,
    known_positives: list[InteractionRecord] | None = None,
) -> list[InteractionRecord]:
    """Draw round(ratio * |positives|) non-colliding negative pairs from the
    pool. Collisions are checked against the union of known positives (all
    splits), not just the local ones."""
    if not positives:
        raise DataError("no positives to sample negatives for")
    splits = {r.split for r in positives}
    if len(splits) != 1:
        raise DataError(f"positives span multiple splits {sorted(splits)}; sample per split")
    split = splits.pop()
    if not pool.drug_ids or not pool.target_ids:
        raise DataError("empty entity pool")
    if spec.strategy == "pocket_dissimilar":
        if pool.pocket_by_target is None or pool.dissimilarity is None:
            raise ConfigError("pocket_dissimilar sampling needs pocket ids and a dissimilarity table")
        if any(r.pocket_id is None for r in positives):
            raise DataError("pocket_dissimilar sampling needs a pocket id on every positive")

    count = int(round(spec.ratio * len(positives)))
    forbidden = {(r.drug_id, r.target_id) for r in (known_positives or positives)}
    taken: set[tuple[str, str]] = set()
    rng = np.random.default_rng(seed)
    out: list[InteractionRecord] = []
    budget = 100 * count

    def emit(drug_id: str, target_id: str):
        pocket = (pool.pocket_by_target or {}).get(target_id)
        out.append(
            InteractionRecord(drug_id=drug_id, target_id=target_id, pocket_id=pocket, label=0, split=split)
        )
        taken.add((drug_id, target_id))

    attempts = 0
    anchor = 0
    while len(out) < count:
        if attempts >= budget:
            raise DataError(
                f"could not sample {count} negatives after {attempts} attempts "
                f"({len(out)} found); pool too small or constraints infeasible"
            )
        attempts += 1
        if spec.strategy == "random_pair":
            d = pool.drug_ids[rng.integers(len(pool.drug_ids))]
            t = pool.target_ids[rng.integers(len(pool.target_ids))]
        else:
            ref = positives[anchor % len(positives)]
            d = ref.drug_id
            t = pool.target_ids[rng.integers(len(pool.target_ids))]
            candidate_pocket = pool.pocket_by_target.get(t)
            if candidate_pocket is None:
                continue
            if pool.dissim(ref.pocket_id, candidate_pocket) < spec.threshold:
                continue
        if (d, t) in forbidden or (d, t) in taken:
            continue
        emit(d, t)
        anchor += 1
    return out


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

    rng = np.random.default_rng(spec.seed)
    if spec.strategy == "random":
        order = rng.permutation(len(records))
        n_train = int(math.floor(spec.fractions[0] * len(records)))
        n_valid = int(math.floor(spec.fractions[1] * len(records)))
        tags = {}
        for pos, idx in enumerate(order):
            tags[idx] = "train" if pos < n_train else ("valid" if pos < n_train + n_valid else "test")
        out = [r.with_split(tags[i]) for i, r in enumerate(records)]
    else:
        key = (lambda r: r.drug_id) if spec.strategy == "unseen_drug" else (lambda r: r.target_id)
        entities = sorted({key(r) for r in records})
        order = rng.permutation(len(entities))
        n_train = int(math.floor(spec.fractions[0] * len(entities)))
        n_valid = int(math.floor(spec.fractions[1] * len(entities)))
        bucket = {}
        for pos, idx in enumerate(order):
            bucket[entities[idx]] = (
                "train" if pos < n_train else ("valid" if pos < n_train + n_valid else "test")
            )
        out = [r.with_split(bucket[key(r)]) for r in records]

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


def negatives_for_splits(
    positives: list[InteractionRecord],
    spec: NegSampleSpec,
    master_seed: int,
    pocket_by_target: dict[str, str] | None = None,
    dissimilarity: dict | None = None,
) -> list[InteractionRecord]:
    """Per-split negative sampling: pools and seeds are derived per split so
    non-interacting pairs are built only from entities present in that split."""
    out: list[InteractionRecord] = []
    order = ("train", "valid", "test", "unassigned")
    for k, s in enumerate(order):
        local = [r for r in positives if r.split == s]
        if not local:
            continue
        pool = EntityPool(
            drug_ids=sorted({r.drug_id for r in local}),
            target_ids=sorted({r.target_id for r in local}),
            pocket_by_target=pocket_by_target,
            dissimilarity=dissimilarity,
        )
        out.extend(sample_negatives(local, spec, pool, splitmix64(master_seed, k), known_positives=positives))
    return out
