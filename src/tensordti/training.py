"""Training loop with early stopping, multi-seed orchestration,
checkpointing hooks, and scoring to prediction columns."""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import losses, model as model_mod
from ._util import check_floats, json_text, splitmix64
from .embeddings import EmbeddingStore, InteractionRecord
from .errors import ConfigError, DataError
from .metrics import DECISION_THRESHOLD, aupr, metric_bundle, pcc
from .model import TRAIN_DTYPE, ModelConfig, ModelState
from .nn import AdamState, Tape, adam_step, stable_sigmoid
from .tokenizer import SmilesTokenizer

log = logging.getLogger("tensordti")


@dataclass
class TrainConfig:
    lr: float = 5e-5
    weight_decay: float = 1e-5
    max_epochs: int = 100
    patience: int = 20
    batch_size: int = 256
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        check_floats(self, lr=">= 0", weight_decay=">= 0")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if not self.seeds:
            raise ConfigError("at least one seed required")


@dataclass
class DatasetBundle:
    drugs: EmbeddingStore
    proteins: EmbeddingStore
    interactions: list[InteractionRecord]
    pockets: EmbeddingStore | None = None
    smiles: dict[str, str] | None = None

    def subset(self, split: str) -> list[InteractionRecord]:
        return [r for r in self.interactions if r.split == split]


@dataclass
class EpochStats:
    """One epoch's validation metric and mean loss terms, `l_<name>` per
    name of composite_loss; a term not computed reads 0.0, l_mse None."""

    epoch: int
    val_metric: float
    l_total: float
    l_bce: float = 0.0
    l_con: float = 0.0
    l_conf: float = 0.0
    l_recon: float = 0.0
    l_mse: float | None = None


@dataclass
class SeedRun:
    seed: int
    best_epoch: int
    best_val_metric: float
    epochs: list[EpochStats]
    test_metrics: dict


@dataclass
class TrainReport:
    mode: str
    runs: list[SeedRun] = field(default_factory=list)
    test_mean: dict = field(default_factory=dict)
    test_sd: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Every field, plus the early-stopping metric the mode implies."""
        payload = {**asdict(self), "eval_metric": "aupr" if self.mode == "classification" else "pcc"}
        return json_text(payload)


# -- batch preparation ------------------------------------------------------


class _Pairs:
    """One record list as model input, the one place a pair table's ids,
    pockets and truth are checked: its unique drugs (sorted) and unique
    (target, pocket) keys, each gathered from its store once in `dtype`, the
    per-pair column indices into them, and `truth`, the mode's label or
    affinity per pair (nan where absent; with `truth`, an absent one is a
    DataError).
    Scoring reads whole columns; training gathers each minibatch's columns
    through the indices."""

    def __init__(
        self, data: DatasetBundle, records: list[InteractionRecord], config: ModelConfig, truth: bool = False, dtype=np.float64
    ):
        if not records:
            raise DataError("empty record list")
        has_pocket = config.pocket_dim is not None
        if has_pocket and any(r.pocket_id is None for r in records):
            raise DataError("model expects pockets but some records have no pocket_id")
        pocket_ids = sorted({r.pocket_id for r in records} - {None})
        if data.pockets is None and pocket_ids:
            raise DataError(f"records name pockets {pocket_ids[:10]} but the dataset has no pocket store")
        self.drugs = sorted({r.drug_id for r in records})
        column = {d: j for j, d in enumerate(self.drugs)}
        self.drug_idx = np.array([column[r.drug_id] for r in records], dtype=np.intp)
        keys: dict[tuple, int] = {}
        self.target_idx = np.array(
            [keys.setdefault((r.target_id, r.pocket_id if has_pocket else None), len(keys)) for r in records],
            dtype=np.intp,
        )
        self.x_drug = data.drugs.matrix(self.drugs).astype(dtype, copy=False)
        self.x_protein = data.proteins.matrix([t for t, _ in keys]).astype(dtype, copy=False)
        self.x_pocket = data.pockets.matrix([k for _, k in keys]).astype(dtype, copy=False) if has_pocket else None
        if pocket_ids and not has_pocket:
            data.pockets.matrix(pocket_ids)  # no branch reads them, but every id named must resolve
        field = "label" if config.mode == "classification" else "affinity"
        values = [getattr(r, field) for r in records]
        if truth and None in values:
            r = records[values.index(None)]
            pair = f"{r.split} pair ({r.drug_id!r}, {r.target_id!r})"
            raise DataError(f"{pair} has no {field}, which {config.mode} training reads")
        self.truth = np.array([np.nan if v is None else v for v in values], dtype=np.float64)
        self.token_ids = self.pad_mask = None

    def tokenize(self, data: DatasetBundle, tokenizer: SmilesTokenizer) -> None:
        """Token ids and pad mask of each unique drug's SMILES, one column
        per drug as in x_drug; the reconstruction loss gathers them."""
        if data.smiles is None:
            raise ConfigError("reconstruction loss is weighted but the dataset has no SMILES")
        missing = next((d for d in self.drugs if d not in data.smiles), None)
        if missing is not None:
            raise DataError(f"no SMILES for drug {missing!r}")
        self.token_ids, self.pad_mask = tokenizer.tokenize_many([data.smiles[d] for d in self.drugs])


def _forward_losses(state: ModelState, pairs: _Pairs, idx: np.ndarray, tape: Tape, trip_rng: np.random.Generator):
    """Loss terms of the minibatch of pairs at idx by composite_loss's
    names, computed per entity: each unique drug and (target, pocket) key
    goes through its tower, and each unique drug through the autoencoder,
    once; the pairs gather the embeddings and the head partials by their
    per-pair inverse indices."""
    c = state.config
    drugs, d_of = np.unique(pairs.drug_idx[idx], return_inverse=True)
    targets, t_of = np.unique(pairs.target_idx[idx], return_inverse=True)
    x_drug = pairs.x_drug[:, drugs]
    e_d = model_mod.encode_drug(state, x_drug, tape)
    pocket = None if pairs.x_pocket is None else pairs.x_pocket[:, targets]
    e_p = model_mod.encode_protein_with_pocket(state, pairs.x_protein[:, targets], pocket, tape)
    logit, conf = model_mod.pair_heads(state, model_mod.head_partials(state, e_d, e_p, tape), d_of, t_of, tape)

    terms = {}
    if c.mode == "classification":
        y = pairs.truth[idx]
        probs = stable_sigmoid(logit.value).reshape(-1)
        terms["bce"] = losses.bce_with_logits(tape, logit, y)
        terms["conf"] = losses.confidence_loss(tape, conf, y, probs)
        if c.alpha_con > 0:
            if c.contrastive == "cosine_margin":
                terms["con"] = losses.contrastive_cosine(tape, tape.take_cols(e_d, d_of), tape.take_cols(e_p, t_of), y, c.margin)
            else:
                pos = np.where(y == 1)[0]
                if pos.size == 0:
                    terms["con"] = tape.constant(np.zeros((1, 1), logit.value.dtype))
                else:
                    perm = trip_rng.permutation(idx.size)
                    terms["con"] = losses.contrastive_triplet(
                        tape,
                        tape.take_cols(e_d, d_of[pos]),
                        tape.take_cols(e_p, t_of[pos]),
                        tape.take_cols(e_p, t_of[perm[pos]]),
                        c.triplet_margin,
                    )
    else:
        target = pairs.truth[idx]
        terms["mse"] = losses.mse_loss(tape, logit, target.reshape(1, -1))
        err = np.minimum(1.0, np.abs(target - logit.value.reshape(-1)) / c.error_scale)
        terms["conf"] = losses.mse_loss(tape, conf, err.reshape(1, -1))

    if c.alpha_recon > 0:
        # positions past the batch's longest scorable prefix are masked, so
        # their logits are never computed; each drug's NLL weighs its pair
        # count / batch size, which is the mean over the batch's pairs
        mask = pairs.pad_mask[:, drugs]
        n_pos = model_mod.scorable_prefix(mask)
        recon_logits = model_mod.reconstruct(state, x_drug, tape, n_pos)
        terms["recon"] = losses.reconstruction_loss(
            tape, recon_logits, pairs.token_ids[:n_pos, drugs], mask[:n_pos], n_pos, c.vocab_size,
            np.bincount(d_of) / idx.size,
        )
    return terms


def _scores(state: ModelState, pairs: _Pairs):
    """Inference pass: logits, probabilities and confidences for all pairs."""
    logits, confs = model_mod.score_pairs(
        state, pairs.x_drug, pairs.x_protein, pairs.x_pocket, pairs.drug_idx, pairs.target_idx
    )
    return logits, stable_sigmoid(logits.reshape(1, -1)).reshape(-1), confs


def _validation_metric(state: ModelState, pairs: _Pairs) -> float:
    """AUPR for classification, PCC for regression; -inf where undefined."""
    logits, probs, _ = _scores(state, pairs)
    try:
        return aupr(probs, pairs.truth) if state.config.mode == "classification" else pcc(logits, pairs.truth)
    except DataError:
        return float("-inf")


def _train_single(model_config: ModelConfig, train: _Pairs, valid: _Pairs, config: TrainConfig, seed: int):
    """One seed's run over the train and valid tables, which `train` builds once
    for all seeds: its state, holding the best epoch's values, and its record."""
    state = model_mod.init_model(model_config, seed=splitmix64(seed, 0))
    best = state.flat.copy()  # each improving epoch is copied into it
    adam = AdamState(lr=config.lr, weight_decay=config.weight_decay)
    params = state.parameters()

    best_metric = float("-inf")
    best_epoch = -1
    stats: list[EpochStats] = []
    n = train.drug_idx.size
    tape = Tape()  # one per run, so its gradient buffer and work cubes are reused by every step

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        shuffle_rng = np.random.default_rng(splitmix64(seed, 1000 + epoch))
        trip_rng = np.random.default_rng(splitmix64(seed, 500_000 + epoch))
        order = shuffle_rng.permutation(n)
        sums: dict[str, float] = {}
        n_batches = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            terms = _forward_losses(state, train, idx, tape, trip_rng)
            total, values = losses.composite_loss(tape, terms, model_config)
            if not np.isfinite(values["total"]):
                raise DataError(
                    f"non-finite training loss {values['total']} at epoch {epoch}, "
                    f"batch {n_batches} (seed {seed})"
                )
            grads = tape.backward(total)
            adam_step(adam, params, grads)
            for name, value in values.items():
                sums[name] = sums.get(name, 0.0) + value
            n_batches += 1

        val_metric = _validation_metric(state, valid)
        means = {name: s / n_batches for name, s in sums.items()}
        stats.append(EpochStats(epoch, val_metric, **{f"l_{name}": m for name, m in means.items()}))
        terms_text = ", ".join(f"{name} {m:.6g}" for name, m in means.items() if name != "total")
        log.info(
            "seed %d epoch %d: loss %.6g (%s), val %s %.6g, %.2f s",
            seed, epoch, means["total"], terms_text,
            "aupr" if model_config.mode == "classification" else "pcc", val_metric, time.perf_counter() - t0,
        )
        if val_metric > best_metric:
            best_metric = val_metric
            best_epoch = epoch
            np.copyto(best, state.flat)
        elif epoch - best_epoch >= config.patience:
            break

    if best_epoch == -1:
        log.warning("seed %d: no finite validation metric in %d epochs; returning the initial weights", seed, len(stats))
    np.copyto(state.flat, best)
    return state, SeedRun(seed=seed, best_epoch=best_epoch, best_val_metric=best_metric, epochs=stats, test_metrics={})


def train(model_config: ModelConfig, data: DatasetBundle, config: TrainConfig) -> tuple[ModelState, TrainReport]:
    """Train one model per seed; report test metrics as mean +- sd across
    seeds. The returned state is the first seed's best-validation model."""
    splits = {name: data.subset(name) for name in ("train", "valid", "test")}
    for name, recs in splits.items():
        if not recs:
            raise DataError(f"empty {name} split")
    dtypes = {"train": TRAIN_DTYPE, "valid": TRAIN_DTYPE, "test": np.float64}
    tables = tuple(_Pairs(data, splits[name], model_config, truth=True, dtype=dtype) for name, dtype in dtypes.items())
    if model_config.alpha_recon > 0:
        tables[0].tokenize(data, SmilesTokenizer(model_config.vocab, model_config.max_len))

    report = TrainReport(mode=model_config.mode)
    first_state: ModelState | None = None
    classification = model_config.mode == "classification"
    for seed in config.seeds:
        state, run = _train_single(model_config, *tables[:2], config, seed)
        # scored once the run's tape, Adam moments and best copy are freed
        logits, probs, _ = _scores(state, tables[2])
        run.test_metrics = metric_bundle(classification, probs if classification else logits, tables[2].truth)
        if first_state is None:
            first_state = state
        report.runs.append(run)

    keys = sorted({k for run in report.runs for k, v in run.test_metrics.items() if isinstance(v, (int, float))})
    for k in keys:
        vals = [run.test_metrics[k] for run in report.runs if isinstance(run.test_metrics.get(k), (int, float))]
        report.test_mean[k] = float(np.mean(vals))
        report.test_sd[k] = float(np.std(vals))
    return first_state, report


def evaluate(state: ModelState, data: DatasetBundle, records: list[InteractionRecord]) -> dict[str, list]:
    """Score records with the frozen model. Their ids must resolve; a label
    or affinity is neither needed nor read.

    Returns one list per name in screening.PREDICTION_COLUMNS, a row per
    record; columns that hold the same values (logit and affinity_pred, or
    the absent ones) share one list. Unfamiliarity is filled in whenever a
    SMILES string is available for the drug.
    """
    classification = state.config.mode == "classification"
    pairs = _Pairs(data, records, state.config)
    logits, probs, confs = _scores(state, pairs)

    unf_by_drug: dict[str, float] = {}
    if data.smiles:
        keep = [j for j, d in enumerate(pairs.drugs) if d in data.smiles]
        if keep:
            scored = [pairs.drugs[j] for j in keep]
            ids, mask = state.tokenizer.tokenize_many([data.smiles[d] for d in scored])
            u = model_mod.unfamiliarity_many(state, pairs.x_drug[:, keep], ids, mask)
            unf_by_drug = dict(zip(scored, u.tolist()))
    del pairs  # free its per-record index and truth arrays before the columns exist

    drug_ids = [r.drug_id for r in records]
    logit_col, absent = logits.tolist(), [None] * len(records)
    columns = {
        "drug_id": drug_ids,
        "target_id": [r.target_id for r in records],
        "logit": logit_col,
        "prob": probs.tolist() if classification else absent,
        "pred_label": (probs >= DECISION_THRESHOLD).astype(int).tolist() if classification else absent,
        "affinity_pred": absent if classification else logit_col,
        "confidence": confs.tolist(),
        "unfamiliarity": list(map(unf_by_drug.get, drug_ids)),
    }
    return columns
