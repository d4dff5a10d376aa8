import dataclasses
import logging
import re
import tracemalloc

import numpy as np
import pytest

from tensordti import _util, losses
from tensordti import model as M
from tensordti import nn
from tensordti import training as T
from tensordti.embeddings import InteractionRecord
from tensordti.errors import ConfigError, DataError
from tensordti.metrics import aupr, metric_bundle
from tensordti.model import ModelConfig
from tensordti.nn import Tape, stable_sigmoid
from tensordti.pipeline import SplitSpec, split
from tensordti.screening import PREDICTION_COLUMNS, load_predictions, save_predictions
from tensordti.synthetic import SyntheticConfig, gen_synthetic
from tensordti.training import DatasetBundle, TrainConfig, evaluate, train

VOCAB = "CNOPSFclnos="


def make_bundle(task="dti", n_drugs=60, n_targets=15, noise=0.05, seed=0, strategy="random"):
    data = gen_synthetic(
        SyntheticConfig(
            n_drugs=n_drugs, n_targets=n_targets, drug_dim=10, protein_dim=10,
            n_latent_factors=2, noise=noise, smiles_len=8, task=task, seed=seed,
        )
    )
    records = split(data.interactions, SplitSpec(strategy=strategy, seed=seed))
    return DatasetBundle(
        drugs=data.drugs, proteins=data.proteins, interactions=records, smiles=data.smiles
    )


def model_cfg(**kw):
    base = dict(drug_dim=10, protein_dim=10, hidden_dim=24, output_dim=12,
                latent_dim=12, max_len=12, vocab=VOCAB)
    base.update(kw)
    return ModelConfig(**base)


def train_cfg(**kw):
    base = dict(lr=3e-3, weight_decay=1e-5, max_epochs=12, patience=6, batch_size=128, seeds=(0,))
    base.update(kw)
    return TrainConfig(**base)


def test_lr_zero_leaves_parameters_bit_identical():
    bundle = make_bundle()
    cfg = model_cfg()
    state0 = M.init_model(cfg, seed=0)
    state, report = train(cfg, bundle, train_cfg(lr=0.0, max_epochs=3, patience=3))
    # same init seed derivation as the trainer: compare against a fresh init
    from tensordti._util import splitmix64

    ref = M.init_model(cfg, seed=splitmix64(0, 0))
    for a, b in zip(state.parameters(), ref.parameters()):
        assert np.array_equal(a.value, b.value)
    vals = [e.val_metric for e in report.runs[0].epochs]
    assert len(set(vals)) == 1  # validation metric constant


def test_training_is_deterministic_byte_identical_reports():
    bundle = make_bundle()
    cfg = model_cfg()
    _, r1 = train(cfg, bundle, train_cfg(max_epochs=4))
    _, r2 = train(cfg, bundle, train_cfg(max_epochs=4))
    assert r1.to_json() == r2.to_json()


def test_multi_seed_report_mean_sd():
    bundle = make_bundle()
    _, report = train(model_cfg(), bundle, train_cfg(max_epochs=3, seeds=(0, 1, 2, 3, 4)))
    assert len(report.runs) == 5
    assert set(report.test_mean) == {"aupr", "f1"}
    for k, sd in report.test_sd.items():
        assert sd >= 0.0
    vals = [run.test_metrics["aupr"] for run in report.runs]
    assert report.test_mean["aupr"] == pytest.approx(float(np.mean(vals)))


def test_early_stopping_returns_best_epoch_parameters():
    bundle = make_bundle()
    state, report = train(model_cfg(), bundle, train_cfg(max_epochs=10, patience=2))
    run = report.runs[0]
    best = max(e.val_metric for e in run.epochs)
    assert run.epochs[run.best_epoch].val_metric == best
    assert run.best_epoch <= run.epochs[-1].epoch
    # the returned parameters reproduce the best validation metric
    valid = bundle.subset("valid")
    preds = evaluate(state, bundle, valid)
    assert aupr(preds["prob"], [r.label for r in valid]) == pytest.approx(best, abs=1e-12)


def test_warns_when_validation_metric_never_finite(caplog):
    """A one-class validation split has no AUPR: training says so and
    returns the initial weights."""
    bundle = make_bundle()
    bundle.interactions = [
        dataclasses.replace(r, label=0) if r.split == "valid" else r for r in bundle.interactions
    ]
    cfg = model_cfg()
    with caplog.at_level(logging.WARNING, logger="tensordti"):
        state, report = train(cfg, bundle, train_cfg(max_epochs=2, patience=2, seeds=(7,)))
    assert report.runs[0].best_epoch == -1
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING and r.name == "tensordti"]
    assert len(warnings) == 1
    assert "seed 7" in warnings[0].getMessage() and "initial weights" in warnings[0].getMessage()
    from tensordti._util import splitmix64

    ref = M.init_model(cfg, seed=splitmix64(7, 0))
    for a, b in zip(state.parameters(), ref.parameters()):
        assert np.array_equal(a.value, b.value)


def test_logs_one_info_line_per_epoch(caplog):
    bundle = make_bundle()
    with caplog.at_level(logging.INFO, logger="tensordti"):
        _, report = train(model_cfg(), bundle, train_cfg(max_epochs=3, patience=3, seeds=(4,)))
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO and r.name == "tensordti"]
    assert len(lines) == 3
    for epoch, (line, stats) in enumerate(zip(lines, report.runs[0].epochs)):
        assert line.startswith(f"seed 4 epoch {epoch}: loss {stats.l_total:.6g} (bce {stats.l_bce:.6g}")
        assert f"recon {stats.l_recon:.6g}" in line
        assert f"val aupr {stats.val_metric:.6g}" in line and line.endswith(" s")


def test_train_errors_on_empty_split():
    bundle = make_bundle()
    bundle.interactions = [r for r in bundle.interactions if r.split != "valid"]
    with pytest.raises(DataError, match="valid"):
        train(model_cfg(), bundle, train_cfg())


def test_training_loss_finite_and_smoothed_nonincreasing_on_planted_data():
    bundle = make_bundle(noise=0.0)
    _, report = train(model_cfg(), bundle, train_cfg(max_epochs=40, patience=40))
    curve = [e.l_total for e in report.runs[0].epochs]
    assert all(np.isfinite(curve))
    smooth = np.convolve(curve, np.ones(5) / 5, mode="valid")
    for i in range(len(smooth) - 20):
        assert smooth[i + 20] <= smooth[i] + 1e-6


def test_planted_noise_free_reaches_high_aupr():
    bundle = make_bundle(noise=0.0)
    _, report = train(model_cfg(), bundle, train_cfg(max_epochs=60, patience=20))
    assert report.test_mean["aupr"] >= 0.95


def test_regression_planted_linear_targets_high_pcc():
    bundle = make_bundle(task="dta")
    cfg = model_cfg(mode="regression")
    _, report = train(cfg, bundle, train_cfg(max_epochs=60, patience=20))
    assert report.test_mean["pcc"] > 0.99


def test_evaluate_perfect_scores_give_aupr_one():
    bundle = make_bundle()
    state, _ = train(model_cfg(), bundle, train_cfg(max_epochs=1, patience=1))
    # overwrite classifier so the logit is driven by the true labels: simulate
    # a perfect scorer by evaluating on records sorted by label with a stub
    records = bundle.subset("test")
    labels = np.array([r.label for r in records])
    scores = labels * 2.0 - 1.0
    assert aupr(scores, labels) == pytest.approx(1.0)


def test_evaluate_constant_regression_pcc_flagged_rmse_computed():
    bundle = make_bundle(task="dta")
    cfg = model_cfg(mode="regression")
    state = M.init_model(cfg, seed=0)
    for layer in state.classifier:
        layer.weight.value[...] = np.zeros_like(layer.weight.value)
        layer.bias.value[...] = np.zeros_like(layer.bias.value)
    records = bundle.subset("test")
    preds = evaluate(state, bundle, records)
    metrics = metric_bundle(False, preds["affinity_pred"], [r.affinity for r in records])
    assert metrics["pcc"] is None
    assert "pcc_error" in metrics
    assert np.isfinite(metrics["rmse"])


def test_evaluate_fills_unfamiliarity_and_confidence():
    bundle = make_bundle()
    state, _ = train(model_cfg(), bundle, train_cfg(max_epochs=2, patience=2))
    preds = evaluate(state, bundle, bundle.subset("test"))
    assert tuple(preds) == tuple(PREDICTION_COLUMNS)
    assert all(len(col) == len(bundle.subset("test")) for col in preds.values())
    for i in range(10):
        assert 0.0 < preds["confidence"][i] < 1.0
        assert preds["unfamiliarity"][i] is not None
        assert preds["prob"][i] is not None and preds["pred_label"][i] in (0, 1)
        assert preds["affinity_pred"][i] is None


def test_evaluate_missing_embedding_errors():
    bundle = make_bundle()
    state = M.init_model(model_cfg(), seed=0)
    ghost = [InteractionRecord("D9999", "T0000", label=1, split="test")]
    with pytest.raises(DataError, match="D9999"):
        evaluate(state, bundle, ghost)


def test_pairs_names_unknown_ids_and_counts_the_distinct_ones():
    bundle = make_bundle()
    ghosts = [InteractionRecord(f"X{i}", "T0000", label=1, split="test") for i in (3, 1, 2, 1)]
    with pytest.raises(DataError, match=re.escape("unknown drug ids ['X1', 'X2', 'X3'] (3 total)")):
        T._Pairs(bundle, bundle.subset("test") + ghosts, model_cfg(), truth=True)
    stray = InteractionRecord("D0000", "T9999", label=0, split="test")
    with pytest.raises(DataError, match=re.escape("unknown protein ids ['T9999'] (1 total)")):
        T._Pairs(bundle, [stray], model_cfg())


@pytest.mark.parametrize("task, mode, field", [("dti", "classification", "label"), ("dta", "regression", "affinity")])
def test_pairs_truth_is_the_modes_field_and_a_missing_one_names_its_pair(task, mode, field):
    bundle = make_bundle(task)
    records = bundle.subset("test")
    blank = dataclasses.replace(records[1], **{field: None})
    records = [records[0], blank, *records[2:]]
    pairs = T._Pairs(bundle, records, model_cfg(mode=mode))
    want = np.array([np.nan if getattr(r, field) is None else getattr(r, field) for r in records])
    assert np.array_equal(pairs.truth, want, equal_nan=True) and np.isnan(pairs.truth[1])
    message = f"test pair ({blank.drug_id!r}, {blank.target_id!r}) has no {field}, which {mode} training reads"
    with pytest.raises(DataError, match=re.escape(message)):
        T._Pairs(bundle, records, model_cfg(mode=mode), truth=True)


def test_pairs_checks_pocket_ids_whether_or_not_the_model_reads_them():
    bundle = pocket_bundle()
    records = bundle.interactions[:1]
    no_store = dataclasses.replace(bundle, pockets=None)
    message = "records name pockets ['K0000'] but the dataset has no pocket store"
    for cfg in (model_cfg(), model_cfg(pocket_dim=6)):
        with pytest.raises(DataError, match=re.escape(message)):
            T._Pairs(no_store, records, cfg)
    ghost = [*records, dataclasses.replace(records[0], target_id="T0001", pocket_id="K9999")]
    with pytest.raises(DataError, match=re.escape("unknown pocket ids ['K9999'] (1 total)")):
        T._Pairs(bundle, ghost, model_cfg())
    bare = [*records, dataclasses.replace(records[0], target_id="T0001", pocket_id=None)]
    with pytest.raises(DataError, match="model expects pockets but some records have no pocket_id"):
        T._Pairs(bundle, bare, model_cfg(pocket_dim=6))
    assert T._Pairs(bundle, bare, model_cfg()).x_pocket is None


@pytest.mark.parametrize("task, mode", [("dti", "classification"), ("dta", "regression")])
@pytest.mark.parametrize("label", [None, 1])
def test_evaluate_scores_records_without_truth(task, mode, label):
    """Scoring reads no label or affinity: records stripped of both, or all
    of one class, get the columns of the labelled records."""
    bundle = make_bundle(task=task)
    state = M.init_model(model_cfg(mode=mode), seed=0)
    records = bundle.subset("test")
    stripped = [dataclasses.replace(r, label=label, affinity=None, split="unassigned") for r in records]
    assert evaluate(state, bundle, stripped) == evaluate(state, bundle, records)


def test_checkpoint_round_trip_preserves_evaluation(tmp_path):
    bundle = make_bundle()
    state, _ = train(model_cfg(), bundle, train_cfg(max_epochs=3, patience=3))
    path = tmp_path / "model.tdti"
    M.save_checkpoint(state, path)
    loaded = M.load_checkpoint(path)
    p1 = evaluate(state, bundle, bundle.subset("test"))
    p2 = evaluate(loaded, bundle, bundle.subset("test"))
    assert p1 == p2


def test_prediction_tsv_round_trip(tmp_path):
    columns = {
        "drug_id": ["D0", "D1", "D2"],
        "target_id": ["T0", "T1", "T2"],
        "logit": [1.5, -0.25, 6.25],
        "prob": [0.817574, 0.437823, None],
        "pred_label": [1, 0, None],
        "affinity_pred": [None, None, 6.25],
        "confidence": [0.12, 0.5, None],
        "unfamiliarity": [0.8, None, None],
    }
    path = tmp_path / "preds.tsv"
    save_predictions(columns, path)
    assert path.read_text().splitlines()[1:] == [
        "D0\tT0\t1.5\t0.817574\t1\t\t0.12\t0.8",
        "D1\tT1\t-0.25\t0.437823\t0\t\t0.5\t",
        "D2\tT2\t6.25\t\t\t6.25\t\t",
    ]
    loaded = load_predictions(path)
    assert loaded == columns and tuple(loaded) == tuple(PREDICTION_COLUMNS)


def test_triplet_variant_trains():
    bundle = make_bundle()
    cfg = model_cfg(contrastive="triplet_l2")
    _, report = train(cfg, bundle, train_cfg(max_epochs=3))
    assert np.isfinite(report.runs[0].epochs[-1].l_con)


def test_pocket_model_trains_end_to_end():
    data = gen_synthetic(
        SyntheticConfig(
            n_drugs=40, n_targets=12, drug_dim=10, protein_dim=10, pocket_dim=6,
            n_latent_factors=2, noise=0.05, smiles_len=8, seed=1,
        )
    )
    records = split(data.interactions, SplitSpec(seed=1))
    bundle = DatasetBundle(
        drugs=data.drugs, proteins=data.proteins, pockets=data.pockets,
        interactions=records, smiles=data.smiles,
    )
    cfg = model_cfg(pocket_dim=6)
    state, report = train(cfg, bundle, train_cfg(max_epochs=5))
    assert state.encoder_pocket is not None
    assert np.isfinite(report.test_mean["aupr"])
    preds = evaluate(state, bundle, bundle.subset("test"))
    assert len(preds["logit"]) == len(bundle.subset("test"))


def pocket_bundle(task="dti"):
    data = gen_synthetic(
        SyntheticConfig(
            n_drugs=30, n_targets=8, drug_dim=10, protein_dim=10, pocket_dim=6,
            n_latent_factors=2, noise=0.05, smiles_len=8, task=task, seed=2,
        )
    )
    return DatasetBundle(
        drugs=data.drugs, proteins=data.proteins, pockets=data.pockets,
        interactions=data.interactions, smiles=data.smiles,
    )


def _pair_forward(state, pairs, idx, tape):
    """The per-pair path: both encoders, the interaction head and the
    confidence head once per pair at idx, (e_d, e_p, logit, confidence)."""
    e_d = M.encode_drug(state, pairs.x_drug[:, pairs.drug_idx[idx]], tape)
    targets = pairs.target_idx[idx]
    pocket = None if pairs.x_pocket is None else pairs.x_pocket[:, targets]
    e_p = M.encode_protein_with_pocket(state, pairs.x_protein[:, targets], pocket, tape)
    logit = M.interaction_logit(state, e_d, e_p, tape)
    return e_d, e_p, logit, M.confidence(state, e_d, e_p, logit, tape)


def _per_pair_losses(state, pairs, idx, tape):
    """The loss terms of one training step on the per-pair path: every
    tower, both heads and the autoencoder run once per pair, and the
    reconstruction loss is the mean over pairs."""
    c = state.config
    e_d, e_p, logit, conf = _pair_forward(state, pairs, idx, tape)
    terms = {}
    if c.mode == "classification":
        y = pairs.truth[idx]
        terms["bce"] = losses.bce_with_logits(tape, logit, y)
        terms["conf"] = losses.confidence_loss(tape, conf, y, stable_sigmoid(logit.value).reshape(-1))
        if c.contrastive == "cosine_margin":
            terms["con"] = losses.contrastive_cosine(tape, e_d, e_p, y, c.margin)
        else:
            pos = np.where(y == 1)[0]
            neg = np.roll(np.arange(idx.size), 1)[pos]
            terms["con"] = losses.contrastive_triplet(
                tape, tape.take_cols(e_d, pos), tape.take_cols(e_p, pos), tape.take_cols(e_p, neg), c.triplet_margin
            )
    else:
        target = pairs.truth[idx]
        terms["mse"] = losses.mse_loss(tape, logit, target.reshape(1, -1))
        err = np.minimum(1.0, np.abs(target - logit.value.reshape(-1)) / c.error_scale)
        terms["conf"] = losses.mse_loss(tape, conf, err.reshape(1, -1))
    drugs = pairs.drug_idx[idx]
    mask = pairs.pad_mask[:, drugs]
    n_pos = M.scorable_prefix(mask)
    recon_logits = M.reconstruct(state, pairs.x_drug[:, drugs], tape, n_pos)
    terms["recon"] = losses.reconstruction_loss(
        tape, recon_logits, pairs.token_ids[:n_pos, drugs], mask[:n_pos], n_pos, c.vocab_size
    )
    return terms


FACTORED_CASES = {
    "classification-pocket": ("dti", dict(pocket_dim=6)),
    "classification-no-pocket": ("dti", {}),
    "regression-pocket": ("dta", dict(pocket_dim=6, mode="regression")),
    "regression-no-pocket": ("dta", dict(mode="regression")),
    "lambda-pocket-zero": ("dti", dict(pocket_dim=6, lambda_protein=0.5, lambda_pocket=0.0)),
}


@pytest.mark.parametrize("case", sorted(FACTORED_CASES))
def test_factored_scores_match_tape_path(monkeypatch, case):
    """Per-entity scoring against the taped pair forward, to 1e-12, over
    repeated drugs and targets and 8-pair chunks."""
    task, kw = FACTORED_CASES[case]
    bundle = pocket_bundle(task)
    state = M.init_model(model_cfg(**kw), seed=5)
    rng = np.random.default_rng(1)
    for p in state.parameters():  # non-zero biases, so their placement counts
        if p.name.endswith(".bias"):
            p.value[...] = 0.1 * rng.standard_normal(p.value.shape)
    records = bundle.interactions + bundle.interactions[:5]
    assert len({r.drug_id for r in records}) < len(records) and len(records) % 8
    monkeypatch.setattr(M, "CHUNK_ELEMENTS", 64 * state.config.hidden_dim)
    chunks, pair_heads = [], M.pair_heads
    monkeypatch.setattr(M, "pair_heads", lambda s, p, d, t, tape: chunks.append(d.size) or pair_heads(s, p, d, t, tape))

    pairs = T._Pairs(bundle, records, state.config)
    logits, _, confs = T._scores(state, pairs)
    assert len(chunks) > 2 and set(chunks[:-1]) == {8} and 0 < chunks[-1] < 8
    _, _, logit, conf = _pair_forward(state, pairs, np.arange(len(records)), Tape())
    assert np.max(np.abs(logits - logit.value.reshape(-1))) <= 1e-12
    assert np.max(np.abs(confs - conf.value.reshape(-1))) <= 1e-12


def test_pairs_gather_each_entity_once():
    bundle = pocket_bundle()
    state = M.init_model(model_cfg(pocket_dim=6), seed=0)
    records = bundle.interactions
    pairs = T._Pairs(bundle, records, state.config)
    assert pairs.drugs == sorted({r.drug_id for r in records})
    assert pairs.x_drug.shape[1] == len(pairs.drugs)
    assert pairs.x_protein.shape[1] == pairs.x_pocket.shape[1] == len({(r.target_id, r.pocket_id) for r in records})
    for r, d, t in zip(records, pairs.drug_idx, pairs.target_idx):
        assert np.array_equal(pairs.x_drug[:, d], bundle.drugs.get(r.drug_id))
        assert np.array_equal(pairs.x_protein[:, t], bundle.proteins.get(r.target_id))
        assert np.array_equal(pairs.x_pocket[:, t], bundle.pockets.get(r.pocket_id))
    pairs.tokenize(bundle, state.tokenizer)
    assert pairs.token_ids.shape == pairs.pad_mask.shape == (state.config.max_len, len(pairs.drugs))
    for r, d in zip(records, pairs.drug_idx):
        seq = state.tokenizer.tokenize(bundle.smiles[r.drug_id])
        assert np.array_equal(pairs.token_ids[:, d], seq.ids)
        assert np.array_equal(pairs.pad_mask[:, d], state.tokenizer.pad_mask(seq))


def test_training_table_tokens_need_every_drugs_smiles():
    bundle = pocket_bundle()
    state = M.init_model(model_cfg(pocket_dim=6), seed=0)
    pairs = T._Pairs(bundle, bundle.interactions, state.config)
    with pytest.raises(ConfigError, match="no SMILES"):
        pairs.tokenize(dataclasses.replace(bundle, smiles=None), state.tokenizer)
    drug = pairs.drugs[3]
    smiles = {d: s for d, s in bundle.smiles.items() if d != drug}
    with pytest.raises(DataError, match=f"no SMILES for drug '{drug}'"):
        pairs.tokenize(dataclasses.replace(bundle, smiles=smiles), state.tokenizer)


def test_training_table_memory_bounded_by_entities_not_records():
    """Ten times the records over the same 50 drugs x 5 targets: building the
    training table, tokens included, grows the traced peak by at most 64 B a
    record (index and truth arrays plus list temporaries), never by a
    per-record gather of inputs or tokens (26 + 2 * 12 values a record here)."""
    data = gen_synthetic(
        SyntheticConfig(
            n_drugs=50, n_targets=5, drug_dim=10, protein_dim=10, pocket_dim=6,
            n_latent_factors=2, smiles_len=8, seed=3,
        )
    )
    bundle = DatasetBundle(
        drugs=data.drugs, proteins=data.proteins, pockets=data.pockets,
        interactions=data.interactions, smiles=data.smiles,
    )
    state = M.init_model(model_cfg(pocket_dim=6), seed=0)
    rng = np.random.default_rng(0)

    def peak(n_records):
        records = [bundle.interactions[i] for i in rng.integers(0, len(bundle.interactions), n_records)]
        tracemalloc.start()
        try:
            T._Pairs(bundle, records, state.config).tokenize(bundle, state.tokenizer)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 2_000, 20_000
    assert peak(large) - peak(small) <= 64 * (large - small)


def test_prediction_columns_memory_bounded_by_entities_not_records(tmp_path, monkeypatch):
    """Ten times the records over the same 50 drugs x 5 targets: scoring them
    and writing predictions.tsv grows the traced peak by at most 200 B a
    record (the columns' list slots and Python floats, plus the scoring
    arrays), not by one prediction object per record. Scoring chunks and
    TSV blocks are kept small, so that neither fixed-size buffer grows over
    this range."""
    data = gen_synthetic(
        SyntheticConfig(
            n_drugs=50, n_targets=5, drug_dim=10, protein_dim=10, pocket_dim=6,
            n_latent_factors=2, smiles_len=8, seed=3,
        )
    )
    bundle = DatasetBundle(
        drugs=data.drugs, proteins=data.proteins, pockets=data.pockets,
        interactions=data.interactions, smiles=data.smiles,
    )
    state = M.init_model(model_cfg(pocket_dim=6), seed=0)
    monkeypatch.setattr(M, "CHUNK_ELEMENTS", 256 * state.config.hidden_dim)
    monkeypatch.setattr(_util, "TSV_BLOCK_ROWS", 256)
    rng = np.random.default_rng(0)

    def peak(n_records):
        records = [bundle.interactions[i] for i in rng.integers(0, len(bundle.interactions), n_records)]
        tracemalloc.start()
        try:
            predictions = evaluate(state, bundle, records)
            save_predictions(predictions, tmp_path / "predictions.tsv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 2_000, 20_000
    grown = (peak(large) - peak(small)) / (large - small)
    assert grown <= 200, f"{grown:.0f} B a record"


class RollByOne:
    """An RNG stand-in for `_forward_losses` whose permutation rolls by one:
    the triplet negatives the per-pair path takes."""

    @staticmethod
    def permutation(n):
        return np.roll(np.arange(n), 1)


def _train_step(state, arr, idx, tape=None, forward_losses=None):
    """Loss value and parameter gradients of one training step."""
    tape = tape or Tape()
    if forward_losses is None:
        terms = T._forward_losses(state, arr, idx, tape, RollByOne)
    else:
        terms = forward_losses(state, arr, idx, tape)
    total, _ = losses.composite_loss(tape, terms, state.config)
    return total.item(), tape.backward(total)


ORACLE_CASES = {
    "classification-pocket": ("dti", dict(pocket_dim=6)),
    "classification": ("dti", {}),
    "triplet-pocket": ("dti", dict(pocket_dim=6, contrastive="triplet_l2")),
    "triplet": ("dti", dict(contrastive="triplet_l2")),
    "regression-pocket": ("dta", dict(pocket_dim=6, mode="regression")),
    "regression": ("dta", dict(mode="regression")),
}


def _distinct_pairs(pairs):
    """Indices of pairs no two of which share a drug or a target."""
    seen_d, seen_t, picked = set(), set(), []
    for i, (d, t) in enumerate(zip(pairs.drug_idx, pairs.target_idx)):
        if d not in seen_d and t not in seen_t:
            seen_d.add(d)
            seen_t.add(t)
            picked.append(i)
    return np.array(picked)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_training_step_through_pairs_matches_per_pair_matrices(monkeypatch, case):
    """One per-entity training step against the per-pair path (every tower,
    both heads and the autoencoder once per pair, the reconstruction loss a
    mean over pairs): the loss and every parameter gradient agree to 1e-12
    of their largest magnitude, on a minibatch that repeats drugs and
    targets and on one whose pairs share none, with take_cols' backward as
    a one-hot product and as a segment sum."""
    task, kw = ORACLE_CASES[case]
    bundle = pocket_bundle(task)
    state = M.init_model(model_cfg(**kw), seed=4)
    rng = np.random.default_rng(3)
    for p in state.parameters():  # non-zero biases, so their placement counts
        if p.name.endswith(".bias"):
            p.value[...] = 0.1 * rng.standard_normal(p.value.shape)
    pairs = T._Pairs(bundle, bundle.interactions, state.config)
    pairs.tokenize(bundle, state.tokenizer)
    repeated = np.random.default_rng(2).permutation(len(bundle.interactions))[:64]
    distinct = _distinct_pairs(pairs)
    assert np.unique(pairs.drug_idx[repeated]).size < repeated.size > np.unique(pairs.target_idx[repeated]).size
    assert distinct.size == np.unique(pairs.target_idx).size
    for idx in (repeated, distinct):
        if task == "dti":
            assert 0 < pairs.truth[idx].sum() < idx.size
        want_loss, want_grads = _train_step(state, pairs, idx, forward_losses=_per_pair_losses)
        for limit in (nn.ONEHOT_LIMIT, 0):
            monkeypatch.setattr(nn, "ONEHOT_LIMIT", limit)
            loss, grads = _train_step(state, pairs, idx)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            assert grads.keys() == want_grads.keys()
            for p, want in want_grads.items():
                assert np.max(np.abs(grads[p] - want)) <= 1e-12 * np.max(np.abs(want)), p.name
        monkeypatch.undo()


def test_train_with_lambda_pocket_zero_only_decays_the_pocket_branch():
    """lambda_pocket = 0 keeps the pocket encoder off the tape: Adam gives it
    a zero gradient, so only weight decay moves it."""
    from tensordti._util import splitmix64

    bundle = pocket_bundle()
    bundle.interactions = split(bundle.interactions, SplitSpec(seed=1))
    cfg = model_cfg(pocket_dim=6, lambda_protein=0.5, lambda_pocket=0.0)
    init = M.init_model(cfg, seed=splitmix64(0, 0))
    state, report = train(cfg, bundle, train_cfg(max_epochs=3, patience=3))
    assert np.isfinite(report.test_mean["aupr"])
    for before, after in zip(init.encoder_pocket, state.encoder_pocket):
        w0, w = before.weight.value, after.weight.value
        assert not np.array_equal(w, w0)
        np.testing.assert_allclose(w, w0, rtol=1e-6, atol=0)


def _cut_case(case):
    """(state, training table, minibatch, the minibatch's scorable prefix).
    One record per drug, in the table's sorted drug order, so the token
    columns line up with the records."""
    bundle = pocket_bundle() if case == "classification-pocket" else make_bundle()
    state = M.init_model(model_cfg(pocket_dim=6 if case == "classification-pocket" else None), seed=3)
    records = sorted({r.drug_id: r for r in bundle.interactions}.values(), key=lambda r: r.drug_id)[:40]
    if case == "truncated-at-max-len":
        bundle.smiles = {**bundle.smiles, records[7].drug_id: "CNOS" * 5}
    arr = T._Pairs(bundle, records, state.config)
    arr.tokenize(bundle, state.tokenizer)
    assert np.array_equal(arr.drug_idx, np.arange(len(records)))
    idx = np.arange(len(records))[::-1]
    if case == "one-sample":
        idx = idx[:1]
    if case == "prefix-1":  # only the first position is scored
        arr.pad_mask[1:] = 0.0
        arr.token_ids[1:] = 0
    want = {"prefix-1": 1, "truncated-at-max-len": state.config.max_len}.get(case, 10)
    return state, arr, idx, want


@pytest.mark.parametrize(
    "case", ["classification", "classification-pocket", "one-sample", "prefix-1", "truncated-at-max-len"]
)
def test_cut_reconstruction_step_matches_full_length(monkeypatch, case):
    """A step whose reconstruction loss covers only the batch's longest
    scorable prefix against the same step over all max_len positions: equal
    loss and gradients to float rounding, and exactly zero gradient on the
    decoder rows past the prefix."""
    state, arr, idx, want = _cut_case(case)
    n_pos = M.scorable_prefix(arr.pad_mask[:, idx])
    assert n_pos == want
    loss, grads = _train_step(state, arr, idx)
    monkeypatch.setattr(M, "scorable_prefix", lambda mask: mask.shape[0])
    full_loss, full_grads = _train_step(state, arr, idx)
    assert loss == pytest.approx(full_loss, rel=1e-12, abs=0)
    for p in state.parameters():
        np.testing.assert_allclose(grads[p], full_grads[p], rtol=0, atol=1e-12, err_msg=p.name)
    rows = n_pos * state.config.vocab_size
    assert not np.any(grads[state.ae_decoder.weight][rows:])
    assert not np.any(grads[state.ae_decoder.bias][rows:])


def test_training_step_backward_skips_inputs_and_detached_values():
    """No backward closure of a training step hands a contribution to a node
    that needs no gradient: the raw drug/protein/pocket inputs and the
    detached confidence-head input get none."""
    from test_nn import SinkSpy

    state, arr, idx, _ = _cut_case("classification-pocket")
    tape = SinkSpy()
    _, grads = _train_step(state, arr, idx, tape)
    assert tape.sunk and all(node.needs_grad for node in tape.sunk)
    assert all(np.any(grads[p]) for p in (state.conf_head[0].weight, state.encoder_pocket[0].weight))


# -- one tape per run: a kept gradient buffer, token cross-entropy cubes and matmul outputs ---------


class FreshEachStep(Tape):
    """A tape that drops its buffers after each backward, so every step
    allocates its gradient buffer and lent buffers anew, as a new tape per
    step does."""

    def backward(self, loss):
        grads = super().backward(loss)
        self._grads, self._bufs = {}, []
        return grads


def _steps(state, pairs, tape_for, sizes):
    """Training steps (forward, loss, backward, Adam) over minibatches of the
    given sizes; yields each step's gradients, copied."""
    adam = nn.AdamState(lr=1e-2)
    rng = np.random.default_rng(3)
    for size in sizes:
        tape = tape_for()
        idx = rng.choice(len(pairs.drug_idx), size=size, replace=False)
        total, _ = losses.composite_loss(tape, T._forward_losses(state, pairs, idx, tape, RollByOne), state.config)
        grads = tape.backward(total)
        yield {p.name: g.copy() for p, g in grads.items()}
        nn.adam_step(adam, state.parameters(), grads)


@pytest.mark.parametrize("case", ["classification-pocket", "classification-no-pocket", "regression-pocket", "regression-no-pocket"])
def test_reused_tape_gives_a_fresh_tapes_gradients_bit_for_bit(case):
    """Four consecutive steps of growing and shrinking minibatches: the
    tape kept across them gives exactly the gradients of a new tape per
    step, in both modes, with and without a pocket."""
    task, kw = FACTORED_CASES[case]
    bundle = pocket_bundle(task)
    runs = []
    for reuse in (False, True):
        state = M.init_model(model_cfg(**kw), seed=7)
        pairs = T._Pairs(bundle, bundle.interactions, state.config)
        pairs.tokenize(bundle, state.tokenizer)
        kept = Tape()
        runs.append(list(_steps(state, pairs, (lambda: kept) if reuse else Tape, (9, 31, 4, 17))))
    fresh, reused = runs
    assert len(fresh) == 4 and all(len(f) > 0 for f in fresh)
    for f, r in zip(fresh, reused):
        assert f.keys() == r.keys()
        assert all(np.array_equal(f[k], r[k]) for k in f)


def test_two_token_xent_ops_on_one_tape_get_separate_cubes():
    """Each token cross-entropy keeps its own cube until backward: the
    gradient of the sum of two is the sum of each one's alone, bit for bit,
    and the next step with a larger cube reuses neither wrongly."""
    rng = np.random.default_rng(0)
    n_pos, vocab = 3, 5

    def grads(pairs_of_ids, batch, tape):
        logits = nn.Param(rng_logits[: n_pos * vocab, :batch].copy(), "logits")
        mask = np.ones((n_pos, batch))
        xents = [tape.token_xent(logits, ids[:, :batch], mask, n_pos, vocab) for ids in pairs_of_ids]
        total = xents[0] if len(xents) == 1 else tape.add(*xents)
        return tape.backward(tape.sum_all(total))[logits]

    rng_logits = rng.standard_normal((n_pos * vocab, 8))
    a, b = rng.integers(0, vocab, (2, n_pos, 8))
    tape = Tape()
    for batch in (4, 8):  # the second step needs larger cubes
        both = grads((a, b), batch, tape)
        assert np.array_equal(both, grads((a,), batch, Tape()) + grads((b,), batch, Tape()))


def _desk_step_setup():
    """A model and minibatch of the train-desk-dta benchmark's dims: hidden
    32, output 16, latent 8, 24 token positions, a 24-d pocket branch and
    32 pairs a step, in regression mode."""
    data = gen_synthetic(
        SyntheticConfig(
            n_drugs=60, n_targets=8, drug_dim=64, protein_dim=64, pocket_dim=24,
            n_latent_factors=2, noise=0.05, smiles_len=22, task="dta", seed=4,
        )
    )
    bundle = DatasetBundle(
        drugs=data.drugs, proteins=data.proteins, pockets=data.pockets, interactions=data.interactions, smiles=data.smiles
    )
    cfg = ModelConfig(
        drug_dim=64, protein_dim=64, pocket_dim=24, hidden_dim=32, output_dim=16, latent_dim=8, max_len=24,
        mode="regression",
    )
    state = M.init_model(cfg, seed=1)
    pairs = T._Pairs(bundle, bundle.interactions, state.config)
    pairs.tokenize(bundle, state.tokenizer)
    return state, pairs


def test_warm_desk_step_allocates_no_cross_entropy_cube(monkeypatch):
    """After a first step on a kept tape, neither the token cross-entropy
    nor backward allocates an array the size of the (positions, vocab,
    unique drugs) cube: the tape lends its cube and gradient buffer again."""
    state, pairs = _desk_step_setup()
    idx = np.random.default_rng(0).choice(len(pairs.drug_idx), size=32, replace=False)
    drugs = np.unique(pairs.drug_idx[idx])
    cube_bytes = 8 * M.scorable_prefix(pairs.pad_mask[:, drugs]) * state.config.vocab_size * drugs.size
    peaks = {}

    def traced(name, fn):
        def run(*args, **kw):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kw)
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
            return out
        return run

    tape, adam = Tape(), nn.AdamState(lr=1e-3)

    def step():
        total, _ = losses.composite_loss(tape, T._forward_losses(state, pairs, idx, tape, RollByOne), state.config)
        nn.adam_step(adam, state.parameters(), tape.backward(total))

    step()  # makes the tape's buffers
    monkeypatch.setattr(tape, "token_xent", traced("token_xent", tape.token_xent))
    monkeypatch.setattr(tape, "backward", traced("backward", tape.backward))
    tracemalloc.start()
    try:
        step()
    finally:
        tracemalloc.stop()
    assert cube_bytes > 100_000 and set(peaks) == {"token_xent", "backward"}
    assert all(peak < cube_bytes / 2 for peak in peaks.values()), (peaks, cube_bytes)


@pytest.mark.parametrize("task, kw", [("dti", {}), ("dta", dict(pocket_dim=6, mode="regression"))])
def test_train_checkpoint_matches_a_fresh_tape_per_step(monkeypatch, tmp_path, task, kw):
    """Training on one tape per run writes the same checkpoint bytes and
    report as training on a new tape (new buffers) every step."""
    if kw:
        bundle = pocket_bundle(task)
        bundle.interactions = split(bundle.interactions, SplitSpec(seed=2))
    else:
        bundle = make_bundle(task)
    out = []
    for tape_cls in (Tape, FreshEachStep):
        monkeypatch.setattr(T, "Tape", tape_cls)
        state, report = train(model_cfg(**kw), bundle, train_cfg(max_epochs=3, batch_size=16))
        M.save_checkpoint(state, tmp_path / "m.ckpt")
        out.append(((tmp_path / "m.ckpt").read_bytes(), report.to_json()))
    assert out[0] == out[1]


# -- float32 training: the float64 tape path as oracle, and every buffer in the step's dtype ---------


def _float_step_case(case, dtype):
    """A state with non-zero biases in `dtype`, its training table in the
    same dtype, and two minibatches: 64 pairs that repeat drugs and
    targets, and in classification 8 pairs with no positive."""
    from test_model import as_dtype

    task, kw = ORACLE_CASES[case]
    bundle = pocket_bundle(task)
    state = M.init_model(model_cfg(**kw), seed=4)
    rng = np.random.default_rng(3)
    for p in state.parameters():
        if p.name.endswith(".bias"):
            p.value[...] = 0.1 * rng.standard_normal(p.value.shape).astype(np.float32)
    state = as_dtype(state, dtype)
    pairs = T._Pairs(bundle, bundle.interactions, state.config, dtype=dtype)
    pairs.tokenize(bundle, state.tokenizer)
    batches = [np.random.default_rng(2).permutation(len(bundle.interactions))[:64]]
    if task == "dti":
        batches.append(np.flatnonzero(pairs.truth == 0)[:8])
    return state, pairs, batches


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_float32_step_matches_the_float64_tape_path(case):
    """One step in float32 against the same step in float64 on the same
    float32-valued weights and inputs: each loss term within rtol 1e-5, and
    the whole gradient within 1e-5 of its norm."""
    for idx in _float_step_case(case, np.float64)[2]:
        steps = []
        for dtype in (np.float32, np.float64):
            state, pairs, _ = _float_step_case(case, dtype)
            tape = Tape()
            terms = T._forward_losses(state, pairs, idx, tape, RollByOne)
            total, values = losses.composite_loss(tape, terms, state.config)
            grads = tape.backward(total)
            steps.append((values, next(iter(grads.values())).base.astype(np.float64)))
        (values32, g32), (values64, g64) = steps
        assert values32.keys() == values64.keys()
        for name, want in values64.items():
            assert values32[name] == pytest.approx(want, rel=1e-5, abs=0), name
        assert np.linalg.norm(g32 - g64) <= 1e-5 * np.linalg.norm(g64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["classification-pocket", "triplet", "regression-pocket"])
def test_a_step_keeps_every_buffer_in_its_parameters_dtype(case, dtype):
    """A loss constant in another dtype would turn the first matmul mixed
    and spread float64 through a float32 step: after steps on a kept tape,
    every loss term, backward contribution, lent buffer, the gradient buffer
    and Adam's moments and scratch are in the parameters' dtype."""
    from test_nn import SinkSpy

    state, pairs, batches = _float_step_case(case, dtype)
    tape, adam = SinkSpy(), nn.AdamState(lr=1e-3, weight_decay=1e-2)
    for idx in batches:
        terms = T._forward_losses(state, pairs, idx, tape, RollByOne)
        assert {t.value.dtype for t in terms.values()} == {np.dtype(dtype)}
        total, _ = losses.composite_loss(tape, terms, state.config)
        nn.adam_step(adam, state.parameters(), tape.backward(total))
    buffers = [*tape._bufs, *tape._grads.values(), adam.m, adam.v, adam.scratch, state.flat]
    assert len(tape._bufs) > 10 and {b.dtype for b in buffers} == tape.dtypes == {np.dtype(dtype)}


def test_train_keeps_one_float32_buffer_from_init_to_checkpoint(monkeypatch, tmp_path):
    """`train` runs every Adam step on float32 parameters, gradients and
    moments, and returns a float32 state (init_model's buffer, trained),
    whose checkpoint is a version 2 file: the buffer's bytes as one block."""
    seen = []

    def spy(adam, params, grads):
        nn.adam_step(adam, params, grads)
        buffers = [params[0].flat, adam.m, adam.v, adam.scratch, *grads.values()]
        seen.append({b.dtype for b in buffers})

    monkeypatch.setattr(T, "adam_step", spy)
    cfg = model_cfg()
    init = M.init_model(cfg, seed=_util.splitmix64(0, 0))
    state, _ = train(cfg, make_bundle(), train_cfg(max_epochs=2, patience=2))
    assert seen and all(s == {np.dtype(np.float32)} for s in seen)
    assert not np.array_equal(state.flat, init.flat)
    assert init.flat.dtype == state.flat.dtype == np.float32
    M.save_checkpoint(state, tmp_path / "m.tdti")
    raw = (tmp_path / "m.tdti").read_bytes()
    assert raw[8:12] == (2).to_bytes(4, "little")
    assert raw[-4 - state.flat.nbytes : -4] == state.flat.tobytes()


@pytest.mark.parametrize("case", ["classification", "regression-pocket"])
def test_float32_state_predicts_as_its_float64_widening_bit_for_bit(case):
    """Scoring stays float64 with no widening copy: each op promotes the
    float32 weights against the float64 embeddings, so every prediction
    column of a float32 state, unfamiliarity included, equals that of a
    float64 state over the same values, bit for bit."""
    from test_model import as_dtype

    state, _, _ = _float_step_case(case, np.float32)
    bundle = pocket_bundle(ORACLE_CASES[case][0])
    narrow = evaluate(state, bundle, bundle.interactions)
    wide = evaluate(as_dtype(state, np.float64), bundle, bundle.interactions)
    assert state.flat.dtype == np.float32 and narrow["unfamiliarity"][0] is not None
    assert {k: list(map(repr, v)) for k, v in narrow.items()} == {k: list(map(repr, v)) for k, v in wide.items()}
