"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is self-contained and desk-scale (a few minutes on one
CPU core).
"""

import dataclasses
import functools
import itertools
import json
import math
import time

import numpy as np

from tensordti import losses, model as M
from tensordti.metrics import aupr, f1, pcc, rmse
from tensordti.model import ModelConfig
from tensordti.nn import Tape, grad_check, stable_sigmoid, token_nll
from tensordti.pipeline import SplitSpec, split
from tensordti.screening import (
    ActiveSet,
    ceil_count,
    ef_at_k,
    filter_unfamiliar,
    kpct_actives_budget,
    random_budget,
    rank,
    recall_at_k,
    topk_potency_budget,
)
from tensordti.synthetic import SyntheticConfig, gen_synthetic
from tensordti.training import DatasetBundle, TrainConfig, evaluate, train

VOCAB = "CNOPSFclnos="


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:>2} FAIL  {text}")
                raise
            print(f"ACCEPTANCE {num:>2} PASS  {text}")

        return wrapper

    return deco


def synth_bundle(noise, seed, strategy="random", task="dti", n_drugs=200, n_targets=50):
    data = gen_synthetic(
        SyntheticConfig(
            n_drugs=n_drugs, n_targets=n_targets, drug_dim=16, protein_dim=16,
            n_latent_factors=3, noise=noise, smiles_len=10, task=task, seed=seed,
        )
    )
    records = split(data.interactions, SplitSpec(strategy=strategy, seed=seed))
    return data, DatasetBundle(
        drugs=data.drugs, proteins=data.proteins, interactions=records, smiles=data.smiles
    )


def model_cfg(**kw):
    base = dict(drug_dim=16, protein_dim=16, hidden_dim=32, output_dim=16,
                latent_dim=16, max_len=12, vocab=VOCAB)
    base.update(kw)
    return ModelConfig(**base)


def train_cfg(**kw):
    base = dict(lr=3e-3, weight_decay=1e-5, max_epochs=200, patience=20,
                batch_size=128, seeds=(0,))
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------


@criterion(1, "composite-loss gradients match central finite differences < 1e-4")
def test_criterion_1_gradient_correctness():
    cfg = ModelConfig(drug_dim=6, protein_dim=5, hidden_dim=7, output_dim=4,
                      latent_dim=5, max_len=8, vocab="CNOS")
    assert (cfg.alpha_cls, cfg.alpha_con, cfg.alpha_conf, cfg.alpha_recon) == (0.4, 0.2, 0.2, 0.2)
    from test_model import as_dtype

    state = as_dtype(M.init_model(cfg, seed=3), np.float64)  # finite differences need float64
    tok = state.tokenizer
    t0 = time.monotonic()
    for batch_seed in range(5):
        rng = np.random.default_rng(100 + batch_seed)
        xd = rng.standard_normal((6, 4))
        xp = rng.standard_normal((5, 4))
        y = rng.integers(0, 2, 4).astype(float)
        seqs = [tok.tokenize("".join(rng.choice(list("CNOS"), size=5))) for _ in range(4)]
        ids = np.stack([s.ids for s in seqs], axis=1)
        mask = np.stack([tok.pad_mask(s) for s in seqs], axis=1)

        # Freeze the stop-gradient boundary once: the confidence head input
        # and its regression target are constants of the loss being
        # differentiated, exactly as the tape treats them.
        boot = Tape()
        e_d0 = M.encode_drug(state, xd, boot)
        e_p0 = M.encode_protein_with_pocket(state, xp, None, boot)
        logit0 = M.interaction_logit(state, e_d0, e_p0, boot)
        frozen_e_d = e_d0.value.copy()
        frozen_e_p = e_p0.value.copy()
        frozen_logit = logit0.value.copy()
        frozen_probs = stable_sigmoid(frozen_logit).reshape(-1)
        boot.clear()

        def forward():
            tape = Tape()
            e_d = M.encode_drug(state, xd, tape)
            e_p = M.encode_protein_with_pocket(state, xp, None, tape)
            logit = M.interaction_logit(state, e_d, e_p, tape)
            conf = M.confidence(
                state, tape.constant(frozen_e_d), tape.constant(frozen_e_p),
                tape.constant(frozen_logit), tape,
            )
            terms = {
                "bce": losses.bce_with_logits(tape, logit, y),
                "con": losses.contrastive_cosine(tape, e_d, e_p, y, cfg.margin),
                "conf": losses.confidence_loss(tape, conf, y, frozen_probs),
                "recon": losses.reconstruction_loss(
                    tape, M.reconstruct(state, xd, tape), ids, mask, cfg.max_len, cfg.vocab_size
                ),
            }
            total, _ = losses.composite_loss(tape, terms, cfg)
            return tape, total

        report = grad_check(forward, state.parameters(), 1e-4, samples=150, seed=batch_seed)
        assert report.passed, f"batch {batch_seed}: {report}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


@criterion(2, "all loss closed forms exact at 1e-9")
def test_criterion_2_loss_closed_forms():
    TOL = 1e-9
    t = Tape

    def v(node):
        return node.item()

    # bce
    assert abs(v(losses.bce_with_logits(t(), [[0.0]], [1])) - math.log(2)) < TOL
    assert abs(v(losses.bce_with_logits(t(), [[math.log(3)]], [0])) + math.log(0.25)) < TOL
    assert v(losses.bce_with_logits(t(), [[50.0]], [1])) < 1e-20
    assert v(losses.bce_with_logits(t(), [[-50.0]], [0])) < 1e-20
    # cosine margin
    e = [[1.0], [2.0]]
    assert abs(v(losses.contrastive_cosine(t(), e, e, [1], 1.0))) < TOL
    assert abs(v(losses.contrastive_cosine(t(), e, e, [0], 1.0)) - 1.0) < TOL
    assert abs(v(losses.contrastive_cosine(t(), [[1.0], [0.0]], [[0.0], [1.0]], [0], 1.0))) < TOL
    # triplet
    o = [[0.0], [0.0]]
    assert abs(v(losses.contrastive_triplet(t(), o, o, [[2.0], [0.0]], 1.0))) < TOL
    assert abs(v(losses.contrastive_triplet(t(), o, [[1.0], [0.0]], [[0.0], [1.0]], 0.5)) - 0.5) < TOL
    assert abs(v(losses.contrastive_triplet(t(), o, [[1.0], [0.0]], [[0.0], [3.0]], 1.0))) < TOL
    # confidence
    assert abs(v(losses.confidence_loss(t(), [[0.2]], [1], [0.8]))) < TOL
    assert abs(v(losses.confidence_loss(t(), [[0.5]], [1], [1.0])) - 0.25) < TOL
    assert abs(v(losses.confidence_loss(t(), [[0.3]], [1], [0.8])) - 0.01) < TOL
    # reconstruction
    ids = np.array([[1], [4], [5], [2], [0], [0]])
    mask = (ids != 0).astype(float)
    assert abs(v(losses.reconstruction_loss(t(), np.zeros((6 * 20, 1)), ids, mask, 6, 20)) - math.log(20)) < TOL
    hot = np.zeros((4, 4))
    hot_ids = np.array([[1], [3], [2], [0]])
    for row in range(4):
        hot[row, hot_ids[row, 0]] = 20.0
    assert v(losses.reconstruction_loss(t(), hot.reshape(-1, 1), hot_ids, (hot_ids != 0).astype(float), 4, 4)) < 1e-8
    rng = np.random.default_rng(2)
    short = rng.standard_normal((3, 9))
    ids3 = np.array([[1], [5], [2]])
    a = v(losses.reconstruction_loss(t(), short.reshape(-1, 1), ids3, np.ones((3, 1)), 3, 9))
    padded = np.vstack([short, rng.standard_normal((2, 9))])
    ids5 = np.vstack([ids3, np.zeros((2, 1), int)])
    b = v(losses.reconstruction_loss(t(), padded.reshape(-1, 1), ids5, (ids5 != 0).astype(float), 5, 9))
    assert abs(a - b) < TOL
    # mse
    assert abs(v(losses.mse_loss(t(), [[1.0, 2.0]], [[1.0, 2.0]]))) < TOL
    assert abs(v(losses.mse_loss(t(), [[0.0, 0.0]], [[1.0, 1.0]])) - 1.0) < TOL
    assert abs(v(losses.mse_loss(t(), [[2.0]], [[5.0]])) - 9.0) < TOL
    # composite
    czero = ModelConfig(drug_dim=2, protein_dim=2, alpha_cls=0, alpha_con=0, alpha_conf=0, alpha_recon=0)
    tape = Tape()
    total, _ = losses.composite_loss(
        tape, {"bce": tape.constant(1.0), "con": tape.constant(1.0),
               "conf": tape.constant(1.0), "recon": tape.constant(1.0)}, czero)
    assert abs(v(total)) < TOL
    cdef = ModelConfig(drug_dim=2, protein_dim=2)
    tape = Tape()
    total, _ = losses.composite_loss(
        tape, {"bce": tape.constant(1.0), "con": tape.constant(0.5),
               "conf": tape.constant(0.5), "recon": tape.constant(0.5)}, cdef)
    assert abs(v(total) - 0.7) < TOL


@criterion(3, "confidence loss gradient w.r.t. classifier parameters is identically zero")
def test_criterion_3_stop_gradient():
    cfg = ModelConfig(drug_dim=8, protein_dim=6, hidden_dim=10, output_dim=5,
                      latent_dim=4, max_len=8, vocab="CN")
    state = M.init_model(cfg, seed=1)
    rng = np.random.default_rng(0)
    for trial in range(10):
        xd = rng.standard_normal((8, 6))
        xp = rng.standard_normal((6, 6))
        y = rng.integers(0, 2, 6)
        tape = Tape()
        e_d = M.encode_drug(state, xd, tape)
        e_p = M.encode_protein_with_pocket(state, xp, None, tape)
        logit = M.interaction_logit(state, e_d, e_p, tape)
        conf = M.confidence(state, e_d, e_p, logit, tape)
        probs = stable_sigmoid(logit.value).reshape(-1)
        grads = tape.backward(losses.confidence_loss(tape, conf, y, probs))
        for p, g in grads.items():
            if not p.name.startswith("conf_head"):
                assert np.all(g == 0.0), f"trial {trial}: L_conf leaked into {p.name}"


@criterion(4, "pocket aggregation linear to 1e-12; lambda_pocket=0 equals pocketless bit-for-bit")
def test_criterion_4_pocket_linearity():
    cfg = ModelConfig(drug_dim=6, protein_dim=9, pocket_dim=7, hidden_dim=12,
                      output_dim=5, latent_dim=4, max_len=8, vocab="CN",
                      lambda_protein=1.0, lambda_pocket=2.0)
    state = M.init_model(cfg, seed=5)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        p = rng.standard_normal((9, 1))
        k = rng.standard_normal((7, 1))
        combined = M.encode_protein_with_pocket(state, p, k).value
        expected = (
            cfg.lambda_protein * M.run_encoder(state.encoder_protein, p)
            + cfg.lambda_pocket * M.run_encoder(state.encoder_pocket, k)
        )
        worst = max(worst, float(np.max(np.abs(combined - expected))))
    assert worst < 1e-12, f"max deviation {worst}"

    zero_cfg = dataclasses.replace(cfg, lambda_pocket=0.0)
    pocketful = M.init_model(zero_cfg, seed=7)
    pocketless = M.init_model(dataclasses.replace(cfg, pocket_dim=None), seed=8)
    for a, b in zip(pocketless.encoder_protein, pocketful.encoder_protein):
        a.weight.value[...] = b.weight.value.copy()
        a.bias.value[...] = b.bias.value.copy()
    xp = rng.standard_normal((9, 64))
    xk = rng.standard_normal((7, 64))
    with_pocket = M.encode_protein_with_pocket(pocketful, xp, xk).value
    without = M.encode_protein_with_pocket(pocketless, xp, None).value
    assert np.array_equal(with_pocket, without)


@criterion(5, "planted data: AUPR >= 0.95 in <= 200 epochs; unseen-target beats shuffled by >= 0.25")
def test_criterion_5_planted_learning():
    t0 = time.monotonic()
    _, bundle = synth_bundle(noise=0.0, seed=7)
    _, report = train(model_cfg(), bundle, train_cfg())
    elapsed = time.monotonic() - t0
    assert report.test_mean["aupr"] >= 0.95, report.test_mean
    assert max(e.epoch for e in report.runs[0].epochs) < 200
    assert elapsed < 120.0, f"training took {elapsed:.1f}s"

    gaps = []
    for seed in (0, 1, 2):
        _, bundle = synth_bundle(noise=0.0, seed=seed, strategy="unseen_target")
        cfg = train_cfg(max_epochs=40, patience=12, seeds=(seed,))
        _, trained = train(model_cfg(), bundle, cfg)
        rng = np.random.default_rng(seed)
        trainvalid = [r for r in bundle.interactions if r.split in ("train", "valid")]
        labs = rng.permutation([r.label for r in trainvalid])
        shuffled, k = [], 0
        for r in bundle.interactions:
            if r.split in ("train", "valid"):
                shuffled.append(dataclasses.replace(r, label=int(labs[k])))
                k += 1
            else:
                shuffled.append(r)
        control_bundle = DatasetBundle(
            drugs=bundle.drugs, proteins=bundle.proteins, interactions=shuffled, smiles=bundle.smiles
        )
        _, control = train(model_cfg(), control_bundle, cfg)
        gaps.append(trained.test_mean["aupr"] - control.test_mean["aupr"])
    assert float(np.mean(gaps)) >= 0.25, f"gaps {gaps}"


@criterion(6, "mean confidence over correct predictions < over incorrect, 3 of 3 seeds")
def test_criterion_6_confidence_semantics():
    for seed in (0, 1, 2):
        _, bundle = synth_bundle(noise=0.6, seed=seed)
        state, _ = train(model_cfg(), bundle, train_cfg(max_epochs=40, patience=12, seeds=(seed,)))
        preds = evaluate(state, bundle, bundle.subset("test"))
        truth = {(r.drug_id, r.target_id): r.label for r in bundle.subset("test")}
        correct, incorrect = [], []
        for d, t, label, conf in zip(preds["drug_id"], preds["target_id"], preds["pred_label"], preds["confidence"]):
            bucket = correct if label == truth[(d, t)] else incorrect
            bucket.append(conf)
        assert incorrect, f"seed {seed}: no errors on the noisy set"
        assert float(np.mean(correct)) < float(np.mean(incorrect)), (
            f"seed {seed}: {np.mean(correct):.4f} !< {np.mean(incorrect):.4f}"
        )


@criterion(7, "unfamiliarity closed forms and strict U < 1.0 filter boundary")
def test_criterion_7_unfamiliarity():
    cfg = ModelConfig(drug_dim=6, protein_dim=6, hidden_dim=8, output_dim=4,
                      latent_dim=4, max_len=10, vocab="CNOSPF123456789c")
    assert cfg.vocab_size == 20
    state = M.init_model(cfg, seed=0)
    state.ae_decoder.weight.value[...] = np.zeros_like(state.ae_decoder.weight.value)
    state.ae_decoder.bias.value[...] = np.zeros_like(state.ae_decoder.bias.value)
    tokens = state.tokenizer.tokenize("CNO")
    cube = M.reconstruct(state, np.ones(6)).value.reshape(cfg.max_len, cfg.vocab_size, 1)
    mask = (tokens.ids != 0).astype(float)
    nll, _ = token_nll(cube, tokens.ids.reshape(-1, 1), mask.reshape(-1, 1))
    assert abs(nll[0] - math.log(20)) < 1e-9

    eps = 1e-8
    boundary_nll = math.e - eps
    u_boundary = math.log(boundary_nll + eps)
    assert abs(u_boundary - 1.0) < 1e-9

    table = {
        "compound_id": ["inside", "boundary", "outside"],
        "score": [1.0, 1.0, 1.0],
        "label": [None, None, None],
        "unfamiliarity": [0.999999, u_boundary, 1.5],
    }
    kept, _ = filter_unfamiliar(table, 1.0)
    assert kept["compound_id"] == ["inside"]


@criterion(8, "EF identity exact on 1000 rankings; budgets match brute force incl. all 8! permutations")
def test_criterion_8_enrichment_identities():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        ids = [f"c{i:02d}" for i in range(n)]
        ranked = rng.permutation(ids).tolist()
        a = int(rng.integers(1, n + 1))
        act = ActiveSet(frozenset(rng.choice(ids, a, replace=False).tolist()))
        k = int(rng.integers(1, n + 1))
        r = recall_at_k(ranked, act, k)
        assert ef_at_k(ranked, act, k) == r * n / k

    def budget_oracle(ranked_ids, active_ids, k_percent):
        need = max(1, ceil_count(k_percent * len(active_ids) / 100.0))
        found = 0
        for pos, cid in enumerate(ranked_ids, 1):
            if cid in active_ids:
                found += 1
                if found >= need:
                    return 100.0 * pos / len(ranked_ids)

    def topk_oracle(ranked_ids, active_ids, potency, k_percent):
        m = max(1, ceil_count(k_percent * len(active_ids) / 100.0))
        chosen = sorted(active_ids, key=lambda c: (-potency[c], c))[:m]
        return 100.0 * max(ranked_ids.index(c) + 1 for c in chosen) / len(ranked_ids)

    ids8 = list("abcdefgh")
    act_ids = {"b", "e", "g"}
    act = ActiveSet(frozenset(act_ids), potency={"b": 3.0, "e": 1.0, "g": 2.0})
    for perm in itertools.permutations(ids8):
        ranked = list(perm)
        for k in (33.4, 100.0):
            assert kpct_actives_budget(ranked, act, k) == budget_oracle(list(perm), act_ids, k)
            assert topk_potency_budget(ranked, act, k) == topk_oracle(list(perm), act_ids, act.potency, k)

    for _ in range(200):
        n = int(rng.integers(9, 13))
        ids = [f"c{i:02d}" for i in range(n)]
        ranked = rng.permutation(ids).tolist()
        a = int(rng.integers(1, n))
        chosen = rng.choice(ids, a, replace=False).tolist()
        pot = {c: float(rng.standard_normal()) for c in chosen}
        act = ActiveSet(frozenset(chosen), potency=pot)
        k = float(rng.uniform(1, 100))
        assert kpct_actives_budget(ranked, act, k) == budget_oracle(ranked, set(chosen), k)
        assert topk_potency_budget(ranked, act, k) == topk_oracle(ranked, set(chosen), pot, k)


@criterion(9, "random baseline reproduces the CDK2 Random k%AR column within +-0.3")
def test_criterion_9_random_baseline_reference_column():
    n, a = 2450, 796
    expected = {1.0: 1.00, 5.0: 5.00, 20.0: 20.00, 50.0: 50.00}
    for k, value in expected.items():
        mean, _ = random_budget(n, a, max(1, ceil_count(k * a / 100.0)))
        assert abs(mean - value) <= 0.3, f"k={k}: {mean:.3f} vs {value}"


@criterion(10, "AUPR/F1/PCC/RMSE equal brute force (exhaustive <= 6, 100 random size-100)")
def test_criterion_10_metric_oracles():
    def ap_oracle(scores, labels):
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        ranked = [labels[i] for i in order]
        tp, total = 0, 0.0
        for pos, lab in enumerate(ranked, 1):
            if lab == 1:
                tp += 1
                total += tp / pos
        return total / sum(ranked)

    def f1_oracle(scores, labels):
        tp = sum(1 for s, y in zip(scores, labels) if s >= 0.5 and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= 0.5 and y == 0)
        fn = sum(1 for s, y in zip(scores, labels) if s < 0.5 and y == 1)
        return 0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)

    rng = np.random.default_rng(3)
    menu = [0.1, 0.4, 0.5, 0.9]
    for n in range(2, 7):
        for labels in itertools.product([0, 1], repeat=n):
            if sum(labels) in (0, n):
                continue
            scores = rng.choice(menu, size=n).tolist()
            assert abs(aupr(scores, labels) - ap_oracle(scores, labels)) < 1e-9
            assert abs(f1(scores, labels) - f1_oracle(scores, labels)) < 1e-9

    for _ in range(100):
        labels = rng.integers(0, 2, 100)
        if labels.sum() in (0, 100):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(100), 2)
        assert abs(aupr(scores, labels) - ap_oracle(scores.tolist(), labels.tolist())) < 1e-9
        assert abs(f1(scores, labels) - f1_oracle(scores.tolist(), labels.tolist())) < 1e-9
        x = rng.standard_normal(100)
        y = 0.3 * x + rng.standard_normal(100)
        mx, my = x.mean(), y.mean()
        pcc_ref = float(((x - mx) * (y - my)).sum() / math.sqrt(((x - mx) ** 2).sum() * ((y - my) ** 2).sum()))
        rmse_ref = math.sqrt(float(np.mean((x - y) ** 2)))
        assert abs(pcc(x, y) - pcc_ref) < 1e-9
        assert abs(rmse(x, y) - rmse_ref) < 1e-9


@criterion(11, "determinism and bit-exact round-trips (reports, rankings, checkpoints, stores)")
def test_criterion_11_determinism(tmp_path):
    _, bundle = synth_bundle(noise=0.1, seed=4, n_drugs=60, n_targets=15)
    cfg = model_cfg()
    tcfg = train_cfg(max_epochs=5, patience=5)
    state1, r1 = train(cfg, bundle, tcfg)
    state2, r2 = train(cfg, bundle, tcfg)
    assert r1.to_json() == r2.to_json()

    preds1 = evaluate(state1, bundle, bundle.subset("test"))
    preds2 = evaluate(state2, bundle, bundle.subset("test"))
    def score_table(p):
        return {
            "compound_id": [d + "|" + t for d, t in zip(p["drug_id"], p["target_id"])],
            "score": [-prob for prob in p["prob"]],
            "label": p["pred_label"],
            "confidence": p["confidence"],
        }

    table1, table2 = score_table(preds1), score_table(preds2)
    assert rank(table1, "two_key") == rank(table2, "two_key")

    p1, p2 = tmp_path / "a.tdti", tmp_path / "b.tdti"
    M.save_checkpoint(state1, p1)
    M.save_checkpoint(M.load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    from tensordti.embeddings import load_embeddings, save_embeddings_binary, save_embeddings_jsonl

    b1, b2 = tmp_path / "e1.bin", tmp_path / "e2.bin"
    save_embeddings_binary(bundle.drugs, b1)
    save_embeddings_binary(load_embeddings(b1, "drug"), b2)
    assert b1.read_bytes() == b2.read_bytes()
    j1 = tmp_path / "e.jsonl"
    save_embeddings_jsonl(bundle.drugs, j1)
    reloaded = load_embeddings(j1, "drug")
    for rec_id in bundle.drugs.ids():
        assert np.array_equal(bundle.drugs.get(rec_id), reloaded.get(rec_id))


@criterion(12, "CLI pipeline gen-synth -> split -> train -> predict -> rank -> enrich in < 5 min")
def test_criterion_12_pipeline_smoke(tmp_path):
    from tensordti.cli import main
    from tensordti.embeddings import load_interactions

    t0 = time.monotonic()
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(
        "n_drugs = 60\nn_targets = 15\ndrug_dim = 10\nprotein_dim = 10\n"
        "n_latent_factors = 2\nnoise = 0.05\nsmiles_len = 8\n"
    )
    data = tmp_path / "data"
    assert main(["gen-synth", "--seed", "3", "--out", str(data), "--config", str(synth_cfg)]) == 0

    splits = tmp_path / "splits"
    assert main(["split", "--data", str(data), "--strategy", "unseen_target", "--seed", "3",
                 "--out", str(splits)]) == 0

    train_conf = tmp_path / "train.cfg"
    train_conf.write_text(
        'hidden_dim = 24\noutput_dim = 12\nlatent_dim = 12\nmax_len = 12\n'
        f'vocab = "{VOCAB}"\nlr = 0.003\nmax_epochs = 10\npatience = 10\nbatch_size = 128\n'
    )
    model_dir = tmp_path / "model"
    assert main(["train", "--mode", "dti", "--data", str(data),
                 "--interactions", str(splits / "interactions.tsv"),
                 "--config", str(train_conf), "--seed", "3", "--out", str(model_dir)]) == 0

    preds = tmp_path / "preds"
    assert main(["predict", "--data", str(data), "--interactions", str(splits / "interactions.tsv"),
                 "--model", str(model_dir / "model.tdti"), "--out", str(preds)]) == 0

    test_records = [r for r in load_interactions(splits / "interactions.tsv") if r.split == "test"]
    by_target = {}
    for r in test_records:
        by_target.setdefault(r.target_id, []).append(r)
    target, recs = next(
        (t, rs) for t, rs in sorted(by_target.items())
        if any(r.label == 1 for r in rs) and any(r.label == 0 for r in rs)
    )
    actives_file = tmp_path / "actives.tsv"
    actives_file.write_text("compound_id\n" + "".join(f"{r.drug_id}\n" for r in recs if r.label == 1))

    ranked = tmp_path / "ranked"
    assert main(["rank", "--predictions", str(preds / "predictions.tsv"), "--ranking", "two_key",
                 "--target", target, "--out", str(ranked)]) == 0

    enrich = tmp_path / "enrich"
    assert main(["enrich", "--ranked", f"tensordti={ranked / 'ranked.tsv'}",
                 "--actives", str(actives_file), "--seed", "1", "--out", str(enrich)]) == 0

    payload = json.loads((enrich / "enrichment.json").read_text())
    assert payload["k_grid"] == [1.0, 5.0, 20.0, 50.0, 100.0]
    assert set(payload["ar_budget"]) >= {"tensordti", "random"}
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"pipeline took {elapsed:.1f}s"
