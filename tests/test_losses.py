import math

import numpy as np
import pytest

from tensordti import losses
from tensordti.errors import ConfigError, DataError, ShapeError
from tensordti.model import ModelConfig
from tensordti.nn import Tape

TOL = 1e-9


def val(node):
    return node.item()


# -- bce_with_logits ---------------------------------------------------------


def test_bce_logit_zero_positive():
    assert val(losses.bce_with_logits(Tape(), [[0.0]], [1])) == pytest.approx(math.log(2), abs=TOL)


def test_bce_logit_ln3_negative():
    # sigmoid(ln 3) = 0.75, so loss = -ln(0.25)
    assert val(losses.bce_with_logits(Tape(), [[math.log(3)]], [0])) == pytest.approx(
        -math.log(0.25), abs=TOL
    )


def test_bce_saturated_logits_no_overflow():
    assert val(losses.bce_with_logits(Tape(), [[50.0]], [1])) < 1e-20
    assert val(losses.bce_with_logits(Tape(), [[-50.0]], [0])) < 1e-20


def test_bce_symmetry_property():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-30, 30, 50):
        a = val(losses.bce_with_logits(Tape(), [[x]], [1]))
        b = val(losses.bce_with_logits(Tape(), [[-x]], [0]))
        assert a == pytest.approx(b, abs=TOL)


# -- contrastive (cosine margin) ---------------------------------------------


def test_cosine_positive_identical_vectors():
    e = [[1.0], [2.0]]
    assert val(losses.contrastive_cosine(Tape(), e, e, [1], 1.0)) == pytest.approx(0.0, abs=TOL)


def test_cosine_negative_identical_vectors():
    e = [[1.0], [2.0]]
    assert val(losses.contrastive_cosine(Tape(), e, e, [0], 1.0)) == pytest.approx(1.0, abs=TOL)


def test_cosine_negative_orthogonal_vectors():
    a = [[1.0], [0.0]]
    b = [[0.0], [1.0]]
    assert val(losses.contrastive_cosine(Tape(), a, b, [0], 1.0)) == pytest.approx(0.0, abs=TOL)


def test_cosine_zero_norm_errors():
    with pytest.raises(ShapeError, match="zero-norm"):
        losses.contrastive_cosine(Tape(), [[0.0], [0.0]], [[1.0], [0.0]], [1], 1.0)


def test_cosine_invariant_to_positive_rescaling():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((4, 6))
    y = rng.integers(0, 2, 6)
    base = val(losses.contrastive_cosine(Tape(), a, b, y, 1.0))
    scaled = val(losses.contrastive_cosine(Tape(), 3.7 * a, b, y, 1.0))
    scaled2 = val(losses.contrastive_cosine(Tape(), a, 0.02 * b, y, 1.0))
    assert base == pytest.approx(scaled, abs=1e-12)
    assert base == pytest.approx(scaled2, abs=1e-12)


# -- contrastive (triplet) ---------------------------------------------------


def test_triplet_easy_case_zero():
    # anchor == positive, negative twice the margin away
    f_d = [[0.0], [0.0]]
    f_neg = [[2.0], [0.0]]
    assert val(losses.contrastive_triplet(Tape(), f_d, f_d, f_neg, 1.0)) == pytest.approx(0.0, abs=TOL)


def test_triplet_equidistant_gives_margin():
    f_d = [[0.0], [0.0]]
    p = [[1.0], [0.0]]
    n = [[0.0], [1.0]]
    assert val(losses.contrastive_triplet(Tape(), f_d, p, n, 0.5)) == pytest.approx(0.5, abs=TOL)


def test_triplet_arithmetic_case():
    # d_pos = 1, d_neg = 3, margin 1 -> max(0, 1 + 1 - 3) = 0
    f_d = [[0.0], [0.0]]
    p = [[1.0], [0.0]]
    n = [[0.0], [3.0]]
    assert val(losses.contrastive_triplet(Tape(), f_d, p, n, 1.0)) == pytest.approx(0.0, abs=TOL)


# -- confidence --------------------------------------------------------------


def test_confidence_exact_target_is_zero():
    # c == |y - p|
    assert val(losses.confidence_loss(Tape(), [[0.2]], [1], [0.8])) == pytest.approx(0.0, abs=TOL)


def test_confidence_half_on_perfect_prediction():
    assert val(losses.confidence_loss(Tape(), [[0.5]], [1], [1.0])) == pytest.approx(0.25, abs=TOL)


def test_confidence_arithmetic_case():
    assert val(losses.confidence_loss(Tape(), [[0.3]], [1], [0.8])) == pytest.approx(0.01, abs=TOL)


def test_confidence_stop_gradient_contract():
    """No gradient from the confidence loss reaches anything upstream of the
    (detached) head inputs."""
    from tensordti import model as M
    from tensordti.nn import stable_sigmoid

    cfg = ModelConfig(drug_dim=5, protein_dim=4, hidden_dim=6, output_dim=3, latent_dim=4, max_len=8, vocab="CN")
    state = M.init_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    for trial in range(5):
        xd = rng.standard_normal((5, 3))
        xp = rng.standard_normal((4, 3))
        y = rng.integers(0, 2, 3)
        tape = Tape()
        e_d = M.encode_drug(state, xd, tape)
        e_p = M.encode_protein_with_pocket(state, xp, None, tape)
        logit = M.interaction_logit(state, e_d, e_p, tape)
        conf = M.confidence(state, e_d, e_p, logit, tape)
        probs = stable_sigmoid(logit.value).reshape(-1)
        grads = tape.backward(losses.confidence_loss(tape, conf, y, probs))
        for p, g in grads.items():
            if p.name.startswith("conf_head"):
                continue
            assert np.all(g == 0.0), f"leak into {p.name} on trial {trial}"


# -- reconstruction ----------------------------------------------------------


def test_reconstruction_uniform_logits_ln_vocab():
    vocab, L = 20, 6
    logits = np.zeros((L * vocab, 1))
    ids = np.array([[1], [4], [5], [2], [0], [0]])
    mask = (ids != 0).astype(float)
    out = losses.reconstruction_loss(Tape(), logits, ids, mask, L, vocab)
    assert val(out) == pytest.approx(math.log(20), abs=TOL)


def test_reconstruction_saturated_onehot_near_zero():
    # residual mass is (V-1)e^-20, so keep the vocabulary small
    vocab, L = 4, 4
    ids = np.array([[1], [3], [2], [0]])
    mask = (ids != 0).astype(float)
    logits = np.zeros((L, vocab))
    for t in range(L):
        logits[t, ids[t, 0]] = 20.0
    out = losses.reconstruction_loss(Tape(), logits.reshape(L * vocab, 1), ids, mask, L, vocab)
    assert val(out) < 1e-8


def test_reconstruction_pad_suffix_matches_prefix():
    vocab = 9
    rng = np.random.default_rng(2)
    logits5 = rng.standard_normal((5, vocab))
    ids5 = np.array([[1], [4], [6], [2], [0]])
    mask5 = (ids5 != 0).astype(float)
    a = val(losses.reconstruction_loss(Tape(), logits5.reshape(-1, 1), ids5, mask5, 5, vocab))
    # extend with PAD rows: same loss
    logits8 = np.vstack([logits5, rng.standard_normal((3, vocab))])
    ids8 = np.vstack([ids5, np.zeros((3, 1), dtype=int)])
    mask8 = (ids8 != 0).astype(float)
    b = val(losses.reconstruction_loss(Tape(), logits8.reshape(-1, 1), ids8, mask8, 8, vocab))
    assert a == pytest.approx(b, abs=TOL)


def test_reconstruction_all_pad_errors():
    with pytest.raises(DataError, match="scorable"):
        losses.reconstruction_loss(Tape(), np.zeros((8, 1)), np.zeros((2, 1), int), np.zeros((2, 1)), 2, 4)


# -- mse ----------------------------------------------------------------------


def test_mse_zero_on_equal():
    assert val(losses.mse_loss(Tape(), [[1.0, 2.0]], [[1.0, 2.0]])) == pytest.approx(0.0, abs=TOL)


def test_mse_unit_case():
    assert val(losses.mse_loss(Tape(), [[0.0, 0.0]], [[1.0, 1.0]])) == pytest.approx(1.0, abs=TOL)


def test_mse_single_pair():
    assert val(losses.mse_loss(Tape(), [[2.0]], [[5.0]])) == pytest.approx(9.0, abs=TOL)


# -- composite -----------------------------------------------------------------


def _terms(tape, **values):
    return {name: tape.constant(float(v)) for name, v in values.items()}


HEAD = {"classification": "bce", "regression": "mse"}


def test_composite_all_zero_weights():
    for mode in HEAD:
        cfg = ModelConfig(
            drug_dim=2, protein_dim=2, mode=mode, alpha_cls=0, alpha_con=0, alpha_conf=0, alpha_recon=0
        )
        tape = Tape()
        total, values = losses.composite_loss(tape, _terms(tape, bce=1, mse=1, con=1, conf=1, recon=1), cfg)
        assert val(total) == pytest.approx(0.0, abs=TOL)
        assert values["total"] == pytest.approx(0.0, abs=TOL)


def test_composite_default_weights_closed_form():
    for mode, expected in (("classification", 0.7), ("regression", 0.6)):  # regression has no contrastive term
        cfg = ModelConfig(drug_dim=2, protein_dim=2, mode=mode)  # 0.4 / 0.2 / 0.2 / 0.2
        tape = Tape()
        terms = _terms(tape, **{HEAD[mode]: 1.0}, con=0.5, conf=0.5, recon=0.5)
        total, values = losses.composite_loss(tape, terms, cfg)
        assert val(total) == pytest.approx(expected, abs=TOL)
        assert values["total"] == pytest.approx(
            0.4 * values[HEAD[mode]] + 0.2 * values.get("con", 0.0) + 0.2 * values["conf"] + 0.2 * values["recon"],
            abs=TOL,
        )


def test_composite_linear_in_weights():
    rng = np.random.default_rng(4)
    t = rng.random(4)
    for mode in HEAD:
        for _ in range(5):
            w = rng.random(4)
            cfg = ModelConfig(
                drug_dim=2, protein_dim=2, mode=mode,
                alpha_cls=w[0], alpha_con=w[1], alpha_conf=w[2], alpha_recon=w[3],
            )
            tape = Tape()
            terms = _terms(tape, **{HEAD[mode]: t[0]}, con=t[1], conf=t[2], recon=t[3])
            total, _ = losses.composite_loss(tape, terms, cfg)
            applied = w * [1.0, mode == "classification", 1.0, 1.0]  # regression has no contrastive term
            assert val(total) == pytest.approx(float(applied @ t), abs=1e-12)


def test_composite_negative_weight_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(drug_dim=2, protein_dim=2, alpha_cls=-0.1)


def test_composite_regression_substitutes_mse_and_zeroes_contrastive():
    cfg = ModelConfig(drug_dim=2, protein_dim=2, mode="regression")
    tape = Tape()
    total, values = losses.composite_loss(tape, _terms(tape, mse=2.0, con=9.0, conf=0.5, recon=0.5), cfg)
    assert values["mse"] == pytest.approx(2.0, abs=TOL)
    assert "con" not in values
    assert val(total) == pytest.approx(0.4 * 2.0 + 0.2 * 0.5 + 0.2 * 0.5, abs=TOL)


@pytest.mark.parametrize(
    "mode, given, keys",
    [
        ("classification", dict(bce=1.0, conf=0.5), ["bce", "conf", "total"]),
        ("classification", dict(bce=1.0, conf=0.5, recon=0.25), ["bce", "conf", "recon", "total"]),
        ("classification", dict(bce=1.0, con=0.75, conf=0.5), ["bce", "con", "conf", "total"]),
        ("classification", dict(bce=1.0, con=0.75, conf=0.5, recon=0.25), ["bce", "con", "conf", "recon", "total"]),
        ("regression", dict(mse=2.0, conf=0.5, recon=0.25), ["mse", "conf", "recon", "total"]),
        ("regression", dict(bce=7.0, mse=2.0, con=9.0, conf=0.5, recon=0.25), ["mse", "conf", "recon", "total"]),
    ],
)
def test_composite_returns_the_modes_terms_by_name(mode, given, keys):
    """Each of the mode's terms it was given, in weighting order, then the
    total; regression ignores a bce or con term."""
    cfg = ModelConfig(
        drug_dim=2, protein_dim=2, mode=mode, alpha_con=0.2 * ("con" in given), alpha_recon=0.2 * ("recon" in given)
    )
    tape = Tape()
    total, values = losses.composite_loss(tape, _terms(tape, **given), cfg)
    assert list(values) == keys
    assert all(values[name] == given[name] for name in keys[:-1])
    assert values["total"] == val(total)
    expected = 0.4 * given[HEAD[mode]] + 0.2 * given["conf"] + 0.2 * given.get("recon", 0.0)
    if mode == "classification":
        expected += 0.2 * given.get("con", 0.0)
    assert values["total"] == pytest.approx(expected, abs=TOL)


def test_composite_missing_weighted_term_rejected():
    for mode, given in (("classification", dict(bce=1.0)), ("regression", dict(mse=1.0))):
        cfg = ModelConfig(drug_dim=2, protein_dim=2, mode=mode)
        tape = Tape()
        with pytest.raises(ConfigError, match="missing"):
            losses.composite_loss(tape, _terms(tape, **given), cfg)


def test_every_loss_gradient_matches_finite_differences():
    """Each loss, driven through a small encoder so there are parameters to
    differentiate, agrees with central finite differences at 1e-4."""
    from tensordti.nn import dense_forward, grad_check
    from test_nn import random_layer

    rng = np.random.default_rng(10)
    enc = random_layer(rng, 4, 3, "tanh", "enc")  # no dead columns for the cosine case
    x = rng.standard_normal((4, 5))
    y = rng.integers(0, 2, 5)
    other = rng.standard_normal((3, 5))
    target = rng.standard_normal((1, 5))
    ids = rng.integers(1, 6, (2, 5))
    mask = np.ones((2, 5))
    probs = rng.random(5)

    def head(tape):
        return dense_forward(enc, tape.constant(x), tape)

    builders = {
        "bce": lambda tape: losses.bce_with_logits(tape, tape.sum_rows(head(tape)), y),
        "cosine": lambda tape: losses.contrastive_cosine(tape, head(tape), tape.constant(other), y, 1.0),
        "triplet": lambda tape: losses.contrastive_triplet(
            tape, head(tape), tape.constant(other), tape.constant(other[:, ::-1]), 1.0
        ),
        "conf": lambda tape: losses.confidence_loss(
            tape, tape.dense(tape.constant(np.ones((1, 3))), tape.constant(np.zeros((1, 1))), head(tape), "sigmoid"), y, probs
        ),
        "recon": lambda tape: losses.reconstruction_loss(
            tape,
            tape.matmul(tape.constant(np.arange(36.0).reshape(12, 3) / 7.0), head(tape)),
            ids, mask, 2, 6,
        ),
        "mse": lambda tape: losses.mse_loss(tape, tape.sum_rows(head(tape)), target),
    }
    for name, build in builders.items():
        def forward(build=build):
            tape = Tape()
            return tape, build(tape)

        report = grad_check(forward, [enc.weight, enc.bias], 1e-4, seed=1)
        assert report.passed, f"{name}: {report}"


def test_all_losses_nonnegative_random_inputs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((3, 5))
        y = rng.integers(0, 2, 5)
        p = rng.random(5)
        c = rng.random((1, 5))
        assert val(losses.bce_with_logits(Tape(), rng.standard_normal((1, 5)), y)) >= 0
        assert val(losses.contrastive_cosine(Tape(), a, b, y, 1.0)) >= 0
        assert val(losses.contrastive_triplet(Tape(), a, b, rng.standard_normal((3, 5)), 1.0)) >= 0
        assert val(losses.confidence_loss(Tape(), c, y, p)) >= 0
        assert val(losses.mse_loss(Tape(), a, b)) >= 0
