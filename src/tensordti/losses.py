"""Training objectives: BCE, two contrastive variants, confidence
calibration, token reconstruction cross-entropy, MSE, and the weighted
composite.

Every loss is mean-reduced over the batch and returns a scalar node on the
caller's tape, so gradients flow wherever the inputs were recorded. Plain
arrays are accepted for convenience and treated as constants; labels,
targets and weights take the dtype of the node they meet.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .nn import Node, Tape


def _as_node(tape: Tape, x) -> Node:
    return x if isinstance(x, Node) else tape.constant(x)


def _as_row(x, like: np.ndarray) -> np.ndarray:
    """x as a (1, n) row in the dtype of `like`, a (rows, n) batch."""
    a = np.asarray(x, dtype=like.dtype).reshape(1, -1)
    if a.shape[1] != like.shape[1]:
        raise ConfigError(f"expected {like.shape[1]} batch entries, got {a.shape[1]}")
    return a


def bce_with_logits(tape: Tape, logits, labels) -> Node:
    """-[y log sigma(x) + (1-y) log(1-sigma(x))], stable, batch mean."""
    logits = _as_node(tape, logits)
    y = _as_row(labels, logits.value)
    return tape.mean_all(tape.bce_logits(logits, y))


def contrastive_cosine(tape: Tape, e_d, e_p, labels, margin: float) -> Node:
    """Margin loss on cosine distance d = 1 - cos(e_d, e_p):
    mean over pairs of y*d^2 + (1-y)*max(0, m-d)^2."""
    if margin <= 0:
        raise ConfigError("cosine margin must be > 0")
    e_d = _as_node(tape, e_d)
    e_p = _as_node(tape, e_p)
    y = _as_row(labels, e_d.value)
    d = tape.affine(tape.cosine_cols(e_d, e_p), -1.0, 1.0)
    pos = tape.mul(tape.constant(y), tape.mul(d, d))
    hinge = tape.relu(tape.affine(d, -1.0, margin))
    neg = tape.mul(tape.constant(1.0 - y), tape.mul(hinge, hinge))
    return tape.mean_all(tape.add(pos, neg))


def _col_l2(tape: Tape, a: Node, b: Node) -> Node:
    diff = tape.sub(a, b)
    return tape.sqrt(tape.sum_rows(tape.mul(diff, diff)))


def contrastive_triplet(tape: Tape, f_d, f_p_pos, f_p_neg, margin: float) -> Node:
    """Hinge over triplets: mean of max(0, margin + ||f_d-f_p|| - ||f_d-f_p_neg||)."""
    if margin <= 0:
        raise ConfigError("triplet margin must be > 0")
    f_d = _as_node(tape, f_d)
    f_p_pos = _as_node(tape, f_p_pos)
    f_p_neg = _as_node(tape, f_p_neg)
    gap = tape.sub(_col_l2(tape, f_d, f_p_pos), _col_l2(tape, f_d, f_p_neg))
    return tape.mean_all(tape.relu(tape.affine(gap, 1.0, margin)))


def confidence_loss(tape: Tape, conf, labels, probs) -> Node:
    """(c - |y - p|)^2, batch mean. The target |y - p| is a constant, so no
    gradient reaches the classifier through this loss."""
    conf = _as_node(tape, conf)
    return mse_loss(tape, conf, np.abs(_as_row(labels, conf.value) - _as_row(probs, conf.value)))


def reconstruction_loss(tape: Tape, logits, token_ids, pad_mask, n_positions: int, vocab_size: int, weights=None) -> Node:
    """Softmax cross-entropy averaged over non-PAD positions per sample,
    then over the batch; with `weights` (one a sample), their weighted sum
    instead."""
    logits = _as_node(tape, logits)
    per_sample = tape.token_xent(logits, token_ids, pad_mask, n_positions, vocab_size)
    if weights is None:
        return tape.mean_all(per_sample)
    return tape.matmul(per_sample, tape.constant(np.asarray(weights, dtype=per_sample.value.dtype)))


def mse_loss(tape: Tape, pred, target) -> Node:
    pred = _as_node(tape, pred)
    if not isinstance(target, Node):  # a constant, in the prediction's dtype
        target = tape.constant(np.asarray(target, dtype=pred.value.dtype))
    diff = tape.sub(pred, target)
    return tape.mean_all(tape.mul(diff, diff))


def composite_loss(tape: Tape, terms: dict[str, Node], config) -> tuple[Node, dict[str, float]]:
    """alpha_cls*L_cls + alpha_con*L_con + alpha_conf*L_conf + alpha_recon*L_recon
    over the named terms of one forward pass, with the weights and the mode
    read from a ModelConfig (which has already checked that the weights are
    >= 0).

    L_cls is "bce" in classification and "mse" in regression, which has no
    contrastive term. Returns the total and the value of each of the mode's
    terms that `terms` holds, plus "total".
    """
    head = {"mse": config.alpha_cls} if config.mode == "regression" else {"bce": config.alpha_cls, "con": config.alpha_con}
    weights = {**head, "conf": config.alpha_conf, "recon": config.alpha_recon}
    total: Node | None = None
    for name, w in weights.items():
        if w == 0.0:
            continue
        if name not in terms:
            raise ConfigError(f"{name} loss weighted {w} but its term is missing")
        scaled = tape.affine(terms[name], w)
        total = scaled if total is None else tape.add(total, scaled)
    if total is None:
        total = tape.constant(0.0)
    values = {name: terms[name].item() for name in weights if name in terms}
    return total, {**values, "total": total.item()}
