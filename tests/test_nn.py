import tracemalloc

import numpy as np
import pytest

from tensordti import nn
from tensordti.errors import ShapeError, UsageError
from tensordti.nn import (
    ADAM_BLOCK,
    AdamState,
    DenseLayer,
    GradCheckReport,
    Param,
    Tape,
    adam_step,
    dense_forward,
    grad_check,
    pack,
    stable_sigmoid,
)


def layer(w, b, act="identity"):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    return DenseLayer(Param(w, "w"), Param(b, "b"), act)


def random_layer(rng, in_dim, out_dim, act, name):
    """A standalone float64 layer: weights drawn as init_model draws them, zero bias."""
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    weight = Param(rng.uniform(-bound, bound, size=(out_dim, in_dim)), f"{name}.weight")
    return DenseLayer(weight, Param(np.zeros((out_dim, 1)), f"{name}.bias"), act)


def test_dense_forward_identity():
    lyr = layer(np.eye(2), [0, 0])
    out = dense_forward(lyr, Tape().constant([[1.0], [2.0]]), Tape())
    assert np.array_equal(out.value, [[1.0], [2.0]])


def test_dense_forward_relu_clamps():
    lyr = layer(np.eye(2), [0, 0], "relu")
    out = dense_forward(lyr, Tape().constant([[-1.0], [2.0]]), Tape())
    assert np.array_equal(out.value, [[0.0], [2.0]])


def test_dense_forward_sigmoid_closed_form():
    lyr = layer([[1.0, 1.0]], [0.5], "sigmoid")
    out = dense_forward(lyr, Tape().constant([[0.0], [0.0]]), Tape())
    assert out.value[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-0.5)), abs=1e-12)


def test_dense_forward_shape_error_names_both_shapes():
    lyr = layer(np.eye(2), [0, 0])
    with pytest.raises(ShapeError, match=r"\(3, 1\).*\(2, 2\)"):
        dense_forward(lyr, Tape().constant(np.zeros((3, 1))), Tape())


def test_dense_forward_deterministic():
    rng = np.random.default_rng(0)
    lyr = random_layer(rng, 5, 3, "relu", "l")
    x = rng.standard_normal((5, 7))
    a = dense_forward(lyr, Tape().constant(x), Tape()).value
    b = dense_forward(lyr, Tape().constant(x), Tape()).value
    assert np.array_equal(a, b)


def test_backward_linear_map_gradient():
    # loss = sum(W @ x), W = [[1, 1]], x = [2, 3]^T  ->  dW = [2, 3]
    tape = Tape()
    w = Param([[1.0, 1.0]], "w")
    out = tape.sum_all(tape.matmul(w, tape.constant([[2.0], [3.0]])))
    grads = tape.backward(out)
    assert np.array_equal(grads[w], [[2.0, 3.0]])


def test_backward_sigmoid_derivative_at_zero():
    tape = Tape()
    w = Param([[0.0]], "w")
    out = tape.sigmoid(tape.matmul(w, tape.constant([[1.0]])))
    grads = tape.backward(out)
    assert grads[w][0, 0] == pytest.approx(0.25, abs=1e-12)


def test_backward_two_layer_relu_matches_finite_differences():
    rng = np.random.default_rng(42)
    l1 = random_layer(rng, 4, 6, "relu", "l1")
    l2 = random_layer(rng, 6, 1, "identity", "l2")
    x = rng.standard_normal((4, 3))

    def forward():
        tape = Tape()
        out = dense_forward(l2, dense_forward(l1, tape.constant(x), tape), tape)
        return tape, tape.sum_all(out)

    report = grad_check(forward, [l1.weight, l1.bias, l2.weight, l2.bias], 1e-5, seed=1)
    assert report.passed, report
    assert report.max_rel_error < 1e-5


def test_backward_without_forward_is_usage_error():
    tape = Tape()
    with pytest.raises(UsageError):
        tape.backward(tape.constant(1.0))


def test_backward_clears_tape():
    tape = Tape()
    w = Param([[1.0]], "w")
    out = tape.sum_all(tape.matmul(w, tape.constant([[1.0]])))
    tape.backward(out)
    with pytest.raises(UsageError):
        tape.backward(out)


def test_backward_accumulates_when_node_reused():
    # loss = x * x where both factors are the same node -> grad 2x
    tape = Tape()
    w = Param([[3.0]], "w")
    h = tape.matmul(w, tape.constant([[1.0]]))
    grads = tape.backward(tape.mul(h, h))
    assert grads[w][0, 0] == pytest.approx(6.0, abs=1e-12)


def test_needs_grad_follows_parameters():
    """Parameters need a gradient, constants and detached values do not, and
    an op output needs one when any parent does."""
    tape = Tape()
    w = Param([[1.0, 2.0]], "w")
    x = tape.constant([[1.0], [1.0]])
    h = tape.matmul(w, x)
    assert w.needs_grad and h.needs_grad
    assert not x.needs_grad and not tape.detach(h).needs_grad
    assert not tape.relu(tape.matmul(tape.constant([[1.0, 2.0]]), x)).needs_grad
    assert tape.add(tape.detach(h), h).needs_grad


class SinkSpy(Tape):
    """Records every node that a backward closure hands a contribution to,
    and the dtypes of the contributions (of the product, for a matmul's pair
    of factors)."""

    def __init__(self):
        super().__init__()
        self.sunk, self.dtypes = [], set()

    def _record(self, out, parents, bw):
        def spied(g, sink):
            def spy(node, contrib, *where):
                self.sunk.append(node)
                self.dtypes.add(np.result_type(*contrib) if isinstance(contrib, tuple) else contrib.dtype)
                sink(node, contrib, *where)

            bw(g, spy)

        return super()._record(out, parents, spied)


def test_backward_computes_no_contribution_for_constant_inputs():
    tape = SinkSpy()
    lyr = layer([[1.0, -1.0], [0.5, 2.0]], [0.1, -0.1], "relu")
    x = tape.constant([[1.0, 2.0], [3.0, -4.0]])
    h = dense_forward(lyr, x, tape)
    out = tape.sum_all(tape.mul(tape.concat_rows(h, tape.detach(h)), tape.constant(np.ones((4, 2)))))
    grads = tape.backward(out)
    assert tape.sunk and all(node.needs_grad for node in tape.sunk)
    assert x not in tape.sunk
    assert np.array_equal(grads[lyr.weight], [[2.0, -4.0], [1.0, 3.0]])  # relu keeps one unit a column


@pytest.mark.parametrize(
    "idx", [[2, 0, 2, 1, 0, 2], [3, 3, 1], [4, 2, 0, 1, 3], []], ids=["repeats", "some-columns", "permutation", "empty"]
)
@pytest.mark.parametrize("limit", [nn.ONEHOT_LIMIT, 0], ids=["onehot", "segment-sum"])
def test_take_cols_backward_is_the_scatter_add_of_its_positions(monkeypatch, idx, limit):
    """Into a parameter and into an op output alike, as a one-hot product or
    a segment sum: each column's gradient is the sum over the positions that
    took it, and untaken columns get 0."""
    monkeypatch.setattr(nn, "ONEHOT_LIMIT", limit)
    rng = np.random.default_rng(0)
    w = Param(rng.standard_normal((3, 5)), "w")
    g = rng.standard_normal((3, len(idx)))
    want = np.zeros((3, 5))
    np.add.at(want, (slice(None), np.array(idx, dtype=int)), g)
    tape = Tape()
    taken = tape.take_cols(w, idx)
    assert np.array_equal(taken.value, w.value[:, idx])
    # sum(taken * g) passes g back to `taken` exactly
    assert np.allclose(tape.backward(tape.sum_all(tape.mul(taken, tape.constant(g))))[w], want, rtol=0, atol=1e-15)
    tape = Tape()
    h = tape.affine(w, 2.0)
    grads = tape.backward(tape.sum_all(tape.mul(tape.take_cols(h, idx), tape.constant(g))))
    assert np.allclose(grads[w], 2.0 * want, rtol=0, atol=1e-15)


def test_part_backward_fills_only_its_part():
    """Row prefixes and column blocks of one parameter: each part's gradient
    lands in its own region, and the rest stays exactly zero. Only a
    Param has parts."""
    w = Param(np.arange(12.0).reshape(3, 4), "w")
    tape = Tape()
    top = tape.part(w, np.s_[:2])
    left = tape.part(w, np.s_[:, :1])
    assert np.shares_memory(top.value, w.value)
    out = tape.add(tape.sum_all(top), tape.sum_all(tape.affine(left, 3.0)))
    grads = tape.backward(out)
    assert np.array_equal(grads[w], [[4.0, 1.0, 1.0, 1.0], [4.0, 1.0, 1.0, 1.0], [3.0, 0.0, 0.0, 0.0]])
    with pytest.raises(UsageError, match="Param"):
        Tape().part(tape.affine(w, 1.0), np.s_[1:])


def test_tape_that_does_not_record_gives_the_same_values():
    rng = np.random.default_rng(1)
    lyr = random_layer(rng, 4, 3, "relu", "l")
    x = rng.standard_normal((4, 5))
    quiet = Tape(record=False)
    out = dense_forward(lyr, quiet.constant(x), quiet)
    assert np.array_equal(out.value, dense_forward(lyr, Tape().constant(x), Tape()).value)
    assert not out.needs_grad
    with pytest.raises(UsageError, match="no recorded"):
        quiet.backward(out)


def grads_of(params, values: dict) -> dict:
    """Gradients as Tape.backward gives them: views of one zeroed buffer
    laid out like the parameters' buffer, with `values` in their slots."""
    g = np.zeros_like(params[0].flat)
    out = {}
    for p, value in values.items():
        out[p] = g[p.lo : p.lo + p.value.size].reshape(p.value.shape)
        out[p][...] = value
    return out


def test_adam_first_step_bias_correction_cancels():
    w = Param([[0.0]], "w")
    state = AdamState(lr=1e-3)
    adam_step(state, [w], grads_of([w], {w: 1.0}))
    assert state.t == 1
    assert w.value[0, 0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_zero_gradient_is_identity():
    w = Param([[0.7]], "w")
    state = AdamState(lr=0.1, weight_decay=0.0)
    before = w.value.copy()
    adam_step(state, [w], grads_of([w], {w: 0.0}))
    assert state.t == 1
    assert np.array_equal(w.value, before)


def test_adam_descends_quadratic():
    # 100 steps on f(t) = t^2 from t = 1 with lr 0.1
    w = Param([[1.0]], "w")
    state = AdamState(lr=0.1)
    for _ in range(100):
        adam_step(state, [w], grads_of([w], {w: 2.0 * w.value}))
    assert abs(w.value[0, 0]) < 0.05


def test_adam_decoupled_weight_decay():
    w = Param([[2.0]], "w")
    state = AdamState(lr=0.5, weight_decay=0.1)
    adam_step(state, [w], grads_of([w], {w: 0.0}))
    # zero gradient: only the decay term moves the parameter
    assert w.value[0, 0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0, abs=1e-12)


def test_adam_missing_gradient_is_a_zero_gradient():
    """A parameter the loss never reached has no entry in the gradients; it
    steps exactly as with a zero gradient, moments and weight decay alike."""
    rng = np.random.default_rng(0)
    init = rng.standard_normal((3, 2))
    g = rng.standard_normal((3, 2))
    (a, b), (c, d) = [(Param(init, "a"), Param(init, "b")) for _ in range(2)]
    pack([a, b]), pack([c, d])
    missing, zero = AdamState(lr=0.1, weight_decay=0.5), AdamState(lr=0.1, weight_decay=0.5)
    for step in range(3):
        reached = step == 1  # b gets a gradient only on the second step
        adam_step(missing, [a, b], grads_of([a, b], {a: g, **({b: g} if reached else {})}))
        adam_step(zero, [c, d], grads_of([c, d], {c: g, d: g if reached else np.zeros_like(g)}))
    assert np.array_equal(a.value, c.value) and np.array_equal(b.value, d.value)
    assert not np.array_equal(b.value, init)


def test_adam_rejects_nan_gradient_naming_parameter():
    w = Param([[1.0]], "culprit")
    state = AdamState(lr=0.1)
    with pytest.raises(UsageError, match="culprit"):
        adam_step(state, [w], grads_of([w], {w: np.nan}))


def adam_oracle(state: dict, values: list, grads: list, lr, weight_decay, b1=0.9, b2=0.999, eps=1e-8) -> list:
    """The per-parameter Adam update the flat one replaced: one array per
    parameter, a gradient of None counting as zero, new arrays each step."""
    state["t"] = t = state.get("t", 0) + 1
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    out = []
    for i, (p, g) in enumerate(zip(values, grads)):
        g = np.zeros_like(p) if g is None else g
        m, v = state.get(("m", i), np.zeros_like(p)), state.get(("v", i), np.zeros_like(p))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        state["m", i], state["v", i] = m, v
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        if weight_decay > 0.0:
            update = update + lr * weight_decay * p
        out.append(p - update)
    return out


@pytest.mark.parametrize("weight_decay", [0.0, 0.5])
def test_adam_matches_per_parameter_oracle(weight_decay):
    """Five steps over shapes around ADAM_BLOCK, so blocks span parameters,
    with one parameter left out of the gradients on some steps. Every value
    is bit-identical."""
    rng = np.random.default_rng(4)
    shapes = [(3, 4), (250, 150), (7, 1), (1, 1), (ADAM_BLOCK // 2, 2)]
    params = [Param(rng.standard_normal(s), f"p{i}") for i, s in enumerate(shapes)]
    flat = pack(params)
    assert flat.size > 2 * ADAM_BLOCK and params[1].lo < ADAM_BLOCK < params[1].lo + params[1].value.size
    values = [p.value.copy() for p in params]
    state, oracle = AdamState(lr=0.01, weight_decay=weight_decay), {}
    for step in range(5):
        reached = [step in (2, 3) or i != 2 for i in range(len(params))]
        grads = grads_of(params, {p: rng.standard_normal(p.value.shape) for p, hit in zip(params, reached) if hit})
        adam_step(state, params, grads)
        values = adam_oracle(oracle, values, [grads.get(p) for p in params], 0.01, weight_decay)
        for p, want in zip(params, values):
            assert np.array_equal(p.value, want), (step, p.name)
        assert all(np.shares_memory(p.value, flat) for p in params)


def test_adam_refuses_parameters_or_gradients_outside_one_buffer():
    """Parameters that do not tile one buffer, or gradients that are not
    views of one buffer laid out like it, are a UsageError before anything
    moves: no parameter is rebound or stepped."""
    a, b = Param([[1.0, 2.0]], "a"), Param([[3.0]], "b")
    state = AdamState(lr=0.1)
    value_a = a.value
    with pytest.raises(UsageError, match="tile one buffer"):
        adam_step(state, [a, b], {a: np.ones((1, 2)), b: np.ones((1, 1))})
    assert a.value is value_a and a.flat is not b.flat
    pack([a, b])
    good = grads_of([a, b], {a: 1.0, b: 1.0})
    for grads in (
        {a: np.ones((1, 2)), b: np.ones((1, 1))},  # separate arrays
        {a: good[a], b: np.ones((1, 1))},  # one view, one array
        {a: np.zeros(4)[:2].reshape(1, 2)},  # a buffer of another layout
        {},
    ):
        with pytest.raises(UsageError, match="views of one buffer"):
            adam_step(state, [a, b], grads)
    assert np.array_equal(a.value, [[1.0, 2.0]]) and state.t == 0 and state.m is None


def test_adam_steady_state_allocates_no_parameter_sized_buffers():
    """After the first step has made the moments, a step allocates only
    small temporaries, not arrays the size of the parameters."""
    rng = np.random.default_rng(0)
    params = [Param(rng.standard_normal((ADAM_BLOCK, 4)), "w"), Param(rng.standard_normal((ADAM_BLOCK, 4)), "u")]
    flat = pack(params)
    g_flat = rng.standard_normal(flat.size)
    grads = {p: g_flat[p.lo : p.lo + p.value.size].reshape(p.value.shape) for p in params}
    state = AdamState(lr=0.01, weight_decay=0.1)
    adam_step(state, params, grads)
    tracemalloc.start()
    try:
        adam_step(state, params, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the isfinite check takes one byte per value (an eighth of the parameter
    # buffer); an update over whole arrays takes several buffers of 8 bytes
    assert peak <= flat.size + 8 * ADAM_BLOCK, peak
    assert state.t == 2


def test_backward_calls_return_independent_gradients():
    """Each backward on a new tape writes into its own buffer, laid out
    like the parameters' one: a later call leaves an earlier call's
    gradients as they were."""
    rng = np.random.default_rng(2)
    layers = [random_layer(rng, 3, 4, "relu", "l1"), random_layer(rng, 4, 2, "identity", "l2")]
    params = [q for lyr in layers for q in (lyr.weight, lyr.bias)]
    flat = pack(params)

    def grads_at(x):
        tape = Tape()
        return tape.backward(tape.sum_all(dense_forward(layers[1], dense_forward(layers[0], tape.constant(x), tape), tape)))

    first = grads_at(rng.standard_normal((3, 5)))
    kept = {p: g.copy() for p, g in first.items()}
    second = grads_at(rng.standard_normal((3, 5)))
    assert all(np.array_equal(first[p], kept[p]) for p in params)
    assert not any(np.array_equal(first[p], second[p]) for p in (layers[0].weight, layers[1].weight))
    for grads in (first, second):
        base = grads[params[0]].base
        assert base.shape == flat.shape and not np.shares_memory(base, flat)
        for p in params:
            assert np.shares_memory(grads[p], base[p.lo : p.lo + p.value.size])
    assert not np.shares_memory(first[params[0]].base, second[params[0]].base)


def test_backward_zeroes_parameters_it_never_reached():
    """A parameter of the same buffer that is not on the tape gets a zero
    slot, whatever the buffer held before."""
    w, unused = Param([[1.0, 2.0]], "w"), Param(np.full((2, 2), 7.0), "unused")
    pack([w, unused])
    tape = Tape()
    grads = tape.backward(tape.sum_all(tape.matmul(w, tape.constant([[3.0], [4.0]]))))
    assert list(grads) == [w] and np.array_equal(grads[w], [[3.0, 4.0]])
    assert np.array_equal(grads[w].base, [3.0, 4.0, 0.0, 0.0, 0.0, 0.0])


def test_grad_check_linear_model_is_exact():
    w = Param([[1.5, -2.0]], "w")
    x = np.array([[0.3], [0.7]])

    def forward():
        tape = Tape()
        return tape, tape.sum_all(tape.matmul(w, tape.constant(x)))

    report = grad_check(forward, [w], 1e-8, seed=0)
    assert report.passed
    assert report.max_rel_error < 1e-8


def test_grad_check_detects_corrupted_gradient():
    rng = np.random.default_rng(3)
    l1 = random_layer(rng, 3, 4, "relu", "l1")
    x = rng.standard_normal((3, 2))

    class Corrupted(Tape):
        def backward(self, loss):
            grads = super().backward(loss)
            return {p: 1.1 * g for p, g in grads.items()}  # +10% fault

    def forward():
        tape = Corrupted()
        return tape, tape.sum_all(dense_forward(l1, tape.constant(x), tape))

    report = grad_check(forward, [l1.weight, l1.bias], 1e-4, seed=0)
    assert not report.passed


def test_grad_check_rejects_nondeterministic_closure():
    w = Param([[1.0]], "w")
    counter = {"n": 0}

    def forward():
        tape = Tape()
        counter["n"] += 1
        return tape, tape.sum_all(tape.affine(tape.matmul(w, tape.constant([[1.0]])), 1.0, counter["n"]))

    with pytest.raises(UsageError, match="deterministic"):
        grad_check(forward, [w], 1e-4)


@pytest.mark.parametrize("scale", [1.0, 1e3, -1e3])
def test_ops_stay_finite_for_large_inputs(scale):
    rng = np.random.default_rng(8)
    x = scale * rng.random((6, 4))
    tape = Tape()
    n = tape.constant(x)
    outs = [
        tape.relu(n),
        tape.sigmoid(n),
        tape.tanh(n),
        tape.sum_rows(n),
        tape.mean_all(n),
        tape.bce_logits(tape.constant(scale * np.ones((1, 4))), np.ones((1, 4))),
        tape.sqrt(tape.mul(n, n)),
    ]
    for out in outs:
        assert np.all(np.isfinite(out.value))


def test_stable_sigmoid_extremes():
    x = np.array([[-1e3, 0.0, 1e3]])
    s = stable_sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[0, 0] == 0.0 and s[0, 2] == 1.0 and s[0, 1] == 0.5


def test_grad_check_report_fields():
    w = Param([[1.0]], "w")

    def forward():
        tape = Tape()
        return tape, tape.sum_all(tape.matmul(w, tape.constant([[2.0]])))

    report = grad_check(forward, [w], 1e-6)
    assert isinstance(report, GradCheckReport)
    assert report.n_checked == 1
    assert report.tolerance == 1e-6
