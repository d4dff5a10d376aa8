"""Dense-network numeric kernel.

2-D float32 or float64 tensors (vectors are columns, batches are column
blocks; each op computes in its inputs' dtype), a replayable operation tape
for reverse-mode gradients, bias-corrected Adam with decoupled weight decay,
and a central finite-difference gradient checker. The op set is fixed:
matmul, add, elementwise activations, reductions, column-wise cosine, logit
cross-entropy and token softmax cross-entropy. There is no general autodiff;
the architecture this kernel serves is closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, ShapeError, UsageError

Matrix = np.ndarray

ACTIVATIONS = ("identity", "relu", "sigmoid", "tanh")

ADAM_BLOCK = 1 << 15  # values per block of the in-place Adam update (256 KiB in float64)
ONEHOT_LIMIT = 1 << 16  # largest positions x columns one-hot of take_cols' backward (512 KiB in float64)


def as_matrix(x, name: str = "tensor") -> Matrix:
    """Coerce to a 2-D array, float32 if it is float32 and float64 otherwise;
    reject non-finite entries.

    1-D input is treated as a single column vector.
    """
    a = np.asarray(x)
    a = a if a.dtype == np.float32 else np.asarray(a, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise ShapeError(f"{name}: expected at most 2 dimensions, got {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ShapeError(f"{name}: contains non-finite entries")
    return np.ascontiguousarray(a)


def stable_sigmoid(x: Matrix) -> Matrix:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def token_nll(cube: Matrix, ids: np.ndarray, mask: np.ndarray, work: np.ndarray | None = None) -> tuple[np.ndarray, Matrix]:
    """Per-sample mean -log softmax(cube)[token] over scorable positions.

    cube: (positions, vocab, batch) logits; ids: (positions, batch) token
    ids; mask: (positions, batch), 1.0 where the position counts; work: a (2, positions,
    vocab, batch) buffer (new when None). Returns the (batch,) mean NLLs and the (positions,
    1, batch) log-normalisers log_z; work[0] is left holding log-probabilities + log_z.
    """
    n_pos, _, batch = cube.shape
    ids = np.asarray(ids, dtype=np.intp).reshape(n_pos, batch)
    mask = np.asarray(mask, dtype=cube.dtype).reshape(n_pos, batch)
    t_eff = mask.sum(axis=0)
    if np.any(t_eff == 0):
        raise DataError("sequence with no scorable (non-PAD) tokens")
    shifted, ex = np.empty((2, *cube.shape), cube.dtype) if work is None else work
    np.subtract(cube, cube.max(axis=1, keepdims=True), out=shifted)
    log_z = np.log(np.exp(shifted, out=ex).sum(axis=1, keepdims=True))
    picked = shifted[np.arange(n_pos)[:, None], ids, np.arange(batch)[None, :]] - log_z[:, 0]
    # cumsum adds positions in order for every batch width and memory layout
    # (sum() goes pairwise where positions are contiguous: a lone column, or
    # the column-major arrays that gathering minibatch columns gives), so
    # masked trailing positions add exact zeros and cutting the cube after
    # the last scorable position changes no bit; in place, so it needs no
    # second buffer
    picked *= mask
    np.cumsum(picked, axis=0, out=picked)
    return -picked[-1] / t_eff, log_z


class Node:
    """A value in one forward pass. Leaves are constants or parameters.

    `needs_grad` is True for parameters and for op outputs with a parent
    that needs one; backward computes no contribution for any other node.
    """

    __slots__ = ("value", "needs_grad")

    def __init__(self, value: Matrix):
        self.value = value
        self.needs_grad = False

    def item(self) -> float:
        if self.value.size != 1:
            raise UsageError(f"item() on non-scalar node of shape {self.value.shape}")
        return float(self.value[0, 0])


class Param(Node):
    """A learnable leaf; identity is stable across forward passes. `value`
    is a view of `flat[lo:]`: of the buffer given with it, taken unchecked
    (its filler scans it), else of the one `pack` put it in (until then, the
    array given). Write into it, since Adam and checkpoints use `flat`."""

    __slots__ = ("name", "flat", "lo")

    def __init__(self, value, name: str, flat: np.ndarray | None = None, lo: int = 0):
        super().__init__(as_matrix(value, name) if flat is None else value)
        self.needs_grad = True
        self.name = name
        self.flat, self.lo = (self.value.reshape(-1), 0) if flat is None else (flat, lo)


def pack(params: list[Param]) -> np.ndarray:
    """Copy `params`, in order, into one new buffer of their dtype and make
    each value a view of its slot; returns the buffer."""
    flat = np.empty(sum(p.value.size for p in params), np.result_type(*{p.value.dtype for p in params}))
    lo = 0
    for p in params:
        hi = lo + p.value.size
        flat[lo:hi] = p.value.reshape(-1)
        p.value, p.flat, p.lo = flat[lo:hi].reshape(p.value.shape), flat, lo
        lo = hi
    return flat


def first_non_finite(params: list[Param], flat: np.ndarray) -> Param | None:
    """The first of `params`, which tile `flat` (or a buffer laid out like
    it) in order, whose slot holds a nan or inf; None when all are finite."""
    finite = np.isfinite(flat)
    bad = int(np.argmin(finite))  # the first False, if any
    return None if finite[bad] else next(p for p in params if bad < p.lo + p.value.size)


@dataclass
class DenseLayer:
    weight: Param  # (out, in)
    bias: Param  # (out, 1)
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.bias.value.shape != (self.weight.value.shape[0], 1):
            raise ShapeError(
                f"bias shape {self.bias.value.shape} inconsistent with "
                f"weight shape {self.weight.value.shape}"
            )


class Tape:
    """Ordered record of forward ops; backward replays it in reverse.

    Ops are recorded eagerly in execution order, so the reversed record is a
    valid topological order regardless of batch content. An op whose parents
    need no gradient is not recorded, so a one-parent op's backward always
    has a parent to feed; ops with several parents skip those that need none.
    A tape kept across steps keeps its gradient buffer (one per parameter
    buffer) and the buffers it lends (`_lend`), grown to the largest step's.
    """

    def __init__(self, record: bool = True):
        self.record = record  # False for inference: nothing kept for backward, so intermediates free early
        self._entries: list[tuple[Node, Callable]] = []
        self._params: dict[int, Param] = {}  # by id, in recording order
        self._grads: dict[int, np.ndarray] = {}  # by id of the parameter buffer
        self._bufs, self._lent = [], 0  # lent buffers, and how many are lent since the last clear

    # -- recording -----------------------------------------------------

    def _record(self, out: Node, parents: tuple[Node, ...], bw: Callable) -> Node:
        if not self.record or not any(p.needs_grad for p in parents):
            return out
        out.needs_grad = True
        for p in parents:
            if isinstance(p, Param):
                self._params[id(p)] = p
        self._entries.append((out, bw))
        return out

    def constant(self, value) -> Node:
        """A leaf that never receives gradient."""
        return Node(as_matrix(value, "constant"))

    def detach(self, x: Node) -> Node:
        """Stop-gradient: same value, severed from the graph."""
        return Node(x.value)

    # -- primitive ops -------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        va, vb = a.value, b.value
        if va.shape[1] != vb.shape[0]:
            raise ShapeError(f"matmul: inner dims differ, {va.shape} x {vb.shape}")
        out = Node(np.matmul(va, vb, out=self._lend((va.shape[0], vb.shape[1]), np.result_type(va, vb), (a, b))))

        def bw(g, sink):
            if a.needs_grad:
                sink(a, (g, vb.T))
            if b.needs_grad:
                sink(b, (va.T, g))

        return self._record(out, (a, b), bw)

    def add(self, a: Node, b: Node) -> Node:
        va, vb = a.value, b.value
        bias = va.shape != vb.shape  # b broadcast over columns
        if bias and vb.shape != (va.shape[0], 1):
            raise ShapeError(f"add: incompatible shapes {va.shape} and {vb.shape}")
        out = Node(va + vb)

        def bw(g, sink):
            if a.needs_grad:
                sink(a, g)
            if b.needs_grad:
                sink(b, g.sum(axis=1, keepdims=True) if bias else g)

        return self._record(out, (a, b), bw)

    def sub(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"sub: shapes differ, {a.value.shape} vs {b.value.shape}")
        out = Node(a.value - b.value)

        def bw(g, sink):
            if a.needs_grad:
                sink(a, g)
            if b.needs_grad:
                sink(b, -g)

        return self._record(out, (a, b), bw)

    def mul(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"mul: shapes differ, {a.value.shape} vs {b.value.shape}")
        va, vb = a.value, b.value
        out = Node(va * vb)

        def bw(g, sink):
            if a.needs_grad:
                sink(a, g * vb)
            if b.needs_grad:
                sink(b, g * va)

        return self._record(out, (a, b), bw)

    def affine(self, x: Node, scale: float = 1.0, shift: float = 0.0) -> Node:
        out = Node(scale * x.value + shift)

        def bw(g, sink):
            sink(x, scale * g)

        return self._record(out, (x,), bw)

    def relu(self, x: Node) -> Node:
        out = Node(np.maximum(x.value, 0.0))

        def bw(g, sink):
            sink(x, g * (x.value > 0))

        return self._record(out, (x,), bw)

    def sigmoid(self, x: Node) -> Node:
        # clamped to [1e-12, 1 - 1e-12], so saturated heads keep the open (0, 1) contract
        s = np.clip(stable_sigmoid(x.value), 1e-12, 1.0 - 1e-12)
        out = Node(s)

        def bw(g, sink):
            sink(x, g * s * (1.0 - s))

        return self._record(out, (x,), bw)

    def tanh(self, x: Node) -> Node:
        t = np.tanh(x.value)
        out = Node(t)

        def bw(g, sink):
            sink(x, g * (1.0 - t * t))

        return self._record(out, (x,), bw)

    def sqrt(self, x: Node) -> Node:
        v = np.sqrt(x.value)
        out = Node(v)
        # subgradient 0 at x == 0 so hinge compositions stay finite
        safe = np.where(v > 0, v, 1.0)

        def bw(g, sink):
            sink(x, np.where(v > 0, g * 0.5 / safe, 0.0))

        return self._record(out, (x,), bw)

    def sum_rows(self, x: Node) -> Node:
        """Column-wise sum over rows: (r, c) -> (1, c)."""
        out = Node(x.value.sum(axis=0, keepdims=True))
        rows = x.value.shape[0]

        def bw(g, sink):
            sink(x, np.repeat(g, rows, axis=0))

        return self._record(out, (x,), bw)

    def sum_all(self, x: Node) -> Node:
        out = Node(np.array([[x.value.sum()]]))
        shape = x.value.shape

        def bw(g, sink):
            sink(x, np.full(shape, g[0, 0]))

        return self._record(out, (x,), bw)

    def mean_all(self, x: Node) -> Node:
        n = x.value.size
        out = Node(np.array([[x.value.mean()]]))
        shape = x.value.shape

        def bw(g, sink):
            sink(x, np.full(shape, g[0, 0] / n))

        return self._record(out, (x,), bw)

    def concat_rows(self, *xs: Node) -> Node:
        cols = {x.value.shape[1] for x in xs}
        if len(cols) != 1:
            raise ShapeError(f"concat_rows: column counts differ: {sorted(cols)}")
        out = Node(np.concatenate([x.value for x in xs], axis=0))
        offsets = np.cumsum([0] + [x.value.shape[0] for x in xs])

        def bw(g, sink):
            for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
                if x.needs_grad:
                    sink(x, g[lo:hi, :])

        return self._record(out, tuple(xs), bw)

    def part(self, x: Param, where) -> Node:
        """x[where] for a basic index, as a view; backward adds into that part of x's gradient alone."""
        if not isinstance(x, Param):
            raise UsageError("part takes a part of a Param only")
        out = Node(x.value[where])

        def bw(g, sink):
            sink(x, g, where)

        return self._record(out, (x,), bw)

    def take_cols(self, x: Node, idx: np.ndarray) -> Node:
        """x[:, idx]. Backward sums each column's gradient over the positions
        that took it: as g @ onehot(idx) while the one-hot holds at most
        ONEHOT_LIMIT values (the faster form at training batch sizes), else
        as a sorted segment sum, linear in the positions."""
        idx = np.asarray(idx, dtype=np.intp)
        out = Node(x.value[:, idx])

        def bw(g, sink):
            if idx.size * x.value.shape[1] <= ONEHOT_LIMIT:
                onehot = np.zeros((idx.size, x.value.shape[1]), g.dtype)
                onehot[np.arange(idx.size), idx] = 1.0
                return sink(x, g @ onehot)
            order = np.argsort(idx, kind="stable")
            starts = np.flatnonzero(np.diff(idx[order], prepend=-1))
            grad = np.zeros(x.value.shape, g.dtype)
            grad[:, idx[order[starts]]] = np.add.reduceat(np.take(g, order, axis=1), starts, axis=1)
            sink(x, grad)

        return self._record(out, (x,), bw)

    def cosine_cols(self, a: Node, b: Node) -> Node:
        """Column-wise cosine similarity: (d, c) x (d, c) -> (1, c)."""
        if a.value.shape != b.value.shape:
            raise ShapeError(f"cosine: shapes differ, {a.value.shape} vs {b.value.shape}")
        va, vb = a.value, b.value
        na = np.linalg.norm(va, axis=0, keepdims=True)
        nb = np.linalg.norm(vb, axis=0, keepdims=True)
        if np.any(na == 0) or np.any(nb == 0):
            raise ShapeError("cosine undefined for zero-norm embedding")
        dot = (va * vb).sum(axis=0, keepdims=True)
        c = dot / (na * nb)
        out = Node(c)

        def bw(g, sink):
            if a.needs_grad:
                sink(a, g * (vb / (na * nb) - c * va / (na * na)))
            if b.needs_grad:
                sink(b, g * (va / (na * nb) - c * vb / (nb * nb)))

        return self._record(out, (a, b), bw)

    def bce_logits(self, logits: Node, labels: Matrix) -> Node:
        """Per-pair binary cross-entropy from logits, (1, c) -> (1, c).

        Stable form max(x,0) - x*y + log(1+exp(-|x|)); gradient sigmoid(x)-y.
        """
        x = logits.value
        y = np.asarray(labels, dtype=x.dtype).reshape(x.shape)
        val = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
        out = Node(val)

        def bw(g, sink):
            sink(logits, g * (stable_sigmoid(x) - y))

        return self._record(out, (logits,), bw)

    def token_xent(self, logits: Node, token_ids: np.ndarray, pad_mask: np.ndarray, n_positions: int, vocab_size: int) -> Node:
        """Per-sample mean softmax cross-entropy over non-PAD positions.

        logits: (n_positions * vocab_size, batch), position-major.
        token_ids: (n_positions, batch) int ids; pad_mask: 1 where scorable.
        Returns (1, batch) of mean negative log-likelihoods (`token_nll`).
        """
        batch = logits.value.shape[1]
        if logits.value.shape[0] != n_positions * vocab_size:
            raise ShapeError(
                f"token_xent: logits rows {logits.value.shape[0]} != "
                f"{n_positions}x{vocab_size}"
            )
        ids = np.asarray(token_ids, dtype=np.intp).reshape(n_positions, batch)
        cube = logits.value.reshape(n_positions, vocab_size, batch)
        mask = np.asarray(pad_mask, dtype=cube.dtype).reshape(n_positions, batch)
        work = self._lend((2, *cube.shape), cube.dtype, (logits,))  # None when not recorded: token_nll allocates
        nll, log_z = token_nll(cube, ids, mask, work)
        out = Node(nll.reshape(1, batch))

        def bw(g, sink):  # the gradient is made in place of the shifted logits, as exp(log-probabilities)
            grad = np.exp(np.subtract(work[0], log_z, out=work[0]), out=work[0])
            grad[np.arange(n_positions)[:, None], ids, np.arange(batch)[None, :]] -= 1.0
            grad *= (mask / mask.sum(axis=0))[:, None, :]
            grad *= g.reshape(1, 1, batch)
            sink(logits, grad.reshape(n_positions * vocab_size, batch))

        return self._record(out, (logits,), bw)

    def _lend(self, shape: tuple[int, ...], dtype, parents: tuple[Node, ...]) -> np.ndarray | None:
        """A buffer of `shape` and `dtype` for the output or work of an op to be recorded, else None: each op
        since the last clear gets its own buffer, which the same op of the next step reuses."""
        if not self.record or not any(p.needs_grad for p in parents):
            return None
        size, i = math.prod(shape), self._lent
        if i == len(self._bufs) or self._bufs[i].size < size or self._bufs[i].dtype != dtype:
            self._bufs[i : i + 1] = [np.empty(size, dtype)]  # replaces the buffer, or appends one
        self._lent += 1
        return self._bufs[i][:size].reshape(shape)

    # -- backward ------------------------------------------------------

    def backward(self, loss: Node) -> dict[Param, Matrix]:
        """Gradient of `loss` w.r.t. every parameter touched, as views of
        one buffer per parameter buffer, laid out like it, that the tape
        keeps: they hold until its next backward; what no op wrote is zero.
        Clears the tape, releasing each op's record once it has been replayed."""
        if not self._entries:
            raise UsageError("backward called with no recorded forward ops")
        grads: dict[int, Matrix] = {id(loss): np.ones_like(loss.value)}
        buffers = {id(p.flat): p.flat for p in self._params.values()}
        for key, flat in buffers.items():
            kept = self._grads.get(key)
            if kept is None or kept.shape != flat.shape or kept.dtype != flat.dtype:
                self._grads[key] = np.empty_like(flat)
        slots = {k: self._grads[id(p.flat)][p.lo : p.lo + p.value.size].reshape(p.value.shape) for k, p in self._params.items()}
        written: set[int] = set()

        def sink(node: Node, contrib, where=...):  # contrib: an array, or a pair (a, b) for a @ b; where: a Param's part
            key, product = id(node), isinstance(contrib, tuple)
            if key in slots and key not in written:  # its first contribution: into the slot, or after zeroing it
                written.add(key)
                if where is ...:
                    return np.matmul(*contrib, out=slots[key]) if product else np.copyto(slots[key], contrib)
                slots[key].fill(0.0)
            contrib = np.matmul(*contrib) if product else contrib
            if key in slots:
                slots[key][where] += contrib
            else:
                grads[key] = grads[key] + contrib if key in grads else contrib

        while self._entries:
            node, bw = self._entries.pop()
            g = grads.pop(id(node), None)
            if g is not None:
                bw(g, sink)
        ends = dict.fromkeys(buffers, 0)  # per buffer, where the written slots so far end
        for p in sorted((self._params[k] for k in written), key=lambda p: p.lo):
            if ends[id(p.flat)] < p.lo:
                self._grads[id(p.flat)][ends[id(p.flat)] : p.lo] = 0.0
            ends[id(p.flat)] = p.lo + p.value.size
        for key, end in ends.items():
            self._grads[key][end:] = 0.0
        out = {p: slots[k] for k, p in self._params.items()}
        self.clear()
        return out

    def clear(self) -> None:
        self._entries.clear()
        self._params.clear()
        self._lent = 0


def dense_forward(layer: DenseLayer, x: Node, tape: Tape, rows: int | None = None) -> Node:
    """activation(W @ x + b), with x as (in, batch) columns. With `rows`
    below the layer's width, only the first `rows` outputs are computed."""
    w, b = layer.weight, layer.bias
    if x.value.shape[0] != w.value.shape[1]:
        raise ShapeError(
            f"dense_forward: input shape {x.value.shape} incompatible with "
            f"weight shape {w.value.shape}"
        )
    if rows is not None and rows < w.value.shape[0]:
        w, b = tape.part(w, np.s_[:rows]), tape.part(b, np.s_[:rows])
    h = tape.add(tape.matmul(w, x), b)
    if layer.activation == "identity":
        return h
    if layer.activation == "relu":
        return tape.relu(h)
    if layer.activation == "sigmoid":
        return tape.sigmoid(h)
    return tape.tanh(h)


# -- Adam ---------------------------------------------------------------


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    t: int = 0
    m: np.ndarray | None = None  # moments, laid out like the parameter buffer
    v: np.ndarray | None = None
    scratch: np.ndarray | None = None  # (2, ADAM_BLOCK) working values, of the parameter buffer's dtype


def adam_step(state: AdamState, params: list[Param], grads: dict[Param, Matrix]) -> None:
    """Bias-corrected Adam update, in place. Weight decay is decoupled:
    applied directly to the parameter, outside the moment machinery. A
    parameter missing from `grads` (the loss never reached it) gets a zero
    gradient, so its moments decay and weight decay still applies.

    `params` must tile one buffer as `pack` lays them out, and `grads` be
    `Tape.backward`'s views of one buffer laid out like it; anything else
    is a UsageError. Blocks of ADAM_BLOCK values go through the
    per-parameter expressions op by op, so the result is bit-identical."""
    flat = params[0].flat
    if flat.size != sum(p.value.size for p in params) or any(p.flat is not flat for p in params):
        raise UsageError("adam_step needs parameters that tile one buffer, as pack lays them out")
    g = next(iter(grads.values()), np.empty(0)).base
    if g is None or g.shape != flat.shape or any(v.base is not g for v in grads.values()):
        raise UsageError("adam_step needs gradients that are views of one buffer laid out like the parameters'")
    bad = first_non_finite(params, g)
    if bad is not None:
        raise UsageError(f"non-finite gradient for parameter {bad.name!r}; step aborted")
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
        state.scratch = np.empty((2, ADAM_BLOCK), flat.dtype)
    state.t += 1
    b1, b2, lr = state.beta1, state.beta2, state.lr
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for lo in range(0, flat.size, ADAM_BLOCK):
        p, gb, m, v = (a[lo : lo + ADAM_BLOCK] for a in (flat, g, state.m, state.v))
        s, u = state.scratch[:, : p.size]
        # m = b1 * m + (1 - b1) * g
        np.add(np.multiply(m, b1, out=m), np.multiply(gb, 1.0 - b1, out=s), out=m)
        # v = b2 * v + (1 - b2) * g * g
        np.add(np.multiply(v, b2, out=v), np.multiply(np.multiply(gb, 1.0 - b2, out=s), gb, out=s), out=v)
        # update = lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.multiply(np.divide(m, bc1, out=u), lr, out=u)
        np.divide(u, np.add(np.sqrt(np.divide(v, bc2, out=s), out=s), state.eps, out=s), out=u)
        if state.weight_decay > 0.0:
            np.add(u, np.multiply(p, lr * state.weight_decay, out=s), out=u)
        np.subtract(p, u, out=p)


# -- finite-difference gradient checking --------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    tolerance: float
    passed: bool
    worst_param: str = ""


def grad_check(
    forward: Callable[[], tuple[Tape, Node]],
    params: list[Param],
    tolerance: float,
    *,
    samples: int = 120,
    step: float = 1e-6,
    seed: int = 0,
) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    `forward` must build a fresh tape and return (tape, scalar loss node);
    it is called repeatedly with perturbed parameter values and must be a
    deterministic function of those values.
    """
    if tolerance <= 0:
        raise UsageError("tolerance must be > 0")
    _, loss_a = forward()
    tape, loss_b = forward()
    if loss_a.item() != loss_b.item():
        raise UsageError("forward closure is not deterministic: two calls disagree")
    grads = tape.backward(loss_b)

    coords = [(p, i) for p in params for i in range(p.value.size)]
    rng = np.random.default_rng(seed)
    if len(coords) > samples:
        picked = rng.choice(len(coords), size=samples, replace=False)
        coords = [coords[i] for i in picked]

    worst = 0.0
    worst_name = ""
    for p, i in coords:
        orig = p.value.flat[i]
        p.value.flat[i] = orig + step
        f_plus = forward()[1].item()
        p.value.flat[i] = orig - step
        f_minus = forward()[1].item()
        p.value.flat[i] = orig
        fd = (f_plus - f_minus) / (2.0 * step)
        g = grads.get(p)
        an = 0.0 if g is None else float(g.reshape(-1)[i])
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
        if rel > worst:
            worst = rel
            worst_name = f"{p.name}[{i}]"
    return GradCheckReport(
        max_rel_error=worst,
        n_checked=len(coords),
        tolerance=tolerance,
        passed=worst < tolerance,
        worst_param=worst_name,
    )
