"""The interaction network: drug/protein projection encoders, weighted
pocket aggregation, interaction head, confidence head, and the drug
autoencoder behind the unfamiliarity score.

All functions take column-vector batches (dim, batch). Passing tape=None
runs pure inference on a tape that records nothing. `score_pairs` and
`unfamiliarity_many` are the inference paths: they score per entity and
work in chunks of at most CHUNK_ELEMENTS float64 values per buffer.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ._util import check_floats, json_text
from .errors import ConfigError, DataError, FormatError, ShapeError
from .nn import DenseLayer, Node, Param, Tape, dense_forward, first_non_finite, pack, token_nll
from .tokenizer import DEFAULT_ALPHABET, N_SPECIALS, SmilesTokenizer

CHECKPOINT_MAGIC = b"TDTICKPT"
CHECKPOINT_VERSION = 2  # version 1 files still load when every value is a float32

# float64 values per working buffer of a scoring chunk (8 MiB)
CHUNK_ELEMENTS = 1 << 20

# the dtype of parameters from init_model to the file, and of all training;
# scoring is float64, each op promoting the weights against float64 embeddings
TRAIN_DTYPE = np.float32

MODES = ("classification", "regression")
CONTRASTIVE_VARIANTS = ("cosine_margin", "triplet_l2")


@dataclass
class ModelConfig:
    drug_dim: int
    protein_dim: int
    pocket_dim: int | None = None
    hidden_dim: int = 512
    output_dim: int = 256
    lambda_protein: float = 1.0
    lambda_pocket: float = 2.0
    mode: str = "classification"
    max_len: int = 128
    vocab: str = DEFAULT_ALPHABET
    latent_dim: int = 64
    alpha_cls: float = 0.4
    alpha_con: float = 0.2
    alpha_conf: float = 0.2
    alpha_recon: float = 0.2
    contrastive: str = "cosine_margin"
    margin: float = 1.0
    triplet_margin: float = 1.0
    unfamiliarity_eps: float = 1e-8
    error_scale: float = 1.0  # regression confidence target: min(1, |t-pred|/scale)

    def __post_init__(self):
        dims = [self.drug_dim, self.protein_dim, self.hidden_dim, self.output_dim, self.latent_dim]
        if self.pocket_dim is not None:
            dims.append(self.pocket_dim)
        if any(d <= 0 for d in dims):
            raise ConfigError(f"all dimensions must be > 0, got {dims}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.contrastive not in CONTRASTIVE_VARIANTS:
            raise ConfigError(f"contrastive must be one of {CONTRASTIVE_VARIANTS}")
        check_floats(
            self, lambda_protein="", lambda_pocket="", alpha_cls=">= 0", alpha_con=">= 0", alpha_conf=">= 0",
            alpha_recon=">= 0", margin="> 0", triplet_margin="> 0", unfamiliarity_eps="> 0", error_scale="> 0",
        )

    @property
    def vocab_size(self) -> int:
        return N_SPECIALS + len(self.vocab)


@dataclass
class ModelState:
    config: ModelConfig
    encoder_drug: list[DenseLayer]
    encoder_protein: list[DenseLayer]
    encoder_pocket: list[DenseLayer] | None
    classifier: list[DenseLayer]
    conf_head: list[DenseLayer]
    ae_encoder: DenseLayer
    ae_decoder: DenseLayer
    tokenizer: SmilesTokenizer = field(init=False)
    flat: np.ndarray | None = field(default=None, repr=False)  # every parameter's values; each Param.value is a view

    def __post_init__(self):
        self.tokenizer = SmilesTokenizer(self.config.vocab, self.config.max_len)
        self.flat = pack(self.parameters()) if self.flat is None else self.flat  # given: they lie over it already

    def parameters(self) -> list[Param]:
        layers: list[DenseLayer] = []
        layers += self.encoder_drug + self.encoder_protein
        if self.encoder_pocket is not None:
            layers += self.encoder_pocket
        layers += self.classifier + self.conf_head + [self.ae_encoder, self.ae_decoder]
        params: list[Param] = []
        for layer in layers:
            params.append(layer.weight)
            params.append(layer.bias)
        return params


def _layers(c: ModelConfig, dense) -> dict:
    """ModelState's layer fields, in parameter order, each layer made by dense(in_dim, out_dim, activation, name)."""

    def two(in_dim, out_dim, name, final_act="identity"):
        return [dense(in_dim, c.hidden_dim, "relu", f"{name}.0"), dense(c.hidden_dim, out_dim, final_act, f"{name}.1")]

    return dict(
        encoder_drug=two(c.drug_dim, c.output_dim, "encoder_drug"),
        encoder_protein=two(c.protein_dim, c.output_dim, "encoder_protein"),
        encoder_pocket=two(c.pocket_dim, c.output_dim, "encoder_pocket") if c.pocket_dim is not None else None,
        classifier=two(2 * c.output_dim, 1, "classifier"),
        conf_head=two(2 * c.output_dim + 1, 1, "conf_head", final_act="sigmoid"),
        ae_encoder=dense(c.drug_dim, c.latent_dim, "tanh", "ae_encoder"),
        ae_decoder=dense(c.latent_dim, c.max_len * c.vocab_size, "identity", "ae_decoder"),
    )


def _zeroed_state(config: ModelConfig, dtype) -> ModelState:
    """A state over one new zeroed buffer of `dtype`, its parameters laid out in it as `pack` lays them."""
    sizes: list[int] = []  # each layer's weight and bias values
    _layers(config, lambda in_dim, out_dim, *_: sizes.append(out_dim * (in_dim + 1)))
    flat, lo = np.zeros(sum(sizes), dtype), 0

    def dense(in_dim, out_dim, activation, name):
        nonlocal lo
        params = []
        for pname, shape in ((f"{name}.weight", (out_dim, in_dim)), (f"{name}.bias", (out_dim, 1))):
            n = shape[0] * shape[1]
            params.append(Param(flat[lo : lo + n].reshape(shape), pname, flat, lo))
            lo += n
        return DenseLayer(*params, activation)

    return ModelState(config, **_layers(config, dense), flat=flat)


def init_model(config: ModelConfig, seed: int = 0) -> ModelState:
    """Weights drawn from `seed` in +-sqrt(6/(fan_in+fan_out)), layer by
    layer, each rounded into one TRAIN_DTYPE buffer; zero biases."""
    rng = np.random.default_rng(seed)
    state = _zeroed_state(config, TRAIN_DTYPE)
    for weight in state.parameters()[::2]:
        bound = np.sqrt(6.0 / sum(weight.value.shape))
        weight.value[...] = rng.uniform(-bound, bound, size=weight.value.shape)
    return state


def _run(layers: list[DenseLayer], x: Node, tape: Tape) -> Node:
    for layer in layers:
        x = dense_forward(layer, x, tape)
    return x


def _prep(x, tape: Tape, width: int, what: str) -> Node:
    if isinstance(x, Node):
        node = x
    else:
        node = tape.constant(x)
    if node.value.shape[0] != width:
        raise ShapeError(f"{what}: expected width {width}, got {node.value.shape[0]}")
    return node


def encode_drug(state: ModelState, vec, tape: Tape | None = None) -> Node:
    tape = tape or Tape(record=False)
    return _run(state.encoder_drug, _prep(vec, tape, state.config.drug_dim, "drug vector"), tape)


def run_encoder(layers: list[DenseLayer], x: np.ndarray) -> np.ndarray:
    """Inference-only pass of a column batch through an encoder branch."""
    tape = Tape(record=False)
    return _run(layers, tape.constant(x), tape).value


def encode_protein_with_pocket(state: ModelState, protein_vec, pocket_vec=None, tape: Tape | None = None) -> Node:
    """lambda_protein * E(protein) + lambda_pocket * K(pocket) when a pocket
    is given; plain E(protein) on the pocketless path."""
    tape = tape or Tape(record=False)
    c = state.config
    if pocket_vec is not None and state.encoder_pocket is None:
        raise ConfigError("pocket embedding supplied to a pocketless model")
    if pocket_vec is None and state.encoder_pocket is not None:
        raise ConfigError("model was built with a pocket branch; pocket embedding required")
    hp = _run(state.encoder_protein, _prep(protein_vec, tape, c.protein_dim, "protein vector"), tape)
    if pocket_vec is None:
        return hp
    if c.lambda_pocket == 0.0:
        # degenerate weight: identical (bit-for-bit) to the pocketless path
        return hp if c.lambda_protein == 1.0 else tape.affine(hp, c.lambda_protein)
    hk = _run(state.encoder_pocket, _prep(pocket_vec, tape, c.pocket_dim, "pocket vector"), tape)
    return tape.add(tape.affine(hp, c.lambda_protein), tape.affine(hk, c.lambda_pocket))


def interaction_logit(state: ModelState, e_d: Node, e_p: Node, tape: Tape | None = None) -> Node:
    """Classifier over the concatenated pair [e_d || e_p]; (1, batch) logits
    (raw affinity values in regression mode)."""
    tape = tape or Tape(record=False)
    out = state.config.output_dim
    x = tape.concat_rows(_prep(e_d, tape, out, "drug embedding"), _prep(e_p, tape, out, "target embedding"))
    return _run(state.classifier, x, tape)


def confidence(state: ModelState, e_d: Node, e_p: Node, logit: Node, tape: Tape | None = None) -> Node:
    """Sigmoid-bounded self-estimated error in (0,1); lower = more certain.

    Inputs are detached: the confidence loss trains this head only and can
    never reshape the encoders or the classifier that produce its inputs.
    """
    tape = tape or Tape(record=False)
    x = tape.concat_rows(tape.detach(e_d), tape.detach(e_p), tape.detach(logit))
    return _run(state.conf_head, x, tape)


def scorable_prefix(pad_mask: np.ndarray) -> int:
    """Positions up to the last one that any column of a (max_len, batch)
    mask scores; at least 1."""
    return int(np.flatnonzero(pad_mask.any(axis=1)).max(initial=0)) + 1


def reconstruct(state: ModelState, drug_vec, tape: Tape | None = None, n_positions: int | None = None) -> Node:
    """Token logits from the drug autoencoder, (n_positions * vocab_size,
    batch), position-major. n_positions defaults to max_len; a shorter
    prefix evaluates only its decoder rows, and the rows past it get zero
    gradient."""
    tape = tape or Tape(record=False)
    c = state.config
    z = dense_forward(state.ae_encoder, _prep(drug_vec, tape, c.drug_dim, "drug vector"), tape)
    rows = None if n_positions is None else n_positions * c.vocab_size
    return dense_forward(state.ae_decoder, z, tape, rows)


def head_partials(state: ModelState, e_d: Node, e_p: Node, tape: Tape) -> tuple[Node, Node, Node, Node]:
    """Both heads' first layer split per entity, W [e_d; e_p] + b = W_d e_d +
    (W_p e_p + b): one column per drug or per (target, pocket); the confidence
    head's come from detached embeddings. Returns the classifier's drug and
    target partials, then the confidence head's."""
    out = state.config.output_dim
    partials = []
    for layer, d, p in ((state.classifier[0], e_d, e_p), (state.conf_head[0], tape.detach(e_d), tape.detach(e_p))):
        partials.append(tape.matmul(tape.part(layer.weight, np.s_[:, :out]), d))
        partials.append(tape.add(tape.matmul(tape.part(layer.weight, np.s_[:, out : 2 * out]), p), layer.bias))
    return tuple(partials)


def pair_heads(state: ModelState, partials, drug_idx: np.ndarray, target_idx: np.ndarray, tape: Tape) -> tuple[Node, Node]:
    """Logits and confidences, (1, n) each, of the pairs (drug_idx[i],
    target_idx[i]), column indices into `head_partials`: a gather, an add and
    a relu, then hidden -> 1; the confidence head also adds w_logit * the
    detached logit. Equal to interaction_logit / confidence up to rounding."""
    cls_d, cls_p, conf_d, conf_p = partials
    h = tape.add(tape.take_cols(cls_d, drug_idx), tape.take_cols(cls_p, target_idx))
    logit = dense_forward(state.classifier[1], tape.relu(h), tape)
    w_logit = tape.part(state.conf_head[0].weight, np.s_[:, 2 * state.config.output_dim :])
    h = tape.add(tape.take_cols(conf_d, drug_idx), tape.take_cols(conf_p, target_idx))
    h = tape.add(h, tape.matmul(w_logit, tape.detach(logit)))
    return logit, dense_forward(state.conf_head[1], tape.relu(h), tape)


def score_pairs(state: ModelState, drug_matrix, protein_matrix, pocket_matrix, drug_idx, target_idx):
    """Interaction logits and confidences, (n,) each, of the pairs
    (drug_idx[i], target_idx[i]): column indices into per-entity matrices,
    one column per drug and one per (target, pocket). Each entity goes
    through its tower and `head_partials` once; the pairs go through
    `pair_heads` in chunks."""
    drug_idx = np.asarray(drug_idx, dtype=np.intp)
    target_idx = np.asarray(target_idx, dtype=np.intp)
    if drug_idx.ndim != 1 or drug_idx.shape != target_idx.shape:
        raise ShapeError(f"pair indices must be two equal-length vectors, got {drug_idx.shape} and {target_idx.shape}")
    tape = Tape(record=False)
    e_d = encode_drug(state, drug_matrix, tape)
    e_p = encode_protein_with_pocket(state, protein_matrix, pocket_matrix, tape)
    for idx, n_cols, what in ((drug_idx, e_d.value.shape[1], "drug"), (target_idx, e_p.value.shape[1], "target")):
        if idx.size and (idx.min() < 0 or idx.max() >= n_cols):
            raise ShapeError(f"{what} index outside 0..{n_cols - 1}")
    partials = head_partials(state, e_d, e_p, tape)
    n = drug_idx.size
    logits, confs = np.empty(n), np.empty(n)
    step = max(1, CHUNK_ELEMENTS // (8 * state.config.hidden_dim))  # pair_heads holds < 8 (hidden, step) buffers
    for lo in range(0, n, step):
        cols = slice(lo, lo + step)
        logit, conf = pair_heads(state, partials, drug_idx[cols], target_idx[cols], tape)
        logits[cols], confs[cols] = logit.value[0], conf.value[0]
    return logits, confs


def unfamiliarity_many(state: ModelState, drug_matrix, token_ids, pad_mask) -> np.ndarray:
    """U = log(NLL + unfamiliarity_eps), natural log, for a drug column batch;
    the NLL is the training reconstruction loss (`token_nll`) per drug.

    token_ids/pad_mask: (max_len, batch). Returns (batch,) U scores. Under
    this convention the U < 1.0 reliability boundary corresponds to
    NLL < e - eps. Drugs go through `reconstruct` in chunks, and each chunk's
    logit cube is cut after its longest scorable prefix: the positions
    dropped are masked and would add exact zeros.
    """
    c = state.config
    u = np.empty(drug_matrix.shape[1])
    step = max(1, CHUNK_ELEMENTS // (c.max_len * c.vocab_size))
    for lo in range(0, u.size, step):
        cols = slice(lo, lo + step)
        mask = pad_mask[:, cols]
        length = scorable_prefix(mask)
        cube = reconstruct(state, drug_matrix[:, cols], n_positions=length).value.reshape(length, c.vocab_size, -1)
        nll, _ = token_nll(cube, token_ids[:length, cols], mask[:length])
        u[cols] = np.log(nll + c.unfamiliarity_eps)
    return u


# -- checkpoint I/O -------------------------------------------------------


def _config_json(config: ModelConfig) -> bytes:
    return json.dumps(asdict(config), sort_keys=True).encode("utf-8")


def save_checkpoint(state: ModelState, path: str | Path) -> None:
    """Versioned binary: magic, version, config block, each tensor's (rows, cols)
    as u32-LE in declaration order, then the buffer as one `<f4` block and its
    CRC-32. A JSON sidecar of the config is written for human inspection."""
    path = Path(path)
    cfg = _config_json(state.config)
    params = state.parameters()
    bad = first_non_finite(params, state.flat)
    if bad is not None:
        raise DataError(f"parameter {bad.name!r} has non-finite values; {path} not written")
    values = state.flat.astype("<f4", copy=False)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(cfg)) + cfg)
        f.write(b"".join(struct.pack("<II", *p.value.shape) for p in params))
        f.write(values)
        f.write(struct.pack("<I", zlib.crc32(values)))
    Path(str(path) + ".json").write_text(json_text(asdict(state.config)), encoding="utf-8")


def load_checkpoint(path: str | Path) -> ModelState:
    """Values go straight from the file into one float32 buffer laid out from the config, then one CRC
    check and one non-finite scan; a version 1 file (`<f8` values after each shape) loads if all are float32."""
    size = Path(path).stat().st_size
    with open(path, "rb") as f:
        head = f.read(16)
        if head[:8] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {head[:8]!r}")
        if len(head) < 16:
            raise FormatError(f"{path}: truncated checkpoint header")
        version, cfg_len = struct.unpack_from("<II", head, 8)
        if version not in (1, CHECKPOINT_VERSION):
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        try:
            config = ModelConfig(**json.loads(f.read(min(cfg_len, size)).decode("utf-8")))
            SmilesTokenizer(config.vocab, config.max_len)  # one the state cannot build is refused before any tensor
        except (ValueError, TypeError, RecursionError, ConfigError, DataError) as exc:  # RecursionError: JSON nested too deep
            raise FormatError(f"{path}: unreadable config block: {exc}") from exc
        state = _zeroed_state(config, "<f4")
        params, flat = state.parameters(), state.flat
        end = 16 + cfg_len + 8 * len(params) + (8 * flat.size if version == 1 else 4 * flat.size + 4)
        if size != end:
            what = "truncated" if size < end else "trailing bytes"
            raise FormatError(f"{path}: {what}: {size} bytes where its config implies {end}")
        data, off = f.read(8 * len(params)) if version == 2 else f.read(), 0  # version 1: shapes and values
        for p in params:
            declared, n = struct.unpack_from("<II", data, off), p.value.size
            if declared != p.value.shape:
                raise FormatError(f"{path}: parameter {p.name!r} declared {declared}, config implies {p.value.shape}")
            if version == 1:
                wide = np.frombuffer(data, dtype="<f8", count=n, offset=off + 8)
                with np.errstate(over="ignore"):  # past the float32 range: inf, which fails the check
                    flat[p.lo : p.lo + n] = wide
                if not np.array_equal(flat[p.lo : p.lo + n], wide, equal_nan=True):
                    raise FormatError(f"{path}: parameter {p.name!r} holds a value that is not a float32")
            off += 8 if version == 2 else 8 + 8 * n
        if version == 2 and (f.readinto(flat) != flat.nbytes or int.from_bytes(f.read(4), "little") != zlib.crc32(flat)):
            raise FormatError(f"{path}: the value block fails its CRC-32")
    bad = first_non_finite(params, flat)
    if bad is not None:
        raise FormatError(f"{path}: parameter {bad.name!r} has non-finite values")
    return state
