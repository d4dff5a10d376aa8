import itertools
import json
import math
import re
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensordti import model as M
from tensordti.errors import ConfigError, DataError, FormatError, ShapeError, TdtiError
from tensordti.model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from tensordti.nn import Tape, token_nll


def tiny_config(**kw):
    base = dict(drug_dim=6, protein_dim=5, pocket_dim=4, hidden_dim=8, output_dim=3,
                latent_dim=4, max_len=10, vocab="CNOS")
    base.update(kw)
    return ModelConfig(**base)


def as_dtype(state, dtype):
    """A state over a copy of `state`'s values in `dtype`: float64 for
    finite differences and for the float64 paths tests use as oracles."""
    out = M._zeroed_state(state.config, dtype)
    out.flat[...] = state.flat
    return out


def zero_params(state):
    for p in state.parameters():
        p.value[...] = np.zeros_like(p.value)


# -- encoders -----------------------------------------------------------------


def test_config_defaults_match_published_settings():
    cfg = ModelConfig(drug_dim=64, protein_dim=1280)
    assert (cfg.lambda_protein, cfg.lambda_pocket) == (1.0, 2.0)
    assert (cfg.alpha_cls, cfg.alpha_con, cfg.alpha_conf, cfg.alpha_recon) == (0.4, 0.2, 0.2, 0.2)
    assert cfg.margin == 1.0
    assert cfg.contrastive == "cosine_margin"
    assert (cfg.hidden_dim, cfg.output_dim) == (512, 256)
    from tensordti.training import TrainConfig

    tc = TrainConfig()
    assert tc.lr == 5e-5 and tc.weight_decay == 1e-5
    assert tc.patience == 20 and tc.batch_size == 256


def test_encode_drug_zero_weights_zero_output():
    state = init_model(tiny_config(pocket_dim=None), seed=0)
    zero_params(state)
    out = M.encode_drug(state, np.ones((6, 3)))
    assert np.array_equal(out.value, np.zeros((3, 3)))


def test_encode_drug_identity_like_init_passes_through():
    cfg = tiny_config(drug_dim=3, hidden_dim=3, output_dim=3, pocket_dim=None)
    state = init_model(cfg, seed=0)
    for layer in state.encoder_drug:
        layer.weight.value[...] = np.eye(3)
        layer.bias.value[...] = np.zeros((3, 1))
    x = np.array([[0.5], [1.5], [2.0]])  # nonnegative so relu is transparent
    assert np.allclose(M.encode_drug(state, x).value, x)


def test_encode_drug_deterministic():
    state = init_model(tiny_config(pocket_dim=None), seed=5)
    x = np.random.default_rng(1).standard_normal((6, 4))
    assert np.array_equal(M.encode_drug(state, x).value, M.encode_drug(state, x).value)


def test_encode_drug_width_mismatch():
    state = init_model(tiny_config(pocket_dim=None), seed=0)
    with pytest.raises(ShapeError):
        M.encode_drug(state, np.ones((7, 1)))


# -- pocket aggregation --------------------------------------------------------


def test_pocket_aggregation_stated_arithmetic():
    # encoded protein [1, 2], encoded pocket [0.5, 0], lambdas (1, 2) -> [2, 2]
    cfg = tiny_config(protein_dim=2, pocket_dim=2, hidden_dim=2, output_dim=2)
    state = init_model(cfg, seed=0)
    for layers, vec in ((state.encoder_protein, [1.0, 2.0]), (state.encoder_pocket, [0.5, 0.0])):
        layers[0].weight.value[...] = np.eye(2)
        layers[0].bias.value[...] = np.zeros((2, 1))
        layers[1].weight.value[...] = np.diag(vec)
        layers[1].bias.value[...] = np.zeros((2, 1))
    out = M.encode_protein_with_pocket(state, np.ones((2, 1)), np.ones((2, 1)))
    assert np.allclose(out.value, [[2.0], [2.0]])


def test_pocket_aggregation_is_exactly_linear():
    cfg = tiny_config()
    state = init_model(cfg, seed=3)
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = rng.standard_normal((5, 1))
        k = rng.standard_normal((4, 1))
        combined = M.encode_protein_with_pocket(state, p, k).value
        ep = M.run_encoder(state.encoder_protein, p)
        ek = M.run_encoder(state.encoder_pocket, k)
        expected = cfg.lambda_protein * ep + cfg.lambda_pocket * ek
        assert np.max(np.abs(combined - expected)) < 1e-12


def test_lambda_pocket_zero_matches_pocketless_bit_for_bit():
    cfg = tiny_config(lambda_pocket=0.0)
    pocketful = init_model(cfg, seed=11)
    pocketless = init_model(tiny_config(pocket_dim=None), seed=12)
    # share protein-branch and classifier weights
    for a, b in zip(pocketless.encoder_protein, pocketful.encoder_protein):
        a.weight.value[...] = b.weight.value.copy()
        a.bias.value[...] = b.bias.value.copy()
    for a, b in zip(pocketless.encoder_drug, pocketful.encoder_drug):
        a.weight.value[...] = b.weight.value.copy()
        a.bias.value[...] = b.bias.value.copy()
    for a, b in zip(pocketless.classifier, pocketful.classifier):
        a.weight.value[...] = b.weight.value.copy()
        a.bias.value[...] = b.bias.value.copy()
    rng = np.random.default_rng(0)
    xd = rng.standard_normal((6, 5))
    xp = rng.standard_normal((5, 5))
    xk = rng.standard_normal((4, 5))
    e_p_a = M.encode_protein_with_pocket(pocketful, xp, xk)
    e_p_b = M.encode_protein_with_pocket(pocketless, xp, None)
    assert np.array_equal(e_p_a.value, e_p_b.value)
    la = M.interaction_logit(pocketful, M.encode_drug(pocketful, xd), e_p_a)
    lb = M.interaction_logit(pocketless, M.encode_drug(pocketless, xd), e_p_b)
    assert np.array_equal(la.value, lb.value)


def test_pocket_on_pocketless_model_is_config_error():
    state = init_model(tiny_config(pocket_dim=None), seed=0)
    with pytest.raises(ConfigError):
        M.encode_protein_with_pocket(state, np.ones((5, 1)), np.ones((4, 1)))


def test_pocket_model_requires_pocket():
    state = init_model(tiny_config(), seed=0)
    with pytest.raises(ConfigError):
        M.encode_protein_with_pocket(state, np.ones((5, 1)), None)


# -- interaction logit / confidence ---------------------------------------------


def test_zero_classifier_gives_half_probability():
    state = init_model(tiny_config(pocket_dim=None), seed=0)
    for layer in state.classifier:
        layer.weight.value[...] = np.zeros_like(layer.weight.value)
        layer.bias.value[...] = np.zeros_like(layer.bias.value)
    e_d = M.encode_drug(state, np.random.default_rng(0).standard_normal((6, 4)))
    e_p = M.encode_protein_with_pocket(state, np.random.default_rng(1).standard_normal((5, 4)))
    logit = M.interaction_logit(state, e_d, e_p)
    assert np.array_equal(logit.value, np.zeros((1, 4)))


def test_logit_order_sensitivity():
    state = init_model(tiny_config(pocket_dim=None, drug_dim=5), seed=2)
    rng = np.random.default_rng(3)
    e_d = M.encode_drug(state, rng.standard_normal((5, 1)))
    e_p = M.encode_protein_with_pocket(state, rng.standard_normal((5, 1)))
    a = M.interaction_logit(state, e_d, e_p).item()
    b = M.interaction_logit(state, e_p, e_d).item()
    assert a != b


def test_confidence_zero_weights_half():
    state = init_model(tiny_config(pocket_dim=None), seed=0)
    for layer in state.conf_head:
        layer.weight.value[...] = np.zeros_like(layer.weight.value)
        layer.bias.value[...] = np.zeros_like(layer.bias.value)
    rng = np.random.default_rng(0)
    e_d = M.encode_drug(state, rng.standard_normal((6, 3)))
    e_p = M.encode_protein_with_pocket(state, rng.standard_normal((5, 3)))
    logit = M.interaction_logit(state, e_d, e_p)
    c = M.confidence(state, e_d, e_p, logit)
    assert np.allclose(c.value, 0.5)


def test_confidence_strictly_in_unit_interval():
    state = init_model(tiny_config(pocket_dim=None), seed=4)
    rng = np.random.default_rng(5)
    e_d = M.encode_drug(state, 100.0 * rng.standard_normal((6, 20)))
    e_p = M.encode_protein_with_pocket(state, 100.0 * rng.standard_normal((5, 20)))
    logit = M.interaction_logit(state, e_d, e_p)
    c = M.confidence(state, e_d, e_p, logit).value
    assert np.all(c > 0.0) and np.all(c < 1.0)


# -- reconstruction / unfamiliarity ----------------------------------------------


def test_reconstruct_zero_decoder_uniform_after_softmax():
    state = init_model(tiny_config(pocket_dim=None), seed=0)
    state.ae_decoder.weight.value[...] = np.zeros_like(state.ae_decoder.weight.value)
    state.ae_decoder.bias.value[...] = np.zeros_like(state.ae_decoder.bias.value)
    logits = M.reconstruct(state, np.ones(6)).value.reshape(10, state.config.vocab_size)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.allclose(probs, 1.0 / state.config.vocab_size)


def test_reconstruct_output_shape_and_determinism():
    state = init_model(tiny_config(pocket_dim=None), seed=1)
    x = np.random.default_rng(2).standard_normal(6)
    a = M.reconstruct(state, x).value
    b = M.reconstruct(state, x).value
    assert a.shape == (state.config.max_len * state.config.vocab_size, 1)
    assert np.array_equal(a, b)


def test_unfamiliarity_uniform_logits_closed_form():
    # 16 alphabet chars + 4 specials = vocab 20
    cfg = tiny_config(pocket_dim=None, vocab="CNOSPF123456789c")
    assert cfg.vocab_size == 20
    state = init_model(cfg, seed=0)
    state.ae_decoder.weight.value[...] = np.zeros_like(state.ae_decoder.weight.value)
    state.ae_decoder.bias.value[...] = np.zeros_like(state.ae_decoder.bias.value)
    ids, mask = state.tokenizer.tokenize_many(["CNO"])
    u = M.unfamiliarity_many(state, np.ones((6, 1)), ids, mask)[0]
    nll = math.log(20)
    assert u == pytest.approx(math.log(nll + cfg.unfamiliarity_eps), abs=1e-9)
    assert u == pytest.approx(1.0972, abs=5e-4)


def test_unfamiliarity_nll_one_is_near_zero():
    eps = 1e-8
    assert math.log(1.0 + eps) == pytest.approx(0.0, abs=1e-7)
    # via token_nll directly: uniform logits over 4 tokens give NLL ln 4
    nll, _ = token_nll(np.log(np.full((1, 4, 1), 0.25)), np.array([[2]]), np.ones((1, 1)))
    assert nll[0] == pytest.approx(math.log(4), abs=1e-12)


def test_unfamiliarity_boundary_exactly_one():
    # NLL = e - eps  =>  U = 1.0 exactly
    eps = 1e-8
    nll = math.e - eps
    assert math.log(nll + eps) == pytest.approx(1.0, abs=1e-12)


def test_unfamiliarity_monotone_in_nll():
    eps = 1e-8
    nlls = np.linspace(0.01, 10, 50)
    us = np.log(nlls + eps)
    assert np.all(np.diff(us) > 0)


def test_unfamiliarity_all_pad_errors():
    state = init_model(tiny_config(pocket_dim=None), seed=0)
    ids = np.zeros((10, 1), dtype=np.int64)
    with pytest.raises(DataError, match="scorable"):
        M.unfamiliarity_many(state, np.ones((6, 1)), ids, (ids != 0).astype(float))


def test_unfamiliarity_many_matches_single():
    """Batch invariance: each column scored on its own gives the batch value."""
    state = init_model(tiny_config(pocket_dim=None), seed=3)
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((6, 3))
    ids, mask = state.tokenizer.tokenize_many(["CN", "NOS", "SSS"])
    many = M.unfamiliarity_many(state, mat, ids, mask)
    for j in range(3):
        col = slice(j, j + 1)
        single = M.unfamiliarity_many(state, mat[:, col], ids[:, col], mask[:, col])
        assert many[j] == pytest.approx(single[0], abs=1e-12)


def test_training_and_scoring_share_the_nll():
    """U is log(training reconstruction loss + eps), bit for bit."""
    state = init_model(tiny_config(pocket_dim=None), seed=3)
    c = state.config
    mat = np.random.default_rng(5).standard_normal((6, 4))
    ids, mask = state.tokenizer.tokenize_many(["CN", "NOS", "SSSCNO", "C"])
    tape = Tape()
    xent = tape.token_xent(M.reconstruct(state, mat, tape), ids, mask, c.max_len, c.vocab_size)
    u = M.unfamiliarity_many(state, mat, ids, mask)
    assert np.array_equal(np.log(xent.value.reshape(-1) + c.unfamiliarity_eps), u)


def test_token_nll_prefix_cut_is_exact():
    """Cutting a batch's cube after its longest scorable prefix changes no
    bit, for batch widths 1-5 (a lone column included) and for column-major
    ids and mask (what gathering minibatch columns gives): the masked
    positions add exact zeros to an in-order sum."""
    rng = np.random.default_rng(5)
    for width, longest in itertools.product(range(1, 6), range(1, 41)):
        lengths = [longest] + list(rng.integers(1, longest + 1, size=width - 1))
        cube = rng.standard_normal((40, 8, width)) * 3.0
        ids = np.zeros((40, width), dtype=np.int64)
        for j, n in enumerate(lengths):
            ids[:n, j] = rng.integers(1, 8, size=n)
        mask = (ids != 0).astype(np.float64)
        full, _ = token_nll(cube, ids, mask)
        sliced, _ = token_nll(cube[:longest], ids[:longest], mask[:longest])
        assert np.array_equal(sliced, full), lengths
        f_ids, f_mask = np.asfortranarray(ids[:longest]), np.asfortranarray(mask[:longest])
        assert np.array_equal(token_nll(cube[:longest], f_ids, f_mask)[0], full), lengths


def test_cut_reconstruction_loss_passes_grad_check():
    """The autoencoder's loss over a 4-position prefix of max_len 10 against
    central finite differences, decoder rows past the prefix included (their
    gradient is zero both ways)."""
    from tensordti.losses import reconstruction_loss
    from tensordti.nn import grad_check

    state = as_dtype(init_model(tiny_config(pocket_dim=None), seed=2), np.float64)  # finite differences need float64
    c = state.config
    x = np.random.default_rng(3).standard_normal((6, 3))
    ids, mask = state.tokenizer.tokenize_many(["CN", "N", "OS"])
    assert M.scorable_prefix(mask) == 4

    def forward():
        tape = Tape()
        logits = M.reconstruct(state, x, tape, 4)
        assert logits.value.shape == (4 * c.vocab_size, 3)
        return tape, reconstruction_loss(tape, logits, ids[:4], mask[:4], 4, c.vocab_size)

    ae = [state.ae_encoder.weight, state.ae_encoder.bias, state.ae_decoder.weight, state.ae_decoder.bias]
    report = grad_check(forward, ae, 1e-4, samples=200, seed=0)
    assert report.passed, report


# mixed lengths; "CNOSCNOSCNOS" is cut at max_len = 10
CHUNK_SMILES = ["CN", "NOSCN", "CNOSCNOSCNOS", "C", "SSSCNO", "OO", "NOSNOSN"]


def test_unfamiliarity_many_chunked_matches_full_cube(monkeypatch):
    """Chunks of 3 drugs (3 + 3 + 1), each cut to its longest prefix, against
    the whole-batch max_len cube. Chunking and the row cut change only the
    shape of the decoder product, so agreement is to float rounding."""
    state = init_model(tiny_config(pocket_dim=None), seed=3)
    c = state.config
    mat = np.random.default_rng(6).standard_normal((6, len(CHUNK_SMILES)))
    ids, mask = state.tokenizer.tokenize_many(CHUNK_SMILES)
    assert mask[:, 2].sum() == c.max_len
    cube = M.reconstruct(state, mat).value.reshape(c.max_len, c.vocab_size, -1)
    want = np.log(token_nll(cube, ids, mask)[0] + c.unfamiliarity_eps)
    monkeypatch.setattr(M, "CHUNK_ELEMENTS", 3 * c.max_len * c.vocab_size)
    got = M.unfamiliarity_many(state, mat, ids, mask)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_unfamiliarity_many_all_pad_column_in_later_chunk_errors(monkeypatch):
    state = init_model(tiny_config(pocket_dim=None), seed=0)
    c = state.config
    ids, mask = state.tokenizer.tokenize_many(["CN", "NOS", "C", "SS"])
    ids[:, 3] = 0
    mask[:, 3] = 0.0
    monkeypatch.setattr(M, "CHUNK_ELEMENTS", 2 * c.max_len * c.vocab_size)
    with pytest.raises(DataError, match="scorable"):
        M.unfamiliarity_many(state, np.ones((6, 4)), ids, mask)


def test_score_pairs_rejects_bad_pair_indices():
    state = init_model(tiny_config(pocket_dim=None), seed=0)
    x_d, x_p = np.ones((6, 2)), np.ones((5, 3))
    with pytest.raises(ShapeError, match="drug index"):
        M.score_pairs(state, x_d, x_p, None, [0, 2], [0, 1])
    with pytest.raises(ShapeError, match="equal-length"):
        M.score_pairs(state, x_d, x_p, None, [0, 1], [0])


def test_score_pairs_memory_bounded_by_entities_not_pairs(monkeypatch):
    """Ten times the pairs over the same entities: traced peak memory grows
    by the per-pair outputs plus at most one chunk buffer, never by a
    per-pair gather of the inputs (64 + 64 floats a pair here)."""
    cfg = tiny_config(drug_dim=64, protein_dim=64, pocket_dim=None, hidden_dim=32, output_dim=16)
    state = init_model(cfg, seed=0)
    monkeypatch.setattr(M, "CHUNK_ELEMENTS", 256 * cfg.hidden_dim)
    rng = np.random.default_rng(0)
    x_d, x_p = rng.standard_normal((64, 50)), rng.standard_normal((64, 5))

    def peak(n_pairs):
        d = rng.integers(0, 50, n_pairs)
        t = rng.integers(0, 5, n_pairs)
        tracemalloc.start()
        try:
            M.score_pairs(state, x_d, x_p, None, d, t)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 2_000, 20_000
    growth = peak(large) - peak(small)
    outputs = 2 * 8 * (large - small)  # logits + confidences
    assert growth <= outputs + 8 * M.CHUNK_ELEMENTS


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    state = init_model(tiny_config(), seed=9)
    p1 = tmp_path / "a.tdti"
    p2 = tmp_path / "b.tdti"
    save_checkpoint(state, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for a, b in zip(state.parameters(), loaded.parameters()):
        assert np.array_equal(a.value, b.value)
    assert (tmp_path / "a.tdti.json").is_file()


def test_parameter_values_are_views_of_the_model_buffer(tmp_path):
    """init_model and load_checkpoint leave every parameter a view of its
    slot of `state.flat`, one float32 buffer, which Adam updates and
    checkpoints read."""

    def assert_views(state):
        params = state.parameters()
        assert all(np.shares_memory(p.value, state.flat) and p.flat is state.flat for p in params)
        assert np.array_equal(np.concatenate([p.value.reshape(-1) for p in params]), state.flat)

    state = init_model(tiny_config(), seed=3)
    assert_views(state)
    save_checkpoint(state, tmp_path / "a.tdti")
    loaded = load_checkpoint(tmp_path / "a.tdti")
    assert_views(loaded)
    assert np.array_equal(loaded.flat, state.flat)
    assert state.flat.dtype == loaded.flat.dtype == np.float32


SMALL_STATE = init_model(tiny_config(hidden_dim=3, output_dim=2, latent_dim=2, max_len=4), seed=1)


def _small_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.tdti"
        save_checkpoint(SMALL_STATE, path)
        return path.read_bytes()


def version_1_bytes(state) -> bytes:
    """`state` in the version 1 layout: magic, version, config block, then
    each tensor's (rows, cols) followed by its values as `<f8`."""
    cfg = M._config_json(state.config)
    chunks = [M.CHECKPOINT_MAGIC, struct.pack("<II", 1, len(cfg)), cfg]
    for p in state.parameters():
        chunks += [struct.pack("<II", *p.value.shape), p.value.astype("<f8").tobytes()]
    return b"".join(chunks)


def value_block(raw: bytes) -> int:
    """Where a version 2 file's value block starts: after the config block
    and the (rows, cols) of every tensor."""
    (cfg_len,) = struct.unpack_from("<I", raw, 12)
    config = ModelConfig(**json.loads(raw[16 : 16 + cfg_len]))
    return 16 + cfg_len + 8 * len(M._zeroed_state(config, np.float32).parameters())


def with_value(raw: bytes, index: int, value: float) -> bytes:
    """A version 2 file with value `index` of the buffer set to `value` and
    its CRC-32 made to match, so only the value is wrong."""
    raw, block = bytearray(raw), value_block(raw)
    struct.pack_into("<f", raw, block + 4 * index, value)
    struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(raw[block:-4]))
    return bytes(raw)


def damage(raw: bytes):
    """A truncation of `raw`, or `raw` with up to three bytes flipped."""
    return st.one_of(
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n]),
        st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)), min_size=1, max_size=3).map(
            lambda flips: bytes(b ^ next((x for i, x in flips if i == j), 0) for j, b in enumerate(raw))
        ),
    )


SMALL_CHECKPOINT = _small_checkpoint()
CHECKPOINT_DAMAGE = damage(SMALL_CHECKPOINT)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(CHECKPOINT_DAMAGE)
def test_damaged_checkpoint_loads_or_is_a_typed_error(data):
    """A truncated checkpoint, or one with up to three bytes flipped, either
    loads or raises a TdtiError: no struct.error or ValueError escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.tdti"
        path.write_bytes(data)
        try:
            state = load_checkpoint(path)
        except TdtiError:
            return
    assert all(np.shares_memory(p.value, state.flat) for p in state.parameters())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(damage(version_1_bytes(SMALL_STATE)))
def test_damaged_version_1_checkpoint_loads_or_is_a_typed_error(data):
    """The same damage to a version 1 file: it loads or raises a TdtiError."""
    test_damaged_checkpoint_loads_or_is_a_typed_error.hypothesis.inner_test(data)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.tdti"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(p)


def test_checkpoint_mismatched_dims(tmp_path):
    state = init_model(tiny_config(), seed=0)
    p = tmp_path / "m.tdti"
    save_checkpoint(state, p)
    raw = bytearray(p.read_bytes())
    # corrupt the first declared tensor dimension header after the config block
    import struct

    (cfg_len,) = struct.unpack_from("<I", raw, 12)
    off = 16 + cfg_len
    struct.pack_into("<II", raw, off, 999, 999)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="declared"):
        load_checkpoint(p)


def test_checkpoint_truncated(tmp_path):
    state = init_model(tiny_config(), seed=0)
    p = tmp_path / "t.tdti"
    save_checkpoint(state, p)
    p.write_bytes(p.read_bytes()[:-16])
    with pytest.raises(FormatError, match="truncated|trailing"):
        load_checkpoint(p)


def test_checkpoint_shorter_than_its_header(tmp_path):
    p = tmp_path / "short.tdti"
    p.write_bytes(M.CHECKPOINT_MAGIC + b"\x01\x00")
    with pytest.raises(FormatError, match="truncated checkpoint header"):
        load_checkpoint(p)


@pytest.mark.parametrize("field", [{"max_len": 2}, {"vocab": "CNC"}])
def test_checkpoint_config_the_tokenizer_refuses_is_format_error(tmp_path, field):
    """A config block whose tokenizer cannot be built is a malformed file,
    like every other unreadable config block."""
    import json
    import struct

    p = tmp_path / "c.tdti"
    save_checkpoint(init_model(tiny_config(), seed=0), p)
    raw = p.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", raw, 12)
    cfg = json.dumps({**json.loads(raw[16 : 16 + cfg_len]), **field}).encode()
    p.write_bytes(raw[:12] + struct.pack("<I", len(cfg)) + cfg + raw[16 + cfg_len :])
    with pytest.raises(FormatError, match=re.escape(f"{p}: unreadable config block")):
        load_checkpoint(p)


def test_checkpoint_config_nested_too_deeply_is_format_error(tmp_path):
    """JSON nested past the parser's recursion limit is a malformed file, not
    a RecursionError."""
    import struct

    cfg = b"[" * 200_000
    p = tmp_path / "deep.tdti"
    p.write_bytes(M.CHECKPOINT_MAGIC + struct.pack("<II", M.CHECKPOINT_VERSION, len(cfg)) + cfg)
    with pytest.raises(FormatError, match=re.escape(f"{p}: unreadable config block")):
        load_checkpoint(p)


def test_checkpoint_non_finite_parameter_refused(tmp_path):
    """A nan parameter is never written, and one in a file fails the load
    with the parameter's name instead of turning into nan scores."""
    state = init_model(tiny_config(), seed=0)
    p = tmp_path / "n.tdti"
    save_checkpoint(state, p)
    p.write_bytes(with_value(p.read_bytes(), state.classifier[1].bias.lo, float("nan")))
    with pytest.raises(FormatError, match="classifier.1.bias"):
        load_checkpoint(p)

    state.classifier[1].bias.value[0, 0] = float("inf")
    q = tmp_path / "inf.tdti"
    with pytest.raises(DataError, match="classifier.1.bias"):
        save_checkpoint(state, q)
    assert not q.exists()


def test_every_parameter_flipped_to_nan_is_a_format_error_naming_it(tmp_path):
    """The one finite scan of the loaded buffer names the parameter that
    holds the bad value, up to the last value of each."""
    state = init_model(tiny_config(), seed=0)
    p = tmp_path / "n.tdti"
    save_checkpoint(state, p)
    raw = p.read_bytes()
    for param in state.parameters():
        p.write_bytes(with_value(raw, param.lo + param.value.size - 1, float("nan")))  # its last value
        with pytest.raises(FormatError, match=re.escape(f"parameter {param.name!r} has non-finite values")):
            load_checkpoint(p)


def test_loaded_buffer_holds_the_files_values_bit_for_bit(tmp_path):
    """load_checkpoint fills `flat` straight from the file: the saved state's
    float32 buffer bit for bit (a negative zero and subnormals too), which is
    the file's `<f4` block after the (rows, cols) of every tensor, followed
    by the block's CRC-32."""
    f32 = np.finfo(np.float32)
    state = init_model(tiny_config(), seed=4)
    state.flat[:4] = [-0.0, f32.smallest_subnormal, -f32.max, f32.smallest_normal / 3]
    p = tmp_path / "b.tdti"
    save_checkpoint(state, p)
    loaded = load_checkpoint(p)
    assert loaded.flat.dtype == np.float32 and loaded.flat.tobytes() == state.flat.tobytes()
    raw = p.read_bytes()
    assert struct.unpack_from("<II", raw, 8)[0] == M.CHECKPOINT_VERSION == 2
    block = value_block(raw)
    shapes = [struct.unpack_from("<II", raw, off) for off in range(block - 8 * len(loaded.parameters()), block, 8)]
    assert shapes == [param.value.shape for param in loaded.parameters()]
    assert raw[block:-4] == loaded.flat.astype("<f4").tobytes()
    assert struct.unpack("<I", raw[-4:])[0] == zlib.crc32(raw[block:-4])


@pytest.mark.parametrize("where", ["first", "middle", "last", "crc"])
def test_flipped_byte_in_the_value_block_is_a_format_error_naming_the_file(tmp_path, where):
    """A flipped bit in the values, or in their CRC-32, fails the CRC check,
    even where the value it makes is finite and the right size."""
    p = tmp_path / "f.tdti"
    save_checkpoint(init_model(tiny_config(), seed=0), p)
    raw = bytearray(p.read_bytes())
    block = value_block(raw)
    at = {"first": block, "middle": (block + len(raw) - 4) // 2, "last": len(raw) - 5, "crc": len(raw) - 1}[where]
    raw[at] ^= 0x01
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=re.escape(f"{p}: the value block fails its CRC-32")):
        load_checkpoint(p)


@pytest.mark.parametrize("cut", ["shape table", "value block", "crc"])
def test_truncated_shape_table_or_value_block_is_a_format_error(tmp_path, cut):
    p = tmp_path / "t.tdti"
    save_checkpoint(init_model(tiny_config(), seed=0), p)
    raw = p.read_bytes()
    block = value_block(raw)
    keep = {"shape table": block - 12, "value block": block + 6, "crc": len(raw) - 2}[cut]
    p.write_bytes(raw[:keep])
    with pytest.raises(FormatError, match=re.escape(f"{p}: truncated: {keep} bytes where its config implies {len(raw)}")):
        load_checkpoint(p)


def test_version_1_file_of_float32_values_loads_to_identical_values(tmp_path):
    """A version 1 checkpoint, whose `<f8` values are all float32 values as
    training writes them, loads into the same float32 buffer a version 2 file
    gives, and saves as that version 2 file."""
    state = init_model(tiny_config(), seed=5)
    state.flat[:2] = [-0.0, np.finfo(np.float32).smallest_subnormal]
    old, new = tmp_path / "old.tdti", tmp_path / "new.tdti"
    old.write_bytes(version_1_bytes(state))
    loaded = load_checkpoint(old)
    assert loaded.flat.dtype == np.float32 and loaded.flat.tobytes() == state.flat.tobytes()
    assert loaded.config == state.config
    save_checkpoint(state, new)
    save_checkpoint(loaded, old)
    assert old.read_bytes() == new.read_bytes()


@pytest.mark.parametrize("value", [0.1, 1e300, 5e-324], ids=["inexact", "past-float32-range", "below-float32-subnormals"])
def test_version_1_value_that_is_not_a_float32_is_a_format_error_naming_it(tmp_path, value):
    state = as_dtype(init_model(tiny_config(), seed=5), np.float64)
    state.conf_head[0].weight.value[2, 1] = value
    p = tmp_path / "v1.tdti"
    p.write_bytes(version_1_bytes(state))
    with pytest.raises(FormatError, match=re.escape(f"{p}: parameter 'conf_head.0.weight' holds a value that is not a float32")):
        load_checkpoint(p)


def test_concurrent_inference_on_frozen_state():
    """Read-only parameters: many threads scoring at once agree with the
    serial result."""
    from concurrent.futures import ThreadPoolExecutor

    state = init_model(tiny_config(pocket_dim=None), seed=6)
    rng = np.random.default_rng(7)
    batches = [rng.standard_normal((6, 16)) for _ in range(24)]
    expected = [M.encode_drug(state, b).value for b in batches]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda b: M.encode_drug(state, b).value, batches))
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)


def test_model_outputs_finite_for_large_inputs():
    state = init_model(tiny_config(pocket_dim=None), seed=1)
    x = 1e3 * np.ones((6, 2))
    xp = -1e3 * np.ones((5, 2))
    e_d = M.encode_drug(state, x)
    e_p = M.encode_protein_with_pocket(state, xp)
    logit = M.interaction_logit(state, e_d, e_p)
    conf = M.confidence(state, e_d, e_p, logit)
    for node in (e_d, e_p, logit, conf):
        assert np.all(np.isfinite(node.value))
