import numpy as np
import pytest

from tensordti.errors import ConfigError
from tensordti.metrics import aupr
from tensordti.synthetic import SyntheticConfig, SyntheticData, gen_synthetic


def small(**kw):
    base = dict(n_drugs=40, n_targets=12, drug_dim=8, protein_dim=8,
                n_latent_factors=3, noise=0.1, smiles_len=8, seed=0)
    base.update(kw)
    return SyntheticConfig(**base)


def test_same_seed_identical_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    gen_synthetic(small()).write(a)
    gen_synthetic(small()).write(b)
    for name in ("drugs.bin", "proteins.bin", "interactions.tsv", "smiles.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_different_seed_different_data():
    a = gen_synthetic(small(seed=1))
    b = gen_synthetic(small(seed=2))
    assert not np.array_equal(a.drug_factors, b.drug_factors)


def test_default_config_positive_rate_in_band():
    # Monte-Carlo over a seed set
    for seed in range(5):
        data = gen_synthetic(SyntheticConfig(seed=seed))
        rate = np.mean([r.label for r in data.interactions])
        assert 0.35 <= rate <= 0.65, (seed, rate)


def test_planted_factors_separate_classes_perfectly():
    """The planted bilinear score (factor dot product) ranks every positive
    above every negative by construction: AUPR 1.0 at noise 0."""
    data = gen_synthetic(small(noise=0.0))
    scores, labels = [], []
    di = {d: i for i, d in enumerate(data.drug_ids)}
    ti = {t: j for j, t in enumerate(data.target_ids)}
    for r in data.interactions:
        scores.append(float(data.drug_factors[:, di[r.drug_id]] @ data.target_factors[:, ti[r.target_id]]))
        labels.append(r.label)
    assert aupr(scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_embeddings_are_f32_quantized():
    data = gen_synthetic(small())
    v = data.drugs.get(data.drug_ids[0])
    assert np.array_equal(v, v.astype(np.float32).astype(np.float64))


def test_smiles_tokenize_under_default_vocab():
    from tensordti.tokenizer import SmilesTokenizer, UNK

    data = gen_synthetic(small())
    tok = SmilesTokenizer(max_len=32)
    for s in data.smiles.values():
        seq = tok.tokenize(s)
        assert UNK not in seq.ids
        assert tok.detokenize(seq) == s


def test_smiles_correlated_with_factors():
    """Closer drug factors produce more similar strings than distant ones."""
    data = gen_synthetic(small(n_drugs=80, noise=0.0))
    f = data.drug_factors
    sims = []
    for _ in range(300):
        rng = np.random.default_rng(len(sims))
        i, j = rng.choice(len(data.drug_ids), 2, replace=False)
        d = np.linalg.norm(f[:, i] - f[:, j])
        a, b = data.smiles[data.drug_ids[i]], data.smiles[data.drug_ids[j]]
        ham = sum(x == y for x, y in zip(a, b)) / len(a)
        sims.append((d, ham))
    dist = np.array([s[0] for s in sims])
    agree = np.array([s[1] for s in sims])
    close = agree[dist < np.median(dist)].mean()
    far = agree[dist >= np.median(dist)].mean()
    assert close > far


def test_dta_task_emits_affinities():
    data = gen_synthetic(small(task="dta"))
    assert all(r.affinity is not None and r.label is None for r in data.interactions)


def test_pockets_emitted_when_configured():
    data = gen_synthetic(small(pocket_dim=6))
    assert data.pockets is not None and data.pockets.width == 6
    assert all(r.pocket_id is not None for r in data.interactions)


def test_degenerate_configs_rejected():
    with pytest.raises(ConfigError):
        SyntheticConfig(n_drugs=1)
    with pytest.raises(ConfigError):
        SyntheticConfig(noise=-0.5)
    # a non-positive width or SMILES length makes a fixture no command reads
    for name, value in (("drug_dim", 0), ("drug_dim", -3), ("protein_dim", 0), ("pocket_dim", 0), ("smiles_len", 0)):
        with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {value}"):
            SyntheticConfig(**{name: value})


def test_write_is_pure_function_of_config(tmp_path):
    data = gen_synthetic(small(pocket_dim=4))
    assert isinstance(data, SyntheticData)
    files = data.write(tmp_path / "x")
    assert {p.name for p in files} == {
        "drugs.bin", "proteins.bin", "pockets.bin", "interactions.tsv", "smiles.tsv"
    }
