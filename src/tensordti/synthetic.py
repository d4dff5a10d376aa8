"""Synthetic planted-structure fixtures for desk-scale training and
screening.

Each drug and target gets a latent factor vector. Interaction labels follow
the planted bilinear rule (positive iff the factor dot product is > 0);
regression targets are planted linear reads of the factors. Embeddings are
random linear images of the factors plus Gaussian noise, quantized through
f32 so that both on-disk formats round-trip exactly. SMILES-like strings
are deterministic functions of the drug factors, so reconstruction from
embeddings is learnable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import check_floats, splitmix64
from .embeddings import (
    EmbeddingStore,
    InteractionRecord,
    save_embeddings_binary,
    save_interactions,
    save_smiles,
)
from .errors import ConfigError, DataError

# subset of the tokenizer's default alphabet
_SMILES_CHARS = "CNOPSFclnos="

log = logging.getLogger("tensordti")


@dataclass
class SyntheticConfig:
    n_drugs: int = 200
    n_targets: int = 50
    drug_dim: int = 16
    protein_dim: int = 16
    pocket_dim: int | None = None
    n_latent_factors: int = 3
    noise: float = 0.1
    smiles_len: int = 12
    task: str = "dti"  # dti (labels) | dta (affinities)
    seed: int = 0

    def __post_init__(self):
        if self.n_drugs < 2 or self.n_targets < 2:
            raise ConfigError("need at least 2 drugs and 2 targets")
        check_floats(self, noise=">= 0")
        if self.n_latent_factors < 1:
            raise ConfigError("need at least 1 latent factor")
        for name in ("drug_dim", "protein_dim", "pocket_dim", "smiles_len"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")
        if self.task not in ("dti", "dta"):
            raise ConfigError(f"task must be dti or dta, got {self.task!r}")


@dataclass
class SyntheticData:
    config: SyntheticConfig
    drugs: EmbeddingStore
    proteins: EmbeddingStore
    pockets: EmbeddingStore | None
    interactions: list[InteractionRecord]
    smiles: dict[str, str]
    drug_factors: np.ndarray  # (k, n_drugs)
    target_factors: np.ndarray  # (k, n_targets)
    drug_ids: list[str]
    target_ids: list[str]

    def write(self, outdir: str | Path) -> list[Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, store in (("drugs.bin", self.drugs), ("proteins.bin", self.proteins), ("pockets.bin", self.pockets)):
            if store is not None:
                save_embeddings_binary(store, outdir / name)
                written.append(outdir / name)
        save_interactions(self.interactions, outdir / "interactions.tsv")
        written.append(outdir / "interactions.tsv")
        save_smiles(self.smiles, outdir / "smiles.tsv")
        written.append(outdir / "smiles.tsv")
        return written


def _f32(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float32).astype(np.float64)


def gen_synthetic(config: SyntheticConfig) -> SyntheticData:
    """Pure function of the config: same config, same bytes."""
    for attempt in range(10):
        rng = np.random.default_rng(splitmix64(config.seed, attempt))
        data, rate = _generate(config, rng)
        if rate is None or 0 < rate < 1:
            return data
        log.warning("synthetic labels degenerate (positive rate %s); retry %d/10", rate, attempt + 1)
    raise DataError(f"could not plant a two-class dataset in 10 tries (rate {rate})")


def _generate(config: SyntheticConfig, rng: np.random.Generator) -> tuple[SyntheticData, float | None]:
    """The fixture one generator draws, and its positive rate (None for dta)."""
    c = config
    k = c.n_latent_factors
    drug_ids = [f"D{i:04d}" for i in range(c.n_drugs)]
    target_ids = [f"T{j:04d}" for j in range(c.n_targets)]

    f_drug = rng.standard_normal((k, c.n_drugs))
    f_target = rng.standard_normal((k, c.n_targets))

    def embed(dim, factors):
        mix = rng.standard_normal((dim, k)) / np.sqrt(k)
        e = mix @ factors
        if c.noise > 0:
            e = e + c.noise * rng.standard_normal(e.shape)
        return _f32(e)

    e_drug = embed(c.drug_dim, f_drug)
    e_target = embed(c.protein_dim, f_target)
    pockets = None
    pocket_ids = [None] * c.n_targets
    if c.pocket_dim is not None:
        e_pocket = embed(c.pocket_dim, f_target)
        pocket_ids = [f"K{j:04d}" for j in range(c.n_targets)]
        pockets = EmbeddingStore("pocket", pocket_ids, e_pocket)

    gram = f_drug.T @ f_target  # (n_drugs, n_targets)
    # planted linear regression targets: one fixed read-out per side
    w_d = rng.standard_normal(k)
    w_t = rng.standard_normal(k)
    lin = (w_d @ f_drug)[:, None] + (w_t @ f_target)[None, :]

    # one record per pair, drug-major: row i * n_targets + j is (drug i, target j)
    dti, n, labels = c.task == "dti", gram.size, gram > 0
    interactions = list(map(
        InteractionRecord,
        [d for d in drug_ids for _ in target_ids],
        target_ids * c.n_drugs,
        pocket_ids * c.n_drugs,
        labels.astype(int).ravel().tolist() if dti else [None] * n,
        [None] * n if dti else np.round(lin, 6).ravel().tolist(),
    ))

    proj = rng.standard_normal((c.smiles_len, k))
    shift = rng.standard_normal((c.smiles_len, 1))
    u = 1.0 / (1.0 + np.exp(-(proj @ f_drug + shift)))  # (smiles_len, n_drugs)
    char_idx = np.minimum((u * len(_SMILES_CHARS)).astype(int), len(_SMILES_CHARS) - 1)
    smiles = {d: "".join(map(_SMILES_CHARS.__getitem__, row)) for d, row in zip(drug_ids, char_idx.T.tolist())}

    return SyntheticData(
        config=c,
        drugs=EmbeddingStore("drug", drug_ids, e_drug),
        proteins=EmbeddingStore("protein", target_ids, e_target),
        pockets=pockets,
        interactions=interactions,
        smiles=smiles,
        drug_factors=f_drug,
        target_factors=f_target,
        drug_ids=drug_ids,
        target_ids=target_ids,
    ), float(labels.mean()) if dti else None
