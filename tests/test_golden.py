"""Golden digests: a small paper-shaped `train` at one BLAS thread writes a
checkpoint and a training report whose sha256 are pinned here.

The bytes depend on the numpy build, the BLAS build and the CPU features
they dispatch on, so the digests hold only under the fingerprint they were
taken under; under any other the test skips and says why."""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tensordti

SRC = Path(tensordti.__file__).resolve().parent.parent

# max_len 128 and latent 64 as in the paper, with SMILES of at most 16
# characters: about 100 decoder positions never get a gradient, several
# blocks of Adam's closed form
SYNTH = {"n_drugs": 48, "n_targets": 8, "drug_dim": 24, "protein_dim": 40, "smiles_len": 16}
MODEL = {"hidden_dim": 64, "output_dim": 32, "latent_dim": 64, "max_len": 128, "batch_size": 32,
         "lr": 0.001, "max_epochs": 3, "patience": 3}

GOLDEN_FINGERPRINT = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "machine": "x86_64",
    "cpu_features": "e905ca5f201d",
}
GOLDEN = {
    "model.tdti": "487384ea3f3412ec07cb200877f1161b3700715485613d0d971c65b69cd4c356",
    "train_report.json": "4ec8aca6b9676d6c0ecce7f6322b57dc1cb787a92e0fe05dd5026f79c569276d",
}

CHILD = """
import sys
from tensordti.cli import main
out, gen_cfg, train_cfg = sys.argv[1:]
for argv in (
    ["gen-synth", "--seed", "5", "--config", gen_cfg, "--out", f"{out}/data"],
    ["split", "--data", f"{out}/data", "--seed", "5", "--out", f"{out}/splits"],
    ["train", "--mode", "dti", "--data", f"{out}/data", "--interactions", f"{out}/splits/interactions.tsv",
     "--config", train_cfg, "--seed", "5", "--out", f"{out}/model"],
):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def fingerprint() -> dict:
    """The numpy and BLAS builds, and a digest of the CPU features numpy
    dispatches on (the BLAS picks its kernels from the same CPU)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    features = ",".join(sorted(name for name, on in __cpu_features__.items() if on))
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "cpu_features": hashlib.sha256(features.encode()).hexdigest()[:12],
    }


def train_digests(out: Path, src: Path = SRC) -> dict:
    """Generate, split and train in a child process at one BLAS thread with
    the package under `src`; the sha256 of the model and report files."""
    out.mkdir(parents=True, exist_ok=True)
    configs = []
    for name, values in (("gen.cfg", SYNTH), ("train.cfg", MODEL)):
        path = out / name
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        configs.append(str(path))
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = {**os.environ, **threads, "PYTHONPATH": str(src), "TDTI_LOG": "quiet"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(out), *configs], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {name: hashlib.sha256((out / "model" / name).read_bytes()).hexdigest() for name in GOLDEN}


def test_training_writes_the_golden_checkpoint_and_report(tmp_path):
    here = fingerprint()
    if here != GOLDEN_FINGERPRINT:
        pytest.skip(f"golden digests were taken under {GOLDEN_FINGERPRINT}; this is {here}")
    assert train_digests(tmp_path) == GOLDEN
