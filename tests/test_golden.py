"""Golden digests: at one BLAS thread, a small paper-shaped chain
(`gen-synth`, `split`, `train`) writes a fixture, a split, a checkpoint and
a training report, and a dta fixture with pockets is split by unseen
target and by unseen drug; the sha256 of every one of those files is
pinned here.

The bytes depend on the numpy build, the BLAS build and the CPU features
they dispatch on, so the digests hold only under the fingerprint they were
taken under; under any other the test skips and says why."""

import hashlib
import json
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
GOLDEN = {  # the dti chain: gen-synth, split, train
    "data/drugs.bin": "0ade32eecda55589a69914f5db07e05d31794ab9674470001af919ea02ab896c",
    "data/proteins.bin": "86414aef229284f6e6febd386456e0ae35f57b6fd881f114cc87924e46cafaf3",
    "data/interactions.tsv": "b7746f7baf2e1dc6c445a1d13e30e33d99167c518d67eac1e60e26f9723362a0",
    "data/smiles.tsv": "bf09aa90f89b2bda3ef16f2c2c50dc359960dab8213f607ca85f05a8ed4b58b9",
    "splits/interactions.tsv": "70fb46415e35dbb03e5569eb73efdba081a1470a31531c89d5a46139863b2829",
    "model/model.tdti": "487384ea3f3412ec07cb200877f1161b3700715485613d0d971c65b69cd4c356",
    "model/train_report.json": "4ec8aca6b9676d6c0ecce7f6322b57dc1cb787a92e0fe05dd5026f79c569276d",
}

SYNTH_DTA = {"n_drugs": 30, "n_targets": 12, "drug_dim": 16, "protein_dim": 20, "pocket_dim": 8, "smiles_len": 12,
             "task": "dta"}
GOLDEN_TABLES = {  # the dta fixture with pockets and its two entity-level splits
    "data/drugs.bin": "a927d97bc954668b3cec17e376ad1fb1f6346f02613d8e1b7c2a021e3713e27a",
    "data/proteins.bin": "3e370127e192eea8b8ee8a592947c0d01bb0c26ddc600bf43757140190c15d1b",
    "data/pockets.bin": "13b5876577e6b9d1ff54f6faf3aeaabe2045cbf5329150acdd95ea44600450c3",
    "data/interactions.tsv": "03f881a5ade27f2a5abfad5427b77dc7a34130a781f012b9a42585f46d191565",
    "data/smiles.tsv": "97eead8192cb138eecd8cb40607e74f72b787895a08f606c72c8980bd0aaa521",
    "unseen_target/interactions.tsv": "095cd1f1ad7881ac8309612b33ef3ed39e6f512f8cb0bf48d9b360f1e2d6f257",
    "unseen_drug/interactions.tsv": "4f775ddaa4d65d92be1d6fcebc97fd4f44aa3e6985695116626a2cf5c2d1d9fa",
}

CHILD = """
import json, sys
from tensordti.cli import main
for argv in json.loads(sys.argv[1]):
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


def skip_unless_golden_fingerprint():
    here = fingerprint()
    if here != GOLDEN_FINGERPRINT:
        pytest.skip(f"golden digests were taken under {GOLDEN_FINGERPRINT}; this is {here}")


def config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return str(path)


def chain_digests(out: Path, commands: list[list[str]], names, src: Path) -> dict:
    """Run the CLI commands in order in a child process at one BLAS thread
    with the package under `src`; the sha256 of each named file under `out`."""
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = {**os.environ, **threads, "PYTHONPATH": str(src), "TDTI_LOG": "quiet"}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def train_digests(out: Path, src: Path = SRC) -> dict:
    """Generate, split and train: the digests of `GOLDEN`'s files."""
    out.mkdir(parents=True, exist_ok=True)
    gen_cfg, train_cfg = config(out / "gen.cfg", SYNTH), config(out / "train.cfg", MODEL)
    commands = [
        ["gen-synth", "--seed", "5", "--config", gen_cfg, "--out", f"{out}/data"],
        ["split", "--data", f"{out}/data", "--seed", "5", "--out", f"{out}/splits"],
        ["train", "--mode", "dti", "--data", f"{out}/data", "--interactions", f"{out}/splits/interactions.tsv",
         "--config", train_cfg, "--seed", "5", "--out", f"{out}/model"],
    ]
    return chain_digests(out, commands, GOLDEN, src)


def table_digests(out: Path, src: Path = SRC) -> dict:
    """Generate a dta fixture with pockets and split it by unseen target and
    by unseen drug: the digests of `GOLDEN_TABLES`' files."""
    out.mkdir(parents=True, exist_ok=True)
    gen_cfg = config(out / "gen.cfg", SYNTH_DTA)
    commands = [["gen-synth", "--seed", "6", "--config", gen_cfg, "--out", f"{out}/data"]]
    commands += [["split", "--data", f"{out}/data", "--strategy", strategy, "--seed", "6", "--out", f"{out}/{strategy}"]
                 for strategy in ("unseen_target", "unseen_drug")]
    return chain_digests(out, commands, GOLDEN_TABLES, src)


def test_training_writes_the_golden_checkpoint_and_report(tmp_path):
    skip_unless_golden_fingerprint()
    assert train_digests(tmp_path) == GOLDEN


def test_gen_synth_and_entity_splits_write_the_golden_tables(tmp_path):
    skip_unless_golden_fingerprint()
    assert table_digests(tmp_path) == GOLDEN_TABLES
