import ast
import dataclasses
import hashlib
import inspect
import json
import logging
import os
import platform
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensordti.cli import COMMANDS, _Config, _parse_config_file, build_parser, main
from tensordti.embeddings import EMBEDDING_MAGIC, load_embeddings, load_interactions, save_embeddings_jsonl
from tensordti.errors import ConfigError, TdtiError
from tensordti.model import ModelConfig
from tensordti.pipeline import SplitSpec
from tensordti.screening import load_predictions
from tensordti.synthetic import SyntheticConfig
from tensordti.training import TrainConfig


def digest_dir(path: Path, skip=("manifest.json",)) -> str:
    """Digest of primary outputs; the manifest carries wall time and is excluded."""
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_dir() or f.name in skip:
            continue
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def write_config(path: Path, **kv) -> Path:
    lines = []
    for k, v in kv.items():
        if isinstance(v, str):
            lines.append(f'{k} = "{v}"')
        elif isinstance(v, tuple):
            lines.append(f"{k} = {','.join(map(str, v))}")
        else:
            lines.append(f"{k} = {v}")
    path.write_text("\n".join(lines) + "\n")
    return path


SMALL_SYNTH = dict(n_drugs=40, n_targets=10, drug_dim=8, protein_dim=8,
                   n_latent_factors=2, noise=0.05, smiles_len=6)


def gen(tmp_path, out="data", seed=7, **kw):
    cfg = write_config(tmp_path / "synth.cfg", **{**SMALL_SYNTH, **kw})
    outdir = tmp_path / out
    assert main(["gen-synth", "--seed", str(seed), "--out", str(outdir), "--config", str(cfg)]) == 0
    return outdir


def test_gen_synth_deterministic_directory_digest(tmp_path):
    a = gen(tmp_path, "a")
    b = gen(tmp_path, "b")
    assert digest_dir(a) == digest_dir(b)


def test_gen_synth_manifest_written(tmp_path):
    out = gen(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen-synth"
    assert manifest["seeds"] == [7]
    assert "wall_time_s" in manifest
    assert manifest["config_hash"]


MANIFEST_KEYS = [
    "artifacts", "command", "config_hash", "environment", "inputs", "minor_faults", "peak_rss_mb", "seeds",
    "wall_time_s",
]


def test_manifest_schema_records_memory_and_faults(tmp_path):
    """The manifest's fields are pinned; peak RSS (MB) and minor page faults
    come from the process's own rusage, beside the wall time."""
    manifest = json.loads((gen(tmp_path) / "manifest.json").read_text())
    assert sorted(manifest) == MANIFEST_KEYS
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0
    assert isinstance(manifest["minor_faults"], int) and manifest["minor_faults"] > 0
    assert isinstance(manifest["wall_time_s"], float)


def test_manifest_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = gen(tmp_path)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert json.loads((out / "manifest.json").read_text())["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None},
    }


def test_unknown_flag_usage_error(tmp_path, capsys):
    rc = main(["gen-synth", "--out", str(tmp_path / "x"), "--bogus"])
    assert rc == 2
    assert "ERROR USAGE:" in capsys.readouterr().err


def test_unreadable_file_error(tmp_path, capsys):
    rc = main(["split", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o"), "--strategy", "random"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR ")
    assert "\n" == err[err.index("\n"):]  # single line


def test_rank_without_confidence_missing_column(tmp_path, capsys):
    preds = tmp_path / "p.tsv"
    preds.write_text(
        "drug_id\ttarget_id\tlogit\tprob\tpred_label\taffinity_pred\tconfidence\tunfamiliarity\n"
        "D0\tT0\t1.0\t0.7\t1\t\t\t\n"
    )
    rc = main(["rank", "--predictions", str(preds), "--ranking", "two_key", "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "ERROR MISSING_COLUMN:" in capsys.readouterr().err


PREDICTIONS_HEADER = "drug_id\ttarget_id\tlogit\tprob\tpred_label\taffinity_pred\tconfidence\tunfamiliarity\n"


def test_rank_affinity_scores_each_row_by_its_first_present_prediction(tmp_path):
    """Each row is scored by -affinity_pred, else -prob, else -logit: rows
    that hold only one of them, or all three, rank in one order. Picking
    another column for any row moves it."""
    preds = tmp_path / "p.tsv"
    rows = [
        ("D0", "T0", "0.5", "", "", "7.0"),  # -7
        ("D1", "T0", "4.0", "0.9", "1", ""),  # -0.9, not -4
        ("D2", "T0", "3.0", "", "", ""),  # -3
        ("D3", "T0", "-1.0", "", "", "2.0"),  # -2
        ("D4", "T0", "5.0", "0.1", "0", ""),  # -0.1
        ("D5", "T0", "0.5", "", "", ""),  # -0.5
        ("D6", "T1", "9.0", "", "", "99.0"),  # another target
        ("D7", "T0", "9.0", "0.99", "1", "0.05"),  # -0.05, not -0.99 or -9
        ("D8", "T0", "0.5", "", "", ""),  # -0.5, a tie broken by id
    ]
    preds.write_text(PREDICTIONS_HEADER + "".join("\t".join(r) + "\t0.2\t\n" for r in rows))
    out = tmp_path / "r"
    assert main(["rank", "--predictions", str(preds), "--ranking", "affinity", "--target", "T0",
                 "--out", str(out)]) == 0
    ranked = [line.split("\t")[1] for line in (out / "ranked.tsv").read_text().splitlines()[1:]]
    assert ranked == ["D0", "D2", "D3", "D1", "D5", "D8", "D4", "D7"]


@pytest.mark.parametrize(
    "target, message",
    [(None, "predictions cover 2 targets; pick one with --target"), ("T9", "no predictions for target 'T9'")],
)
def test_rank_target_errors_are_data_errors(tmp_path, capsys, target, message):
    preds = tmp_path / "p.tsv"
    preds.write_text(PREDICTIONS_HEADER + "D0\tT0\t1.0\t0.7\t1\t\t0.1\t\nD1\tT1\t-1.0\t0.3\t0\t\t0.2\t\n")
    args = ["rank", "--predictions", str(preds), "--out", str(tmp_path / "r")]
    assert main(args + (["--target", target] if target else [])) == 1
    assert capsys.readouterr().err == f"ERROR DATA: {message}\n"
    assert not (tmp_path / "r" / "ranked.tsv").exists()


def test_full_pipeline_smoke(tmp_path):
    """gen-synth -> split(unseen_target) -> train(dti) -> predict -> rank(two_key) -> enrich."""
    data = gen(tmp_path, "data", seed=3)
    splits = tmp_path / "splits"
    assert main(["split", "--data", str(data), "--strategy", "unseen_target", "--seed", "3",
                 "--out", str(splits)]) == 0

    train_cfg = write_config(
        tmp_path / "train.cfg",
        hidden_dim=16, output_dim=8, latent_dim=8, max_len=10,
        vocab="CNOPSFclnos=", lr=3e-3, max_epochs=6, patience=6, batch_size=128,
    )
    model_dir = tmp_path / "model"
    assert main(["train", "--mode", "dti", "--data", str(data),
                 "--interactions", str(splits / "interactions.tsv"),
                 "--config", str(train_cfg), "--seed", "3", "--out", str(model_dir)]) == 0
    assert (model_dir / "model.tdti").read_bytes()[8:12] == struct.pack("<I", 2)  # checkpoint version 2
    report = json.loads((model_dir / "train_report.json").read_text())
    assert "aupr" in report["test_mean"]

    pred_dir = tmp_path / "preds"
    assert main(["predict", "--data", str(data),
                 "--interactions", str(splits / "interactions.tsv"),
                 "--model", str(model_dir / "model.tdti"), "--out", str(pred_dir)]) == 0
    pred_file = pred_dir / "predictions.tsv"
    assert pred_file.is_file()

    # pick the test-split target with both classes for ranking + enrichment
    from tensordti.embeddings import load_interactions

    records = [r for r in load_interactions(splits / "interactions.tsv") if r.split == "test"]
    by_target = {}
    for r in records:
        by_target.setdefault(r.target_id, []).append(r)
    target, recs = next(
        (t, rs) for t, rs in sorted(by_target.items())
        if any(r.label == 1 for r in rs) and any(r.label == 0 for r in rs)
    )
    actives_file = tmp_path / "actives.tsv"
    actives_file.write_text(
        "compound_id\n" + "".join(f"{r.drug_id}\n" for r in recs if r.label == 1)
    )

    rank_dir = tmp_path / "ranked"
    assert main(["rank", "--predictions", str(pred_file), "--ranking", "two_key",
                 "--target", target, "--out", str(rank_dir)]) == 0
    ranked_file = rank_dir / "ranked.tsv"
    assert ranked_file.is_file()

    enrich_dir = tmp_path / "enrich"
    assert main(["enrich", "--ranked", f"tensordti={ranked_file}",
                 "--actives", str(actives_file), "--seed", "1",
                 "--out", str(enrich_dir)]) == 0
    payload = json.loads((enrich_dir / "enrichment.json").read_text())
    assert payload["k_grid"] == [1.0, 5.0, 20.0, 50.0, 100.0]
    assert "tensordti" in payload["ar_budget"]
    assert "random" in payload["ar_budget"]
    assert (enrich_dir / "enrichment.tsv").read_text().startswith("#")

    # report command over the same predictions
    report_dir = tmp_path / "report"
    assert main(["report", "--predictions", str(pred_file),
                 "--interactions", str(splits / "interactions.tsv"),
                 "--mode", "dti", "--unf-threshold", "1.0", "--out", str(report_dir)]) == 0
    metrics = json.loads((report_dir / "metrics.json").read_text())
    assert "aupr" in metrics and "filter_census" in metrics


TINY_TRAIN = dict(hidden_dim=16, output_dim=8, latent_dim=8, max_len=10, vocab="CNOPSFclnos=", lr=3e-3,
                  max_epochs=3, patience=3, batch_size=128)


def split_table(tmp_path) -> tuple[Path, Path, list[str]]:
    """A fixture, its split table and the table's lines."""
    data = gen(tmp_path, "data", seed=3)
    assert main(["split", "--data", str(data), "--seed", "3", "--out", str(tmp_path / "splits")]) == 0
    table = tmp_path / "splits" / "interactions.tsv"
    return data, table, table.read_text().splitlines(keepends=True)


def train_on(tmp_path, data: Path, table: Path, out: str) -> int:
    cfg = write_config(tmp_path / "train.cfg", **TINY_TRAIN)
    return main(["train", "--mode", "dti", "--data", str(data), "--interactions", str(table),
                 "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / out)])


def test_train_reads_only_its_three_splits(tmp_path):
    """Unassigned library rows are never read by train: rows with a blank
    label, a drug the store lacks or a pocket with no pocket store leave the
    model and the report byte-identical."""
    data, table, lines = split_table(tmp_path)
    library = tmp_path / "library.tsv"
    extra = [f"X{i:04d}\tT0000\t{'K9' if i % 2 else ''}\t\t\tunassigned\n" for i in range(6)]
    library.write_text("".join(lines + extra))
    assert train_on(tmp_path, data, table, "plain") == 0
    assert train_on(tmp_path, data, library, "library") == 0
    for name in ("model.tdti", "model.tdti.json", "train_report.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "library" / name).read_bytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda f: ["X0001", *f[1:]], "unknown drug ids ['X0001'] (1 total)"),
        (lambda f: [*f[:2], "K9", *f[3:]], "records name pockets ['K9'] but the dataset has no pocket store"),
        (lambda f: [*f[:3], "", *f[4:]], None),
    ],
    ids=["unknown-drug", "pocket-without-store", "missing-label"],
)
def test_train_refuses_a_bad_row_of_its_splits(tmp_path, capsys, edit, message):
    data, table, lines = split_table(tmp_path)
    row = next(i for i, line in enumerate(lines) if line.rstrip("\n").endswith("\ttest"))
    fields = edit(lines[row].rstrip("\n").split("\t"))
    lines[row] = "\t".join(fields) + "\n"
    table.write_text("".join(lines))
    message = message or f"test pair ({fields[0]!r}, {fields[1]!r}) has no label, which classification training reads"
    capsys.readouterr()
    assert train_on(tmp_path, data, table, "model") == 1
    assert capsys.readouterr().err == f"ERROR DATA: {message}\n"


def test_train_refuses_an_empty_smiles_naming_its_line(tmp_path, capsys):
    data, table, _ = split_table(tmp_path)
    smiles = data / "smiles.tsv"
    lines = smiles.read_text().splitlines(keepends=True)
    lines[2] = lines[2].split("\t")[0] + "\t\n"
    smiles.write_text("".join(lines))
    capsys.readouterr()
    assert train_on(tmp_path, data, table, "model") == 1
    assert capsys.readouterr().err == f"ERROR FORMAT: {smiles}:3: empty smiles\n"


def test_rank_refuses_a_pred_label_other_than_0_or_1(tmp_path, capsys):
    preds = tmp_path / "preds.tsv"
    preds.write_text(
        "drug_id\ttarget_id\tlogit\tprob\tpred_label\taffinity_pred\tconfidence\tunfamiliarity\n"
        "D1\tT1\t0.5\t0.6\t1\t\t0.1\t\nD2\tT1\t0.8\t0.7\t7\t\t0.2\t\n"
    )
    rc = main(["rank", "--predictions", str(preds), "--ranking", "two_key", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"ERROR FORMAT: {preds}:3: pred_label '7' is not one of 0, 1\n"
    assert not (tmp_path / "out" / "ranked.tsv").exists()


def test_commands_do_not_mutate_inputs(tmp_path):
    data = gen(tmp_path, "data", seed=5)
    before = digest_dir(data)
    splits = tmp_path / "s"
    assert main(["split", "--data", str(data), "--strategy", "random", "--seed", "1",
                 "--out", str(splits)]) == 0
    assert digest_dir(data) == before


def test_split_determinism_byte_identical(tmp_path):
    data = gen(tmp_path, "data", seed=9)
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    for s in (s1, s2):
        assert main(["split", "--data", str(data), "--strategy", "unseen_drug", "--seed", "4",
                     "--out", str(s)]) == 0
    assert (s1 / "interactions.tsv").read_bytes() == (s2 / "interactions.tsv").read_bytes()


def test_config_precedence_flags_over_file(tmp_path):
    # seed flag wins over anything in the file; strategy flag is required anyway
    data = gen(tmp_path, "data", seed=2)
    cfg = write_config(tmp_path / "c.cfg", seed=999, fractions=(0.7, 0.1, 0.2))
    out = tmp_path / "o"
    assert main(["split", "--data", str(data), "--strategy", "random", "--seed", "11",
                 "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [11]


def test_split_refuses_a_pair_on_two_rows(tmp_path, capsys):
    """Each row is tagged on its own, so a pair on two rows could land in
    train and in test; the table is refused before anything is written."""
    data = gen(tmp_path, "data", seed=2)
    table = data / "interactions.tsv"
    header, *rows = table.read_text().splitlines(keepends=True)
    table.write_text(header + "".join(rows) + "".join(rows))
    out = tmp_path / "o"
    assert main(["split", "--data", str(data), "--seed", "1", "--out", str(out)]) == 1
    repeat = f"{table}:{len(rows) + 2}: repeated drug_id, target_id ['D0000', 'T0000'] (first on line 2)"
    assert capsys.readouterr().err == f"ERROR FORMAT: {repeat}\n"
    assert not (out / "interactions.tsv").exists()


def split_sets(path: Path) -> dict[str, set]:
    """split tag -> the drugs tagged with it."""
    sets: dict[str, set] = {}
    for r in load_interactions(path):
        sets.setdefault(r.split, set()).add(r.drug_id)
    return sets


def test_config_file_strategy_and_seed_reach_split(tmp_path):
    data = gen(tmp_path, "data", seed=2)
    cfg = write_config(tmp_path / "c.cfg", strategy="unseen_drug", seed=5)
    out = tmp_path / "o"
    assert main(["split", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
    sets = split_sets(out / "interactions.tsv")
    assert set(sets) == {"train", "valid", "test"}
    assert not (sets["train"] & sets["valid"] or sets["train"] & sets["test"] or sets["valid"] & sets["test"])
    assert json.loads((out / "manifest.json").read_text())["seeds"] == [5]


def test_strategy_flag_wins_over_the_config_file(tmp_path, caplog):
    data = gen(tmp_path, "data", seed=2)
    cfg = write_config(tmp_path / "c.cfg", strategy="unseen_drug", seed=5)
    with caplog.at_level(logging.WARNING, logger="tensordti"):
        assert main(["split", "--data", str(data), "--config", str(cfg), "--strategy", "random",
                     "--out", str(tmp_path / "file")]) == 0
    assert main(["split", "--data", str(data), "--strategy", "random", "--seed", "5",
                 "--out", str(tmp_path / "flags")]) == 0
    tables = [(tmp_path / out / "interactions.tsv").read_bytes() for out in ("file", "flags")]
    assert tables[0] == tables[1]
    assert [r.getMessage() for r in caplog.records] == ["config keys that set nothing split reads: strategy"]


def test_config_file_seed_reaches_gen_synth(tmp_path):
    cfg = write_config(tmp_path / "seeded.cfg", **SMALL_SYNTH, seed=9)
    assert main(["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert digest_dir(tmp_path / "file") == digest_dir(gen(tmp_path, "flag", seed=9))
    assert digest_dir(tmp_path / "file") != digest_dir(gen(tmp_path, "zero", seed=0))


def test_weighted_reconstruction_without_smiles_is_config_error(tmp_path, capsys):
    """The file's alpha_recon beats the 0 derived from a missing smiles.tsv."""
    data = gen(tmp_path, "data", seed=4)
    (data / "smiles.tsv").unlink()
    splits = tmp_path / "splits"
    assert main(["split", "--data", str(data), "--seed", "4", "--out", str(splits)]) == 0
    cfg = write_config(tmp_path / "t.cfg", hidden_dim=8, output_dim=4, latent_dim=4, max_len=8,
                       max_epochs=1, patience=1, alpha_recon=0.2)
    rc = main(["train", "--data", str(data), "--interactions", str(splits / "interactions.tsv"),
               "--config", str(cfg), "--out", str(tmp_path / "model")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "ERROR CONFIG: reconstruction loss is weighted but the dataset has no SMILES\n"


def test_no_flag_default_can_beat_a_config_file():
    """A flag naming a setting defaults to None, so only a flag that is
    given overrides the file."""
    fields = {f.name for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)}
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    named = {
        (command, a.dest): a.default for command, sub in commands.items() for a in sub._actions if a.dest in fields
    }
    assert {("split", "strategy"), ("split", "seed"), ("gen-synth", "seed"), ("train", "mode")} <= set(named)
    assert {k: v for k, v in named.items() if v is not None} == {}


def test_seed_only_where_a_seed_is_drawn(tmp_path, capsys):
    """predict, rank and report draw no random numbers, so they take no
    --seed; enrich keeps it for scripts that pass one."""
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    seeded = {command for command, sub in commands.items() if any(a.dest == "seed" for a in sub._actions)}
    assert seeded == {"gen-synth", "split", "train", "enrich"}
    preds, *_ = screening_inputs(tmp_path)
    assert main(["rank", "--predictions", str(preds), "--seed", "1", "--out", str(tmp_path / "r")]) == 2
    assert "ERROR USAGE:" in capsys.readouterr().err
    assert main(["rank", "--predictions", str(preds), "--out", str(tmp_path / "r")]) == 0
    assert json.loads((tmp_path / "r" / "manifest.json").read_text())["seeds"] == []


def test_dta_regression_path(tmp_path):
    data = gen(tmp_path, "data", seed=6, task="dta", noise=0.0)
    splits = tmp_path / "splits"
    assert main(["split", "--data", str(data), "--strategy", "random", "--seed", "6",
                 "--out", str(splits)]) == 0
    cfg = write_config(
        tmp_path / "t.cfg",
        hidden_dim=16, output_dim=8, latent_dim=8, max_len=10,
        vocab="CNOPSFclnos=", lr=3e-3, max_epochs=8, patience=8, batch_size=128,
    )
    model_dir = tmp_path / "model"
    assert main(["train", "--mode", "dta", "--data", str(data),
                 "--interactions", str(splits / "interactions.tsv"),
                 "--config", str(cfg), "--seed", "6", "--out", str(model_dir)]) == 0
    report = json.loads((model_dir / "train_report.json").read_text())
    assert report["mode"] == "regression"
    assert "rmse" in report["test_mean"]

    preds = tmp_path / "p"
    assert main(["predict", "--data", str(data), "--interactions", str(splits / "interactions.tsv"),
                 "--model", str(model_dir / "model.tdti"), "--out", str(preds)]) == 0
    rep = tmp_path / "rep"
    assert main(["report", "--predictions", str(preds / "predictions.tsv"),
                 "--interactions", str(splits / "interactions.tsv"),
                 "--mode", "dta", "--out", str(rep)]) == 0
    metrics = json.loads((rep / "metrics.json").read_text())
    assert "rmse" in metrics and "pcc" in metrics


def test_embeddings_dir_override(tmp_path):
    data = gen(tmp_path, "data", seed=8)
    emb = tmp_path / "emb"
    emb.mkdir()
    for name in ("drugs.bin", "proteins.bin"):
        (emb / name).write_bytes((data / name).read_bytes())
    splits = tmp_path / "s"
    assert main(["split", "--data", str(data), "--strategy", "random", "--seed", "8",
                 "--out", str(splits)]) == 0
    cfg = write_config(tmp_path / "t.cfg", hidden_dim=16, output_dim=8, latent_dim=8,
                       max_len=10, vocab="CNOPSFclnos=", lr=3e-3, max_epochs=2,
                       patience=2, batch_size=128)
    out = tmp_path / "m"
    assert main(["train", "--mode", "dti", "--data", str(data), "--embeddings", str(emb),
                 "--interactions", str(splits / "interactions.tsv"),
                 "--config", str(cfg), "--seed", "8", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("emb" in k for k in manifest["inputs"])


STORE_MODALITIES = {"drugs": "drug", "proteins": "protein", "pockets": "pocket"}


def test_jsonl_and_binary_stores_train_and_predict_identically(tmp_path):
    """train then predict on gen-synth's binary stores and on their JSON Lines
    twins give the same model.tdti and predictions.tsv, byte for byte."""
    data = gen(tmp_path, "data", seed=5, pocket_dim=4)
    twin = tmp_path / "twin"
    twin.mkdir()
    for f in data.iterdir():
        if f.suffix == ".bin":
            save_embeddings_jsonl(load_embeddings(f, STORE_MODALITIES[f.stem]), twin / f"{f.stem}.jsonl")
        elif f.name != "manifest.json":
            shutil.copy(f, twin / f.name)
    assert sorted(f.name for f in twin.iterdir()) == [
        "drugs.jsonl", "interactions.tsv", "pockets.jsonl", "proteins.jsonl", "smiles.tsv"
    ]
    splits = tmp_path / "s"
    assert main(["split", "--data", str(data), "--strategy", "random", "--seed", "5", "--out", str(splits)]) == 0
    cfg = write_config(tmp_path / "t.cfg", hidden_dim=16, output_dim=8, latent_dim=8, max_len=10,
                       vocab="CNOPSFclnos=", lr=3e-3, max_epochs=2, patience=2, batch_size=64)
    outputs = []
    for d in (data, twin):
        model, preds = tmp_path / f"{d.name}-model", tmp_path / f"{d.name}-preds"
        inter = ["--interactions", str(splits / "interactions.tsv")]
        assert main(["train", "--mode", "dti", "--data", str(d), *inter, "--config", str(cfg), "--seed", "5",
                     "--out", str(model)]) == 0
        assert main(["predict", "--data", str(d), *inter, "--model", str(model / "model.tdti"), "--out", str(preds)]) == 0
        outputs.append([(model / "model.tdti").read_bytes(), (preds / "predictions.tsv").read_bytes()])
    assert outputs[0] == outputs[1]


def test_both_forms_of_one_store_is_a_data_error(tmp_path, capsys):
    """A directory holding `<store>.bin` and `<store>.jsonl` is refused,
    naming both: the CLI never picks one silently."""
    data = gen(tmp_path, "data", seed=5)
    save_embeddings_jsonl(load_embeddings(data / "proteins.bin", "protein"), data / "proteins.jsonl")
    assert main(["train", "--mode", "dti", "--data", str(data), "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err == (
        f"ERROR DATA: both {data / 'proteins.bin'} and {data / 'proteins.jsonl'} hold the protein embeddings; keep one\n"
    )


@pytest.mark.parametrize(
    "name, content", [("drugs.jsonl", b""), ("drugs.bin", EMBEDDING_MAGIC + struct.pack("<I", 8))], ids=["jsonl", "bin"]
)
def test_train_refuses_an_empty_drug_store(tmp_path, capsys, name, content):
    """A store with no records has no width to size the model by: an empty
    JSON Lines file, or a binary file holding only its header."""
    data, table, _ = split_table(tmp_path)
    emb = tmp_path / "emb"
    emb.mkdir()
    (emb / name).write_bytes(content)
    shutil.copy(data / "proteins.bin", emb / "proteins.bin")
    capsys.readouterr()
    out = tmp_path / "model"
    assert main(["train", "--data", str(data), "--interactions", str(table), "--embeddings", str(emb),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ERROR FORMAT: {emb / name}: no embeddings\n"
    assert not out.exists()


def test_entry_point_subprocess(tmp_path):
    import subprocess
    import sys

    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_drugs = 10\nn_targets = 4\ndrug_dim = 4\nprotein_dim = 4\nnoise = 0.1\nsmiles_len = 4\n")
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "tensordti.cli", "gen-synth", "--seed", "1",
         "--out", str(out), "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "interactions.tsv").is_file()


def test_train_checkpoint_bytes_reproducible_at_one_blas_thread(tmp_path):
    """Two identical 2-epoch `train` runs in fresh interpreters, both at one
    OpenBLAS thread, write byte-identical checkpoints."""
    import os
    import subprocess
    import sys

    data = gen(tmp_path, "data", seed=4)
    splits = tmp_path / "splits"
    assert main(["split", "--data", str(data), "--seed", "4", "--out", str(splits)]) == 0
    cfg = write_config(tmp_path / "t.cfg", hidden_dim=16, output_dim=8, latent_dim=8, max_len=10,
                       vocab="CNOPSFclnos=", lr=3e-3, max_epochs=2, patience=2, batch_size=64)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "tensordti.cli", "train", "--mode", "dti", "--data", str(data),
             "--interactions", str(splits / "interactions.tsv"), "--config", str(cfg),
             "--seed", "4", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256((out / "model.tdti").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


# -- enrich input parsing ------------------------------------------------------------


def enrich_inputs(tmp_path, ranked_lines, actives=("c1", "c3")):
    ranked = tmp_path / "ranked.tsv"
    ranked.write_text("rank\tcompound_id\n" + "".join(line + "\n" for line in ranked_lines))
    act = tmp_path / "actives.tsv"
    act.write_text("compound_id\tpotency\n" + "".join(f"{c}\t{i}.5\n" for i, c in enumerate(actives)))
    return ranked, act


def run_enrich(tmp_path, ranked, act, *extra, out="enrich"):
    return main(["enrich", "--ranked", f"m={ranked}", "--actives", str(act),
                 "--out", str(tmp_path / out), *extra])


GOOD_RANKED = ["1\tc1", "2\tc2", "3\tc3", "4\tc4", "5\tc5"]


def test_enrich_ranked_wrong_field_count_is_format_error(tmp_path, capsys):
    ranked, act = enrich_inputs(tmp_path, ["1\tc1", "c2", "3\tc3"])
    assert run_enrich(tmp_path, ranked, act) == 1
    assert "ERROR FORMAT:" in capsys.readouterr().err


def test_enrich_ranked_duplicate_id_is_format_error(tmp_path, capsys):
    ranked, act = enrich_inputs(tmp_path, ["1\tc1", "2\tc2", "3\tc1", "4\tc3"])
    assert run_enrich(tmp_path, ranked, act) == 1
    assert capsys.readouterr().err == f"ERROR FORMAT: {ranked}:4: repeated compound_id 'c1' (first on line 2)\n"


def test_enrich_scores_repeated_compound_and_method_is_format_error(tmp_path, capsys):
    """Two scores for one compound under one method would rank it twice; the
    same compound under two methods is two rankings."""
    scores = tmp_path / "scores.tsv"
    scores.write_text("compound_id\tmethod\tscore\nc1\tdock\t-9\nc1\tglide\t-8\nc2\tdock\t-7\nc1\tdock\t-5\n")
    _, act = enrich_inputs(tmp_path, GOOD_RANKED)
    rc = main(["enrich", "--scores", str(scores), "--ranking", "docking", "--actives", str(act),
               "--out", str(tmp_path / "enrich")])
    assert rc == 1
    expected = f"ERROR FORMAT: {scores}:5: repeated compound_id, method ['c1', 'dock'] (first on line 2)\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "enrich" / "enrichment.json").exists()


def test_enrich_ranked_rank_must_be_line_position(tmp_path, capsys):
    ranked, act = enrich_inputs(tmp_path, ["1\tc1", "3\tc2", "2\tc3"])
    assert run_enrich(tmp_path, ranked, act) == 1
    assert "ERROR FORMAT:" in capsys.readouterr().err


def test_enrich_non_numeric_k_grid_is_usage_error(tmp_path, capsys):
    ranked, act = enrich_inputs(tmp_path, GOOD_RANKED)
    assert run_enrich(tmp_path, ranked, act, "--k-grid", "1,abc") == 2
    assert "ERROR USAGE:" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["nan", "1,inf", "0,5", "5,101", "-1", "1,5,1", "5,5.0"])
def test_enrich_k_grid_outside_the_percent_range_or_repeated_is_usage_error(tmp_path, capsys, grid):
    """A non-finite k has no target count, k outside (0, 100] no budget, and a
    repeated k would write its rows twice."""
    ranked, act = enrich_inputs(tmp_path, GOOD_RANKED)
    assert run_enrich(tmp_path, ranked, act, "--k-grid", grid) == 2
    err = capsys.readouterr().err
    assert err == f"ERROR USAGE: --k-grid expects distinct percentages in (0, 100], got {grid!r}\n"
    assert not (tmp_path / "enrich").exists()


def test_enrich_outputs_identical_across_seeds(tmp_path):
    # the random column is exact, so the seed reaches no output; unknown
    # config keys such as baseline_trials set nothing (and warn)
    ranked, act = enrich_inputs(tmp_path, GOOD_RANKED)
    cfg = write_config(tmp_path / "enrich.cfg", baseline_trials=2000)
    for seed in ("1", "2"):
        assert run_enrich(tmp_path, ranked, act, "--seed", seed, "--config", str(cfg), out=f"e{seed}") == 0
    for name in ("enrichment.json", "enrichment.tsv"):
        assert (tmp_path / "e1" / name).read_bytes() == (tmp_path / "e2" / name).read_bytes()


# the texts `enrich` writes for ten compounds c0..c9 ranked in order ("good")
# and reversed ("bad") against actives c0 and c5, with --k-grid 50,100: JSON
# keys sorted, TSV columns in --ranked order with the random column last
ENRICHMENT_POTENCY_JSON = """\
{
  "ar_budget": {
    "bad": {
      "100.0": 100.0,
      "50.0": 50.0
    },
    "good": {
      "100.0": 60.0,
      "50.0": 10.0
    },
    "random": {
      "100.0": 73.33333333333333,
      "50.0": 36.666666666666664
    }
  },
  "ef": {
    "bad": {
      "100.0": 1.0,
      "50.0": 1.0
    },
    "good": {
      "100.0": 1.0,
      "50.0": 1.0
    }
  },
  "k_grid": [
    50.0,
    100.0
  ],
  "n_actives": 2,
  "n_library": 10,
  "random_sd": {
    "ar_budget": {
      "100.0": 22.11083193570267,
      "50.0": 22.11083193570267
    },
    "topk_budget": {
      "100.0": 22.11083193570267,
      "50.0": 28.722813232690147
    }
  },
  "recall": {
    "bad": {
      "100.0": 1.0,
      "50.0": 0.5
    },
    "good": {
      "100.0": 1.0,
      "50.0": 0.5
    }
  },
  "target_counts": {
    "100.0": 2,
    "50.0": 1
  },
  "topk_budget": {
    "bad": {
      "100.0": 100.0,
      "50.0": 100.0
    },
    "good": {
      "100.0": 60.0,
      "50.0": 10.0
    },
    "random": {
      "100.0": 73.33333333333333,
      "50.0": 55.0
    }
  }
}
"""

ENRICHMENT_POTENCY_TSV = """\
# library N=10 actives A=2
## kpct_actives_budget
k_percent\tn_actives_at_k\tgood\tbad\trandom
50\t1\t10.00\t50.00\t36.67
100\t2\t60.00\t100.00\t73.33
## topk_potency_budget
k_percent\tn_actives_at_k\tgood\tbad\trandom
50\t1\t10.00\t100.00\t55.00
100\t2\t60.00\t100.00\t73.33
## recall_at_fraction
k_percent\tn_actives_at_k\tgood\tbad
50\t1\t0.50\t0.50
100\t2\t1.00\t1.00
## ef_at_fraction
k_percent\tn_actives_at_k\tgood\tbad
50\t1\t1.00\t1.00
100\t2\t1.00\t1.00
"""

ENRICHMENT_PLAIN_JSON = """\
{
  "ar_budget": {
    "bad": {
      "100.0": 100.0,
      "50.0": 50.0
    },
    "good": {
      "100.0": 60.0,
      "50.0": 10.0
    },
    "random": {
      "100.0": 73.33333333333333,
      "50.0": 36.666666666666664
    }
  },
  "ef": {
    "bad": {
      "100.0": 1.0,
      "50.0": 1.0
    },
    "good": {
      "100.0": 1.0,
      "50.0": 1.0
    }
  },
  "k_grid": [
    50.0,
    100.0
  ],
  "n_actives": 2,
  "n_library": 10,
  "random_sd": {
    "ar_budget": {
      "100.0": 22.11083193570267,
      "50.0": 22.11083193570267
    }
  },
  "recall": {
    "bad": {
      "100.0": 1.0,
      "50.0": 0.5
    },
    "good": {
      "100.0": 1.0,
      "50.0": 0.5
    }
  },
  "target_counts": {
    "100.0": 2,
    "50.0": 1
  },
  "topk_budget": null
}
"""

ENRICHMENT_PLAIN_TSV = """\
# library N=10 actives A=2
## kpct_actives_budget
k_percent\tn_actives_at_k\tgood\tbad\trandom
50\t1\t10.00\t50.00\t36.67
100\t2\t60.00\t100.00\t73.33
## recall_at_fraction
k_percent\tn_actives_at_k\tgood\tbad
50\t1\t0.50\t0.50
100\t2\t1.00\t1.00
## ef_at_fraction
k_percent\tn_actives_at_k\tgood\tbad
50\t1\t1.00\t1.00
100\t2\t1.00\t1.00
"""


@pytest.mark.parametrize(
    "actives, expected_json, expected_tsv",
    [
        ("compound_id\tpotency\nc0\t7.5\nc5\t6.0\n", ENRICHMENT_POTENCY_JSON, ENRICHMENT_POTENCY_TSV),
        ("compound_id\nc0\nc5\n", ENRICHMENT_PLAIN_JSON, ENRICHMENT_PLAIN_TSV),
    ],
    ids=["potency", "plain"],
)
def test_enrich_writes_the_exact_report_text(tmp_path, actives, expected_json, expected_tsv):
    ids = [f"c{i}" for i in range(10)]
    ranked = []
    for name, order in (("good", ids), ("bad", ids[::-1])):
        path = tmp_path / f"{name}.tsv"
        path.write_text("rank\tcompound_id\n" + "".join(f"{i}\t{c}\n" for i, c in enumerate(order, 1)))
        ranked += ["--ranked", f"{name}={path}"]
    act = tmp_path / "actives.tsv"
    act.write_text(actives)
    out = tmp_path / "enrich"
    assert main(["enrich", *ranked, "--actives", str(act), "--k-grid", "50,100", "--out", str(out)]) == 0
    assert (out / "enrichment.json").read_text(encoding="utf-8") == expected_json
    assert (out / "enrichment.tsv").read_text(encoding="utf-8") == expected_tsv


def test_enrich_format_selects_outputs(tmp_path, capsys):
    ranked, act = enrich_inputs(tmp_path, GOOD_RANKED)
    assert run_enrich(tmp_path, ranked, act, "--format", "tsv") == 0
    assert (tmp_path / "enrich" / "enrichment.tsv").is_file()
    assert not (tmp_path / "enrich" / "enrichment.json").exists()
    # only enrich writes tables, so only enrich takes --format
    assert main(["gen-synth", "--out", str(tmp_path / "g"), "--format", "json"]) == 2
    assert "ERROR USAGE:" in capsys.readouterr().err


def test_config_hash_inside_quotes_is_kept(tmp_path):
    from tensordti.tokenizer import DEFAULT_ALPHABET

    cfg = tmp_path / "c.cfg"
    cfg.write_text(f'vocab = "{DEFAULT_ALPHABET}"  # the default alphabet\nx = 3  # note\n# whole-line comment\n')
    assert _parse_config_file(cfg) == {"vocab": f'"{DEFAULT_ALPHABET}"', "x": "3"}


def test_config_hash_covers_every_flag_but_out_config_and_input_paths(tmp_path):
    """A flag that changes a command's outputs changes its config hash; the
    output directory, the config file's path and the input files' paths do
    not. `rank --target`, `--unf-threshold` and `enrich --format` used to
    leave the hash as it was, and the path in `enrich --ranked name=path`
    used to change it: only the name, which heads a report column, counts."""
    preds, truth, ranked, actives = screening_inputs(tmp_path)
    two_targets = tmp_path / "two_targets.tsv"
    two_targets.write_text(PREDICTIONS_HEADER + "D0\tT0\t1.0\t0.7\t1\t\t0.2\t0.5\nD1\tT1\t-1.0\t0.3\t0\t\t0.4\t0.6\n")
    copy = tmp_path / "copy.tsv"
    copy.write_bytes(two_targets.read_bytes())
    (tmp_path / "a.cfg").write_text("# no keys\n")
    runs = iter(range(100))

    def config_hash(*args):
        out = tmp_path / f"run{next(runs)}"
        assert main([*map(str, args), "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())["config_hash"]

    rank = ("rank", "--predictions", two_targets, "--target", "T0")
    base = config_hash(*rank)
    assert config_hash("rank", "--predictions", copy, "--target", "T0", "--config", tmp_path / "a.cfg") == base
    assert config_hash("rank", "--predictions", two_targets, "--target", "T1") != base
    assert config_hash(*rank, "--unf-threshold", "1") != base
    report = ("report", "--predictions", preds, "--interactions", truth)
    assert config_hash(*report) != config_hash(*report, "--unf-threshold", "1")
    enrich = ("enrich", "--ranked", f"m={ranked}", "--actives", actives)
    assert config_hash(*enrich, "--format", "json") != config_hash(*enrich, "--format", "tsv")
    moved = tmp_path / "elsewhere" / ranked.name
    moved.parent.mkdir()
    moved.write_bytes(ranked.read_bytes())
    assert config_hash("enrich", "--ranked", f"m={moved}", "--actives", actives) == config_hash(*enrich)
    assert config_hash("enrich", "--ranked", f"n={ranked}", "--actives", actives) != config_hash(*enrich)


# the table that ranked c1, c2, c4, c3 one way round and c4, c3, c2, c1 the other
NAN_SCORES = ["c1\tdock\t-9", "c2\tdock\tnan", "c3\tdock\t-5", "c4\tdock\t-7"]


@pytest.mark.parametrize("rows, nan_line", [(NAN_SCORES, 3), (NAN_SCORES[::-1], 4)])
def test_enrich_nan_score_is_format_error_in_either_row_order(tmp_path, capsys, rows, nan_line):
    scores = tmp_path / "scores.tsv"
    scores.write_text("compound_id\tmethod\tscore\n" + "".join(row + "\n" for row in rows))
    _, act = enrich_inputs(tmp_path, GOOD_RANKED)
    rc = main(["enrich", "--scores", str(scores), "--ranking", "docking", "--actives", str(act),
               "--out", str(tmp_path / "enrich")])
    assert rc == 1
    assert f"ERROR FORMAT: {scores}:{nan_line}: score 'nan' is not finite" in capsys.readouterr().err
    assert not (tmp_path / "enrich" / "enrichment.json").exists()


@pytest.mark.parametrize(
    "ranked_names, score_method",
    [(["m", "m"], None), (["random"], None), (["glide"], "glide"), ([], "random")],
)
def test_enrich_method_name_clash_is_usage_error(tmp_path, capsys, ranked_names, score_method):
    """The report keys its columns by method name: a repeated name kept only
    the last ranking, and a ranking named `random` read the baseline's
    budgets (62.5 rather than 25.0 here) beside its own recall."""
    ranked, act = enrich_inputs(tmp_path, ["1\tc1", "2\tc2", "3\tc3", "4\tc4"], actives=("c1",))
    args = ["enrich", "--actives", str(act), "--out", str(tmp_path / "enrich")]
    for name in ranked_names:
        args += ["--ranked", f"{name}={ranked}"]
    if score_method:
        scores = tmp_path / "scores.tsv"
        rows = "".join(f"c{i}\t{score_method}\t-{i}\n" for i in range(1, 5))
        scores.write_text("compound_id\tmethod\tscore\n" + rows)
        args += ["--scores", str(scores), "--ranking", "docking"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR USAGE: method name") and err.count("\n") == 1
    assert not (tmp_path / "enrich" / "enrichment.json").exists()


# -- unfamiliarity filter ------------------------------------------------------------


def unf_inputs(tmp_path, n_kept, n=20):
    """n one-target predictions, n_kept of them below unfamiliarity 1.0, and
    their ground truth."""
    preds = tmp_path / "preds.tsv"
    truth = tmp_path / "truth.tsv"
    preds.write_text(
        "drug_id\ttarget_id\tlogit\tprob\tpred_label\taffinity_pred\tconfidence\tunfamiliarity\n"
        + "".join(f"D{i}\tT0\t0.5\t0.6\t1\t\t0.{i + 10}\t{0.5 if i < n_kept else 2.0}\n" for i in range(n))
    )
    truth.write_text(
        "drug_id\ttarget_id\tpocket_id\tlabel\taffinity\tsplit\n"
        + "".join(f"D{i}\tT0\t\t{i % 2}\t\ttest\n" for i in range(n))
    )
    return str(preds), str(truth)


@pytest.mark.parametrize("command", ["rank", "report"])
@pytest.mark.parametrize("n_kept, warned", [(1, True), (10, False)])
def test_unf_threshold_warns_when_it_drops_over_90_percent(tmp_path, caplog, command, n_kept, warned):
    """19 of 20 rows dropped (95%) warns once; 10 of 20 (50%) stays silent."""
    preds, truth = unf_inputs(tmp_path, n_kept)
    args = {
        "rank": ["rank", "--predictions", preds, "--ranking", "two_key"],
        "report": ["report", "--predictions", preds, "--interactions", truth, "--mode", "dti"],
    }[command]
    with caplog.at_level(logging.WARNING, logger="tensordti"):
        assert main([*args, "--unf-threshold", "1.0", "--out", str(tmp_path / "out")]) == 0
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING and r.name == "tensordti"]
    assert len(warnings) == int(warned)
    if warned:
        assert "drops 19 of 20 rows" in warnings[0].getMessage()


@pytest.mark.parametrize("command", ["rank", "report"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_unf_threshold_is_usage_error(tmp_path, capsys, command, value):
    """A nan threshold would drop every row and exit 0; inf would keep or
    drop everything. Both are refused before any file is read."""
    preds, truth = unf_inputs(tmp_path, 10)
    args = {
        "rank": ["rank", "--predictions", preds],
        "report": ["report", "--predictions", preds, "--interactions", truth],
    }[command]
    assert main([*args, f"--unf-threshold={value}", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "ERROR USAGE" in err and "finite" in err
    assert not (tmp_path / "out").exists()


def test_predict_on_binary_interactions_is_one_format_error_line(tmp_path, capsys):
    from tensordti.model import ModelConfig, init_model, save_checkpoint

    data = gen(tmp_path)
    model = tmp_path / "m.tdti"
    config = ModelConfig(drug_dim=8, protein_dim=8, hidden_dim=4, output_dim=4, latent_dim=2)
    save_checkpoint(init_model(config), model)
    binary = tmp_path / "interactions.bin"
    binary.write_bytes(bytes(range(256)))
    rc = main(["predict", "--data", str(data), "--interactions", str(binary), "--model", str(model),
               "--out", str(tmp_path / "preds")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"ERROR FORMAT: {binary}: not UTF-8")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_config_file_not_utf8_is_one_format_error_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfen_drugs = 4\n")
    rc = main(["gen-synth", "--out", str(tmp_path / "data"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"ERROR FORMAT: {cfg}: not UTF-8")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_config_file_repeated_key_is_one_format_error_line(tmp_path, capsys):
    """A key given twice would silently take its last value."""
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("n_drugs = 30\n# a comment\nn_drugs = 40\n")
    out = tmp_path / "data"
    assert main(["gen-synth", "--out", str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"ERROR FORMAT: {cfg}:3: repeated key 'n_drugs' (first on line 1)\n"
    assert not out.exists()


def test_train_and_predict_without_smiles(tmp_path):
    """Without smiles.tsv the reconstruction loss is off, so the autoencoder
    gets no gradient; training still steps every parameter and predict
    leaves unfamiliarity empty."""
    data = gen(tmp_path, "data", seed=4)
    (data / "smiles.tsv").unlink()
    splits = tmp_path / "splits"
    assert main(["split", "--data", str(data), "--strategy", "random", "--seed", "4", "--out", str(splits)]) == 0
    inter = str(splits / "interactions.tsv")
    cfg = write_config(tmp_path / "t.cfg", hidden_dim=8, output_dim=4, latent_dim=4, max_len=8,
                       lr=3e-3, max_epochs=2, patience=2, batch_size=64)
    model_dir = tmp_path / "model"
    assert main(["train", "--mode", "dti", "--data", str(data), "--interactions", inter,
                 "--config", str(cfg), "--seed", "4", "--out", str(model_dir)]) == 0
    assert json.loads((model_dir / "model.tdti.json").read_text())["alpha_recon"] == 0.0
    preds = tmp_path / "preds"
    assert main(["predict", "--data", str(data), "--interactions", inter,
                 "--model", str(model_dir / "model.tdti"), "--out", str(preds)]) == 0
    from tensordti.screening import load_predictions

    columns = load_predictions(preds / "predictions.tsv")
    assert columns["prob"] and None not in columns["prob"]
    assert set(columns["unfamiliarity"]) == {None}


def test_report_repeated_pair_in_the_truth_is_format_error(tmp_path, capsys):
    """Which row's label would count is ambiguous; the last row used to win."""
    preds, truth = tmp_path / "preds.tsv", tmp_path / "truth.tsv"
    preds.write_text(
        "drug_id\ttarget_id\tlogit\tprob\tpred_label\taffinity_pred\tconfidence\tunfamiliarity\n"
        "D1\tT1\t0.5\t0.6\t1\t\t0.1\t\nD2\tT1\t-0.5\t0.4\t0\t\t0.2\t\n"
    )
    truth.write_text(
        "drug_id\ttarget_id\tpocket_id\tlabel\taffinity\tsplit\n"
        "D1\tT1\t\t1\t\ttest\nD2\tT1\t\t0\t\ttest\nD1\tT1\t\t0\t\ttest\n"
    )
    rc = main(["report", "--predictions", str(preds), "--interactions", str(truth), "--out", str(tmp_path / "out")])
    assert rc == 1
    expected = f"ERROR FORMAT: {truth}:4: repeated drug_id, target_id ['D1', 'T1'] (first on line 2)\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "out" / "metrics.json").exists()


@pytest.fixture(scope="module")
def tiny_models(tmp_path_factory):
    """mode -> (fixture directory, checkpoint) of a one-epoch dti and dta model."""
    models = {}
    for mode in ("dti", "dta"):
        tmp = tmp_path_factory.mktemp(mode)
        data = gen(tmp, seed=5, task=mode)
        assert main(["split", "--data", str(data), "--seed", "5", "--out", str(tmp / "splits")]) == 0
        cfg = write_config(tmp / "t.cfg", hidden_dim=8, output_dim=4, latent_dim=4, max_len=8,
                           vocab="CNOPSFclnos=", max_epochs=1, patience=1, batch_size=64)
        assert main(["train", "--mode", mode, "--data", str(data), "--interactions",
                     str(tmp / "splits" / "interactions.tsv"), "--config", str(cfg), "--out", str(tmp / "m")]) == 0
        models[mode] = data, tmp / "m" / "model.tdti"
    return models


@pytest.mark.parametrize("label", ["", "1"], ids=["blank", "one-class"])
@pytest.mark.parametrize("mode", ["dti", "dta"])
def test_predict_rank_enrich_over_a_library_without_truth(tmp_path, capsys, tiny_models, mode, label):
    """A screening library needs no truth: predict scores an untagged table
    whose label and affinity columns are blank, or whose rows are all one
    class, and rank and enrich run over the predictions. report refuses
    them for want of the mode's truth."""
    data, model = tiny_models[mode]
    records = load_interactions(data / "interactions.tsv")
    library = tmp_path / "library.tsv"
    library.write_text("drug_id\ttarget_id\tpocket_id\tlabel\taffinity\tsplit\n"
                       + "".join(f"{r.drug_id}\t{r.target_id}\t\t{label}\t\t\n" for r in records))
    cfg = write_config(tmp_path / "p.cfg", predict_split="unassigned")
    preds = tmp_path / "preds" / "predictions.tsv"
    assert main(["predict", "--data", str(data), "--interactions", str(library), "--model", str(model),
                 "--config", str(cfg), "--out", str(preds.parent)]) == 0
    assert load_predictions(preds)["drug_id"] == [r.drug_id for r in records]

    target = records[0].target_id
    library_drugs = [r.drug_id for r in records if r.target_id == target]
    ranking = "two_key" if mode == "dti" else "affinity"
    assert main(["rank", "--predictions", str(preds), "--target", target, "--ranking", ranking,
                 "--out", str(tmp_path / "rank")]) == 0
    ranked = tmp_path / "rank" / "ranked.tsv"
    assert sorted(line.split("\t")[1] for line in ranked.read_text().splitlines()[1:]) == sorted(library_drugs)
    actives = tmp_path / "actives.tsv"
    actives.write_text("compound_id\n" + "".join(f"{d}\n" for d in library_drugs[:3]))
    assert main(["enrich", "--ranked", f"tensordti={ranked}", "--actives", str(actives),
                 "--out", str(tmp_path / "enrich")]) == 0

    capsys.readouterr()
    assert main(["report", "--predictions", str(preds), "--interactions", str(library), "--mode", mode,
                 "--out", str(tmp_path / "report")]) == 1
    code = "DATA" if mode == "dti" and label else "MISSING_COLUMN"  # one class has no AUPR
    assert capsys.readouterr().err.startswith(f"ERROR {code}:")


# -- per-command imports and the manifest environment ---------------------------------


SRC = Path(__file__).resolve().parents[1] / "src"


def modules_after(argv: list[str] | None, **env: str | None) -> set[str]:
    """The modules a fresh interpreter on `src/` has loaded after importing
    the CLI and, unless argv is None, running `main(argv)` to success; env
    entries set (or, when None, unset) environment variables."""
    script = "import json, sys\nfrom tensordti.cli import main\n"
    if argv is not None:
        script += f"assert main({[str(a) for a in argv]!r}) == 0\n"
    script += "print(json.dumps(sorted(sys.modules)))\n"
    environ = {**os.environ, "PYTHONPATH": str(SRC), **env}
    environ = {k: v for k, v in environ.items() if v is not None}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=environ)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def screening_inputs(tmp_path):
    """A two-row one-target predictions table, its ground truth, and a
    ranked library with its actives."""
    preds = tmp_path / "preds.tsv"
    preds.write_text(PREDICTIONS_HEADER + "D0\tT0\t1.0\t0.7\t1\t\t0.2\t0.5\nD1\tT0\t-1.0\t0.3\t0\t\t0.4\t0.6\n")
    truth = tmp_path / "truth.tsv"
    truth.write_text("drug_id\ttarget_id\tpocket_id\tlabel\taffinity\tsplit\nD0\tT0\t\t1\t\ttest\nD1\tT0\t\t0\t\ttest\n")
    ranked, actives = enrich_inputs(tmp_path, GOOD_RANKED)
    return preds, truth, ranked, actives


def test_predict_split_must_name_a_split_or_all(tmp_path, capsys, tiny_models):
    data, ckpt = tiny_models["dti"]
    cfg = write_config(tmp_path / "p.cfg", predict_split="trian")
    rc = main(["predict", "--data", str(data), "--model", str(ckpt), "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("ERROR CONFIG: config key 'predict_split' expects one of") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, keys, unread",
    [
        ("train", dict(mode="dta", eval_metric="aupr", seeds=(5, 6), hiden_dim=8),
         "mode, eval_metric, seeds, hiden_dim"),
        ("enrich", dict(baseline_trials=2000, k_grid="1,5"), "baseline_trials, k_grid"),
        ("train", {}, None),
    ],
)
def test_config_keys_that_set_nothing_warn_once(tmp_path, caplog, tiny_models, command, keys, unread):
    """A typo, a key the command takes from a flag or derives, and a key
    for another command each set nothing; the run still succeeds."""
    data, ckpt = tiny_models["dti"]
    if command == "train":
        keys = dict(hidden_dim=8, output_dim=4, latent_dim=4, max_len=8, max_epochs=1, patience=1, **keys)
        args = ["train", "--data", str(data), "--interactions", str(ckpt.parent.parent / "splits" / "interactions.tsv")]
    else:
        ranked, act = enrich_inputs(tmp_path, GOOD_RANKED)
        args = ["enrich", "--ranked", f"m={ranked}", "--actives", str(act)]
    cfg = write_config(tmp_path / "c.cfg", **keys)
    with caplog.at_level(logging.WARNING, logger="tensordti"):
        assert main([*args, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ([f"config keys that set nothing {command} reads: {unread}"] if unread else [])


def test_each_command_loads_only_what_it_runs(tmp_path):
    """Importing the CLI loads no numpy; rank and enrich load neither numpy
    nor the model, and report loads none of the training stack."""
    preds, truth, ranked, actives = screening_inputs(tmp_path)
    assert "numpy" not in modules_after(None)
    heavy = {"numpy", "tensordti.training", "tensordti.model", "tensordti.nn"}
    rank = ["rank", "--predictions", preds, "--unf-threshold", "1", "--out", tmp_path / "rank"]
    assert not modules_after(rank) & heavy
    enrich = ["enrich", "--ranked", f"m={ranked}", "--actives", actives, "--out", tmp_path / "enrich"]
    assert not modules_after(enrich) & heavy
    report = ["report", "--predictions", preds, "--interactions", truth, "--out", tmp_path / "report"]
    assert not modules_after(report) & {"tensordti.model", "tensordti.nn", "tensordti.training", "tensordti.losses"}


def test_rank_manifest_records_no_numpy(tmp_path):
    """rank runs no numpy, so its manifest names no numpy or BLAS build; the
    thread variables are still recorded."""
    preds, *_ = screening_inputs(tmp_path)
    out = tmp_path / "rank"
    modules_after(["rank", "--predictions", preds, "--out", out],
                  OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="3", MKL_NUM_THREADS=None)
    assert json.loads((out / "manifest.json").read_text())["environment"] == {
        "python": platform.python_version(),
        "numpy": None,
        "blas": {"name": None, "version": None},
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None},
    }


# -- the command lifecycle ---------------------------------------------------------


def test_main_alone_opens_and_finishes_the_run():
    """A command reads, computes and writes; `main` builds the one `_Run`,
    calls `finish` and returns the exit code."""
    tree = ast.parse(Path(inspect.getsourcefile(main)).read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def called(fn) -> set[str]:
        return {getattr(node.func, "id", getattr(node.func, "attr", None))
                for node in ast.walk(fn) if isinstance(node, ast.Call)}

    def returns(fn) -> list:
        """The values `fn` itself returns, not those of functions nested in it."""
        out, stack = [], list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Return):
                out.append(node.value)
            if not isinstance(node, ast.FunctionDef):
                stack.extend(ast.iter_child_nodes(node))
        return out

    commands = [fn for name, fn in functions.items() if name.startswith("cmd_")]
    assert sorted(fn.name for fn in commands) == sorted(f.__name__ for f in COMMANDS.values())
    for fn in commands:
        assert not called(fn) & {"_Run", "finish"}, fn.name
        assert returns(fn) == [], fn.name
    assert {"_Run", "finish"} <= called(functions["main"])


def test_every_command_writes_the_pinned_manifest(tmp_path):
    """gen-synth -> split -> train -> predict -> rank -> enrich -> report:
    each manifest has the same fields, its command, the seeds of the
    commands that draw random numbers, one digest per file read and every
    file written under --out but itself."""
    data, splits = tmp_path / "gen-synth", tmp_path / "split" / "interactions.tsv"
    model, preds = tmp_path / "train" / "model.tdti", tmp_path / "predict" / "predictions.tsv"
    ranked, actives = tmp_path / "rank" / "ranked.tsv", tmp_path / "actives.tsv"
    bundle = [data / "drugs.bin", data / "proteins.bin", data / "smiles.tsv", splits]
    argv = {
        "gen-synth": ["--seed", "7", "--config", write_config(tmp_path / "synth.cfg", **SMALL_SYNTH)],
        "split": ["--data", data, "--seed", "4"],
        "train": ["--data", data, "--interactions", splits, "--seed", "3",
                  "--config", write_config(tmp_path / "train.cfg", **{**TINY_TRAIN, "max_epochs": 1})],
        "predict": ["--data", data, "--interactions", splits, "--model", model],
        "rank": ["--predictions", preds, "--unf-threshold", "1e300"],
        "enrich": ["--ranked", f"m={ranked}", "--actives", actives, "--seed", "2"],
        "report": ["--predictions", preds, "--interactions", splits],
    }
    runs = [
        ("gen-synth", [7], []),
        ("split", [4], [data / "interactions.tsv"]),
        ("train", [3], bundle),
        ("predict", [], [model, *bundle]),
        ("rank", [], [preds]),
        ("enrich", [2], [ranked, actives]),
        ("report", [], [preds, splits]),
    ]
    for command, seeds, inputs in runs:
        if command == "rank":  # one target of the predictions, and its top compound as the active
            argv["rank"] += ["--target", load_predictions(preds)["target_id"][0]]
        if command == "enrich":
            actives.write_text("compound_id\n" + ranked.read_text().splitlines()[1].split("\t")[1] + "\n")
        out = tmp_path / command
        assert main([command, *map(str, argv[command]), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == MANIFEST_KEYS
        assert manifest["command"] == command
        assert manifest["seeds"] == seeds
        assert manifest["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}
        assert manifest["artifacts"] == sorted(str(f) for f in out.iterdir() if f.name != "manifest.json")


@pytest.mark.parametrize("failure", ["bad setting", "unreadable input"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_that_fails_before_writing_leaves_no_out_directory(tmp_path, capsys, tiny_models, command,
                                                                     failure):
    """--out is made at a command's first artifact, so a bad flag or config
    value, or an input that cannot be read, stops the run with one error
    line and no directory, even after other inputs were read."""
    data, model = tiny_models["dti"]
    preds, truth, ranked, actives = screening_inputs(tmp_path)
    missing = tmp_path / "missing"
    configs = iter(range(10))

    def config(line: str) -> Path:
        path = tmp_path / f"c{next(configs)}.cfg"
        path.write_text(line + "\n")
        return path

    bad_setting = {
        "gen-synth": ("CONFIG", ["--config", config("n_drugs = many")]),
        "split": ("CONFIG", ["--data", data, "--config", config('strategy = "sideways"')]),
        "train": ("CONFIG", ["--data", data, "--config", config("hidden_dim = wide")]),
        "predict": ("CONFIG", ["--data", data, "--model", model, "--config", config('predict_split = "trian"')]),
        "rank": ("DATA", ["--predictions", preds, "--target", "T9"]),
        "enrich": ("USAGE", ["--ranked", f"m={ranked}", "--actives", actives, "--k-grid", "0,5"]),
        "report": ("MISSING_COLUMN", ["--predictions", preds, "--interactions", truth, "--mode", "dta"]),
    }
    unreadable_input = {
        "gen-synth": ("IO", ["--config", missing]),
        "split": ("FORMAT", ["--data", missing]),
        "train": ("FORMAT", ["--data", missing]),
        "predict": ("FORMAT", ["--data", data, "--model", missing]),
        "rank": ("FORMAT", ["--predictions", missing]),
        "enrich": ("FORMAT", ["--ranked", f"m={missing}", "--actives", actives]),
        "report": ("FORMAT", ["--predictions", preds, "--interactions", missing]),
    }
    code, args = (bad_setting if failure == "bad setting" else unreadable_input)[command]
    out = tmp_path / "out"
    assert main([command, *map(str, args), "--out", str(out)]) == (2 if code == "USAGE" else 1)
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR {code}: ") and err.count("\n") == 1
    assert not out.exists()


def test_unknown_split_strategy_is_usage_error(tmp_path, capsys):
    rc = main(["split", "--data", str(tmp_path), "--strategy", "bogus", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("ERROR USAGE:")


# -- report and config errors ---------------------------------------------------------


@pytest.mark.parametrize("mode, column", [("dta", "affinity_pred"), ("dti", "prob")])
def test_report_without_the_modes_prediction_column_is_missing_column(tmp_path, capsys, mode, column):
    """dti predictions leave affinity_pred empty: a dta report over them wrote
    `"pcc": NaN, "rmse": NaN` and exited 0."""
    preds = tmp_path / "preds.tsv"
    truth = tmp_path / "truth.tsv"
    # rows of the other mode: dti rows leave affinity_pred empty, dta rows prob
    row = {"dta": "D{i}\tT0\t0.{i}\t0.{i}\t0\t\t0.1\t\n", "dti": "D{i}\tT0\t6.{i}\t\t\t6.{i}\t0.1\t\n"}[mode]
    preds.write_text(
        "drug_id\ttarget_id\tlogit\tprob\tpred_label\taffinity_pred\tconfidence\tunfamiliarity\n"
        + "".join(row.format(i=i) for i in range(4))
    )
    truth.write_text(
        "drug_id\ttarget_id\tpocket_id\tlabel\taffinity\tsplit\n"
        + "".join(f"D{i}\tT0\t\t{i % 2}\t{5 + i}\ttest\n" for i in range(4))
    )
    rc = main(["report", "--predictions", str(preds), "--interactions", str(truth), "--mode", mode,
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"ERROR MISSING_COLUMN: {preds}: {column} required") and err.count("\n") == 1
    assert not (tmp_path / "out" / "metrics.json").exists()


@pytest.mark.parametrize(
    "command, line",
    [("split", "fractions = 0.5"), ("train", 'hidden_dim = "abc"'), ("train", "n_seeds = x")],
)
def test_config_value_of_the_wrong_type_is_config_error(tmp_path, capsys, command, line):
    data = gen(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc = main([command, "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    key = line.split(" = ")[0]
    assert err.startswith(f"ERROR CONFIG: config key {key!r} expects") and err.count("\n") == 1


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (TrainConfig, "lr", NAN),
        (TrainConfig, "lr", INF),
        (TrainConfig, "weight_decay", -1.0),
        (TrainConfig, "weight_decay", NAN),
        (ModelConfig, "alpha_cls", NAN),
        (ModelConfig, "alpha_recon", NAN),
        (ModelConfig, "margin", NAN),
        (ModelConfig, "triplet_margin", INF),
        (ModelConfig, "unfamiliarity_eps", NAN),
        (ModelConfig, "error_scale", 0.0),
        (ModelConfig, "error_scale", NAN),
        (ModelConfig, "lambda_pocket", NAN),
        (ModelConfig, "lambda_protein", -INF),
        (SyntheticConfig, "noise", NAN),
        (SyntheticConfig, "noise", INF),
    ],
)
def test_config_float_out_of_range_is_config_error_naming_the_field(cls, field, value):
    """Every float field is finite and in range: nan passes `x < 0`, so a
    bare range check let these through."""
    with pytest.raises(ConfigError, match=f"^{field} must be a finite number"):
        cls(**({"drug_dim": 4, "protein_dim": 4} if cls is ModelConfig else {}), **{field: value})


def test_train_with_nan_learning_rate_is_one_config_error_line(tmp_path, capsys):
    data = gen(tmp_path)
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("lr = nan\n")
    rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("ERROR CONFIG: lr must be a finite number >= 0, got nan") and err.count("\n") == 1


CONFIG_CLASSES = (SyntheticConfig, SplitSpec, ModelConfig, TrainConfig)
CONFIG_KEYS = sorted({f.name for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)})
CONFIG_VALUES = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "false", '"dti"', '"random"', "abc", "0.7, 0.1, 0.2", "0.5, 0.5", "1, 2", "1, x", '""']),
    st.text(max_size=12),
)
CONFIG_TEXT = st.one_of(
    st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES).map(" = ".join), max_size=6).map("\n".join),
    st.text(max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(CONFIG_TEXT)
def test_any_config_text_builds_every_config_or_is_a_typed_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            config = _parse_config_file(path)
        except TdtiError:
            return
    for cls in CONFIG_CLASSES:
        try:
            _Config(config).settings(cls, {}, {"drug_dim": 4, "protein_dim": 4} if cls is ModelConfig else None)
        except TdtiError:
            pass


@pytest.mark.parametrize(
    "cls, line, value",
    [
        (SyntheticConfig, 'task = "dta"', "dta"),
        (SyntheticConfig, "task = dta", "dta"),
        (ModelConfig, 'vocab = "C#N"  # a trailing comment', "C#N"),
        (ModelConfig, "vocab = 123", "123"),
        (ModelConfig, "vocab = true", "true"),
        (ModelConfig, "vocab = CN, O", "CN, O"),
        (SplitSpec, "balance_train = true", True),
        (SplitSpec, "balance_train = FALSE", False),
        (ModelConfig, "hidden_dim = 12", 12),
        (ModelConfig, "margin = 1", 1),
        (ModelConfig, "margin = 0.5", 0.5),
        (TrainConfig, "lr = 1e-3", 0.001),
        (ModelConfig, "pocket_dim = 6", 6),
        (SplitSpec, "fractions = 0.7, 0.1, 0.2", (0.7, 0.1, 0.2)),
        (SplitSpec, "fractions = 0.5,0.25,0.25", (0.5, 0.25, 0.25)),
        (TrainConfig, "seeds = 5, 6", (5, 6)),
    ],
)
def test_config_value_is_parsed_as_its_settings_type(tmp_path, cls, line, value):
    """Value and type: integer text for a float setting stays an int, so a
    checkpoint's config block keeps its bytes."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    config = _Config(_parse_config_file(cfg))
    key = line.split(" = ")[0]
    got = getattr(config.settings(cls, {}, {"drug_dim": 4, "protein_dim": 4} if cls is ModelConfig else None), key)
    assert (got, repr(got)) == (value, repr(value))
    assert config.read == {key}


@pytest.mark.parametrize(
    "cls, line, expected",
    [
        (ModelConfig, "hidden_dim = true", "int"),
        (ModelConfig, "hidden_dim = 1.5", "int"),
        (ModelConfig, 'hidden_dim = "12"', "int"),
        (ModelConfig, "margin = x", "float"),
        (ModelConfig, "pocket_dim = none", "int"),
        (SplitSpec, 'balance_train = "true"', "bool"),
        (SplitSpec, "balance_train = 1", "bool"),
        (SplitSpec, "fractions = 0.7, x, 0.2", "tuple[float, float, float]"),
        (SplitSpec, "fractions = 0.5, 0.5", "tuple[float, float, float]"),
        (TrainConfig, "seeds = 5,", "tuple[int, ...]"),
    ],
)
def test_config_value_not_of_its_settings_type_is_config_error(tmp_path, cls, line, expected):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    key, text = line.split(" = ")
    with pytest.raises(ConfigError) as exc:
        _Config(_parse_config_file(cfg)).settings(cls, {}, {"drug_dim": 4, "protein_dim": 4})
    assert str(exc.value) == f"config key {key!r} expects {expected}, got {text!r}"
