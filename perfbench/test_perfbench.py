"""Self-tests of the benchmark: every output check rejects a deliberately
corrupted output, and a tiny run of each workload passes every check.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def tiny(name: str):
    return type(workloads.WORKLOADS[name])(workloads.TINY[name])


@pytest.fixture(scope="module")
def screen(tmp_path_factory):
    """One tiny screen-library set-up and pass, outputs kept."""
    wd = tmp_path_factory.mktemp("screen")
    wl = tiny("screen-library")
    tally = workloads.Tally()
    runner = workloads.Runner(wd, tally, time.monotonic() + 300)
    fx = wl.setup(wd / "setup", SEED, runner)
    runner.current = workloads.Pass(traced=False)
    wl.run_pass(fx, wd / "pass", SEED, runner, tally)
    assert tally.failures == []
    return fx, wd / "pass"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_every_check(name, tmp_path):
    run = workloads.run(tiny(name), SEED, seconds=0, trace=True, workdir=tmp_path)
    assert run.tally.failures == []
    assert [p.traced for p in run.passes] == [False, True]
    e2e = layers.end_to_end(run)
    assert all(v > 0 for v in e2e.values()), e2e
    values, absent = layers.per_layer(run, fail_frac=0.0)
    assert absent == []
    assert set(values) == {name for name, _, _ in layers.per_layer_defs()}
    assert values["cli.predict.s"] > 0 and values["model.encode_drug.cols"] > 0
    assert values["util.sha256_file.bytes"] > 0 and values["embeddings.load_embeddings.rows"] > 0
    assert values["synthetic.gen_synthetic.s"] > 0 and values["pipeline.split.s"] > 0


def _predictions_check(fx, preds: Path) -> list[str]:
    return checks.predictions(
        preds, fx.dir / "model" / "model.tdti", fx, fx.extra["pairs"], workloads.ORACLE_SAMPLE, SEED
    )


def test_predictions_check_rejects_a_perturbed_logit(screen, tmp_path):
    fx, out = screen
    preds = out / "predict" / "predictions.tsv"
    assert _predictions_check(fx, preds) == []
    lines = preds.read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\n").split("\t")
    row = checks.sample_indices(len(lines) - 1, workloads.ORACLE_SAMPLE, SEED)[0] + 1
    fields = lines[row].rstrip("\n").split("\t")
    col = header.index("logit")
    fields[col] = repr(float(fields[col]) + 1e-6)
    lines[row] = "\t".join(fields) + "\n"
    bad = tmp_path / "predictions.tsv"
    bad.write_text("".join(lines), encoding="utf-8")
    problems = _predictions_check(fx, bad)
    assert len(problems) == 1 and problems[0].startswith("logit")


def test_ranked_check_rejects_a_duplicated_id(screen, tmp_path):
    fx, out = screen
    target = fx.extra["targets"][0]
    preds = {r["drug_id"]: r for r in checks.read_tsv(out / "predict" / "predictions.tsv") if r["target_id"] == target}
    ranked = out / f"rank-{target}" / "ranked.tsv"
    assert checks.ranked(ranked, preds) == []
    lines = ranked.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = "2\t" + lines[1].split("\t")[1]
    bad = tmp_path / "ranked.tsv"
    bad.write_text("".join(lines), encoding="utf-8")
    assert any("duplicate" in p for p in checks.ranked(bad, preds))


def test_enrichment_checks_reject_a_scaled_ef_and_a_biased_baseline(screen, tmp_path):
    fx, out = screen
    target = fx.extra["targets"][0]
    report = out / f"enrich-{target}" / "enrichment.json"
    ids = [r["compound_id"] for r in checks.read_tsv(out / f"rank-{target}" / "ranked.tsv")]
    actives = fx.extra["actives"][target]
    assert checks.enrichment(report, ids, actives) == []
    assert checks.random_baseline(report, workloads.BASELINE_TRIALS) == []

    rep = json.loads(report.read_text(encoding="utf-8"))
    rep["ef"]["tensordti"] = {k: 1.01 * v for k, v in rep["ef"]["tensordti"].items()}
    rep["ar_budget"]["random"] = {k: 0.5 * v for k, v in rep["ar_budget"]["random"].items()}
    bad = tmp_path / "enrichment.json"
    bad.write_text(json.dumps(rep), encoding="utf-8")
    assert any("EF" in p for p in checks.enrichment(bad, ids, actives))
    assert checks.random_baseline(bad, workloads.BASELINE_TRIALS) != []


def test_checkpoint_and_train_report_checks_reject_corruption(screen, tmp_path):
    fx, _ = screen
    ckpt = fx.dir / "model" / "model.tdti"
    assert checks.checkpoint_loads(ckpt) == []
    bad = tmp_path / "model.tdti"
    bad.write_bytes(ckpt.read_bytes()[:-100])
    assert checks.checkpoint_loads(bad) != []

    report_path = fx.dir / "model" / "train_report.json"
    epochs = workloads.TINY["screen-library"].fit_epochs
    assert checks.train_report(report_path, epochs) == []
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["runs"][0]["epochs"][0]["l_total"] = float("nan")
    bad = tmp_path / "train_report.json"
    bad.write_text(json.dumps(report), encoding="utf-8")
    assert checks.train_report(bad, epochs) != []
    assert checks.train_report(report_path, epochs + 1) != []


def test_renamed_target_is_reported_absent_and_runs_on():
    import tensordti.metrics

    recorder = tracer.Recorder("t")
    restore = tracer.install(
        recorder, [("tensordti.metrics", "no_such_function", None), ("tensordti.metrics", "rmse", None)]
    )
    try:
        assert tensordti.metrics.rmse([1.0, 2.0], [1.0, 4.0]) == pytest.approx(2**0.5)
    finally:
        restore()
    assert recorder.absent == ["metrics.no_such_function"]
    assert [s[0] for s in recorder.spans] == ["metrics.rmse"]
    assert tensordti.metrics.rmse.__module__ == "tensordti.metrics" and not hasattr(tensordti.metrics.rmse, "__wrapped__")


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == layers.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.per_layer_defs()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
