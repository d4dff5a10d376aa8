"""The three workloads: inputs made from a seed, the timed CLI stages, and
the output checks of each pass.

Every timed stage runs ``tensordti`` in its own child process, as users run
it; one parent process runs the stages one after another (a closed loop with one
client and no arrival rate, since this is a batch CLI).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"

# set-up runs at least SETUP_REPS times, and again while the set-ups so far
# took under SETUP_MIN_S: a sub-second set-up timed over a window of a few
# seconds gets a median that second-scale host noise does not swing
SETUP_REPS = 3
SETUP_MIN_S = 4.0
SETUP_MAX_REPS = 40
ORACLE_SAMPLE = 64
HARD_LIMIT_S = 170.0  # a run must end within 180 s; stages past this are killed
# an untraced pass reruns predict until its predicts took this many seconds:
# a sub-second predict is mostly start-up noise, so predict_pairs_per_s is the
# median over every predict run of the untraced passes
PREDICT_MIN_S = 3.0
PREDICT_MAX_REPS = 10
BASELINE_TRIALS = 2000  # the CLI default, stated so the random-AR check knows it

# Host speed. On a shared host the same code runs 1.1-2x slower for minutes
# at a time (busy neighbours), which no median within a run averages out.
# So a fixed reference, made of the kinds of work a stage does (BLAS,
# interpreter work, a process start), is timed before every stage and
# set-up, and end-to-end times are reported in reference seconds: wall x
# REF_S / the run's median reference time. REF_S is what the reference takes
# on a quiet host (see README.md), where reference seconds read as wall seconds.
REF_S = 0.052
_REF_MAT = np.random.default_rng(0).standard_normal((192, 192))


def host_ref() -> float:
    """Seconds the fixed reference takes now."""
    t0 = time.perf_counter()
    for _ in range(60):
        _REF_MAT @ _REF_MAT
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0

PAPER_MODEL = {
    "hidden_dim": 512,
    "output_dim": 256,
    "latent_dim": 64,
    "max_len": 128,
    "batch_size": 256,
    "lr": 0.0005,
}


def derive(seed: int, index: int) -> int:
    """Child seed for one input of a workload."""
    return random.Random(f"{seed}:{index}").randrange(2**31)


def write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")


class StageFailed(Exception):
    pass


@dataclass
class Stage:
    name: str
    wall_s: float
    rss_mb: float


@dataclass
class Pass:
    traced: bool
    stages: list[Stage] = field(default_factory=list)
    span_files: list[Path] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    ok: bool = True

    def wall(self, name: str) -> float:
        return sum(s.wall_s for s in self.stages if s.name == name)

    @property
    def total_s(self) -> float:
        return sum(s.wall_s for s in self.stages)


class Tally:
    """Counts attempted and failed stages and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, fn, *args) -> bool:
        self.attempted += 1
        try:
            problems = fn(*args)
        except Exception as exc:  # a crashing check is a failed check
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
            self.failures.append(f"check {name}: {problems[0]}{more}")
        return not problems


class Runner:
    """Runs CLI stages as child processes and measures each one's wall time
    and peak RSS from its own rusage."""

    def __init__(self, workdir: Path, tally: Tally, deadline: float, ref_s: list[float] | None = None):
        self.workdir = workdir
        self.tally = tally
        self.deadline = deadline
        self.ref_s = [] if ref_s is None else ref_s  # host_ref() before each stage of a pass
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TDTI_LOG="quiet")
        self.current: Pass | None = None
        self._n = 0

    def cli(self, stage: str, *args, rerun: bool = False) -> Stage:
        """Run one stage. A rerun is not part of the pass."""
        self._n += 1
        traced = self.current is not None and self.current.traced
        cmd = [sys.executable, "-m", "tensordti.cli", stage, *map(str, args)]
        if traced:
            spans = self.workdir / f"spans{self._n}.jsonl"
            cmd = [sys.executable, str(TRACER), str(spans), f"{stage}#{self._n}", "--", *cmd[3:]]
        log = self.workdir / f"stage{self._n}.log"
        self.tally.attempted += 1
        if self.current is not None:  # set-up takes its own sample, outside its timing
            self.ref_s.append(host_ref())
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=out, env=self.env, cwd=self.workdir)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            self.tally.failures.append(f"stage {stage} exited {proc.returncode}: {' '.join(tail)}")
            raise StageFailed(stage)
        result = Stage(stage, wall, usage.ru_maxrss / 1024.0)
        if self.current is not None and not rerun:
            self.current.stages.append(result)
            if traced:
                self.current.span_files.append(spans)
        return result

    def predict_walls(self, *args) -> list[float]:
        """Run predict as a stage of the pass; in an untraced pass rerun it
        (same outputs) until PREDICT_MIN_S of walls are measured. Returns
        every wall."""
        walls = [self.cli("predict", *args).wall_s]
        while not self.current.traced and sum(walls) < PREDICT_MIN_S and len(walls) < PREDICT_MAX_REPS:
            walls.append(self.cli("predict", *args, rerun=True).wall_s)
        return walls


@dataclass
class Fixture:
    """Inputs as generated, kept in memory for the oracles."""

    dir: Path
    drugs: object
    proteins: object
    pockets: object
    pocket_of: dict
    smiles: dict
    extra: dict = field(default_factory=dict)


def _generate(spec, seed: int, outdir: Path):
    from tensordti import synthetic

    cfg = synthetic.SyntheticConfig(
        n_drugs=spec.n_drugs,
        n_targets=spec.n_targets,
        drug_dim=spec.drug_dim,
        protein_dim=spec.protein_dim,
        pocket_dim=spec.pocket_dim,
        smiles_len=spec.smiles_len,
        task=spec.task,
        seed=derive(seed, 0),
    )
    data = synthetic.gen_synthetic(cfg)
    data.write(outdir)
    return data


def _fixture(data, d: Path) -> Fixture:
    return Fixture(
        dir=d,
        drugs=data.drugs,
        proteins=data.proteins,
        pockets=data.pockets,
        pocket_of={r.target_id: r.pocket_id for r in data.interactions},
        smiles=data.smiles,
    )


def _split(records, strategy: str, seed: int, path: Path):
    from tensordti import embeddings, pipeline

    tagged = pipeline.split(records, pipeline.SplitSpec(strategy=strategy, seed=seed))
    embeddings.save_interactions(tagged, path)
    return tagged


# -- train workloads --------------------------------------------------------


@dataclass(frozen=True)
class TrainSpec:
    task: str  # dti | dta
    n_drugs: int
    n_targets: int
    drug_dim: int
    protein_dim: int
    pocket_dim: int | None
    smiles_len: int
    split: str
    model: dict
    epochs: int


class TrainWorkload:
    """train -> predict (test split) -> report."""

    def __init__(self, spec: TrainSpec):
        self.spec = spec

    def setup(self, d: Path, seed: int, runner: Runner) -> Fixture:
        s = self.spec
        data = _generate(s, seed, d / "data")
        fx = _fixture(data, d)
        tagged = _split(data.interactions, s.split, derive(seed, 1), d / "splits.tsv")
        fx.extra["train_pairs"] = sum(1 for r in tagged if r.split == "train")
        fx.extra["test_pairs"] = {(r.drug_id, r.target_id) for r in tagged if r.split == "test"}
        write_config(d / "train.cfg", {**s.model, "max_epochs": s.epochs, "patience": s.epochs})
        return fx

    def check_setup(self, fx: Fixture, tally: Tally) -> None:
        pass

    def run_pass(self, fx: Fixture, out: Path, seed: int, runner: Runner, tally: Tally) -> dict:
        s = self.spec
        d = fx.dir
        model = out / "model"
        train = runner.cli(
            "train", "--mode", s.task, "--data", d / "data", "--interactions", d / "splits.tsv",
            "--config", d / "train.cfg", "--seed", seed, "--out", model,
        )
        ckpt = model / "model.tdti"
        tally.check("checkpoint loads", checks.checkpoint_loads, ckpt)
        tally.check("epochs and losses", checks.train_report, model / "train_report.json", s.epochs)
        predict_walls = runner.predict_walls(
            "--data", d / "data", "--interactions", d / "splits.tsv", "--model", ckpt, "--out", out / "predict",
        )
        preds = out / "predict" / "predictions.tsv"
        test = fx.extra["test_pairs"]
        tally.check(
            "predictions match the tape-path oracle", checks.predictions, preds, ckpt, fx, test,
            ORACLE_SAMPLE, seed,
        )
        runner.cli(
            "report", "--predictions", preds, "--interactions", d / "splits.tsv", "--mode", s.task,
            "--out", out / "report",
        )
        metrics_path = out / "report" / "metrics.json"
        tally.check("report", checks.report, metrics_path, len(test), s.task)
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
        values = {
            "train_pairs_per_s": s.epochs * fx.extra["train_pairs"] / train.wall_s,
            "predict_pairs_per_s": [len(test) / w for w in predict_walls],
        }
        values["test_aupr" if s.task == "dti" else "test_rmse"] = metrics["aupr" if s.task == "dti" else "rmse"]
        return values


# -- screening workload -----------------------------------------------------


def _write_fit_data(data, n_drugs: int, outdir: Path) -> None:
    """The first n_drugs of the library with every target: the model is fit
    on these, so the fit does not ingest the whole library."""
    from tensordti import embeddings

    outdir.mkdir()
    drugs = embeddings.EmbeddingStore("drug")
    for drug_id in data.drug_ids[:n_drugs]:
        drugs.add(drug_id, data.drugs.get(drug_id))
    embeddings.save_embeddings_jsonl(drugs, outdir / "drugs.jsonl")
    embeddings.save_embeddings_jsonl(data.proteins, outdir / "proteins.jsonl")
    embeddings.save_smiles({d: data.smiles[d] for d in data.drug_ids[:n_drugs]}, outdir / "smiles.tsv")


@dataclass(frozen=True)
class ScreenSpec:
    n_drugs: int
    n_targets: int
    drug_dim: int
    protein_dim: int
    smiles_len: int
    fit_drugs: int
    fit_epochs: int
    model: dict
    active_frac: float
    dock_noise: float  # docking score = -planted + noise * sd(planted) * N(0, 1)
    unf_threshold: float
    task: str = "dti"
    pocket_dim: int | None = None


class ScreenWorkload:
    """predict (whole library) -> per target: rank two_key, enrich against
    a docking table -> report with an unfamiliarity census."""

    def __init__(self, spec: ScreenSpec):
        self.spec = spec

    def setup(self, d: Path, seed: int, runner: Runner) -> Fixture:
        s = self.spec
        data = _generate(s, seed, d / "lib")
        fx = _fixture(data, d)
        _write_fit_data(data, s.fit_drugs, d / "fit")
        fit_ids = set(data.drug_ids[: s.fit_drugs])
        _split([r for r in data.interactions if r.drug_id in fit_ids], "random", derive(seed, 1), d / "fit.tsv")
        write_config(d / "fit.cfg", {**s.model, "max_epochs": s.fit_epochs, "patience": s.fit_epochs})
        write_config(d / "predict.cfg", {"predict_split": "all"})
        write_config(d / "enrich.cfg", {"baseline_trials": BASELINE_TRIALS})

        planted = data.drug_factors.T @ data.target_factors  # (drugs, targets)
        rng = np.random.default_rng(derive(seed, 2))
        n_act = max(1, round(s.active_frac * s.n_drugs))
        for j, target in enumerate(data.target_ids):
            score = planted[:, j]
            top = np.argsort(-score, kind="stable")[:n_act]
            with open(d / f"actives-{target}.tsv", "w", encoding="utf-8") as f:
                f.write("compound_id\tpotency\n")
                f.writelines(f"{data.drug_ids[i]}\t{float(score[i])!r}\n" for i in top)
            dock = -score + s.dock_noise * score.std() * rng.standard_normal(score.size)
            with open(d / f"dock-{target}.tsv", "w", encoding="utf-8") as f:
                f.write("compound_id\tmethod\tscore\n")
                f.writelines(f"{cid}\tdocking\t{float(v)!r}\n" for cid, v in zip(data.drug_ids, dock))
            fx.extra.setdefault("actives", {})[target] = {data.drug_ids[i] for i in top}
        fx.extra["targets"] = list(data.target_ids)
        fx.extra["pairs"] = {(r.drug_id, r.target_id) for r in data.interactions}

        runner.cli(
            "train", "--data", d / "fit", "--interactions", d / "fit.tsv", "--config", d / "fit.cfg",
            "--seed", seed, "--out", d / "model",
        )
        return fx

    def check_setup(self, fx: Fixture, tally: Tally) -> None:
        tally.check("checkpoint loads", checks.checkpoint_loads, fx.dir / "model" / "model.tdti")
        tally.check("epochs and losses", checks.train_report, fx.dir / "model" / "train_report.json", self.spec.fit_epochs)

    def run_pass(self, fx: Fixture, out: Path, seed: int, runner: Runner, tally: Tally) -> dict:
        s = self.spec
        d = fx.dir
        ckpt = d / "model" / "model.tdti"
        predict_walls = runner.predict_walls(
            "--data", d / "lib", "--interactions", d / "lib" / "interactions.tsv",
            "--model", ckpt, "--config", d / "predict.cfg", "--out", out / "predict",
        )
        preds_path = out / "predict" / "predictions.tsv"
        tally.check(
            "predictions match the tape-path oracle", checks.predictions, preds_path, ckpt, fx,
            fx.extra["pairs"], ORACLE_SAMPLE, seed,
        )
        by_target: dict[str, dict] = {}
        for row in checks.read_tsv(preds_path):
            by_target.setdefault(row["target_id"], {})[row["drug_id"]] = row
        ef1 = []
        for target in fx.extra["targets"]:
            ranked = out / f"rank-{target}" / "ranked.tsv"
            runner.cli(
                "rank", "--predictions", preds_path, "--ranking", "two_key", "--target", target,
                "--out", ranked.parent,
            )
            tally.check(f"ranked {target}", checks.ranked, ranked, by_target.get(target, {}))
            enrich = out / f"enrich-{target}"
            runner.cli(
                "enrich", "--ranked", f"tensordti={ranked}", "--scores", d / f"dock-{target}.tsv",
                "--ranking", "docking", "--actives", d / f"actives-{target}.tsv",
                "--config", d / "enrich.cfg", "--seed", seed, "--out", enrich,
            )
            report_path = enrich / "enrichment.json"
            ids = [r["compound_id"] for r in checks.read_tsv(ranked)]
            tally.check(f"enrichment {target}", checks.enrichment, report_path, ids, fx.extra["actives"][target])
            tally.check(f"random AR {target}", checks.random_baseline, report_path, BASELINE_TRIALS)
            ef = json.loads(report_path.read_text(encoding="utf-8"))["ef"]["tensordti"]
            ef1.append(dict(checks.by_k(ef))[1.0])
        runner.cli(
            "report", "--predictions", preds_path, "--interactions", d / "lib" / "interactions.tsv",
            "--mode", "dti", "--unf-threshold", s.unf_threshold, "--out", out / "report",
        )
        metrics_path = out / "report" / "metrics.json"
        tally.check("report", checks.report, metrics_path, len(fx.extra["pairs"]), "dti")
        return {
            "predict_pairs_per_s": [len(fx.extra["pairs"]) / w for w in predict_walls],
            "screen_ef1": statistics.fmean(ef1),
        }


WORKLOADS = {
    # Backward, Adam and the autoencoder branch dominate; 40-char SMILES fill
    # 42 of 128 token positions, so slicing the AE to real tokens has room.
    "train-paper": TrainWorkload(
        TrainSpec(
            task="dti", n_drugs=150, n_targets=20, drug_dim=384, protein_dim=1024, pocket_dim=None,
            smiles_len=40, split="random", model=PAPER_MODEL, epochs=2,
        )
    ),
    # Inference, embedding ingest and screening analytics dominate; 4k pairs
    # share 1,004 entities, so per-entity scoring has room.
    "screen-library": ScreenWorkload(
        ScreenSpec(
            n_drugs=1000, n_targets=4, drug_dim=384, protein_dim=1024, smiles_len=40, fit_drugs=200,
            fit_epochs=2, model=PAPER_MODEL, active_frac=0.02, dock_noise=1.0, unf_threshold=1.35,
        )
    ),
    # Tiny matrices: per-op Python overhead is the cost; the only workload
    # with the pocket branch and the regression losses; every token is real.
    "train-desk-dta": TrainWorkload(
        TrainSpec(
            task="dta", n_drugs=300, n_targets=30, drug_dim=32, protein_dim=32, pocket_dim=24,
            smiles_len=22, split="unseen_target",
            model={"hidden_dim": 32, "output_dim": 16, "latent_dim": 8, "max_len": 24, "batch_size": 32, "lr": 0.001},
            epochs=3,
        )
    ),
}

# sizes for the benchmark's own smoke tests
TINY = {
    "train-paper": replace(
        WORKLOADS["train-paper"].spec, n_drugs=40, n_targets=10, drug_dim=16, protein_dim=24,
        model={**PAPER_MODEL, "hidden_dim": 16, "output_dim": 8, "latent_dim": 4, "batch_size": 32},
    ),
    "screen-library": replace(
        WORKLOADS["screen-library"].spec, n_drugs=250, drug_dim=16, protein_dim=24, fit_drugs=60,
        model={**PAPER_MODEL, "hidden_dim": 16, "output_dim": 8, "latent_dim": 4, "batch_size": 32},
    ),
    "train-desk-dta": replace(WORKLOADS["train-desk-dta"].spec, n_drugs=40, n_targets=10, epochs=2),
}


@dataclass
class Run:
    setup_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # host_ref() samples
    passes: list[Pass] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    setup_spans: Path | None = None


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    """Set up several times, then run passes until `seconds` of passes are
    measured (at least one; with `trace`, untraced and traced passes
    alternate, at least one of each)."""
    start = time.monotonic()
    result = Run()
    runner = Runner(workdir, result.tally, start + HARD_LIMIT_S, result.ref_s)
    recorder = tracer.Recorder("setup") if trace else None
    restore = tracer.install(recorder, tracer.SETUP_TARGETS) if trace else None
    fx = None
    try:
        rep = 0
        while rep < SETUP_REPS or (sum(result.setup_s) < SETUP_MIN_S and rep < SETUP_MAX_REPS):
            d = workdir / f"setup{rep}"
            d.mkdir()
            result.ref_s.append(host_ref())
            t0 = time.perf_counter()
            fx = workload.setup(d, seed, runner)
            result.setup_s.append(time.perf_counter() - t0)
            if rep:
                shutil.rmtree(workdir / f"setup{rep - 1}")
            rep += 1
    except StageFailed:
        return result
    finally:
        if restore:
            restore()
            result.setup_spans = workdir / "setup-spans.jsonl"
            recorder.write(result.setup_spans)
    workload.check_setup(fx, result.tally)

    measure_start = time.monotonic()
    while True:
        traced = trace and len(result.passes) % 2 == 1
        p = Pass(traced=traced)
        runner.current = p
        t0 = time.monotonic()
        out = workdir / f"pass{len(result.passes)}"
        try:
            p.values = workload.run_pass(fx, out, seed, runner, result.tally)
        except StageFailed:
            p.ok = False
        result.passes.append(p)
        runner.current = None
        if not p.ok:
            break
        shutil.rmtree(out, ignore_errors=True)  # spans live outside; keep disk use flat
        last = time.monotonic() - t0
        need_traced = trace and not any(q.traced for q in result.passes)
        # stop before a pass that would end past `seconds`
        if not need_traced and time.monotonic() - measure_start + last > seconds:
            break
        if time.monotonic() - start + last > HARD_LIMIT_S:
            break
    return result
