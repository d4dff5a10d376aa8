"""Batch command-line surface: gen-synth, split, train, predict, rank,
enrich, report.

Every command validates its flags before touching files and writes all
outputs under --out; `main` opens the run before it and writes the run
manifest after it, and any failure is a single-line
``ERROR <CLASS>: message`` on stderr. Each command imports only the modules
it runs, so `rank` and `enrich` start without numpy or the model. Settings
come from flags given > config file > values derived from the data >
defaults. The ``TDTI_LOG`` variable sets verbosity (debug | info | quiet).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import resource
import sys
import time
import types
import typing
from pathlib import Path

from . import screening
from ._util import SPLIT_STRATEGIES, json_text, sha256_bytes, sha256_file, splitmix64, write_tsv
from .errors import ConfigError, DataError, FormatError, MissingColumnError, TdtiError, UsageError

log = logging.getLogger("tensordti")

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _strip_comment(line: str) -> str:
    """Drop a trailing `#` comment; a `#` inside double quotes is kept."""
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _parse_config_file(path: str | Path) -> dict[str, str]:
    """TOML-style key = value lines, as key -> value text; a key given twice
    is refused."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    out: dict[str, str] = {}
    first: dict[str, int] = {}  # key -> line
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if first.setdefault(key, lineno) != lineno:
            raise FormatError(f"{path}:{lineno}: repeated key {key!r} (first on line {first[key]})")
        out[key] = value
    return out


def _parse_setting(key: str, text: str, hint):
    """A config value's text as `hint`, the declared type of the setting `key`
    names: str (double quotes optional), bool (true or false in any case), int,
    float (integer text stays an int), `X | None` as X, tuples comma-separated."""
    if typing.get_origin(hint) is tuple:
        parts = text.split(",")
        args = typing.get_args(hint)
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(parts)
        if len(parts) == len(args):
            try:
                return tuple(_parse_setting(key, part.strip(), arg) for part, arg in zip(parts, args))
            except ConfigError:
                pass
    elif isinstance(hint, types.UnionType):
        return _parse_setting(key, text, next(a for a in typing.get_args(hint) if a is not type(None)))
    elif hint is str:
        return text[1:-1] if len(text) >= 2 and text[0] == text[-1] == '"' else text
    elif hint is bool:
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
    elif hint in (int, float):
        for parse in (int, float) if hint is float else (int,):
            try:
                return parse(text)
            except ValueError:
                pass
    name = hint.__name__ if isinstance(hint, type) else str(hint)
    raise ConfigError(f"config key {key!r} expects {name}, got {text!r}")


class _Config:
    """A config file's key -> value text. A value is parsed when a command
    reads it, as the type of the setting its key names."""

    def __init__(self, text: dict[str, str]):
        self.text = text
        self.read: set[str] = set()

    def get(self, key: str, hint, default):
        if key not in self.text:
            return default
        self.read.add(key)
        return _parse_setting(key, self.text[key], hint)

    def settings(self, cls, given: dict, derived: dict | None = None):
        """`cls` from, highest first: the flags given (None = not given),
        this file, values derived from the data, and `cls`'s defaults."""
        given = {k: v for k, v in given.items() if v is not None}
        hints = typing.get_type_hints(cls)
        from_file = {k: self.get(k, hints[k], None) for k in hints if k in self.text and k not in given}
        return cls(**{**(derived or {}), **from_file, **given})


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """What byte-reproducibility rests on: the interpreter, numpy, the BLAS
    build and the BLAS thread settings (None where a variable is unset).
    numpy and the BLAS are None when the command loaded no numpy."""
    np = sys.modules.get("numpy")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}) if np else {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__ if np else None,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


class _Run:
    """Collects inputs/outputs for the manifest while a command executes.
    Its config hash covers the config file's text and every flag but --out,
    --config and those naming input files, whose digests `inputs` holds;
    of `--ranked name=path` only the names are hashed, as they head the
    report's columns. --out is made at the first artifact, so a command
    that fails before writing leaves no directory."""

    def __init__(self, args, config: _Config):
        self.command = args.command
        self.outdir = Path(args.out)
        unhashed = ("command", "out", "config", "data", "interactions", "embeddings", "model", "predictions",
                    "scores", "actives")
        flags = {k: v for k, v in vars(args).items() if k not in unhashed}
        if flags.get("ranked"):
            flags["ranked"] = [spec.split("=", 1)[0] for spec in flags["ranked"]]
        self.config = {"config": config.text, "flags": flags}
        self.seeds: list[int] = []  # set by the commands that draw random numbers
        self.inputs: dict[str, str] = {}
        self.artifacts: list[str] = []
        self.t0 = time.monotonic()

    def track_input(self, path) -> Path:
        path = Path(path)
        if not path.is_file():
            raise FormatError(f"unreadable input file: {path}")
        self.inputs[str(path)] = sha256_file(path)
        return path

    def artifact(self, name: str) -> Path:
        self.outdir.mkdir(parents=True, exist_ok=True)
        path = self.outdir / name
        self.artifacts.append(str(path))
        return path

    def write_json(self, name: str, payload: dict) -> None:
        self.artifact(name).write_text(json_text(payload), encoding="utf-8")

    def finish(self) -> None:
        cfg = json.dumps(self.config, sort_keys=True, default=str)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        manifest = {
            "command": self.command,
            "config_hash": sha256_bytes(cfg.encode("utf-8")),
            "seeds": self.seeds,
            "inputs": self.inputs,
            "artifacts": sorted(self.artifacts),
            "wall_time_s": round(time.monotonic() - self.t0, 3),
            # ru_maxrss (KiB on Linux) / 1024; counts the launching process's high-water mark too
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "minor_faults": usage.ru_minflt,
            "environment": environment(),
        }
        self.write_json("manifest.json", manifest)  # joins self.artifacts after the sorted copy above


def _load_bundle(run: _Run, args):
    """The stores under --embeddings (default --data), DATA/smiles.tsv when
    present and --interactions (default DATA/interactions.tsv)."""
    from .embeddings import load_embeddings, load_interactions, load_smiles
    from .training import DatasetBundle

    d = Path(args.data)
    e = Path(args.embeddings) if args.embeddings else d

    def store(name: str, modality: str, required: bool = True):
        """`<name>.bin` when present, else `<name>.jsonl`; None for an absent optional store."""
        binary, jsonl = e / f"{name}.bin", e / f"{name}.jsonl"
        if binary.is_file() and jsonl.is_file():
            raise DataError(f"both {binary} and {jsonl} hold the {modality} embeddings; keep one")
        path = binary if binary.is_file() else jsonl
        return load_embeddings(run.track_input(path), modality) if required or path.is_file() else None

    drugs, proteins = store("drugs", "drug"), store("proteins", "protein")
    pockets = store("pockets", "pocket", required=False)
    smiles = None
    if (d / "smiles.tsv").is_file():
        smiles = load_smiles(run.track_input(d / "smiles.tsv"))
    inter_path = Path(args.interactions) if args.interactions else d / "interactions.tsv"
    records = load_interactions(run.track_input(inter_path))
    return DatasetBundle(drugs=drugs, proteins=proteins, pockets=pockets, smiles=smiles, interactions=records)


# -- commands ---------------------------------------------------------------


def cmd_gen_synth(args, config: _Config, run: _Run) -> None:
    from . import synthetic

    cfg = config.settings(synthetic.SyntheticConfig, {"seed": args.seed})
    run.seeds = [cfg.seed]
    data = synthetic.gen_synthetic(cfg)
    run.artifacts += map(str, data.write(run.outdir))
    log.info("wrote synthetic fixture to %s", run.outdir)


def cmd_split(args, config: _Config, run: _Run) -> None:
    from . import pipeline
    from .embeddings import load_interactions, save_interactions

    spec = config.settings(pipeline.SplitSpec, {"strategy": args.strategy, "seed": args.seed})
    run.seeds = [spec.seed]
    records = load_interactions(run.track_input(Path(args.data) / "interactions.tsv"))
    tagged = pipeline.split(records, spec)
    if spec.balance_train:
        tagged = pipeline.balance_train(tagged, seed=splitmix64(spec.seed, 7))
    save_interactions(tagged, run.artifact("interactions.tsv"))


def cmd_train(args, config: _Config, run: _Run) -> None:
    from . import model as model_mod, training

    mode = "regression" if args.mode == "dta" else "classification"
    run.seeds = [args.seed or 0]
    data = _load_bundle(run, args)

    derived = {"drug_dim": data.drugs.width, "protein_dim": data.proteins.width}
    # a pocket branch when a row that train reads names a pocket
    if data.pockets is not None and any(r.pocket_id for r in data.interactions if r.split != "unassigned"):
        derived["pocket_dim"] = data.pockets.width
    if data.smiles is None:
        derived["alpha_recon"] = 0.0
    model_config = config.settings(model_mod.ModelConfig, {"mode": mode}, derived)

    n_seeds = config.get("n_seeds", int, 1)
    seeds = tuple(splitmix64(args.seed or 0, i) % (2**31) for i in range(n_seeds))
    lr = 5e-5 if mode == "classification" else 1e-4
    train_config = config.settings(training.TrainConfig, {"seeds": seeds}, {"lr": lr})

    state, report = training.train(model_config, data, train_config)
    model_mod.save_checkpoint(state, run.artifact("model.tdti"))
    run.artifact("model.tdti.json")
    run.artifact("train_report.json").write_text(report.to_json(), encoding="utf-8")
    log.info("test metrics: %s", report.test_mean)


def cmd_predict(args, config: _Config, run: _Run) -> None:
    from . import model as model_mod, training
    from .embeddings import SPLITS

    which = config.get("predict_split", str, "test")
    if which not in (*SPLITS, "all"):
        raise ConfigError(f"config key 'predict_split' expects one of {(*SPLITS, 'all')}, got {which!r}")
    state = model_mod.load_checkpoint(run.track_input(args.model))
    data = _load_bundle(run, args)
    records = data.subset(which) if which != "all" else data.interactions
    if not records:
        raise DataError(f"no records in split {which!r} to predict")
    screening.save_predictions(training.evaluate(state, data, records), run.artifact("predictions.tsv"))


def cmd_rank(args, config: _Config, run: _Run) -> None:
    preds = screening.load_predictions(run.track_input(args.predictions))
    if args.target:
        preds = screening.take(preds, [i for i, t in enumerate(preds["target_id"]) if t == args.target])
        if not preds["drug_id"]:
            raise DataError(f"no predictions for target {args.target!r}")
    elif len(set(preds["target_id"])) > 1:
        raise DataError(f"predictions cover {len(set(preds['target_id']))} targets; pick one with --target")
    # ascending = better for all criteria: negate our higher-is-stronger
    # outputs, each row's affinity_pred, else prob, else logit
    strength = zip(preds["affinity_pred"], preds["prob"], preds["logit"])
    scores = [-(aff if aff is not None else prob if prob is not None else logit) for aff, prob, logit in strength]
    table = {"compound_id": preds["drug_id"], "score": scores, "label": preds["pred_label"],
             "confidence": preds["confidence"], "unfamiliarity": preds["unfamiliarity"]}
    if args.unf_threshold is not None:
        table, census = screening.filter_unfamiliar(table, args.unf_threshold)
        run.write_json("filter_census.json", census)
        if not table["compound_id"]:
            raise DataError("no compounds below the unfamiliarity threshold")
    ranked = screening.rank(table, args.ranking)
    positions = ((str(i), cid) for i, cid in enumerate(ranked, 1))
    write_tsv(run.artifact("ranked.tsv"), ("rank", "compound_id"), positions)


def _parse_k_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(k) for k in text.split(","))
    except ValueError:
        raise UsageError(f"--k-grid expects comma-separated numbers, got {text!r}") from None
    if len(set(grid)) != len(grid) or not all(0 < k <= 100 for k in grid):  # nan fails every compare
        raise UsageError(f"--k-grid expects distinct percentages in (0, 100], got {text!r}")
    return grid


def cmd_enrich(args, config: _Config, run: _Run) -> None:
    k_grid = _parse_k_grid(args.k_grid)
    run.seeds = [args.seed or 0]
    actives = screening.load_actives(run.track_input(args.actives))

    rankings: dict[str, list[str]] = {}

    def claim(name: str) -> str:
        """The report keys its columns by method name, so each must be new."""
        if name == "random":
            raise UsageError("method name 'random' is reserved for the random-baseline column")
        if name in rankings:
            raise UsageError(f"method name {name!r} is given more than once")
        return name

    for spec in args.ranked or ():
        if "=" not in spec:
            raise UsageError(f"--ranked expects name=path, got {spec!r}")
        name, path = spec.split("=", 1)
        rankings[claim(name)] = screening.load_ranked(run.track_input(path))
    if args.scores:
        table = screening.load_scores(run.track_input(args.scores))
        methods = table["method"]
        for method in sorted(set(methods)):
            rows = [i for i, m in enumerate(methods) if m == method]
            rankings[claim(method)] = screening.rank(screening.take(table, rows), args.ranking)
    if not rankings:
        raise UsageError("provide --ranked name=path and/or --scores")

    report = screening.enrichment_report(rankings, actives, k_grid=k_grid)
    if args.format in ("json", "both"):
        run.write_json("enrichment.json", report)
    if args.format in ("tsv", "both"):
        run.artifact("enrichment.tsv").write_text(screening.enrichment_tsv(report), encoding="utf-8")


def cmd_report(args, config: _Config, run: _Run) -> None:
    from .embeddings import load_interactions
    from .metrics import confusion_confidence, metric_bundle

    mode = args.mode or "dti"
    preds = screening.load_predictions(run.track_input(args.predictions))
    column = "prob" if mode == "dti" else "affinity_pred"
    predicted = preds[column]
    if None in predicted:
        raise MissingColumnError(f"{args.predictions}: {column} required for {mode} report")
    truth = {(r.drug_id, r.target_id): r for r in load_interactions(run.track_input(args.interactions))}
    keys = list(zip(preds["drug_id"], preds["target_id"]))
    missing = [k for k in keys if k not in truth]
    if missing:
        raise DataError(f"{len(missing)} predictions lack ground truth, e.g. {missing[:3]}")

    field = "label" if mode == "dti" else "affinity"
    actual = [getattr(truth[k], field) for k in keys]
    if None in actual:
        raise MissingColumnError(f"{args.interactions}: ground-truth {field} required for {mode} report")
    payload: dict = {"n": len(keys), **metric_bundle(mode == "dti", predicted, actual)}
    confs = preds["confidence"]
    if mode == "dti" and None not in confs:
        payload["confusion_confidence"] = confusion_confidence(actual, predicted, confs)
    if args.unf_threshold is not None:
        table = {"compound_id": keys, "score": preds["logit"], "label": preds["pred_label"],
                 "unfamiliarity": preds["unfamiliarity"]}
        _, payload["filter_census"] = screening.filter_unfamiliar(table, args.unf_threshold)
    run.write_json("metrics.json", payload)


# -- wiring -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="tensordti", description="interaction model + screening analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help=None):
        """--out and --config; --seed only where `seed_help` says what it seeds."""
        p.add_argument("--out", required=True, help="output directory")
        if seed_help:
            p.add_argument("--seed", type=int, help=seed_help)
        p.add_argument("--config", help="key=value config file")

    p = sub.add_parser("gen-synth", help="write a synthetic planted-structure fixture")
    common(p, "default: the config file's seed, else 0")

    p = sub.add_parser("split", help="tag interactions with train/valid/test")
    common(p, "default: the config file's seed, else 0")
    p.add_argument("--data", required=True)
    p.add_argument("--strategy", choices=SPLIT_STRATEGIES, help="default: the config file's strategy, else random")

    p = sub.add_parser("train", help="train a model")
    common(p, "master seed of the runs (default: 0)")
    p.add_argument("--data", required=True)
    p.add_argument("--interactions", help="override DATA/interactions.tsv")
    p.add_argument("--embeddings", help="directory of embedding stores (default: DATA)")
    p.add_argument("--mode", choices=("dti", "dta"), help="default: dti")

    p = sub.add_parser("predict", help="score records with a checkpoint")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--interactions")
    p.add_argument("--embeddings", help="directory of embedding stores (default: DATA)")
    p.add_argument("--model", required=True)

    p = sub.add_parser("rank", help="rank compounds for one target")
    common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--ranking", choices=screening.CRITERIA, default="two_key")
    p.add_argument("--target")
    p.add_argument("--unf-threshold", type=_finite_float, default=None)

    p = sub.add_parser("enrich", help="enrichment report over ranked libraries")
    common(p, "recorded in the manifest only: the random baseline is exact")
    p.add_argument("--ranked", action="append", help="name=path of a ranked.tsv (repeatable)")
    p.add_argument("--scores", help="score table TSV (compound_id method score ...)")
    p.add_argument("--ranking", choices=screening.CRITERIA, default="two_key")
    p.add_argument("--actives", required=True)
    p.add_argument("--k-grid", default=",".join(f"{k:g}" for k in screening.DEFAULT_K_GRID))
    p.add_argument("--format", choices=("tsv", "json", "both"), default="both")

    p = sub.add_parser("report", help="metric bundle from predictions + ground truth")
    common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--interactions", required=True)
    p.add_argument("--mode", choices=("dti", "dta"), help="default: dti")
    p.add_argument("--unf-threshold", type=_finite_float, default=None)
    return parser


COMMANDS = {
    "gen-synth": cmd_gen_synth,
    "split": cmd_split,
    "train": cmd_train,
    "predict": cmd_predict,
    "rank": cmd_rank,
    "enrich": cmd_enrich,
    "report": cmd_report,
}


def _setup_logging() -> None:
    level = os.environ.get("TDTI_LOG", "info").lower()
    logging.basicConfig(
        level={"debug": logging.DEBUG, "info": logging.INFO, "quiet": logging.ERROR}.get(level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        config = _Config(_parse_config_file(args.config) if args.config else {})
        run = _Run(args, config)
        COMMANDS[args.command](args, config, run)
        run.finish()
        unread = [k for k in config.text if k not in config.read]
        if unread:
            log.warning("config keys that set nothing %s reads: %s", args.command, ", ".join(unread))
        return 0
    except TdtiError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    except OSError as exc:
        print(f"ERROR IO: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
