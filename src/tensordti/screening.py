"""Virtual-screening analytics: the predictions, score and actives tables,
ranking criteria, recall/EF, screening-budget metrics, exact random-ranking
baselines, unfamiliarity filtering, and the combined enrichment report.

Budget metrics answer "what fraction of the ranked library must be screened
to recover ...". Target counts use ceil with a small tolerance so that e.g.
20% of 375 actives is 75, not 76.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

from ._util import read_columns, write_tsv
from .errors import ConfigError, DataError, FormatError, MissingColumnError, UsageError

log = logging.getLogger("tensordti")

CRITERIA = ("docking", "affinity", "two_key")

DEFAULT_K_GRID = (1.0, 5.0, 20.0, 50.0, 100.0)


def ceil_count(x: float) -> int:
    """ceil(x) that forgives float noise just below an integer."""
    r = round(x)
    if abs(x - r) < 1e-9:
        return int(r)
    return int(math.ceil(x))


@dataclass
class ActiveSet:
    ids: frozenset[str]
    potency: dict[str, float] | None = None  # higher = better

    def __post_init__(self):
        if len(self.ids) < 1:
            raise DataError("active set is empty")
        if self.potency is not None:
            missing = self.ids - set(self.potency)
            if missing:
                raise DataError(f"potency missing for actives {sorted(missing)[:5]}")


# a table is a dict from column name to one list of values, a row per index;
# the types are the column types of `_util.read_columns`
SCORE_COLUMNS = {
    "compound_id": str, "method": str, "score": float | None, "label": Literal[0, 1] | None,
    "confidence": float | None, "unfamiliarity": float | None, "potency": float | None,
}
PREDICTION_COLUMNS = {
    "drug_id": str, "target_id": str, "logit": float, "prob": float | None, "pred_label": Literal[0, 1] | None,
    "affinity_pred": float | None, "confidence": float | None, "unfamiliarity": float | None,
}


def take(table: dict[str, list], rows: list[int]) -> dict[str, list]:
    """The table's `rows`, in that order."""
    return {c: [values[i] for i in rows] for c, values in table.items()}


def load_scores(path: str | Path) -> dict[str, list]:
    """A score table, one list per name in SCORE_COLUMNS."""
    return read_columns(path, SCORE_COLUMNS, ("compound_id", "method"), required=("compound_id", "method", "score"))


def save_predictions(columns: dict[str, list], path: str | Path) -> None:
    """Write the PREDICTION_COLUMNS of `columns`, one row per pair; None
    is an empty field."""
    rows = zip(*(columns[c] for c in PREDICTION_COLUMNS))
    write_tsv(path, list(PREDICTION_COLUMNS), (["" if v is None else str(v) for v in row] for row in rows))


def load_predictions(path: str | Path) -> dict[str, list]:
    """predictions.tsv as one list per column, in PREDICTION_COLUMNS order;
    an empty field is None, except that every row needs its ids and a logit."""
    return read_columns(path, PREDICTION_COLUMNS, ("drug_id", "target_id"), header=PREDICTION_COLUMNS)


def load_actives(path: str | Path) -> ActiveSet:
    """TSV `compound_id [potency]`; a potency column needs a value on every row."""
    table = read_columns(path, {"compound_id": str, "potency": float}, ("compound_id",), required=("compound_id",))
    ids, potency = table["compound_id"], table["potency"]
    return ActiveSet(ids=frozenset(ids), potency=None if None in potency else dict(zip(ids, potency)))


def load_ranked(path: str | Path) -> list[str]:
    """TSV `rank compound_id`, rank 1..N in row order; the ids in rank order."""
    table = read_columns(path, {"rank": str, "compound_id": str}, ("compound_id",), header=("rank", "compound_id"))
    for i, (given, cid) in enumerate(zip(table["rank"], table["compound_id"]), 1):
        if given != str(i):
            raise FormatError(f"{path}: rank {given!r} of {cid!r} is not its row's position {i}")
    return table["compound_id"]


def _require(table: dict[str, list], column: str, message: str) -> None:
    """A MissingColumnError, `message` formatted with the id of the first row
    whose `column` is None, when there is one."""
    values = table[column]
    if None in values:
        raise MissingColumnError(message.format(table["compound_id"][values.index(None)]))


def rank(table: dict[str, list], criterion: str) -> list[str]:
    """Compound ids of a table in total order under the chosen criterion;
    ties break by id ascending. Each id is on one row: the table readers
    refuse a repeated key.

    docking / affinity: most favorable (lowest) score first.
    two_key: predicted positives first, then confidence ascending within
    each label (lower confidence = more certain).
    """
    if criterion not in CRITERIA:
        raise ConfigError(f"unknown ranking criterion {criterion!r}")
    ids = table["compound_id"]
    if not ids:
        raise DataError("nothing to rank")
    if criterion == "two_key":
        _require(table, "label", "two_key ranking needs a label for {!r}")
        _require(table, "confidence", "two_key ranking needs a confidence for {!r}")
        labels, confidences = table["label"], table["confidence"]
        order = sorted(range(len(ids)), key=lambda i: (0 if labels[i] == 1 else 1, confidences[i], ids[i]))
    else:
        _require(table, "score", criterion + " needs a score for {!r}")
        scores = table["score"]
        order = sorted(range(len(ids)), key=lambda i: (scores[i], ids[i]))
    return [ids[i] for i in order]


def _active_positions(ranked: list[str], actives: ActiveSet) -> list[int]:
    return [i + 1 for i, cid in enumerate(ranked) if cid in actives.ids]


def recall_at_k(ranked: list[str], actives: ActiveSet, k: int) -> float:
    """TP@k / A with k a compound count."""
    if not 1 <= k <= len(ranked):
        raise UsageError(f"k must be in [1, {len(ranked)}], got {k}")
    top = set(ranked[:k])
    return len(top & actives.ids) / len(actives.ids)


def ef_at_k(ranked: list[str], actives: ActiveSet, k: int) -> float:
    """Enrichment factor via the identity EF@k = Recall@k * N / k."""
    return recall_at_k(ranked, actives, k) * len(ranked) / k


def kpct_actives_budget(ranked: list[str], actives: ActiveSet, k_percent: float) -> float:
    """Smallest library percentage whose prefix holds >= ceil(k% of A)
    actives, regardless of potency."""
    if not 0 < k_percent <= 100:
        raise UsageError(f"k_percent must be in (0, 100], got {k_percent}")
    target = max(1, ceil_count(k_percent * len(actives.ids) / 100.0))
    positions = _active_positions(ranked, actives)
    if target > len(positions):
        raise DataError(
            f"cannot recover {target} actives: only {len(positions)} of "
            f"{len(actives.ids)} are present in the ranked library"
        )
    return 100.0 * positions[target - 1] / len(ranked)


def topk_potency_budget(ranked: list[str], actives: ActiveSet, k_percent: float) -> float:
    """Smallest library percentage whose prefix contains ALL of the
    ceil(k% of A) most potent actives (higher potency preferred, ties by id)."""
    if not 0 < k_percent <= 100:
        raise UsageError(f"k_percent must be in (0, 100], got {k_percent}")
    if actives.potency is None:
        raise MissingColumnError("top-k budget needs potencies on the active set")
    m = max(1, ceil_count(k_percent * len(actives.ids) / 100.0))
    by_potency = sorted(actives.ids, key=lambda cid: (-actives.potency[cid], cid))
    subset = set(by_potency[:m])
    positions = [i + 1 for i, cid in enumerate(ranked) if cid in subset]
    if len(positions) < m:
        raise DataError(f"{m - len(positions)} of the top-potency actives are missing from the library")
    return 100.0 * positions[-1] / len(ranked)


def random_budget(n: int, a: int, t: int) -> tuple[float, float]:
    """Exact mean and SD, in percent of N, of the budget a uniformly random
    ranking needs to recover t of a actives: the t-th smallest of a
    positions drawn without replacement from 1..N (David & Nagaraja, Order
    Statistics, 3rd ed., 2003). Covering all of m specific actives, the
    top-potency baseline, is t = a = m."""
    if not 1 <= t <= a <= n:
        raise UsageError(f"need 1 <= t <= A <= N, got t={t}, A={a}, N={n}")
    mean = 100 * t * (n + 1) / ((a + 1) * n)
    var = t * (a - t + 1) * (n + 1) * (n - a) / ((a + 1) ** 2 * (a + 2))
    return mean, 100.0 * math.sqrt(var) / n


def filter_unfamiliar(table: dict[str, list], threshold: float) -> tuple[dict[str, list], list[dict]]:
    """The table's rows with unfamiliarity strictly below the threshold; one
    WARNING when that drops more than 90% of them.

    The census mirrors the reliability-filter table: one row per population
    (predicted positives / negatives by label, else 'all') with the total,
    the docked count (rows with a score) and the retained count.
    """
    _require(table, "unfamiliarity", "unfamiliarity missing for {!r}")
    below = [u < threshold for u in table["unfamiliarity"]]
    kept = [i for i, b in enumerate(below) if b]
    n = len(below)
    if 10 * (n - len(kept)) > 9 * n:
        log.warning("unfamiliarity threshold %g drops %d of %d rows (more than 90%%)", threshold, n - len(kept), n)

    populations = [
        "predicted_positive" if label == 1 else "predicted_negative" if label == 0 else "all" for label in table["label"]
    ]
    census = []
    for pop in sorted(set(populations)):
        members = [i for i, p in enumerate(populations) if p == pop]
        census.append(
            {
                "population": pop,
                "total": len(members),
                "docked": sum(table["score"][i] is not None for i in members),
                "unfamiliar_below": sum(below[i] for i in members),
            }
        )
    return take(table, kept), census


def enrichment_report(
    rankings: dict[str, list[str]],
    actives: ActiveSet,
    k_grid: tuple[float, ...] = DEFAULT_K_GRID,
) -> dict:
    """The `enrichment.json` payload: budget, recall and EF tables that map
    each method, then str(k), to its value over the k grid. The budget tables
    end with the exact random-ranking column, whose SD is in `random_sd`;
    `topk_budget` is None when the actives carry no potencies."""
    if not rankings:
        raise UsageError("no rankings supplied")
    sizes = {m: len(r) for m, r in rankings.items()}
    if len(set(sizes.values())) != 1:
        raise DataError(f"library sizes differ across methods: {sizes}; align libraries first")
    n = next(iter(sizes.values()))
    for m, r in rankings.items():
        missing = actives.ids - set(r)
        if missing:
            raise DataError(f"method {m!r}: actives missing from library: {sorted(missing)[:5]}")
    a = len(actives.ids)
    cutoffs = {k: min(n, max(1, ceil_count(k * n / 100.0))) for k in k_grid}

    def table(metric) -> dict[str, dict[str, float]]:
        return {m: {str(k): metric(ranked, k) for k in k_grid} for m, ranked in rankings.items()}

    target_counts = {str(k): max(1, ceil_count(k * a / 100.0)) for k in k_grid}
    baselines = {"ar_budget": {k: random_budget(n, a, t) for k, t in target_counts.items()}}
    report = {
        "n_library": n,
        "n_actives": a,
        "k_grid": list(k_grid),
        "target_counts": target_counts,
        "ar_budget": table(lambda ranked, k: kpct_actives_budget(ranked, actives, k)),
        "recall": table(lambda ranked, k: recall_at_k(ranked, actives, cutoffs[k])),
        "ef": table(lambda ranked, k: ef_at_k(ranked, actives, cutoffs[k])),
        "topk_budget": None,
    }
    if actives.potency is not None:
        report["topk_budget"] = table(lambda ranked, k: topk_potency_budget(ranked, actives, k))
        baselines["topk_budget"] = {k: random_budget(n, t, t) for k, t in target_counts.items()}
    for name, pairs in baselines.items():
        report[name]["random"] = {k: mean for k, (mean, _) in pairs.items()}
    report["random_sd"] = {name: {k: sd for k, (_, sd) in pairs.items()} for name, pairs in baselines.items()}
    return report


def enrichment_tsv(report: dict) -> str:
    """enrichment.tsv from an `enrichment_report`: a section per table, a row
    per k and a column per method, in the report's order."""
    lines = [f"# library N={report['n_library']} actives A={report['n_actives']}"]
    sections = {"kpct_actives_budget": "ar_budget", "topk_potency_budget": "topk_budget",
                "recall_at_fraction": "recall", "ef_at_fraction": "ef"}
    for title, name in sections.items():
        if (table := report[name]) is None:
            continue
        lines += [f"## {title}", "\t".join(["k_percent", "n_actives_at_k", *table])]
        for k in report["k_grid"]:
            cells = [f"{table[m][str(k)]:.2f}" for m in table]
            lines.append("\t".join([f"{k:g}", str(report["target_counts"][str(k)]), *cells]))
    return "\n".join(lines) + "\n"
