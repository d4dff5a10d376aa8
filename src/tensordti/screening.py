"""Virtual-screening analytics: the predictions, score and actives tables,
ranking criteria, recall/EF, screening-budget metrics, exact random-ranking
baselines, unfamiliarity filtering, and the combined enrichment report.

Budget metrics answer "what fraction of the ranked library must be screened
to recover ...". Target counts use ceil with a small tolerance so that e.g.
20% of 375 actives is 75, not 76.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from ._util import parse_number, read_tsv, write_tsv
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
class ScoreRow:
    compound_id: str
    method: str
    score: float | None = None
    label: int | None = None
    confidence: float | None = None
    unfamiliarity: float | None = None
    potency: float | None = None


SCORE_COLUMNS = ("compound_id", "method", "score", "label", "confidence", "unfamiliarity", "potency")


def load_scores(path: str | Path) -> list[ScoreRow]:
    rows = read_tsv(path, key=("compound_id", "method"))
    header = next(rows)
    for col in ("compound_id", "method", "score"):
        if col not in header:
            raise MissingColumnError(f"{path}: missing column {col!r}")
    unknown = [c for c in header if c not in SCORE_COLUMNS]
    if unknown:
        raise FormatError(f"{path}: unknown columns {unknown}")
    pos = {c: i for i, c in enumerate(header)}
    out = []
    for where, fields in rows:

        def get(col, cast):
            raw = fields[pos[col]] if col in pos else ""
            return parse_number(raw, cast, where, col) if raw else None

        out.append(
            ScoreRow(
                compound_id=fields[pos["compound_id"]],
                method=fields[pos["method"]],
                score=get("score", float),
                label=get("label", int),
                confidence=get("confidence", float),
                unfamiliarity=get("unfamiliarity", float),
                potency=get("potency", float),
            )
        )
    return out


PREDICTION_COLUMNS = (
    "drug_id", "target_id", "logit", "prob", "pred_label", "affinity_pred", "confidence", "unfamiliarity"
)


def save_predictions(columns: dict[str, list], path: str | Path) -> None:
    """Write the PREDICTION_COLUMNS of `columns`, one row per pair; None
    is an empty field."""
    rows = zip(*(columns[c] for c in PREDICTION_COLUMNS))
    write_tsv(path, PREDICTION_COLUMNS, (["" if v is None else str(v) for v in row] for row in rows))


def load_predictions(path: str | Path) -> dict[str, list]:
    """predictions.tsv as one list per column, in PREDICTION_COLUMNS order;
    an empty field is None, except that every row needs a logit."""
    rows = read_tsv(path, PREDICTION_COLUMNS, key=("drug_id", "target_id"))
    next(rows)
    columns = {c: [] for c in PREDICTION_COLUMNS}
    drugs, targets, *numbers = columns.values()
    casts = (float, float, int, float, float, float)
    for where, (d, t, *fields) in rows:
        drugs.append(d)
        targets.append(t)
        for out, name, cast, raw in zip(numbers, PREDICTION_COLUMNS[2:], casts, fields):
            out.append(parse_number(raw, cast, where, name) if raw or name == "logit" else None)
    return columns


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


def rank(rows: list[ScoreRow], criterion: str) -> list[str]:
    """Compound ids in total order under the chosen criterion; ties break by
    id ascending. Each id is on one row: the table readers refuse a repeated key.

    docking / affinity: most favorable (lowest) score first.
    two_key: predicted positives first, then confidence ascending within
    each label (lower confidence = more certain).
    """
    if criterion not in CRITERIA:
        raise ConfigError(f"unknown ranking criterion {criterion!r}")
    if not rows:
        raise DataError("nothing to rank")
    if criterion == "two_key":
        for r in rows:
            if r.label is None:
                raise MissingColumnError(f"two_key ranking needs a label for {r.compound_id!r}")
            if r.confidence is None:
                raise MissingColumnError(f"two_key ranking needs a confidence for {r.compound_id!r}")
        ordered = sorted(rows, key=lambda r: (0 if r.label == 1 else 1, r.confidence, r.compound_id))
    else:
        for r in rows:
            if r.score is None:
                raise MissingColumnError(f"{criterion} needs a score for {r.compound_id!r}")
        ordered = sorted(rows, key=lambda r: (r.score, r.compound_id))
    return [r.compound_id for r in ordered]


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


def filter_unfamiliar(rows: list[ScoreRow], threshold: float) -> tuple[list[ScoreRow], list[dict]]:
    """Keep rows with unfamiliarity strictly below the threshold; one
    WARNING when that drops more than 90% of them.

    The census mirrors the reliability-filter table: one row per population
    (predicted positives / negatives by label, else 'all') with the total,
    the docked count (rows with a score) and the retained count.
    """
    for r in rows:
        if r.unfamiliarity is None:
            raise MissingColumnError(f"unfamiliarity missing for {r.compound_id!r}")
    kept = [r for r in rows if r.unfamiliarity < threshold]
    if 10 * (len(rows) - len(kept)) > 9 * len(rows):
        log.warning(
            "unfamiliarity threshold %g drops %d of %d rows (more than 90%%)",
            threshold, len(rows) - len(kept), len(rows),
        )

    def population(r: ScoreRow) -> str:
        if r.label == 1:
            return "predicted_positive"
        if r.label == 0:
            return "predicted_negative"
        return "all"

    census = []
    for pop in sorted({population(r) for r in rows}):
        members = [r for r in rows if population(r) == pop]
        census.append(
            {
                "population": pop,
                "total": len(members),
                "docked": sum(1 for r in members if r.score is not None),
                "unfamiliar_below": sum(1 for r in members if r.unfamiliarity < threshold),
            }
        )
    return kept, census


@dataclass
class EnrichmentReport:
    n_library: int
    n_actives: int
    k_grid: tuple[float, ...]
    target_counts: dict[float, int]
    ar_budget: dict[str, dict[float, float]]
    recall: dict[str, dict[float, float]]
    ef: dict[str, dict[float, float]]
    topk_budget: dict[str, dict[float, float]] | None = None
    random_sd: dict[str, dict[float, float]] = field(default_factory=dict)

    def to_json(self) -> str:
        def keyed(d):
            if d is None:
                return None
            return {m: {str(k): v for k, v in row.items()} for m, row in d.items()}

        payload = {
            "n_library": self.n_library,
            "n_actives": self.n_actives,
            "k_grid": list(self.k_grid),
            "target_counts": {str(k): v for k, v in self.target_counts.items()},
            "ar_budget": keyed(self.ar_budget),
            "recall": keyed(self.recall),
            "ef": keyed(self.ef),
            "topk_budget": keyed(self.topk_budget),
            "random_sd": keyed(self.random_sd),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_tsv(self) -> str:
        lines = [f"# library N={self.n_library} actives A={self.n_actives}"]

        def section(title, table):
            methods = list(table)
            lines.append(f"## {title}")
            lines.append("\t".join(["k_percent", "n_actives_at_k"] + methods))
            for k in self.k_grid:
                row = [f"{k:g}", str(self.target_counts[k])]
                row += [f"{table[m][k]:.2f}" for m in methods]
                lines.append("\t".join(row))

        section("kpct_actives_budget", self.ar_budget)
        if self.topk_budget is not None:
            section("topk_potency_budget", self.topk_budget)
        section("recall_at_fraction", self.recall)
        section("ef_at_fraction", self.ef)
        return "\n".join(lines) + "\n"


def enrichment_report(
    rankings: dict[str, list[str]],
    actives: ActiveSet,
    k_grid: tuple[float, ...] = DEFAULT_K_GRID,
) -> EnrichmentReport:
    """Budget/recall/EF tables for every method over the k grid, plus the
    exact random-ranking column with its SD in `random_sd`."""
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

    target_counts = {k: max(1, ceil_count(k * a / 100.0)) for k in k_grid}
    ar: dict[str, dict[float, float]] = {}
    recall: dict[str, dict[float, float]] = {}
    ef: dict[str, dict[float, float]] = {}
    topk: dict[str, dict[float, float]] = {}
    has_potency = actives.potency is not None

    for mname, ranked in rankings.items():
        ar[mname] = {k: kpct_actives_budget(ranked, actives, k) for k in k_grid}
        cutoffs = {k: min(n, max(1, ceil_count(k * n / 100.0))) for k in k_grid}
        recall[mname] = {k: recall_at_k(ranked, actives, cutoffs[k]) for k in k_grid}
        ef[mname] = {k: ef_at_k(ranked, actives, cutoffs[k]) for k in k_grid}
        if has_potency:
            topk[mname] = {k: topk_potency_budget(ranked, actives, k) for k in k_grid}

    ar["random"], random_sd = {}, {"ar_budget": {}}
    for k, t in target_counts.items():
        ar["random"][k], random_sd["ar_budget"][k] = random_budget(n, a, t)
    if has_potency:
        topk["random"], random_sd["topk_budget"] = {}, {}
        for k, m in target_counts.items():
            topk["random"][k], random_sd["topk_budget"][k] = random_budget(n, m, m)

    return EnrichmentReport(
        n_library=n,
        n_actives=a,
        k_grid=tuple(k_grid),
        target_counts=target_counts,
        ar_budget=ar,
        recall=recall,
        ef=ef,
        topk_budget=topk if has_potency else None,
        random_sd=random_sd,
    )


def load_actives(path: str | Path) -> ActiveSet:
    """TSV `compound_id [potency]`."""
    rows = read_tsv(path, key=("compound_id",))
    header = next(rows)
    if header not in (["compound_id"], ["compound_id", "potency"]):
        raise FormatError(f"{path}: header {header} != ['compound_id'[, 'potency']]")
    ids: set[str] = set()
    potency: dict[str, float] = {}
    for where, fields in rows:
        ids.add(fields[0])
        if len(fields) == 2:
            if not fields[1]:
                raise FormatError(f"{where}: empty potency")
            potency[fields[0]] = parse_number(fields[1], float, where, "potency")
    return ActiveSet(ids=frozenset(ids), potency=potency if potency else None)
