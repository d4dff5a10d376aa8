"""Small shared helpers: seed derivation, hashing, JSON file text, the TSV
table format every table reader and writer goes through, and the split
strategy names that the CLI parser and `pipeline` share."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import types
import typing
from pathlib import Path

from .errors import ConfigError, DataError, FormatError, MissingColumnError

_MASK64 = (1 << 64) - 1

# rows per block that write_tsv formats, checks and writes at once
TSV_BLOCK_ROWS = 4096

SPLIT_STRATEGIES = ("random", "unseen_drug", "unseen_target", "external_tag")


def splitmix64(seed: int, index: int = 0) -> int:
    """Derive a child seed from (master seed, index).

    Standard splitmix64 finalizer; used everywhere a sub-stream is needed
    (fixtures, model init, per-epoch shuffles, class balancing, per-run
    seeds), so each stream depends only on the master seed and its index.
    """
    z = (int(seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_text(payload) -> str:
    """A JSON file's text: keys sorted, two-space indent, a final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_number(raw: str, cast, where: str, field: str):
    """cast(raw) for one TSV field. A non-number, nan or inf raises a
    FormatError naming `where` (path:line) and the field: nan or inf would
    make every later comparison meaningless."""
    try:
        value = cast(raw)
    except ValueError:
        raise FormatError(f"{where}: {field} {raw!r} is not a valid {cast.__name__}") from None
    if not math.isfinite(value):
        raise FormatError(f"{where}: {field} {raw!r} is not finite")
    return value


def check_floats(config, **rules: str) -> None:
    """Raise a ConfigError naming the first field of `config` in `rules`
    whose value is nan, infinite or breaks its rule: "" (none), ">= 0" or
    "> 0". A plain `x < 0` check lets nan through: every compare is false."""
    for name, rule in rules.items():
        value = getattr(config, name)
        if not -math.inf < value < math.inf or (rule == ">= 0" and value < 0) or (rule == "> 0" and value <= 0):
            raise ConfigError(f"{name} must be a finite number {rule}".rstrip() + f", got {value!r}")


def read_tsv(path: str | Path, header: tuple[str, ...] | None = None, key: tuple[str, ...] = ()):
    """Stream a UTF-8 TSV table: yield its header (a list of column names)
    first, then (where, fields) for every row that is not blank, `where`
    being "path:line". A repeated column name, a header other than `header`
    (when given), a row whose field count differs from the header, a row
    whose `key` columns repeat an earlier row's, or bytes that are not UTF-8
    raise a FormatError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            got = f.readline().rstrip("\n").split("\t")
            if len(set(got)) != len(got):
                raise FormatError(f"{path}: repeated column name in header {got}")
            if header is not None and got != list(header):
                raise FormatError(f"{path}: header {got} != {list(header)}")
            yield got
            pick = operator.itemgetter(*(got.index(c) for c in key)) if key else None
            single = len(key) == 1
            first: dict[str, int] = {}  # key fields joined by a tab, which no field holds -> line
            prefix = f"{path}:"
            for lineno, line in enumerate(f, 2):
                if not line.strip():
                    continue
                fields = line.rstrip("\n").split("\t")
                if len(fields) != len(got):
                    raise FormatError(f"{prefix}{lineno}: expected {len(got)} fields, got {len(fields)}")
                if pick:
                    value = pick(fields)  # the field for a one-column key, else a tuple
                    k = value if single else "\t".join(value)
                    if first.setdefault(k, lineno) != lineno:
                        shown = value if single else list(value)
                        raise FormatError(
                            f"{prefix}{lineno}: repeated {', '.join(key)} {shown!r} (first on line {first[k]})"
                        )
                yield f"{prefix}{lineno}", fields
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None


def read_columns(path: str | Path, columns: dict, key: tuple[str, ...], required=(), header=None) -> dict[str, list]:
    """The TSV table at `path` as one list per name in `columns`, a row per
    index. The header must hold `required` and nothing outside `columns`; a
    column it lacks is None in every row. Each field is parsed as its
    column's type: `str` needs non-empty text, `int` and `float` go through
    `parse_number`, `Literal[...]` takes only the exact text of one of its
    values, and `X | None` reads an empty field as None."""
    rows = read_tsv(path, header, key=key)
    got = next(rows)
    if missing := [c for c in required if c not in got]:
        raise MissingColumnError(f"{path}: missing column {missing[0]!r}")
    if unknown := [c for c in got if c not in columns]:
        raise FormatError(f"{path}: unknown columns {unknown}")
    table = {c: [] for c in columns}
    parsers = []  # (append, name, kind, optional) per header column; a Literal's kind is {text: value}
    for name in got:
        hint = columns[name]
        optional = typing.get_origin(hint) in (typing.Union, types.UnionType)
        kind = typing.get_args(hint)[0] if optional else hint
        if typing.get_origin(kind) is typing.Literal:
            kind = {str(v): v for v in typing.get_args(kind)}
        parsers.append((table[name].append, name, kind, optional))
    for where, fields in rows:
        for (append, name, kind, optional), raw in zip(parsers, fields):
            if kind is str and raw:
                append(raw)
            elif not raw and optional:
                append(None)
            elif kind is str:
                raise FormatError(f"{where}: empty {name}")
            elif type(kind) is not dict:
                append(parse_number(raw, kind, where, name))
            elif raw in kind:
                append(kind[raw])
            else:
                raise FormatError(f"{where}: {name} {raw!r} is not one of {', '.join(kind)}")
    n = len(table[got[0]])
    return {c: values if c in got else [None] * n for c, values in table.items()}


def write_tsv(path: str | Path, header, rows) -> None:
    """Write the header line, then one line per row of strings, formatting
    and checking TSV_BLOCK_ROWS rows at a time. A field holding a tab, CR or
    LF could not be read back, so it raises a DataError, as does a row whose
    width differs from the header's."""
    width = len(header)
    lines = itertools.chain([header], rows)
    with open(path, "w", encoding="utf-8", newline="") as f:
        while block := list(itertools.islice(lines, TSV_BLOCK_ROWS)):
            text = "\n".join(map("\t".join, block)) + "\n"
            if (
                set(map(len, block)) != {width}
                or text.count("\t") != len(block) * (width - 1)
                or text.count("\n") != len(block)
                or "\r" in text
            ):
                bad = next(r for r in block if len(r) != width or any(c in "".join(r) for c in "\t\r\n"))
                raise DataError(f"{path}: row {list(bad)} is not {width} fields free of tab, CR and LF")
            f.write(text)
