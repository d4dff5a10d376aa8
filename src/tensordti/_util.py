"""Small shared helpers: seed derivation, hashing and TSV number fields."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from .errors import FormatError

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, index: int = 0) -> int:
    """Derive a child seed from (master seed, index).

    Standard splitmix64 finalizer; used everywhere a sub-stream is needed
    (per-epoch shuffles, per-shard sampling, per-run seeds) so that parallel
    or reordered work cannot perturb determinism.
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
