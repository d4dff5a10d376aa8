"""Embedding stores, interaction tables, and their on-disk formats.

Two embedding formats are supported and sniffed by magic:
  * JSON Lines, one ``{"id":…, "kind":…, "vec":[…]}`` object per line,
    the interchange format;
  * binary, magic ``TDTIEMB1`` + u32-LE width + records of
    (u16-LE id length, UTF-8 id, width x f32-LE), which ``gen-synth`` writes.

Interactions travel as TSV with header
``drug_id target_id pocket_id label affinity split`` (empty field = absent).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from ._util import read_columns, write_tsv
from .errors import DataError, FormatError

EMBEDDING_MAGIC = b"TDTIEMB1"
MODALITIES = ("drug", "protein", "pocket", "peptide", "rna")
SPLITS = ("train", "valid", "test", "unassigned")

# column types as `_util.read_columns` reads them
INTERACTION_COLUMNS = {
    "drug_id": str, "target_id": str, "pocket_id": str | None, "label": Literal[0, 1] | None,
    "affinity": float | None, "split": Literal[SPLITS] | None,
}
SMILES_COLUMNS = {"drug_id": str, "smiles": str}


class EmbeddingStore:
    """Immutable after load: id -> fixed-width float64 vector, one modality, held as
    one read-only (width, n) matrix (given as `matrix`, then the store's) and an id -> column dict."""

    def __init__(self, modality: str, ids=(), matrix=None):
        if modality not in MODALITIES:
            raise DataError(f"unknown modality {modality!r}")
        self.modality = modality
        self.width: int | None = None
        self._cols: dict[str, int] = {}
        self._matrix = np.empty((0, 0))
        if matrix is not None:
            self._hold(list(ids), matrix)

    def _hold(self, ids: list[str], matrix) -> None:
        """Check the store once, every value finite and every id distinct, then keep it."""
        m = np.ascontiguousarray(matrix, dtype=np.float64)
        finite = np.isfinite(m).all(axis=0)
        if not finite.all():
            raise FormatError(f"embedding {ids[int(np.argmin(finite))]!r}: non-finite entry")
        cols = dict(zip(ids, range(len(ids))))
        if len(cols) != len(ids):  # a repeated id's column is its last; name the first id that is off
            raise FormatError(f"duplicate embedding id {next(i for k, i in enumerate(ids) if cols[i] != k)!r}")
        m.flags.writeable = False
        self.width, self._cols, self._matrix = m.shape[0], cols, m

    def add(self, rec_id: str, vec) -> None:
        """Append one vector; copies the matrix, so readers build their store in one call."""
        v = np.asarray(vec, dtype=np.float64).reshape(-1, 1)
        if not np.all(np.isfinite(v)):
            raise FormatError(f"embedding {rec_id!r}: non-finite entry")
        if self.width is not None and v.size != self.width:
            raise FormatError(f"embedding {rec_id!r}: width {v.size} != store width {self.width}")
        self._hold([*self._cols, rec_id], v if self.width is None else np.hstack([self._matrix, v]))

    def __len__(self):
        return len(self._cols)

    def ids(self) -> list[str]:
        return list(self._cols)

    def _columns(self, ids: list[str]) -> list[int]:
        """The ids' columns; an unknown id is a DataError naming up to 10 of
        them and how many distinct ids are unknown."""
        try:
            return [self._cols[i] for i in ids]
        except KeyError:
            unknown = sorted(set(ids).difference(self._cols))
            raise DataError(f"unknown {self.modality} ids {unknown[:10]} ({len(unknown)} total)") from None

    def get(self, rec_id: str) -> np.ndarray:
        """The id's column, a read-only view."""
        return self._matrix[:, self._columns([rec_id])[0]]

    def matrix(self, ids: list[str]) -> np.ndarray:
        """Column matrix (width, len(ids)) in the given order: a new C-contiguous array."""
        return self._matrix.take(self._columns(ids), axis=1)


def load_embeddings(path: str | Path, modality: str) -> EmbeddingStore:
    """The store at `path` in either format; one with no records is refused,
    as it has no width to size a model by."""
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(len(EMBEDDING_MAGIC))
    store = _load_binary(path, modality) if head == EMBEDDING_MAGIC else _load_jsonl(path, modality)
    if store.width is None:
        raise FormatError(f"{path}: no embeddings")
    return store


def _load_jsonl(path: Path, modality: str) -> EmbeddingStore:
    """Each line is checked, its values too, as it is read; the matrix is
    built once, from the lines' vectors."""
    ids: dict[str, None] = {}
    vecs: list[np.ndarray] = []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise FormatError(f"{where}: not UTF-8 text: {exc}") from None
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise FormatError(f"{where}: bad JSON: {exc}") from None
            if not isinstance(rec, dict):
                raise FormatError(f"{where}: expected a JSON object")
            for key in ("id", "kind", "vec"):
                if key not in rec:
                    raise FormatError(f"{where}: missing field {key!r}")
            rec_id, vec = rec["id"], rec["vec"]
            if not isinstance(rec_id, str):
                raise FormatError(f"{where}: id {rec_id!r} is not a string")
            if rec["kind"] != modality:
                raise FormatError(f"{where}: record {rec_id!r} has kind {rec['kind']!r}, expected {modality!r}")
            # a flat list of JSON numbers; a bool is an int subclass, so compare types exactly
            if not isinstance(vec, list) or not vec or not set(map(type, vec)) <= {int, float}:
                raise FormatError(f"{where}: vec of {rec_id!r} is not a list of numbers, or is empty")
            try:
                v = np.array(vec, dtype=np.float64)
            except OverflowError as exc:  # an int past float64
                raise FormatError(f"{where}: {exc}") from None
            if not np.isfinite(v).all():
                raise FormatError(f"{where}: embedding {rec_id!r}: non-finite entry")
            if vecs and v.size != vecs[0].size:
                raise FormatError(f"{where}: embedding {rec_id!r}: width {v.size} != store width {vecs[0].size}")
            if rec_id in ids:
                raise FormatError(f"{where}: duplicate embedding id {rec_id!r}")
            ids[rec_id] = None
            vecs.append(v)
    return EmbeddingStore(modality, ids, np.stack(vecs, axis=1) if vecs else None)


def _load_binary(path: Path, modality: str) -> EmbeddingStore:
    data = path.read_bytes()
    if data[:8] != EMBEDDING_MAGIC:
        raise FormatError(f"{path}: bad magic")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header")
    (width,) = struct.unpack_from("<I", data, 8)
    if width == 0:
        raise FormatError(f"{path}: header width 0")
    ids, values, view = [], [], memoryview(data)  # the join below makes the only copy of the values
    off = 12
    while off < len(data):
        if off + 2 > len(data):
            raise FormatError(f"{path}: truncated record header")
        (id_len,) = struct.unpack_from("<H", data, off)
        off += 2
        if off + id_len + 4 * width > len(data):
            raise FormatError(f"{path}: truncated record body")
        try:
            ids.append(data[off : off + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: record id at byte {off} is not UTF-8: {exc}") from None
        off += id_len
        values.append(view[off : off + 4 * width])
        off += 4 * width
    matrix = np.frombuffer(b"".join(values), dtype="<f4").reshape(len(ids), width).T
    try:
        return EmbeddingStore(modality, ids, matrix if ids else None)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def save_embeddings_jsonl(store: EmbeddingStore, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec_id in store.ids():
            vec = store.get(rec_id)
            f.write(json.dumps({"id": rec_id, "kind": store.modality, "vec": vec.tolist()}) + "\n")


def save_embeddings_binary(store: EmbeddingStore, path: str | Path) -> None:
    """f32 on disk, written a record at a time; values created by this package
    are f32-quantized, so the round trip is bit-exact."""
    if store.width is None:
        raise DataError("cannot write an empty store")
    raws = [rec_id.encode("utf-8") for rec_id in store.ids()]
    longest = max(map(len, raws), default=0)
    if longest > 0xFFFF:
        raise DataError(f"id of {longest} UTF-8 bytes exceeds the binary format's 65535")
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC + struct.pack("<I", store.width))
        for rec_id, raw in zip(store.ids(), raws):
            f.write(struct.pack("<H", len(raw)) + raw + store.get(rec_id).astype("<f4").tobytes())


# -- interaction records --------------------------------------------------


@dataclass(frozen=True)
class InteractionRecord:
    drug_id: str
    target_id: str
    pocket_id: str | None = None
    label: int | None = None
    affinity: float | None = None
    split: str = "unassigned"


def load_interactions(path: str | Path) -> list[InteractionRecord]:
    """One record per row, the columns in its field order; an empty split reads as "unassigned"."""
    table = read_columns(path, INTERACTION_COLUMNS, ("drug_id", "target_id"), header=INTERACTION_COLUMNS)
    table["split"] = [s or "unassigned" for s in table["split"]]
    return list(map(InteractionRecord, *table.values()))


def save_interactions(records: list[InteractionRecord], path: str | Path) -> None:
    def fields(r: InteractionRecord) -> tuple[str, ...]:
        label = "" if r.label is None else str(r.label)
        affinity = "" if r.affinity is None else repr(r.affinity)
        return r.drug_id, r.target_id, r.pocket_id or "", label, affinity, r.split

    write_tsv(path, INTERACTION_COLUMNS, map(fields, records))


# -- SMILES records ---------------------------------------------------------


def load_smiles(path: str | Path) -> dict[str, str]:
    table = read_columns(path, SMILES_COLUMNS, ("drug_id",), header=SMILES_COLUMNS)
    return dict(zip(table["drug_id"], table["smiles"]))


def save_smiles(smiles: dict[str, str], path: str | Path) -> None:
    write_tsv(path, SMILES_COLUMNS, smiles.items())
