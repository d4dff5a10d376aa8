import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensordti.embeddings import (
    EMBEDDING_MAGIC,
    EmbeddingStore,
    InteractionRecord,
    load_embeddings,
    load_interactions,
    load_smiles,
    save_embeddings_binary,
    save_embeddings_jsonl,
    save_interactions,
    save_smiles,
)
from tensordti.errors import DataError, FormatError


def make_store(modality="drug", n=3, width=4, seed=0):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(modality)
    for i in range(n):
        store.add(f"{modality[0].upper()}{i}", rng.standard_normal(width).astype(np.float32))
    return store


def test_jsonl_round_trip(tmp_path):
    store = make_store()
    path = tmp_path / "e.jsonl"
    save_embeddings_jsonl(store, path)
    loaded = load_embeddings(path, "drug")
    assert len(loaded) == 3 and loaded.width == 4
    for rec_id in store.ids():
        assert np.array_equal(store.get(rec_id), loaded.get(rec_id))


def test_two_record_fixture(tmp_path):
    path = tmp_path / "two.jsonl"
    path.write_text(
        json.dumps({"id": "a", "kind": "drug", "vec": [1, 2, 3, 4]}) + "\n"
        + json.dumps({"id": "b", "kind": "drug", "vec": [5, 6, 7, 8]}) + "\n"
    )
    store = load_embeddings(path, "drug")
    assert len(store) == 2 and store.width == 4


def test_binary_round_trips_bit_exactly_with_jsonl(tmp_path):
    store = make_store(n=5, width=7, seed=3)
    for rec_id in ("", "é€😀"):  # an empty id and multi-byte UTF-8
        store.add(rec_id, np.arange(7, dtype=np.float32))
    jsonl = tmp_path / "e.jsonl"
    binary = tmp_path / "e.bin"
    save_embeddings_jsonl(store, jsonl)
    save_embeddings_binary(store, binary)
    a = load_embeddings(jsonl, "drug")
    b = load_embeddings(binary, "drug")
    assert a.ids() == b.ids()
    for rec_id in a.ids():
        assert np.array_equal(a.get(rec_id), b.get(rec_id))
    # write-then-read of the binary file is byte-stable
    binary2 = tmp_path / "e2.bin"
    save_embeddings_binary(b, binary2)
    assert binary.read_bytes() == binary2.read_bytes()


def test_binary_refuses_an_id_longer_than_its_length_field(tmp_path):
    store = EmbeddingStore("drug")
    store.add("short", np.ones(3))
    store.add("é" * 35_000, np.ones(3))  # 70,000 UTF-8 bytes
    path = tmp_path / "e.bin"
    with pytest.raises(DataError, match="70000 UTF-8 bytes"):
        save_embeddings_binary(store, path)
    assert not path.exists()


def test_binary_accepts_an_id_of_exactly_its_length_field(tmp_path):
    store = EmbeddingStore("drug")
    store.add("é" * 32_767 + "a", np.ones(3))  # 65,535 UTF-8 bytes
    path = tmp_path / "e.bin"
    save_embeddings_binary(store, path)
    assert load_embeddings(path, "drug").ids() == store.ids()


def test_nan_record_rejected(tmp_path):
    path = tmp_path / "nan.jsonl"
    path.write_text(json.dumps({"id": "a", "kind": "drug", "vec": [1.0, None]}) + "\n")
    with pytest.raises((FormatError, TypeError)):
        load_embeddings(path, "drug")
    path.write_text('{"id": "a", "kind": "drug", "vec": [1.0, NaN]}\n')
    with pytest.raises(FormatError):
        load_embeddings(path, "drug")


def test_width_mismatch_names_offending_id(tmp_path):
    path = tmp_path / "w.jsonl"
    path.write_text(
        json.dumps({"id": "ok", "kind": "drug", "vec": [1, 2]}) + "\n"
        + json.dumps({"id": "bad", "kind": "drug", "vec": [1, 2, 3]}) + "\n"
    )
    with pytest.raises(FormatError, match="bad"):
        load_embeddings(path, "drug")


def test_kind_mismatch_rejected(tmp_path):
    path = tmp_path / "k.jsonl"
    path.write_text(json.dumps({"id": "a", "kind": "protein", "vec": [1, 2]}) + "\n")
    with pytest.raises(FormatError, match="kind"):
        load_embeddings(path, "drug")


EMBEDDING_FAULTS = {
    "binary_short_header": (b"TDTIEMB1\x04", ": truncated header"),
    "binary_id_not_utf8": (
        b"TDTIEMB1" + struct.pack("<IH", 1, 2) + b"\xff\xfe" + struct.pack("<f", 1.0),
        ": record id at byte 14 is not UTF-8",
    ),
    "jsonl_vec_not_numbers": (
        b'{"id": "a", "kind": "drug", "vec": [1, 2]}\n{"id": "b", "kind": "drug", "vec": "abc"}\n',
        ":2: vec of 'b' is not a list of numbers",
    ),
    "jsonl_vec_nested": (b'{"id": "a", "kind": "drug", "vec": [[1, 2], [3, 4]]}\n', ":1: vec of 'a' is not a list of numbers"),
    "jsonl_vec_string": (b'{"id": "a", "kind": "drug", "vec": "12"}\n', ":1: vec of 'a' is not a list of numbers"),
    "jsonl_vec_scalar": (b'{"id": "a", "kind": "drug", "vec": 3}\n', ":1: vec of 'a' is not a list of numbers"),
    "jsonl_vec_booleans": (b'{"id": "a", "kind": "drug", "vec": [true, false]}\n', ":1: vec of 'a' is not a list of numbers"),
    "jsonl_vec_empty": (b'{"id": "a", "kind": "drug", "vec": []}\n', ":1: vec of 'a' is not a list of numbers, or is empty"),
    "jsonl_vec_int_past_float64": (
        b'{"id": "a", "kind": "drug", "vec": [1' + b"0" * 400 + b']}\n',
        ":1: int too large to convert to float",
    ),
    "jsonl_nested_too_deep": (
        b'{"id": "a", "kind": "drug", "vec": [1]}\n' + b"[" * 100_000 + b"\n", ":2: bad JSON: maximum recursion depth"
    ),
    "binary_width_zero": (b"TDTIEMB1" + struct.pack("<IH", 0, 1) + b"a", ": header width 0"),
    "jsonl_not_utf8": (
        b'{"id": "a", "kind": "drug", "vec": [1, 2]}\n{"id": "\xff", "kind": "drug", "vec": [1, 2]}\n',
        ":2: not UTF-8",
    ),
    # a line's values are checked on that line, so the first fault in file order is the one named
    "jsonl_non_finite_on_a_later_line": (
        b'{"id": "a", "kind": "drug", "vec": [1, 2]}\n{"id": "b", "kind": "drug", "vec": [1, Infinity]}\n',
        ":2: embedding 'b': non-finite entry",
    ),
    "jsonl_non_finite_before_a_duplicate": (
        b'{"id": "a", "kind": "drug", "vec": [NaN, 2]}\n{"id": "b", "kind": "drug", "vec": [1, 2]}\n'
        b'{"id": "a", "kind": "drug", "vec": [1, 2]}\n',
        ":1: embedding 'a': non-finite entry",
    ),
    "jsonl_duplicate_before_a_non_finite": (
        b'{"id": "a", "kind": "drug", "vec": [1, 2]}\n{"id": "a", "kind": "drug", "vec": [1, 2]}\n'
        b'{"id": "b", "kind": "drug", "vec": [1, NaN]}\n',
        ":2: duplicate embedding id 'a'",
    ),
    "jsonl_int_past_float64_before_a_bad_line": (
        b'{"id": "a", "kind": "drug", "vec": [1, 2' + b"0" * 400 + b']}\n{"id": "b"}\n',
        ":1: int too large to convert to float",
    ),
    "binary_non_finite": (
        EMBEDDING_MAGIC + struct.pack("<IH", 1, 1) + b"a" + struct.pack("<f", 1.0) + struct.pack("<H", 1) + b"b"
        + struct.pack("<f", float("nan")),
        ": embedding 'b': non-finite entry",
    ),
    # a binary store's values and ids are checked once the records are read, so a bad tail is named first
    "binary_truncated_after_a_non_finite": (
        EMBEDDING_MAGIC + struct.pack("<IH", 1, 1) + b"a" + struct.pack("<f", float("nan")) + struct.pack("<H", 1) + b"b",
        ": truncated record body",
    ),
    "binary_duplicate_id": (
        EMBEDDING_MAGIC + struct.pack("<IH", 1, 1) + b"a" + struct.pack("<f", 1.0) + struct.pack("<H", 1) + b"a"
        + struct.pack("<f", 2.0),
        ": duplicate embedding id 'a'",
    ),
    # a store with no records has no width
    "jsonl_no_records": (b"\n\n", ": no embeddings"),
    "binary_header_only": (EMBEDDING_MAGIC + struct.pack("<I", 4), ": no embeddings"),
}


@pytest.mark.parametrize("case", sorted(EMBEDDING_FAULTS))
def test_embedding_readers_raise_format_error_naming_the_file(tmp_path, case):
    data, message = EMBEDDING_FAULTS[case]
    path = tmp_path / "e.emb"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=re.escape(f"{path}{message}")):
        load_embeddings(path, "drug")


def test_duplicate_id_rejected():
    store = EmbeddingStore("drug")
    store.add("a", [1.0, 2.0])
    with pytest.raises(FormatError, match="duplicate"):
        store.add("a", [3.0, 4.0])


def test_interactions_round_trip(tmp_path):
    records = [
        InteractionRecord("D0", "T0", label=1, split="train"),
        InteractionRecord("D1", "T1", pocket_id="K1", label=0, split="test"),
        InteractionRecord("D2", "T0", affinity=7.25, split="valid"),
    ]
    path = tmp_path / "i.tsv"
    save_interactions(records, path)
    assert load_interactions(path) == records
    # byte stability
    path2 = tmp_path / "i2.tsv"
    save_interactions(load_interactions(path), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_interactions_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("drug\ttarget\n")
    with pytest.raises(FormatError, match="header"):
        load_interactions(path)


def test_unknown_ids_name_up_to_ten_and_count_the_distinct_ones():
    """An id the store lacks is reported by the store, for every reader: its
    modality, the first 10 unknown ids in sorted order, and how many
    distinct ids are unknown; a repeat counts once."""
    drugs = make_store("drug")
    with pytest.raises(DataError, match=re.escape("unknown drug ids ['D9'] (1 total)")):
        drugs.get("D9")
    ghosts = [f"G{i:02d}" for i in range(12)]
    with pytest.raises(DataError) as exc:
        drugs.matrix(["D0", *reversed(ghosts), "G00", "D1"])
    assert str(exc.value) == f"unknown drug ids {ghosts[:10]} (12 total)"


def test_smiles_repeated_drug_id_is_format_error(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("drug_id\tsmiles\nD0\tCCO\nD1\tCCN\nD0\tCCC\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:4: repeated drug_id 'D0'")):
        load_smiles(path)


def test_smiles_round_trip(tmp_path):
    data = {"D0": "CCO", "D1": "c1ccccc1"}
    path = tmp_path / "s.tsv"
    save_smiles(data, path)
    assert load_smiles(path) == data




JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
# vectors that pass the type and shape checks, so the value check runs: nan, inf, and ints past float64
NUMBERS = st.lists(st.floats() | st.integers(-(2**1100), 2**1100), min_size=1, max_size=3)
RECORD = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["a", "b"]) | st.text(max_size=4) | JSON_VALUE,
        "kind": st.sampled_from(["drug", "protein"]) | JSON_VALUE,
        "vec": NUMBERS | JSON_VALUE,
    }
)
JSONL_BYTES = st.lists(RECORD | JSON_VALUE, max_size=4).map(lambda recs: "\n".join(map(json.dumps, recs)).encode("utf-8"))
# a header width of 0-3, then records of (u16 id length, id, vector bytes) whose vectors may not match it
BINARY_BYTES = st.tuples(st.integers(0, 3), st.lists(st.tuples(st.binary(max_size=4), st.binary(max_size=16)), max_size=3)).map(
    lambda spec: EMBEDDING_MAGIC
    + struct.pack("<I", spec[0])
    + b"".join(struct.pack("<H", len(rec_id)) + rec_id + vec for rec_id, vec in spec[1])
)
EMBEDDING_BYTES = st.binary(max_size=96) | st.binary(max_size=64).map(EMBEDDING_MAGIC.__add__) | JSONL_BYTES | BINARY_BYTES


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(EMBEDDING_BYTES, st.sampled_from(["", "bitflip"]), st.integers(0, 10**6))
def test_embedding_readers_on_arbitrary_bytes_load_or_raise_a_typed_error(data, damage, where):
    """Either format, raw or damaged: the store loads with at least one
    record, one positive width and finite vectors, held as one read-only
    matrix, or the reader raises a FormatError."""
    if damage and data:
        data = bytearray(data)
        data[where % len(data)] ^= 1 << (where % 8)
        data = bytes(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.emb"
        path.write_bytes(data)
        try:
            store = load_embeddings(path, "drug")
        except FormatError:
            return
    ids = store.ids()
    vecs = [store.get(i) for i in ids]
    assert vecs and store.width > 0
    assert all(v.shape == (store.width,) and np.all(np.isfinite(v)) and not v.flags.writeable for v in vecs)
    m = store.matrix(ids)
    assert m.flags.c_contiguous and m.dtype == np.float64
    assert np.array_equal(m, np.stack(vecs, axis=1))
