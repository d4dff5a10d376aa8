"""The shared TSV table layer (`_util.read_tsv` / `write_tsv`), the six
table readers built on it, and the one spelling of a JSON file's text
(`_util.json_text`)."""

import ast
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensordti
from tensordti._util import read_columns, read_tsv, write_tsv
from tensordti.embeddings import INTERACTION_COLUMNS, load_interactions, load_smiles
from tensordti.errors import DataError, FormatError
from tensordti.screening import PREDICTION_COLUMNS, load_actives, load_predictions, load_ranked, load_scores

# reader, header, two good rows
READERS = {
    "interactions": (
        load_interactions,
        list(INTERACTION_COLUMNS),
        [["D0", "T0", "", "1", "", "train"], ["D1", "T0", "P0", "0", "6.5", "test"]],
    ),
    "smiles": (load_smiles, ["drug_id", "smiles"], [["D0", "CCO"], ["D1", "c1ccccc1"]]),
    "predictions": (
        load_predictions,
        list(PREDICTION_COLUMNS),
        [["D0", "T0", "1.5", "0.8", "1", "", "0.1", "0.2"], ["D1", "T0", "-2", "0.1", "0", "", "0.3", ""]],
    ),
    "ranked": (load_ranked, ["rank", "compound_id"], [["1", "c1"], ["2", "c2"]]),
    "scores": (load_scores, ["compound_id", "method", "score"], [["c1", "glide", "-9.1"], ["c2", "glide", "-8"]]),
    "actives": (load_actives, ["compound_id", "potency"], [["c1", "7.5"], ["c2", "6"]]),
}


def tsv_text(header, rows, between=""):
    return "\t".join(header) + "\n" + between.join("\t".join(r) + "\n" for r in rows)


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_reader_shares_the_tsv_rules(tmp_path, name):
    reader, header, rows = READERS[name]
    path = tmp_path / "table.tsv"

    path.write_text(tsv_text(header, rows))
    parsed = reader(path)
    path.write_text(tsv_text(header, rows, between="\n  \n\t\n") + "\n")
    assert reader(path) == parsed

    path.write_bytes(tsv_text(header, rows).encode() + b"\xff\xfe\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: not UTF-8")):
        reader(path)

    path.write_text(tsv_text(header, [rows[0], rows[1][:-1]]))
    short = f"{path}:3: expected {len(header)} fields, got {len(header) - 1}"
    with pytest.raises(FormatError, match=re.escape(short)):
        reader(path)

    path.write_text(tsv_text(header + [header[0]], [r + [r[0]] for r in rows]))
    with pytest.raises(FormatError, match=re.escape(f"{path}: repeated column name")):
        reader(path)

    path.write_text(tsv_text(header, [*rows, rows[0]]))
    repeated = re.escape(f"{path}:4: repeated ") + ".* " + re.escape("(first on line 2)")
    with pytest.raises(FormatError, match=repeated):
        reader(path)


def test_every_reader_in_src_names_its_key():
    """Every table goes through `read_columns`, the one caller of `read_tsv`;
    a table read without a key would let a repeated row through unseen."""
    read_tsv_callers, keys = [], []
    for path in sorted(Path(tensordti.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "read_tsv":
                inside = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                read_tsv_callers.append(f"{path.name}:{inside[-1] if inside else '<module>'}")
            elif name == "read_columns":
                given = [*node.args[2:3], *(k.value for k in node.keywords if k.arg == "key")]
                key = given[0] if given else None
                keys.append((f"{path.name}:{node.lineno}", isinstance(key, ast.Tuple) and len(key.elts) > 0))
    assert read_tsv_callers == ["_util.py:read_columns"]
    # interactions and SMILES in `embeddings`; predictions, ranked libraries,
    # score tables and actives in `screening`
    assert len(keys) == 6
    assert [where for where, keyed in keys if not keyed] == []


def test_json_files_are_written_through_one_helper():
    """`json_text` is the only `json.dumps` in `src/` that indents: every
    JSON file written (manifests, reports, the checkpoint sidecar) gets its
    text there, so all keep one layout."""
    indented = []
    for path in sorted(Path(tensordti.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dumps":
                if any(k.arg == "indent" for k in node.keywords):
                    inside = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                    indented.append(f"{path.name}:{inside[-1] if inside else '<module>'}")
    assert indented == ["_util.py:json_text"]


# (table, column, bad field, what the error says after "path:3: "): a line-3
# field that no column type admits
BAD_FIELDS = [
    *[
        (table, column, raw, f"{column} {raw!r} is not one of 0, 1")
        for table, column in (("interactions", "label"), ("predictions", "pred_label"), ("scores", "label"))
        for raw in ("7", "+1")
    ],
    ("interactions", "split", "holdout", "split 'holdout' is not one of train, valid, test, unassigned"),
    ("interactions", "split", "Train", "split 'Train' is not one of train, valid, test, unassigned"),
    *[
        (table, column, "", f"empty {column}")
        for table, column in (
            ("interactions", "drug_id"), ("interactions", "target_id"), ("smiles", "drug_id"), ("smiles", "smiles"),
            ("predictions", "drug_id"), ("predictions", "target_id"), ("ranked", "rank"), ("ranked", "compound_id"),
            ("scores", "compound_id"), ("scores", "method"), ("actives", "compound_id"),
        )
    ],
    ("predictions", "logit", "", "logit '' is not a valid float"),
    ("actives", "potency", "", "potency '' is not a valid float"),
]


@pytest.mark.parametrize("table, column, raw, message", BAD_FIELDS, ids=lambda v: v if isinstance(v, str) else None)
def test_every_reader_refuses_a_field_its_column_type_does_not_admit(tmp_path, table, column, raw, message):
    reader, header, rows = READERS[table]
    if column not in header:  # an optional column: add it, with a good field on line 2
        header, rows = header + [column], [rows[0] + ["1"], rows[1] + ["0"]]
    bad = list(rows[1])
    bad[header.index(column)] = raw
    path = tmp_path / "table.tsv"
    path.write_text(tsv_text(header, [rows[0], bad]))
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: {message}")):
        reader(path)


def test_labels_and_split_tags_read_as_their_values(tmp_path):
    path = tmp_path / "interactions.tsv"
    path.write_text(tsv_text(INTERACTION_COLUMNS, [["D0", "T0", "", "1", "", ""], ["D1", "T0", "", "0", "", "valid"]]))
    records = load_interactions(path)
    assert [(r.label, r.split) for r in records] == [(1, "unassigned"), (0, "valid")]
    assert all(type(r.label) is int for r in records)


def test_write_tsv_refuses_fields_it_could_not_read_back(tmp_path):
    path = tmp_path / "t.tsv"
    for bad in ("a\tb", "a\nb", "a\rb"):
        with pytest.raises(DataError, match=re.escape(str(path))):
            write_tsv(path, ("x", "y"), [("1", "2"), ("3", bad)])
    with pytest.raises(DataError, match="not 2 fields"):
        write_tsv(path, ("x", "y"), [("1", "2"), ("3",)])


def test_write_tsv_streams_blocks_in_row_order(tmp_path):
    path = tmp_path / "t.tsv"
    rows = [(str(i), f"c{i}") for i in range(10_000)]
    write_tsv(path, ("rank", "compound_id"), iter(rows))
    got = read_tsv(path)
    assert next(got) == ["rank", "compound_id"]
    assert [tuple(fields) for _, fields in got] == rows


FIELD = st.text(st.characters(codec="utf-8", exclude_characters="\t\r\n"), max_size=6)


@st.composite
def tables(draw):
    header = draw(st.lists(FIELD, min_size=1, max_size=4, unique=True))
    row = st.lists(FIELD, min_size=len(header), max_size=len(header))
    rows = draw(st.lists(row.filter(lambda r: "\t".join(r).strip()), max_size=8))
    return header, rows


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(tables())
def test_write_then_read_round_trips(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        write_tsv(path, header, rows)
        got = read_tsv(path)
        assert next(got) == header
        assert [fields for _, fields in got] == rows


# raw bytes, and runs of TSV-significant bytes with the halves of a two-byte UTF-8 character
ARBITRARY = st.binary(max_size=64) | st.lists(st.sampled_from([b"a", b"\t", b"\n", b"\r", b" ", b"\xc3", b"\xa9"])).map(
    b"".join
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(ARBITRARY)
def test_read_tsv_on_arbitrary_bytes_parses_or_raises_format_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        path.write_bytes(data)
        try:
            header, *rows = read_tsv(path)
        except FormatError:
            return
        assert len(set(header)) == len(header)
        assert all(len(fields) == len(header) for _, fields in rows)


# fields that a column type may refuse
JUNK = st.sampled_from([b"D0", b"0", b"1", b"+1", b"7", b"1.5", b"nan", b"1e999", b"train", b"", b" ", b"\r", b"\xc3"])


@pytest.mark.parametrize("table", ["interactions", "predictions"])
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_read_columns_on_arbitrary_bytes_parses_or_raises_format_error(table, data):
    """Arbitrary bytes, and rows of the table's good fields with some swapped
    for junk, each read bare and under the table's header."""
    columns = {"interactions": INTERACTION_COLUMNS, "predictions": PREDICTION_COLUMNS}[table]
    good = READERS[table][2][0]
    row = st.tuples(*(st.just(field.encode()) | JUNK for field in good)).map(b"\t".join)
    body = data.draw(ARBITRARY | st.lists(row, max_size=4).map(lambda rows: b"".join(r + b"\n" for r in rows)))
    header = "\t".join(columns).encode() + b"\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        for text in (body, header + body):
            path.write_bytes(text)
            try:
                parsed = read_columns(path, columns, ("drug_id", "target_id"), header=columns)
            except FormatError:
                continue
            assert list(parsed) == list(columns) and len({len(values) for values in parsed.values()}) == 1
