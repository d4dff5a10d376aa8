import logging

import numpy as np
import pytest

from tensordti.errors import DataError
from tensordti.tokenizer import BOS, EOS, N_SPECIALS, PAD, UNK, SmilesTokenizer


def test_cco_layout():
    tok = SmilesTokenizer("CO", max_len=8)
    seq = tok.tokenize("CCO")
    c, o = tok._char_to_id["C"], tok._char_to_id["O"]
    assert seq.ids.tolist() == [BOS, c, c, o, EOS, PAD, PAD, PAD]
    assert seq.length == 5
    assert not seq.truncated


def test_round_trip_within_length():
    tok = SmilesTokenizer(max_len=32)
    for s in ("CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "[Na+].[Cl-]"):
        assert tok.detokenize(tok.tokenize(s)) == s


def test_empty_string_errors():
    tok = SmilesTokenizer(max_len=8)
    with pytest.raises(DataError):
        tok.tokenize("")


def test_truncation_flag():
    tok = SmilesTokenizer("C", max_len=5)
    seq = tok.tokenize("CCCCCCCC")
    assert seq.truncated
    assert seq.length == 5
    assert seq.ids[-1] == EOS  # EOS survives truncation


def test_tokenize_many_warns_once_with_the_count_of_strings_cut(caplog):
    tok = SmilesTokenizer("C", max_len=5)
    with caplog.at_level(logging.WARNING, logger="tensordti"):
        ids, _ = tok.tokenize_many(["CCCC", "CCC", "CCCC", "CCCCC"])
    assert [r.getMessage() for r in caplog.records] == ["2 SMILES cut to their first 3 characters to fit max_len 5"]
    assert ids[:, 0].tolist() == ids[:, 1].tolist() == tok.tokenize("CCC").ids.tolist()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tensordti"):
        tok.tokenize_many(["CCC", "C"])
    assert caplog.records == []


def test_unknown_character_maps_to_unk():
    tok = SmilesTokenizer("C", max_len=8)
    seq = tok.tokenize("CXC")
    assert seq.ids[2] == UNK


def test_pad_only_as_suffix_and_ids_bounded():
    tok = SmilesTokenizer(max_len=16)
    seq = tok.tokenize("CC(=O)N")
    ids = seq.ids
    first_pad = int(np.argmax(ids == PAD)) if PAD in ids else len(ids)
    assert np.all(ids[first_pad:] == PAD)
    assert np.all(ids < N_SPECIALS + len(tok.alphabet))


def test_pad_mask_counts_non_pad():
    tok = SmilesTokenizer(max_len=10)
    seq = tok.tokenize("CCO")
    assert tok.pad_mask(seq).sum() == seq.length


def test_duplicate_alphabet_rejected():
    with pytest.raises(DataError):
        SmilesTokenizer("CC", max_len=8)


def test_tokenize_many_matches_per_string_columns():
    tok = SmilesTokenizer("CNO", max_len=8)
    smiles = ["CCO", "N", "CCO", "CNOCNOCNO"]
    ids, mask = tok.tokenize_many(smiles)
    assert ids.shape == mask.shape == (8, 4)
    assert ids.dtype == np.int64 and mask.dtype == np.float64
    for j, s in enumerate(smiles):
        seq = tok.tokenize(s)
        assert np.array_equal(ids[:, j], seq.ids)
        assert np.array_equal(mask[:, j], tok.pad_mask(seq))
    empty_ids, empty_mask = tok.tokenize_many([])
    assert empty_ids.shape == empty_mask.shape == (8, 0)
