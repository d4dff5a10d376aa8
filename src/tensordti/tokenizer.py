"""Character-level SMILES tokenizer with BOS/EOS/PAD/UNK specials."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError

log = logging.getLogger("tensordti")

PAD, BOS, EOS, UNK = 0, 1, 2, 3
N_SPECIALS = 4

# common SMILES characters; anything else maps to UNK
DEFAULT_ALPHABET = "#%()+-./0123456789=@[\\]BCFHIKLNOPSZabcegilnorstu"


@dataclass(frozen=True)
class TokenSeq:
    ids: np.ndarray  # (max_len,) int64, PAD-suffixed
    length: int  # number of non-PAD positions (BOS + chars + EOS)
    truncated: bool = False


class SmilesTokenizer:
    def __init__(self, alphabet: str = DEFAULT_ALPHABET, max_len: int = 128):
        if len(set(alphabet)) != len(alphabet):
            raise DataError("tokenizer alphabet contains duplicate characters")
        if max_len < 3:
            raise DataError("max_len must leave room for BOS, one token and EOS")
        self.alphabet = alphabet
        self.max_len = max_len
        self._char_to_id = {c: N_SPECIALS + i for i, c in enumerate(alphabet)}
        self._id_to_char = {v: k for k, v in self._char_to_id.items()}

    def tokenize(self, smiles: str) -> TokenSeq:
        if not smiles:
            raise DataError("cannot tokenize an empty string")
        body = smiles[: self.max_len - 2]
        ids = np.full(self.max_len, PAD, dtype=np.int64)
        ids[0] = BOS
        for i, ch in enumerate(body):
            ids[1 + i] = self._char_to_id.get(ch, UNK)
        ids[1 + len(body)] = EOS
        return TokenSeq(ids=ids, length=len(body) + 2, truncated=len(body) < len(smiles))

    def tokenize_many(self, smiles: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Column batch: token ids (max_len, n) int64 and their pad mask
        (max_len, n) float64. Each distinct string is tokenized once; one
        WARNING counts the distinct strings cut to fit max_len."""
        seqs = {s: self.tokenize(s) for s in dict.fromkeys(smiles)}
        if cut := sum(seq.truncated for seq in seqs.values()):
            log.warning("%d SMILES cut to their first %d characters to fit max_len %d", cut, self.max_len - 2, self.max_len)
        ids = np.empty((self.max_len, len(smiles)), dtype=np.int64)
        for j, s in enumerate(smiles):
            ids[:, j] = seqs[s].ids
        return ids, (ids != PAD).astype(np.float64)

    def detokenize(self, seq: TokenSeq) -> str:
        chars = []
        for tid in seq.ids[: seq.length]:
            tid = int(tid)
            if tid in (BOS, EOS, PAD):
                continue
            chars.append(self._id_to_char.get(tid, "?"))
        return "".join(chars)

    def pad_mask(self, seq: TokenSeq) -> np.ndarray:
        """1.0 at scorable (non-PAD) positions."""
        return (seq.ids != PAD).astype(np.float64)
