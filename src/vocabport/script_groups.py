"""Token classification into (script, position) groups, plus group statistics.

The script label is assigned by majority vote over the letter characters'
Unicode block, approximated by the fixed ranges below; splitting one
writing system across many tiny blocks would fragment the groups, so the
ranges are grouped at script granularity. Tokens without letters (digits,
punctuation, undecodable byte-fallback strings) classify as Unknown.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .embedding_store import EmbeddingMatrix, Vocabulary
from .errors import ValidationError
from .kernels import mean_std
from .tokenizers import BYTE_ALPHABET, split_marker, unmap_bytes

WORD_INITIAL = "word-initial"
WORD_INTERNAL = "word-internal"

_RANGES: list[tuple[int, int, str]] = [
    (0x0041, 0x005A, "Latin"),
    (0x0061, 0x007A, "Latin"),
    (0x00C0, 0x00FF, "Latin"),
    (0x0100, 0x024F, "Latin"),
    (0x0250, 0x02AF, "Latin"),
    (0x0370, 0x03FF, "Greek"),
    (0x0400, 0x052F, "Cyrillic"),
    (0x0590, 0x05FF, "Hebrew"),
    (0x0600, 0x06FF, "Arabic"),
    (0x0750, 0x077F, "Arabic"),
    (0x08A0, 0x08FF, "Arabic"),
    (0x0900, 0x097F, "Devanagari"),
    (0x1100, 0x11FF, "Hangul"),
    (0x1E00, 0x1EFF, "Latin"),
    (0x1F00, 0x1FFF, "Greek"),
    (0x2C60, 0x2C7F, "Latin"),
    (0x2DE0, 0x2DFF, "Cyrillic"),
    (0x3040, 0x309F, "Hiragana"),
    (0x30A0, 0x30FF, "Katakana"),
    (0x3130, 0x318F, "Hangul"),
    (0x31F0, 0x31FF, "Katakana"),
    (0x3400, 0x4DBF, "Han"),
    (0x4E00, 0x9FFF, "Han"),
    (0xA640, 0xA69F, "Cyrillic"),
    (0xA720, 0xA7FF, "Latin"),
    (0xA8E0, 0xA8FF, "Devanagari"),
    (0xA960, 0xA97F, "Hangul"),
    (0xAC00, 0xD7FF, "Hangul"),
    (0xF900, 0xFAFF, "Han"),
    (0xFB1D, 0xFB4F, "Hebrew"),
    (0xFB50, 0xFDFF, "Arabic"),
    (0xFE70, 0xFEFF, "Arabic"),
    (0xFF66, 0xFF9D, "Katakana"),
    (0x20000, 0x2A6DF, "Han"),
    (0x2A700, 0x2B73F, "Han"),
]
_RANGE_STARTS = [lo for lo, _, _ in _RANGES]


@dataclass(frozen=True)
class ScriptGroup:
    script: str
    position: str

    def label(self) -> str:
        return f"{self.script}/{self.position}"


@dataclass
class GroupStats:
    """Per-coordinate population mean/std over a group's embedding rows."""

    group: ScriptGroup
    count: int
    mean: np.ndarray
    std: np.ndarray


def _script_of(codepoint: int) -> str:
    k = bisect_right(_RANGE_STARTS, codepoint) - 1
    if k >= 0:
        lo, hi, label = _RANGES[k]
        if lo <= codepoint <= hi:
            return label
    return "Unknown"


def _majority_script(text: str) -> str:
    """The script most letters of `text` belong to; Unknown if it has no
    letters or two scripts share the top count."""
    scripts = [_script_of(ord(c)) for c in text if c.isalpha()]
    if not scripts:
        return "Unknown"
    first = scripts[0]
    if scripts.count(first) == len(scripts):
        return first
    votes: dict[str, int] = {}
    for script in scripts:
        votes[script] = votes.get(script, 0) + 1
    top = max(votes.values())
    winners = [script for script, count in votes.items() if count == top]
    return winners[0] if len(winners) == 1 else "Unknown"


def classify_token(token: str) -> ScriptGroup:
    """Assign a (script, position) group; total and deterministic.

    A leading word-boundary marker sets position=word-initial and is
    stripped before the script vote. A token made of GPT-2 byte-alphabet
    symbols only is decoded to its UTF-8 text first; if those bytes are not
    valid UTF-8 it is Unknown. Other tokens are read as they are.
    """
    marker, token = split_marker(token)
    position = WORD_INITIAL if marker else WORD_INTERNAL
    if BYTE_ALPHABET.issuperset(token):
        try:
            token = unmap_bytes(token)
        except UnicodeDecodeError:
            return ScriptGroup("Unknown", position)
    return ScriptGroup(_majority_script(token), position)


def group_members(vocab: Vocabulary) -> dict[ScriptGroup, np.ndarray]:
    """The token ids of each group, ascending; groups in order of first member."""
    members: dict[ScriptGroup, list[int]] = {}
    for tid, token in enumerate(vocab.tokens):
        members.setdefault(classify_token(token), []).append(tid)
    return {group: np.array(ids, dtype=np.int64) for group, ids in members.items()}


def group_statistics(vocab: Vocabulary, emb: EmbeddingMatrix) -> dict[ScriptGroup, GroupStats]:
    """Population mean/std per group over the matrix rows of its members.

    Each group's rows are gathered and upcast one row block at a time, in
    kernels.mean_std's fixed order, so a group holding most of the
    vocabulary needs no float64 copy of all its rows.
    """
    if emb.rows != len(vocab):
        raise ValidationError(
            f"matrix has {emb.rows} rows for {len(vocab)} tokens"
        )
    return {
        group: GroupStats(group, len(ids), *mean_std(emb.data, ids, axis=0))
        for group, ids in group_members(vocab).items()
    }
