"""Token classification into (script, position) groups, plus group statistics.

The script label is assigned by majority vote over the letter characters'
Unicode block, approximated by the fixed ranges below; splitting one
writing system across many tiny blocks would fragment the groups, so the
ranges are grouped at script granularity. Tokens without letters (digits,
punctuation, undecodable byte-fallback strings) classify as Unknown.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .embedding_store import EmbeddingMatrix, Vocabulary
from .errors import ValidationError
from .kernels import mean_std
from .tokenizers import BYTE_ALPHABET, BYTE_TO_UNICODE, split_marker, unmap_bytes

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
_SCRIPTS = [*dict.fromkeys(label for _, _, label in _RANGES), "Unknown"]
# One letter per script, the vote's ballot in _majority_script.
_CODES = {script: chr(ord("a") + k) for k, script in enumerate(_SCRIPTS)}
_SCRIPT_OF_CODE = {code: script for script, code in _CODES.items()}


@dataclass(frozen=True)
class ScriptGroup:
    script: str
    position: str

    def label(self) -> str:
        return f"{self.script}/{self.position}"


# The groups classify_token returns, one object each.
_GROUPS = {
    (script, position): ScriptGroup(script, position)
    for script in _SCRIPTS
    for position in (WORD_INITIAL, WORD_INTERNAL)
}


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


class _ScriptCodes(dict):
    """Code point -> the code of its script in _CODES, for str.translate.

    A letter (isalpha) gets its _RANGES script's code, or Unknown's outside
    them; any other character maps to "" and so drops out of the vote.
    Entries are cached below 0x10000 only, like tokenizers._CharClasses.
    """

    def __missing__(self, cp: int) -> str:
        code = _CODES[_script_of(cp)] if chr(cp).isalpha() else ""
        if cp < 0x10000:
            self[cp] = code
        return code


_SCRIPT_CODES = _ScriptCodes()


def _majority_script(text: str) -> str:
    """The script most letters of `text` belong to; Unknown if it has no
    letters or two scripts share the top count."""
    codes = text.translate(_SCRIPT_CODES)
    if not codes:
        return "Unknown"
    first = codes[0]
    if codes.count(first) == len(codes):
        return _SCRIPT_OF_CODE[first]
    votes = {code: codes.count(code) for code in set(codes)}
    top = max(votes.values())
    winners = [code for code, count in votes.items() if count == top]
    return _SCRIPT_OF_CODE[winners[0]] if len(winners) == 1 else "Unknown"


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
            return _GROUPS["Unknown", position]
    return _GROUPS[_majority_script(token), position]


def _letter_class(scripts: set[str]) -> re.Pattern:
    """One character class that every token whose majority script is in
    `scripts` matches after its marker.

    Such a token holds a letter of one of the scripts: read as it is, the
    letter lies in a range of that script; decoded from byte-alphabet
    symbols, the symbol of the letter's UTF-8 lead byte is in the token.
    The class holds each range of the scripts and the symbols of every
    byte from the lead byte of its first character to that of its last; a
    lead byte never falls as the code point grows, so these cover them all.
    """
    parts = []
    for lo, hi, script in _RANGES:
        if script in scripts:
            parts.append(f"{re.escape(chr(lo))}-{re.escape(chr(hi))}")
            leads = range(chr(lo).encode()[0], chr(hi).encode()[0] + 1)
            parts.extend(re.escape(BYTE_TO_UNICODE[b]) for b in leads)
    return re.compile(f"[{''.join(parts)}]")


def group_members(
    vocab: Vocabulary, groups: Iterable[ScriptGroup] | None = None
) -> dict[ScriptGroup, np.ndarray]:
    """The token ids of each group, ascending; groups in order of first member.

    Given `groups`, only those groups are kept, and when none of them is
    Unknown only the tokens that can join one are classified: those whose
    text after the marker matches `_letter_class` of the groups' scripts.
    The class may let through a token of another group, never drop a
    member, so the result is the whole vocabulary's restricted to `groups`.
    """
    candidates = enumerate(vocab.tokens)
    if groups is not None:
        groups = set(groups)
        scripts = {group.script for group in groups}
        if not scripts:
            return {}
        if "Unknown" not in scripts:
            letters = _letter_class(scripts).search
            candidates = (
                (tid, token) for tid, token in candidates if letters(split_marker(token)[1])
            )
    members: dict[ScriptGroup, list[int]] = {}
    for tid, token in candidates:
        group = classify_token(token)
        if groups is None or group in groups:
            members.setdefault(group, []).append(tid)
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
