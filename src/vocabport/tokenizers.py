"""Deterministic byte-level BPE and Unigram encoders.

These engines exist to measure fragmentation, so determinism matters more
than parity with any particular upstream implementation: the same input
must produce the same ids on every run and thread count.

Pretokenization follows one fixed, documented boundary rule, not a
configurable pattern. Each character has a class: plain space, other
whitespace, letter (isalpha), numeric (isnumeric) or other. The rule has
four cases, tried in this order:

  1. a run of letters, of numerics or of other characters is a pretoken,
     split wherever the class changes; a plain space just before the run
     folds into it ("hi there" -> ["hi", " there"]);
  2. a whitespace run that ends the text is one pretoken;
  3. a whitespace run before a visible character splits off its last
     character; the rest, if any, is one pretoken;
  4. that last character, unless it is a plain space (which case 1 takes),
     stands alone.

BPE then maps each UTF-8 byte of a pretoken through the fixed 256-entry
byte-to-unicode table (space becomes "Ġ"), so any byte sequence round-trips
losslessly through encode/decode. Unigram rewrites every plain space of a
pretoken as "▁".

BPE applies, within each pretoken, the lowest-rank merge at its leftmost
occurrence until none applies; a heap of candidate pairs over a linked list
of symbols makes that O(n log n) for n symbols. Unigram runs a Viterbi pass
whose window at each position is the longest vocabulary token starting with
that character, O(n * L) for window length L; a character that starts no
token costs one unk step.

Each engine encodes one raw pretoken at a time, and a pretoken's ids depend
on the pretoken alone, never on its neighbours: a text's ids are the ids of
its pretokens, concatenated.
"""

from __future__ import annotations

import heapq
import math
import re
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from .embedding_store import (
    Vocabulary,
    _numbered_lines,
    load_scored_tsv,
    load_vocab,
)
from .errors import FormatError, MalformedSpecError, ValidationError


def _build_byte_maps() -> tuple[dict[int, str], dict[str, int]]:
    # Printable bytes map to themselves; the rest shift into 0x100+.
    bs = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("¡"), ord("¬") + 1))
        + list(range(ord("®"), ord("ÿ") + 1))
    )
    cs = bs[:]
    n = 0
    for b in range(256):
        if b not in bs:
            bs.append(b)
            cs.append(256 + n)
            n += 1
    enc = {b: chr(c) for b, c in zip(bs, cs)}
    dec = {c: b for b, c in enc.items()}
    return enc, dec


BYTE_TO_UNICODE, UNICODE_TO_BYTE = _build_byte_maps()
# The 256 symbols of the byte alphabet, which map_bytes writes.
BYTE_ALPHABET = frozenset(UNICODE_TO_BYTE)
# str.translate tables: the Latin-1 character of each byte -> its symbol,
# and back.
_TO_SYMBOLS = str.maketrans({chr(b): c for b, c in BYTE_TO_UNICODE.items()})
_TO_LATIN1 = str.maketrans({c: chr(b) for c, b in UNICODE_TO_BYTE.items()})


class _CharClasses(dict):
    """Code point -> class letter, for str.translate.

    P is a plain space, S other whitespace, L a letter (isalpha), N a
    numeric (isnumeric) and O anything else. Entries are cached below
    0x10000 only, so the table never exceeds 65,536 of them.
    """

    def __missing__(self, cp: int) -> str:
        c = chr(cp)
        if c.isspace():
            cls = "P" if c == " " else "S"
        elif c.isalpha():
            cls = "L"
        elif c.isnumeric():
            cls = "N"
        else:
            cls = "O"
        if cp < 0x10000:
            self[cp] = cls
        return cls


_CHAR_CLASSES = _CharClasses()
# The boundary rule over class letters: one alternative per case, in the
# order of the module docstring.
_PRETOKEN = re.compile(r"P?(?:L+|N+|O+)|[PS]+\Z|[PS]+(?=[PS])|S")


def split_pretokens(text: str) -> list[str]:
    """Split text by the documented boundary rule, without byte mapping."""
    classes = text.translate(_CHAR_CLASSES)
    return [text[m.start() : m.end()] for m in _PRETOKEN.finditer(classes)]


def map_bytes(s: str) -> str:
    """Encode a string's UTF-8 bytes through the byte-to-unicode table."""
    return s.encode("utf-8").decode("latin-1").translate(_TO_SYMBOLS)


# Word-boundary markers: GPT-2-style (a mapped space) and SentencePiece-style.
WORD_MARKERS = (map_bytes(" "), "▁")


def split_marker(token: str) -> tuple[str, str]:
    """(marker, rest): the token's leading word-boundary marker, or "" if it
    has none, and the token without it."""
    marker = token[:1] if token[:1] in WORD_MARKERS else ""
    return marker, token[len(marker) :]


def unmap_bytes(s: str) -> str:
    """Invert map_bytes.

    Raises ValidationError on a symbol outside the byte alphabet, and
    UnicodeDecodeError when the symbols spell bytes that are not UTF-8.
    """
    if not BYTE_ALPHABET.issuperset(s):
        bad = next(c for c in s if c not in BYTE_ALPHABET)
        raise ValidationError(f"symbol {bad!r} is not in the byte alphabet")
    return s.translate(_TO_LATIN1).encode("latin-1").decode("utf-8")


def byte_level_pretokenize(text: str) -> list[str]:
    """Pretokenize and map each pretoken through the byte table."""
    return [map_bytes(tok) for tok in split_pretokens(text)]


@dataclass
class BpeSpec:
    """Byte-level BPE encoder definition.

    Tokens and merges are spelled in the symbols of the byte-to-unicode
    table. Merge priority is list position: lower index merges first.
    Every merge result (left+right) must already be a vocabulary token.
    """

    vocab: Vocabulary
    merges: list[tuple[str, str]]
    ranks: dict[tuple[str, str], int] = field(init=False, repr=False)

    def __post_init__(self):
        index = self.vocab.index
        ranks: dict[tuple[str, str], int] = {}
        for i, (left, right) in enumerate(self.merges):
            if left + right not in index:
                raise MalformedSpecError(
                    f"merge #{i} result {left + right!r} is not in the vocabulary", i
                )
            ranks.setdefault((left, right), i)
        self.ranks = ranks


@dataclass(eq=False)
class UnigramSpec:
    """Unigram encoder definition: per-token log-probabilities plus unk.

    `unk_penalty` is the log-score charged per unknown character; when the
    text cannot be covered by vocabulary tokens the encoder emits the unk
    token one character at a time instead of aborting. Every plain space
    in a pretoken is rewritten to "▁" before segmentation, always.

    `log_probs` may be any flat sequence of real numbers, one per token (a
    list, a 1-D numpy array); the spec keeps it as an `array('d')` copy.
    The encoder reads the log-probs once, at construction, into a list of
    Python floats, as BpeSpec.ranks reads its merges: changing
    `log_probs` afterwards does not change a segmentation.
    """

    vocab: Vocabulary
    log_probs: array
    unk_token: str
    unk_penalty: float
    unk_id: int = field(init=False, repr=False)
    _log_probs: list[float] = field(init=False, repr=False)
    _longest: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        try:
            self.log_probs = log_probs = array("d", self.log_probs)
        except (TypeError, OverflowError) as e:  # a 2-D array's rows, a str, a huge int
            raise MalformedSpecError(
                f"log-probs must be a flat sequence of real numbers ({e})"
            ) from None
        if len(log_probs) != len(self.vocab):
            raise MalformedSpecError(f"{len(log_probs)} log-probs for {len(self.vocab)} tokens")
        if not all(map(math.isfinite, log_probs)):
            bad = next(i for i, lp in enumerate(log_probs) if not math.isfinite(lp))
            raise MalformedSpecError("log-probs must be finite", bad)
        if not math.isfinite(self.unk_penalty):
            raise MalformedSpecError("unk penalty must be finite")
        if self.unk_token not in self.vocab:
            raise MalformedSpecError(f"unk token {self.unk_token!r} is not in the vocabulary")
        self.unk_id = self.vocab.index[self.unk_token]
        self._log_probs = log_probs.tolist()
        # First character -> length of the longest token starting with it.
        longest: dict[str, int] = {}
        for t in self.vocab.tokens:
            if t and len(t) > longest.get(t[0], 0):
                longest[t[0]] = len(t)
        self._longest = longest


TokenizerSpec = BpeSpec | UnigramSpec


def _merge_symbols(symbols: list[str], ranks: dict[tuple[str, str], int]) -> list[str]:
    # One step = the lowest-rank applicable merge at its leftmost
    # occurrence; repeat until nothing applies. The symbols form a linked
    # list over their original indices, which keep list order, and a heap
    # holds (rank, left index, left, right) for every pair that formed. An
    # entry is stale when the left symbol is gone ("") or changed, or its
    # right neighbour is no longer `right`; symbols only grow, so comparing
    # strings detects both.
    n = len(symbols)
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n - 1))
    heap = []
    for i in range(n - 1):
        rank = ranks.get((symbols[i], symbols[i + 1]))
        if rank is not None:
            heap.append((rank, i, symbols[i], symbols[i + 1]))
    heapq.heapify(heap)
    while heap:
        _, i, left, right = heapq.heappop(heap)
        j = nxt[i]
        if symbols[i] != left or j == n or symbols[j] != right:
            continue
        merged = symbols[i] = left + right
        symbols[j] = ""
        k = nxt[i] = nxt[j]
        if k < n:
            prv[k] = i
            rank = ranks.get((merged, symbols[k]))
            if rank is not None:
                heapq.heappush(heap, (rank, i, merged, symbols[k]))
        p = prv[i]
        if p >= 0:
            rank = ranks.get((symbols[p], merged))
            if rank is not None:
                heapq.heappush(heap, (rank, p, symbols[p], merged))
    return [sym for sym in symbols if sym]


def _bpe_pretoken(spec: BpeSpec, pre: str) -> list[int]:
    # One raw pretoken: map its bytes, merge, and emit each symbol left
    # without an id character by character.
    index = spec.vocab.index
    ids: list[int] = []
    for sym in _merge_symbols(list(map_bytes(pre)), spec.ranks):
        tid = index.get(sym)
        if tid is not None:
            ids.append(tid)
            continue
        for ch in sym:
            cid = index.get(ch)
            if cid is None:
                raise MalformedSpecError(
                    f"symbol {ch!r} has no id and cannot be split further"
                )
            ids.append(cid)
    return ids


def bpe_encode(spec: BpeSpec, text: str) -> list[int]:
    """Encode text with iterative pair merging, one pretoken at a time.

    Symbols left without a vocabulary id after merging are emitted
    character by character; a missing single-character symbol means the
    spec itself is broken (a byte-level vocab must cover its alphabet).
    """
    return _encode_pretokens(partial(_bpe_pretoken, spec), text)


def bpe_decode(spec: BpeSpec, ids: list[int]) -> str:
    """Concatenate token strings and invert the byte map."""
    tokens = spec.vocab.tokens
    for tid in ids:
        if not 0 <= tid < len(tokens):
            raise ValidationError(f"token id {tid} out of range")
    return unmap_bytes("".join(tokens[tid] for tid in ids))


def _viterbi(spec: UnigramSpec, s: str) -> list[int]:
    # Right-to-left DP; picking the longest first token among ties makes
    # the segmentation leftmost-longest after maximizing score and
    # minimizing token count.
    n = len(s)
    best_score = [0.0] * (n + 1)
    best_count = [0] * (n + 1)
    step: list[tuple[int, int]] = [(0, 0)] * (n + 1)  # (next position, token id)
    index = spec.vocab.index
    log_probs = spec._log_probs
    longest = spec._longest
    for i in range(n - 1, -1, -1):
        # Unknown characters are consumed one at a time at unk_penalty.
        best = (spec.unk_penalty + best_score[i + 1], -(1 + best_count[i + 1]), i + 1, 0)
        choice = (i + 1, spec.unk_id)
        limit = min(n, i + longest.get(s[i], 0))
        for j in range(i + 1, limit + 1):
            tid = index.get(s[i:j])
            if tid is None:
                continue
            cand = (log_probs[tid] + best_score[j], -(1 + best_count[j]), j, 1)
            if cand > best:
                best = cand
                choice = (j, tid)
        best_score[i] = best[0]
        best_count[i] = -best[1]
        step[i] = choice
    ids: list[int] = []
    i = 0
    while i < n:
        j, tid = step[i]
        ids.append(tid)
        i = j
    return ids


def _unigram_pretoken(spec: UnigramSpec, pre: str) -> list[int]:
    # One raw pretoken: every plain space becomes the marker, then Viterbi.
    return _viterbi(spec, pre.replace(" ", WORD_MARKERS[1]))


def unigram_encode(spec: UnigramSpec, text: str) -> list[int]:
    """Segment each pretoken to maximize the summed token log-probability.

    Ties break toward fewer tokens, then leftmost-longest; a real token is
    preferred over an unk emission with an identical score.
    """
    return _encode_pretokens(partial(_unigram_pretoken, spec), text)


def _pretoken_encoder(spec: TokenizerSpec) -> Callable[[str], list[int]]:
    """The per-pretoken encoder of the spec's engine, bound to the spec."""
    if isinstance(spec, BpeSpec):
        return partial(_bpe_pretoken, spec)
    if isinstance(spec, UnigramSpec):
        return partial(_unigram_pretoken, spec)
    raise ValidationError(f"unknown tokenizer spec type {type(spec).__name__}")


def _encode_pretokens(encode_pretoken: Callable[[str], list[int]], text: str) -> list[int]:
    ids: list[int] = []
    for pre in split_pretokens(text):
        ids.extend(encode_pretoken(pre))
    return ids


def encode(spec: TokenizerSpec, text: str) -> list[int]:
    """Token ids for the text under a BPE or a Unigram spec."""
    return _encode_pretokens(_pretoken_encoder(spec), text)


def count_tokens(spec: TokenizerSpec, text: str) -> int:
    """Number of tokens the spec produces for the text."""
    return len(encode(spec, text))


def _located(err: MalformedSpecError, path: str, linenos: Sequence[int]) -> MalformedSpecError:
    """`err` prefixed with its place in `path`: the line of its item, which
    is `linenos[err.item]`, or the file alone when no item is at fault."""
    where = path if err.item is None else f"{path}:{linenos[err.item]}"
    return MalformedSpecError(f"{where}: {err}", err.item)


def load_bpe_spec(vocab_path: str, merges_path: str) -> BpeSpec:
    """Load a byte-level BPE spec from a JSON vocab map and a merges text file.

    Merges format: one "left right" pair per line, space-separated; a
    first line starting with "#" is a header and is skipped. A merge whose
    result is not a vocabulary token is reported at its merges-file line.
    """
    vocab = load_vocab(vocab_path, "json-map")

    def merge_lines():  # (line number, line) of each merge, in merge order
        return ((n, line) for n, line in _numbered_lines(merges_path)
                if line and not (n == 1 and line.startswith("#")))

    merges: list[tuple[str, str]] = []
    for lineno, line in merge_lines():
        parts = line.split(" ")
        if len(parts) != 2:
            raise FormatError(
                f"{merges_path}:{lineno}: expected 'left right', got {len(parts)} fields"
            )
        merges.append((parts[0], parts[1]))
    try:
        return BpeSpec(vocab=vocab, merges=merges)
    except MalformedSpecError as err:
        # Only a failure reads the line numbers, so they are read again, not kept.
        raise _located(err, merges_path, [n for n, _ in merge_lines()]) from None


def load_unigram_spec(path: str) -> UnigramSpec:
    """Load a Unigram spec from a "token<TAB>logprob" TSV (see load_scored_tsv).

    Ids follow line order and the unk token is "<unk>". Unknown characters
    cost the lowest log-prob in the file minus 10, so unk is always a last
    resort. A non-finite score is reported at its line, a missing "<unk>"
    at the file.
    """
    vocab, scores = load_scored_tsv(path)
    try:
        return UnigramSpec(
            vocab=vocab,
            log_probs=scores,
            unk_token="<unk>",
            unk_penalty=(min(scores) if scores else 0.0) - 10.0,
        )
    except MalformedSpecError as err:
        raise _located(err, path, range(1, len(scores) + 1)) from None
