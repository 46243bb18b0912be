"""Token-count efficiency measurement and rank-correlation utilities.

The speedup convention is fixed as

    speedup_pct = 100 * (avg_source - avg_target) / avg_target

so positive values mean the target tokenizer needs fewer tokens and a
negative value is a slowdown.

Counting takes one pass over the corpus, which may be any iterable of
samples and is not held: each sample is split into pretokens once, and
both specs count those same pretokens. A pretoken's count is a pure
function of the pretoken, so each spec keeps a pretoken -> count table and
encodes a distinct pretoken once while the table has room. The tables are
made inside the call and dropped when it returns; each is bounded by
_TABLE_CHARS and cleared whole when full, which changes no count.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator

from .embedding_store import _numbered_lines
from .errors import FormatError, ValidationError
from .tokenizers import TokenizerSpec, _pretoken_encoder, split_pretokens

CORPUS_FORMATS = ("txt", "jsonl")

# Characters of pretokens one count table may hold. Each entry is charged
# its length but at least _ENTRY_CHARS, which stands for the key's string
# header and its dict slot, so the table also holds at most
# _TABLE_CHARS // _ENTRY_CHARS entries.
_TABLE_CHARS = 1 << 20
_ENTRY_CHARS = 32


@dataclass(slots=True)
class CorpusSample:
    id: str
    text: str


@dataclass
class EfficiencyReport:
    """Averages and relative speedup for one corpus under two tokenizers."""

    corpus_id: str
    n_samples: int
    avg_tokens_source: float
    avg_tokens_target: float
    speedup_pct: float
    per_sample: list[dict] | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.per_sample is None:
            del d["per_sample"]
        return d


def _pretoken_counter(spec: TokenizerSpec) -> Callable[[str], int]:
    """Token count of one raw pretoken under `spec`, from a table that lives
    as long as the returned function.

    A pretoken not in the table is encoded and entered, charged
    max(len(pretoken), _ENTRY_CHARS) characters. When the entry would take
    the table past _TABLE_CHARS the whole table is cleared first; a pretoken
    longer than that is counted but never kept.
    """
    encode_pretoken = _pretoken_encoder(spec)
    counts: dict[str, int] = {}
    charged = 0

    def count(pre: str) -> int:
        nonlocal charged
        n = counts.get(pre)
        if n is None:
            n = len(encode_pretoken(pre))
            cost = max(len(pre), _ENTRY_CHARS)
            if charged + cost > _TABLE_CHARS:
                counts.clear()
                charged = 0
            if cost <= _TABLE_CHARS:
                counts[pre] = n
                charged += cost
        return n

    return count


def _sample_counts(specs, corpus: Iterable[CorpusSample]) -> Iterator[tuple]:
    """(sample, [its token count under each of `specs`]) for each sample of
    `corpus`, in order. The sample is split once and each spec in turn
    counts all its pretokens, so a fault under an earlier spec is raised
    first."""
    counters = [_pretoken_counter(spec) for spec in specs]
    for s in corpus:
        pretokens = split_pretokens(s.text)
        yield s, [sum(map(count, pretokens)) for count in counters]


def avg_tokens(spec: TokenizerSpec, corpus: Iterable[CorpusSample]) -> float:
    """Mean token count per sample, read in one pass over `corpus`; every
    sample weighs the same."""
    n = total = 0
    for n, (_, (count,)) in enumerate(_sample_counts((spec,), corpus), 1):
        total += count
    if not n:
        raise ValidationError("cannot average over an empty corpus")
    return total / n


def speedup_ratio(avg_source: float, avg_target: float) -> float:
    """100 * (avg_source - avg_target) / avg_target; negative = slowdown."""
    if avg_target <= 0:
        raise ValidationError("average target token count must be positive")
    return 100.0 * (avg_source - avg_target) / avg_target


def analyze_corpus(
    source_spec: TokenizerSpec,
    target_spec: TokenizerSpec,
    corpus: Iterable[CorpusSample],
    corpus_id: str = "",
    include_per_sample: bool = False,
) -> EfficiencyReport:
    """Count tokens under both tokenizers, in one pass over `corpus`, and
    fill an EfficiencyReport.

    Each sample is split once and counted under the source spec, then the
    target spec; so a spec that cannot encode a sample fails at the first
    such sample, the source's fault before the target's within it.
    """
    n = total_source = total_target = 0
    per_sample: list[dict] | None = [] if include_per_sample else None
    for n, (s, (cs, ct)) in enumerate(_sample_counts((source_spec, target_spec), corpus), 1):
        total_source += cs
        total_target += ct
        if per_sample is not None:
            per_sample.append({"id": s.id, "tokens_source": cs, "tokens_target": ct})
    if not n:
        raise ValidationError("cannot analyze an empty corpus")
    avg_source = total_source / n
    avg_target = total_target / n
    return EfficiencyReport(
        corpus_id=corpus_id,
        n_samples=n,
        avg_tokens_source=avg_source,
        avg_tokens_target=avg_target,
        speedup_pct=speedup_ratio(avg_source, avg_target),
        per_sample=per_sample,
    )


def _tied_pairs(ordered: list) -> int:
    """Pairs of equal items in a sorted list: t * (t - 1) / 2 per run of t."""
    total = run = 0
    for a, b in zip(ordered, ordered[1:]):
        run = run + 1 if a == b else 0
        total += run
    return total


def _merge_sort_swaps(values: list) -> tuple[list, int]:
    """`values` sorted, and the number of pairs i < j with values[i] >
    values[j], counted by a bottom-up merge sort."""
    n = len(values)
    src, dst = list(values), [None] * n
    swaps = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid, hi = min(lo + width, n), min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if src[j] < src[i]:
                    dst[k] = src[j]
                    swaps += mid - i
                    j += 1
                else:
                    dst[k] = src[i]
                    i += 1
                k += 1
            dst[k:hi] = src[i:mid] if i < mid else src[j:hi]
        src, dst = dst, src
        width *= 2
    return src, swaps


def kendall_tau(x, y) -> float:
    """Tie-corrected rank correlation (tau-b) over all pairs.

        tau = (C - D) / sqrt((C + D + Tx) * (C + D + Ty))

    C and D count concordant and discordant pairs; Tx and Ty count pairs
    tied only in x or only in y (pairs tied in both count in neither).
    Raises when either sequence is constant, where tau is undefined, and
    on NaN or infinite values, which have no rank.

    The counts come from Knight's (1966) O(n log n) method: sort the pairs
    by (x, y), count ties in x and joint ties along that order, then merge
    sort the y values, whose swaps are the discordant pairs, and count the
    ties in y. They are the integers a pair-by-pair count gives, so tau is.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    n = len(xs)
    if n != len(ys):
        raise ValidationError(f"sequence lengths differ: {n} vs {len(ys)}")
    for name, seq in (("x", xs), ("y", ys)):
        for i, v in enumerate(seq):
            if not math.isfinite(v):
                raise ValidationError(f"{name}[{i}] is {v!r}; kendall tau needs finite values")
    if n < 2:
        raise ValidationError("need at least two observations")
    pairs = sorted(zip(xs, ys))
    tied_x = _tied_pairs([p[0] for p in pairs])  # ties in x, and in both
    tied_xy = _tied_pairs(pairs)
    sorted_y, discordant = _merge_sort_swaps([p[1] for p in pairs])
    tied_y = _tied_pairs(sorted_y)  # ties in y, and in both
    ties_x = tied_x - tied_xy
    ties_y = tied_y - tied_xy
    concordant = n * (n - 1) // 2 - tied_x - tied_y + tied_xy - discordant
    denom_x = concordant + discordant + ties_x
    denom_y = concordant + discordant + ties_y
    if denom_x == 0 or denom_y == 0:
        raise ValidationError("kendall tau is undefined for a constant sequence")
    return (concordant - discordant) / math.sqrt(denom_x * denom_y)


def load_corpus(path: str, fmt: str) -> list[CorpusSample]:
    """Read a corpus: plain text (one sample per line) or JSON lines with a
    "text" field (and an optional "id")."""
    if fmt not in CORPUS_FORMATS:
        raise ValidationError(f"unknown corpus format {fmt!r}")
    return list(_corpus_samples(path, fmt))


def _corpus_samples(path: str, fmt: str) -> Iterator[CorpusSample]:
    """The samples of a corpus file in format `fmt` (one of CORPUS_FORMATS),
    read a line at a time; a malformed line raises when it is reached."""
    for lineno, line in _numbered_lines(path):
        if fmt == "txt":
            yield CorpusSample(id=str(lineno - 1), text=line)
        elif line.strip():
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as e:
                # ValueError: a JSONDecodeError, or an integer beyond int()'s digit limit.
                raise FormatError(f"{path}:{lineno}: invalid JSON ({getattr(e, 'msg', e)})") from e
            if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
                raise FormatError(f"{path}:{lineno}: expected an object with a string 'text'")
            yield CorpusSample(id=str(obj.get("id", lineno - 1)), text=obj["text"])
