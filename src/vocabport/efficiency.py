"""Token-count efficiency measurement and rank-correlation utilities.

The speedup convention is fixed as

    speedup_pct = 100 * (avg_source - avg_target) / avg_target

so positive values mean the target tokenizer needs fewer tokens and a
negative value is a slowdown.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .embedding_store import _read_utf8, _split_lines
from .errors import FormatError, ValidationError
from .tokenizers import TokenizerSpec, count_tokens

CORPUS_FORMATS = ("txt", "jsonl")


@dataclass
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


def avg_tokens(spec: TokenizerSpec, corpus: list[CorpusSample]) -> float:
    """Mean token count per sample; every sample weighs the same."""
    if not corpus:
        raise ValidationError("cannot average over an empty corpus")
    return sum(count_tokens(spec, s.text) for s in corpus) / len(corpus)


def speedup_ratio(avg_source: float, avg_target: float) -> float:
    """100 * (avg_source - avg_target) / avg_target; negative = slowdown."""
    if avg_target <= 0:
        raise ValidationError("average target token count must be positive")
    return 100.0 * (avg_source - avg_target) / avg_target


def analyze_corpus(
    source_spec: TokenizerSpec,
    target_spec: TokenizerSpec,
    corpus: list[CorpusSample],
    corpus_id: str = "",
    include_per_sample: bool = False,
) -> EfficiencyReport:
    """Count tokens under both tokenizers and fill an EfficiencyReport."""
    if not corpus:
        raise ValidationError("cannot analyze an empty corpus")
    source_counts = [count_tokens(source_spec, s.text) for s in corpus]
    target_counts = [count_tokens(target_spec, s.text) for s in corpus]
    n = len(corpus)
    avg_source = sum(source_counts) / n
    avg_target = sum(target_counts) / n
    per_sample = None
    if include_per_sample:
        per_sample = [
            {"id": s.id, "tokens_source": cs, "tokens_target": ct}
            for s, cs, ct in zip(corpus, source_counts, target_counts)
        ]
    return EfficiencyReport(
        corpus_id=corpus_id,
        n_samples=n,
        avg_tokens_source=avg_source,
        avg_tokens_target=avg_target,
        speedup_pct=speedup_ratio(avg_source, avg_target),
        per_sample=per_sample,
    )


def kendall_tau(x, y) -> float:
    """Tie-corrected rank correlation (tau-b) over all pairs.

        tau = (C - D) / sqrt((C + D + Tx) * (C + D + Ty))

    C and D count concordant and discordant pairs; Tx and Ty count pairs
    tied only in x or only in y (pairs tied in both count in neither).
    Raises when either sequence is constant, where tau is undefined, and
    on NaN or infinite values, which have no rank.
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
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    denom_x = concordant + discordant + ties_x
    denom_y = concordant + discordant + ties_y
    if denom_x == 0 or denom_y == 0:
        raise ValidationError("kendall tau is undefined for a constant sequence")
    return (concordant - discordant) / math.sqrt(denom_x * denom_y)


def load_corpus(path: str, fmt: str = "txt") -> list[CorpusSample]:
    """Read a corpus: plain text (one sample per line) or JSON lines with a
    "text" field (and an optional "id")."""
    if fmt not in CORPUS_FORMATS:
        raise ValidationError(f"unknown corpus format {fmt!r}")
    lines = _split_lines(_read_utf8(path))
    samples: list[CorpusSample] = []
    if fmt == "txt":
        for i, line in enumerate(lines):
            samples.append(CorpusSample(id=str(i), text=line))
        return samples
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as e:
            # ValueError: a JSONDecodeError, or an integer beyond int()'s digit limit.
            raise FormatError(f"{path}:{lineno}: invalid JSON ({getattr(e, 'msg', e)})") from e
        if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
            raise FormatError(f"{path}:{lineno}: expected an object with a string 'text'")
        samples.append(CorpusSample(id=str(obj.get("id", lineno - 1)), text=obj["text"]))
    return samples
