"""Token overlap between a source and a target vocabulary.

Every initialization method branches on this partition: target tokens whose
strings also occur in the source vocabulary keep their source embedding,
the rest get synthesized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .embedding_store import Vocabulary
from .tokenizers import split_marker

CANON_MODES = ("exact", "marker-normalized")
# Collisions quoted in compute_overlap's warning.
_COLLISION_SAMPLE = 5


@dataclass
class OverlapMap:
    """Partition of the target ids into overlapping and non-overlapping.

    `pairs` maps target id -> source id for tokens whose strings match
    under the chosen canonicalization; `non_overlap` lists the remaining
    target ids in ascending order. `warnings` reports target tokens that
    share a source token under marker normalization.
    """

    pairs: dict[int, int]
    non_overlap: list[int]
    warnings: list[str] = field(default_factory=list)

    def target_size(self) -> int:
        return len(self.pairs) + len(self.non_overlap)


def compute_overlap(
    source: Vocabulary, target: Vocabulary, canon: str = "exact"
) -> OverlapMap:
    """Match target tokens against source tokens by string.

    `canon="exact"` compares raw strings. `canon="marker-normalized"`
    additionally treats a leading "Ġ" and a leading "▁" as the same
    word-boundary marker; exact matches are preferred. Target tokens that
    map to a source token an earlier target token maps to get one warning,
    with the count and at most `_COLLISION_SAMPLE` examples.
    """
    if canon not in CANON_MODES:
        raise ValueError(f"unknown canonicalization mode {canon!r}")

    pairs: dict[int, int] = {}
    non_overlap: list[int] = []

    # A marked target token without an exact match can match only the
    # source token with the other marker, so one id per unmarked rest
    # suffices; an unmarked token can match only itself.
    canon_map: dict[str, int] = {}
    if canon == "marker-normalized":
        for sid, tok in enumerate(source.tokens):
            marker, rest = split_marker(tok)
            if marker:
                canon_map[rest] = sid

    claimed: dict[int, int] = {}  # source id -> first claiming target id
    shared: list[int] = []  # target ids whose source id was claimed before
    for tid, tok in enumerate(target.tokens):
        sid = source.index.get(tok)
        if sid is None and canon_map:
            marker, rest = split_marker(tok)
            sid = canon_map.get(rest) if marker else None
        if sid is None:
            non_overlap.append(tid)
            continue
        if sid in claimed:
            shared.append(tid)
        else:
            claimed[sid] = tid
        pairs[tid] = sid

    warnings = []
    if shared:
        examples = [
            f"{target.tokens[claimed[pairs[t]]]!r} and {target.tokens[t]!r} both map "
            f"to {source.tokens[pairs[t]]!r}"
            for t in shared[:_COLLISION_SAMPLE]
        ]
        more = "; ..." if len(shared) > len(examples) else ""
        warnings.append(
            f"{len(shared)} target tokens map to a source token that an earlier target "
            f"token maps to ({'; '.join(examples)}{more})"
        )
    return OverlapMap(pairs=pairs, non_overlap=non_overlap, warnings=warnings)


def overlap_stats(m: OverlapMap) -> dict:
    """Summary counts for reports: sizes of both partitions and the fraction."""
    total = m.target_size()
    count = len(m.pairs)
    return {
        "overlap_count": count,
        "non_overlap_count": len(m.non_overlap),
        "overlap_fraction": (count / total) if total else 0.0,
    }
