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


@dataclass
class OverlapMap:
    """Partition of the target ids into overlapping and non-overlapping.

    `pairs` maps target id -> source id for tokens whose strings match
    under the chosen canonicalization; `non_overlap` lists the remaining
    target ids in ascending order. `warnings` records collisions resolved
    during marker normalization.
    """

    pairs: dict[int, int]
    non_overlap: list[int]
    warnings: list[str] = field(default_factory=list)

    def target_size(self) -> int:
        return len(self.pairs) + len(self.non_overlap)


def _canon(token: str) -> tuple[bool, str]:
    marker, rest = split_marker(token)
    return bool(marker), rest


def compute_overlap(
    source: Vocabulary, target: Vocabulary, canon: str = "exact"
) -> OverlapMap:
    """Match target tokens against source tokens by string.

    `canon="exact"` compares raw strings. `canon="marker-normalized"`
    additionally treats a leading "Ġ" and a leading "▁" as the same
    word-boundary marker; exact matches are preferred, and an ambiguous
    normalized match resolves to the lowest source id with a warning.
    """
    if canon not in CANON_MODES:
        raise ValueError(f"unknown canonicalization mode {canon!r}")

    pairs: dict[int, int] = {}
    non_overlap: list[int] = []
    warnings: list[str] = []

    canon_map: dict[tuple[bool, str], list[int]] = {}
    if canon == "marker-normalized":
        for sid, tok in enumerate(source.tokens):
            canon_map.setdefault(_canon(tok), []).append(sid)

    claimed: dict[int, int] = {}  # source id -> first claiming target id
    for tid, tok in enumerate(target.tokens):
        sid = source.index.get(tok)
        if sid is None and canon == "marker-normalized":
            candidates = canon_map.get(_canon(tok))
            if candidates:
                sid = candidates[0]
                if len(candidates) > 1:
                    warnings.append(
                        f"target token {tok!r} matches source ids "
                        f"{candidates} after marker normalization; using {sid}"
                    )
        if sid is None:
            non_overlap.append(tid)
            continue
        if sid in claimed:
            other = claimed[sid]
            warnings.append(
                f"target tokens {target.tokens[other]!r} and {tok!r} both map "
                f"to source token {source.tokens[sid]!r}"
            )
        else:
            claimed[sid] = tid
        pairs[tid] = sid

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
