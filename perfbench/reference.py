"""Independent token counters for the analyze workload's output check.

The generator knows every pretoken it wrote, so the expected totals need no
pretokenizer. BPE is counted with a heap-based merge (a different algorithm
from the program's scan loop, same rule: lowest rank first, leftmost on
ties), and Unigram with a max-score dynamic program. Unigram scores are
integers, so every summation order gives the same sums and the
fewer-tokens tie-break decides the count exactly.
"""

from __future__ import annotations

import heapq


def _byte_table() -> list[str]:
    # The GPT-2 byte-to-unicode table: printable bytes map to themselves,
    # the rest shift into U+0100 and up.
    keep = set(range(0x21, 0x7F)) | set(range(0xA1, 0xAD)) | set(range(0xAE, 0x100))
    table, shifted = [], 0
    for b in range(256):
        if b in keep:
            table.append(chr(b))
        else:
            table.append(chr(256 + shifted))
            shifted += 1
    return table


BYTE_TO_UNICODE = _byte_table()


def map_bytes_raw(raw: bytes) -> str:
    return "".join(BYTE_TO_UNICODE[b] for b in raw)


def map_bytes(s: str) -> str:
    return map_bytes_raw(s.encode("utf-8"))


def bpe_symbol_count(symbols: str, ranks: dict[tuple[str, str], int]) -> int:
    """Number of symbols left after applying merges to a mapped pretoken."""
    sym: list[str | None] = list(symbols)
    n = len(sym)
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n - 1))
    heap = []
    for i in range(n - 1):
        r = ranks.get((sym[i], sym[i + 1]))
        if r is not None:
            heap.append((r, i, sym[i], sym[i + 1]))
    heapq.heapify(heap)
    count = n
    while heap:
        _, i, a, b = heapq.heappop(heap)
        j = nxt[i]
        # Symbols only grow, so an entry is current iff both sides still match.
        if sym[i] != a or j >= n or sym[j] != b:
            continue
        sym[i] = a + b
        sym[j] = None
        nxt[i] = nxt[j]
        if nxt[i] < n:
            prv[nxt[i]] = i
        count -= 1
        p = prv[i]
        if p >= 0:
            r = ranks.get((sym[p], sym[i]))
            if r is not None:
                heapq.heappush(heap, (r, p, sym[p], sym[i]))
        q = nxt[i]
        if q < n:
            r = ranks.get((sym[i], sym[q]))
            if r is not None:
                heapq.heappush(heap, (r, i, sym[i], sym[q]))
    return count


def unigram_token_count(s: str, scores: dict[str, int], unk_penalty: int, max_len: int) -> int:
    """Token count of the max-score segmentation, fewest tokens on ties."""
    n = len(s)
    best = [(0, 0)] * (n + 1)  # (score, -count) of the best suffix segmentation
    for i in range(n - 1, -1, -1):
        sc, neg = best[i + 1]
        top = (unk_penalty + sc, neg - 1)
        for j in range(i + 1, min(n, i + max_len) + 1):
            v = scores.get(s[i:j])
            if v is not None:
                sc, neg = best[j]
                cand = (v + sc, neg - 1)
                if cand > top:
                    top = cand
        best[i] = top
    return -best[0][1]


def count_bpe(lines: list[list[str]], ranks: dict[tuple[str, str], int]) -> int:
    memo: dict[str, int] = {}
    total = 0
    for pres in lines:
        for p in pres:
            c = memo.get(p)
            if c is None:
                c = memo[p] = bpe_symbol_count(map_bytes(p), ranks)
            total += c
    return total


def count_unigram(lines: list[list[str]], scores: dict[str, int], marker: str = "▁") -> int:
    # The program's default unk penalty: lowest log-prob minus 10.
    unk_penalty = min(scores.values()) - 10
    max_len = max(len(t) for t in scores)
    memo: dict[str, int] = {}
    total = 0
    for pres in lines:
        for p in pres:
            c = memo.get(p)
            if c is None:
                c = memo[p] = unigram_token_count(p.replace(" ", marker), scores,
                                                  unk_penalty, max_len)
            total += c
    return total
