"""Deterministic input generators for the four benchmark workloads.

Every input is a pure function of (workload, seed, scale): sizes depend only
on the workload and scale, contents on the seed. Each generator writes its
files into a work directory and returns a `Workload` holding the CLI
arguments, the files each loader reads, and the expectations the output
checks compare against. Nothing here imports vocabport: the program only
ever sees the generated files.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

import reference

VEMB_HEADER = struct.Struct("<4sIQQI")

# Sizes per workload. "full" is what the benchmark measures; "tiny" is for
# the self-test and only has to exercise every code path.
SCALES = {
    "full": {
        "init-clp-plus": dict(source=10_000, dim=1024, aux_dim=768, overlap=8_000, queries=36),
        "init-heuristics": dict(source=24_000, dim=1024, target=12_000),
        "init-focus-vec": dict(source=8_000, dim=512, vec_rows=16_500, vec_dim=300,
                               support=1_500, queries=150),
        "analyze-mixed": dict(words=9_000, lines=1_400),
    },
    "tiny": {
        "init-clp-plus": dict(source=400, dim=32, aux_dim=24, overlap=300, queries=12),
        "init-heuristics": dict(source=1_200, dim=32, target=800),
        "init-focus-vec": dict(source=400, dim=32, vec_rows=900, vec_dim=16,
                               support=80, queries=10),
        "analyze-mixed": dict(words=600, lines=100),
    },
}
WORKLOADS = tuple(SCALES["full"])


@dataclass
class Workload:
    """One generated workload: CLI argv plus everything the checks need."""

    name: str
    argv: list[str]
    # (loader name, positional file args) in the order the CLI calls them;
    # the set-up probe replays exactly these calls.
    loaders: list[tuple[str, list[str]]]
    outputs: list[str]
    # Rows the command synthesizes (init) or corpus samples (analyze).
    work_rows: int
    expect: dict = field(default_factory=dict)
    shapes: dict = field(default_factory=dict)
    # Whether the command's time follows the speed of the core it runs on,
    # so run.py scales it to the reference core speed (run.CoreSpeed).
    core_bound: bool = True


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(name.encode()) * 1_000_003 + len(name)])


# ---------------------------------------------------------------- writers


def write_vemb(path: str, a: np.ndarray) -> None:
    a = np.ascontiguousarray(a, dtype="<f4")
    with open(path, "wb") as f:
        f.write(VEMB_HEADER.pack(b"VEMB", 1, a.shape[0], a.shape[1], 0))
        a.tofile(f)


def read_vemb(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        magic, _, rows, cols, _ = VEMB_HEADER.unpack(f.read(VEMB_HEADER.size))
    if magic != b"VEMB":
        raise ValueError(f"{path}: not a VEMB file")
    return np.memmap(path, dtype="<f4", mode="r", offset=VEMB_HEADER.size, shape=(rows, cols))


def write_json_vocab(path: str, tokens: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({t: i for i, t in enumerate(tokens)}, f, ensure_ascii=False)


def write_vec(path: str, tokens: list[str], a: np.ndarray) -> None:
    """fastText-style text: header "count dim", then "token v1 ... vd".

    Values are quantized to 4 decimals and formatted through a lookup
    table, so a 10^4-row file takes a fraction of a second to write.
    """
    q = np.clip(np.rint(a * 10_000), -99_999, 99_999).astype(np.int64)
    table = np.array([f"{v / 10_000:.4f}" for v in range(-99_999, 100_000)], dtype=object)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{len(tokens)} {a.shape[1]}\n")
        for tok, row in zip(tokens, q):
            f.write(tok + " " + " ".join(table[row + 99_999].tolist()) + "\n")


def _size(path: str) -> int:
    return os.path.getsize(path)


# ---------------------------------------------------------------- tokens

LATIN = [chr(c) for c in range(ord("a"), ord("z") + 1)]
CYRILLIC = [chr(c) for c in range(0x0430, 0x0450)]
ARABIC = [chr(c) for c in range(0x0627, 0x063B)] + [chr(c) for c in range(0x0641, 0x064B)]
HAN = [chr(c) for c in range(0x4E00, 0x4E00 + 1500)]
KANA = [chr(c) for c in range(0x3041, 0x3097)] + [chr(c) for c in range(0x30A1, 0x30FB)]


def _words(rng, alphabet, n, lo, hi):
    """n distinct random words over an alphabet, lengths in [lo, hi]."""
    out: list[str] = []
    seen = set()
    while len(out) < n:
        k = n - len(out)
        lengths = rng.integers(lo, hi + 1, size=k)
        codes = rng.integers(0, len(alphabet), size=int(lengths.sum()))
        pos = 0
        for L in lengths.tolist():
            w = "".join(alphabet[c] for c in codes[pos : pos + L].tolist())
            pos += L
            if w not in seen:
                seen.add(w)
                out.append(w)
    return out


def _words_of_lengths(rng, alphabet, lengths):
    """Distinct random words over an alphabet, one of each given length, in order."""
    out: list[str] = []
    seen = set()
    for L in lengths.tolist():
        w = None
        while w is None or w in seen:
            w = "".join(alphabet[c] for c in rng.integers(0, len(alphabet), size=L).tolist())
        seen.add(w)
        out.append(w)
    return out


def _normal(rng, rows, cols, scale=0.02):
    return (rng.standard_normal((rows, cols), dtype=np.float32) * np.float32(scale))


# ---------------------------------------------------------------- init-clp-plus


def gen_clp_plus(work: str, seed: int, p: dict) -> Workload:
    """Untied source, aux model sharing the target vocab, mostly overlap.

    A few percent of target tokens have no aux vector and a few aux rows are
    all zero, so the random-fallback, zero-norm support and zero-norm query
    paths all run.
    """
    rng = _rng(seed, "init-clp-plus")
    src_tokens = ["Ġ" + w for w in _words(rng, LATIN, p["source"], 3, 10)]
    new_tokens = ["Ġ" + w for w in _words(rng, CYRILLIC, p["queries"], 3, 9)]
    overlap_src = rng.choice(p["source"], size=p["overlap"], replace=False)
    target = [src_tokens[s] for s in overlap_src.tolist()] + new_tokens
    perm = rng.permutation(len(target))
    target = [target[i] for i in perm.tolist()]
    is_new = perm >= p["overlap"]

    # ~3% of overlap tokens and ~1/6 of the query tokens lack an aux vector.
    missing = np.zeros(len(target), dtype=bool)
    ov_ids = np.nonzero(~is_new)[0]
    q_ids = np.nonzero(is_new)[0]
    missing[rng.choice(ov_ids, size=max(1, len(ov_ids) * 3 // 100), replace=False)] = True
    missing[rng.choice(q_ids, size=max(1, len(q_ids) // 6), replace=False)] = True
    aux_tokens = [t for t, m in zip(target, missing.tolist()) if not m]
    aux_tokens += ["Ġ" + w for w in _words(rng, LATIN, 50, 11, 14)]  # aux-only tokens
    aux_perm = rng.permutation(len(aux_tokens))
    aux_tokens = [aux_tokens[i] for i in aux_perm.tolist()]
    aux = _normal(rng, len(aux_tokens), p["aux_dim"], 1.0)
    aux_index = {t: i for i, t in enumerate(aux_tokens)}
    # Zero rows: ~0.5% of the support and two query tokens.
    zero_support = [aux_index[target[t]] for t in
                    rng.choice(np.nonzero(~is_new & ~missing)[0], size=max(1, len(ov_ids) // 200),
                               replace=False).tolist()]
    zero_query = [aux_index[target[t]] for t in np.nonzero(is_new & ~missing)[0][:2].tolist()]
    aux[zero_support + zero_query] = 0.0

    src_in = _normal(rng, p["source"], p["dim"])
    src_out = _normal(rng, p["source"], p["dim"])
    paths = _paths(work, "src_vocab.json", "src_in.vemb", "src_out.vemb", "tgt_vocab.json",
                   "aux_vocab.json", "aux.vemb", "out_in.vemb", "out_out.vemb", "report.json")
    write_json_vocab(paths["src_vocab.json"], src_tokens)
    write_vemb(paths["src_in.vemb"], src_in)
    write_vemb(paths["src_out.vemb"], src_out)
    write_json_vocab(paths["tgt_vocab.json"], target)
    write_json_vocab(paths["aux_vocab.json"], aux_tokens)
    write_vemb(paths["aux.vemb"], aux)

    src_index = {t: i for i, t in enumerate(src_tokens)}
    pairs = {t: src_index[tok] for t, tok in enumerate(target) if not is_new[t]}
    support_src = np.array(sorted(s for t, s in pairs.items() if not missing[t]), dtype=np.int64)
    n_fallback = int(np.count_nonzero(is_new & missing))
    expect = dict(
        kind="init", target=len(target), copied=len(pairs),
        similarity_initialized=int(np.count_nonzero(is_new)) - n_fallback,
        group_sampled=0, random_fallback=n_fallback,
        pairs=pairs, similarity_ids=np.nonzero(is_new & ~missing)[0],
        hull=[_hull(src_in, support_src), _hull(src_out, support_src)],
    )
    argv = ["init", "--method", "clp-plus",
            "--source-vocab", paths["src_vocab.json"], "--source-emb", paths["src_in.vemb"],
            "--source-out-emb", paths["src_out.vemb"], "--target-vocab", paths["tgt_vocab.json"],
            "--aux-vocab", paths["aux_vocab.json"], "--aux-emb", paths["aux.vemb"],
            "--seed", str(seed), "--out-emb", paths["out_in.vemb"],
            "--out-out-emb", paths["out_out.vemb"], "--report", paths["report.json"]]
    loaders = [("load_vocab", [paths["src_vocab.json"]]),
               ("load_matrix", [paths["src_in.vemb"]]),
               ("load_matrix", [paths["src_out.vemb"]]),
               ("load_vocab", [paths["tgt_vocab.json"]]),
               ("load_aux_model", [paths["aux_vocab.json"], paths["aux.vemb"],
                                  paths["tgt_vocab.json"]])]
    shapes = dict(source=[p["source"], p["dim"]], untied=True, target=len(target),
                  overlap=len(pairs), support=len(support_src), aux=[len(aux_tokens), p["aux_dim"]],
                  zero_aux_rows=len(zero_support) + len(zero_query),
                  input_bytes=_input_bytes(paths, ["src_vocab.json", "src_in.vemb", "src_out.vemb",
                                                   "tgt_vocab.json", "aux_vocab.json", "aux.vemb"]))
    return Workload("init-clp-plus", argv, loaders,
                    [paths["out_in.vemb"], paths["out_out.vemb"], paths["report.json"]],
                    work_rows=int(np.count_nonzero(is_new)), expect=expect, shapes=shapes,
                    # convex_combine streams ~32 MB of gathered support rows per
                    # query row, so memory traffic, not the core, sets the pace:
                    # within a run its time correlated 0.61 with the core speed
                    # (0.88-0.96 on the other workloads), and over ten runs
                    # scaling widened its spread (IQR/median 0.093 -> 0.164).
                    core_bound=False)


def _hull(m: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = m[ids]
    return rows.min(axis=0), rows.max(axis=0)


def _paths(work: str, *names: str) -> dict[str, str]:
    return {n: os.path.join(work, n) for n in names}


def _input_bytes(paths: dict, names: list[str]) -> dict[str, int]:
    return {n: _size(paths[n]) for n in names}


# ---------------------------------------------------------------- init-heuristics


def _fragments(rng, n, exclude):
    """Byte-level tokens that are not valid UTF-8: 0-2 Han characters
    followed by the first one or two bytes of another."""
    out, seen = [], set(exclude)
    while len(out) < n:
        codes = rng.integers(0, len(HAN), size=3).tolist()
        head = "".join(HAN[c] for c in codes[: int(rng.integers(0, 3))]).encode("utf-8")
        tok = reference.map_bytes_raw(head + HAN[codes[2]].encode("utf-8")[: int(rng.integers(1, 3))])
        if len(out) % 2 == 0:
            tok = "Ġ" + tok
        if tok not in seen:
            seen.add(tok)
            out.append(tok)
    return out


def _digits(rng, n, exclude):
    out, seen = [], set(exclude)
    while len(out) < n:
        tok = str(int(rng.integers(0, 10 ** int(rng.integers(1, 7)))))
        tok = ("Ġ" + tok) if len(out) % 2 == 0 else tok
        if tok not in seen:
            seen.add(tok)
            out.append(tok)
    return out


def _byte_level_words(rng, alphabet, n, lo, hi, exclude=frozenset()):
    """n distinct byte-level tokens not in exclude; every other one starts
    with a space (Ġ, word-initial)."""
    out, seen = [], set(exclude)
    while len(out) < n:
        for w in _words(rng, alphabet, n - len(out), lo, hi):
            tok = reference.map_bytes((" " if len(out) % 2 == 0 else "") + w)
            if tok not in seen:
                seen.add(tok)
                out.append(tok)
    return out


def gen_heuristics(work: str, seed: int, p: dict) -> Workload:
    """Multi-script byte-level source; ~25% overlap; new tokens mostly Arabic.

    New Arabic tokens land in well-populated Arabic groups (group-sampled);
    new digit and byte-fragment tokens classify Unknown (random fallback).
    """
    rng = _rng(seed, "init-heuristics")
    n = p["source"]
    src: list[str] = []
    src += _byte_level_words(rng, LATIN, n * 40 // 100, 2, 9)
    src += _byte_level_words(rng, CYRILLIC, n * 15 // 100, 2, 8, src)
    src += _byte_level_words(rng, ARABIC, n * 20 // 100, 2, 6, src)
    src += _byte_level_words(rng, HAN, n * 10 // 100, 1, 2, src)
    src += _digits(rng, n * 5 // 100, src)
    src += _fragments(rng, n - len(src), src)
    # The same layout for every seed: group sizes and the order in which
    # groups first appear are fixed, so the program allocates the same
    # sequence of group-sized blocks and peak RSS does not depend on the seed.
    src = [src[i] for i in np.random.default_rng(0).permutation(len(src)).tolist()]

    n_target = p["target"]
    n_overlap = n_target // 4
    n_arabic = (n_target - n_overlap) * 7 // 10
    n_unknown = n_target - n_overlap - n_arabic
    srcset = set(src)
    new_arabic = _byte_level_words(rng, ARABIC, n_arabic, 3, 7, srcset)
    taken = srcset | set(new_arabic)
    new_unknown = _digits(rng, n_unknown // 2, taken)
    new_unknown += _fragments(rng, n_unknown - len(new_unknown), taken | set(new_unknown))
    overlap_src = rng.choice(n, size=n_overlap, replace=False)
    target = [src[s] for s in overlap_src.tolist()] + new_arabic + new_unknown
    target = [target[i] for i in rng.permutation(len(target)).tolist()]

    src_in = _normal(rng, n, p["dim"])
    src_out = _normal(rng, n, p["dim"])
    paths = _paths(work, "src_vocab.json", "src_in.vemb", "src_out.vemb", "tgt_vocab.json",
                   "out_in.vemb", "out_out.vemb", "report.json")
    write_json_vocab(paths["src_vocab.json"], src)
    write_vemb(paths["src_in.vemb"], src_in)
    write_vemb(paths["src_out.vemb"], src_out)
    write_json_vocab(paths["tgt_vocab.json"], target)
    del src_in, src_out

    src_index = {t: i for i, t in enumerate(src)}
    pairs = {t: src_index[tok] for t, tok in enumerate(target) if tok in src_index}
    expect = dict(kind="init", target=len(target), copied=len(pairs), similarity_initialized=0,
                  group_sampled=n_arabic, random_fallback=n_unknown, pairs=pairs)
    argv = ["init", "--method", "heuristics",
            "--source-vocab", paths["src_vocab.json"], "--source-emb", paths["src_in.vemb"],
            "--source-out-emb", paths["src_out.vemb"], "--target-vocab", paths["tgt_vocab.json"],
            "--seed", str(seed), "--out-emb", paths["out_in.vemb"],
            "--out-out-emb", paths["out_out.vemb"], "--report", paths["report.json"]]
    loaders = [("load_vocab", [paths["src_vocab.json"]]),
               ("load_matrix", [paths["src_in.vemb"]]),
               ("load_matrix", [paths["src_out.vemb"]]),
               ("load_vocab", [paths["tgt_vocab.json"]])]
    shapes = dict(source=[n, p["dim"]], untied=True, target=len(target), overlap=len(pairs),
                  new_arabic=n_arabic, new_unknown=n_unknown,
                  input_bytes=_input_bytes(paths, ["src_vocab.json", "src_in.vemb",
                                                   "src_out.vemb", "tgt_vocab.json"]))
    return Workload("init-heuristics", argv, loaders,
                    [paths["out_in.vemb"], paths["out_out.vemb"], paths["report.json"]],
                    work_rows=len(target) - len(pairs), expect=expect, shapes=shapes)


# ---------------------------------------------------------------- init-focus-vec


def gen_focus(work: str, seed: int, p: dict) -> Workload:
    """Tied source and a .vec file of which only ~1 row in 10 aligns to the target.

    Target = support (overlap with a vector) + queries (new, with a vector)
    + a few new tokens without a vector (random fallback).
    """
    rng = _rng(seed, "init-focus-vec")
    src_tokens = _words(rng, LATIN, p["source"], 3, 10)
    new_tokens = _words(rng, CYRILLIC, p["queries"] + p["queries"] // 5, 3, 9)
    queries, orphans = new_tokens[: p["queries"]], new_tokens[p["queries"]:]
    support_src = np.sort(rng.choice(p["source"], size=p["support"], replace=False))
    support_tokens = [src_tokens[s] for s in support_src.tolist()]
    target = support_tokens + queries + orphans
    target = [target[i] for i in rng.permutation(len(target)).tolist()]

    aligned = support_tokens + queries
    filler = _words(rng, LATIN, p["vec_rows"] - len(aligned), 11, 16)  # never in the target
    vec_tokens = aligned + filler
    vec_tokens = [vec_tokens[i] for i in rng.permutation(len(vec_tokens)).tolist()]
    vecs = rng.standard_normal((len(vec_tokens), p["vec_dim"]), dtype=np.float32) * np.float32(0.3)
    src = _normal(rng, p["source"], p["dim"])
    paths = _paths(work, "src_vocab.txt", "src.vemb", "tgt_vocab.txt", "words.vec",
                   "out.vemb", "report.json")
    for name, toks in (("src_vocab.txt", src_tokens), ("tgt_vocab.txt", target)):
        with open(paths[name], "w", encoding="utf-8") as f:
            f.write("\n".join(toks) + "\n")
    write_vemb(paths["src.vemb"], src)
    write_vec(paths["words.vec"], vec_tokens, vecs)

    src_index = {t: i for i, t in enumerate(src_tokens)}
    pairs = {t: src_index[tok] for t, tok in enumerate(target) if tok in src_index}
    qset = set(queries)
    expect = dict(kind="init", target=len(target), copied=len(pairs),
                  similarity_initialized=len(queries), group_sampled=0,
                  random_fallback=len(orphans), pairs=pairs,
                  similarity_ids=np.array([t for t, tok in enumerate(target) if tok in qset],
                                          dtype=np.int64),
                  hull=[_hull(src, support_src)])
    argv = ["init", "--method", "focus",
            "--source-vocab", paths["src_vocab.txt"], "--source-emb", paths["src.vemb"],
            "--target-vocab", paths["tgt_vocab.txt"], "--word-vecs", paths["words.vec"],
            "--seed", str(seed), "--out-emb", paths["out.vemb"], "--report", paths["report.json"]]
    loaders = [("load_vocab", [paths["src_vocab.txt"]]),
               ("load_matrix", [paths["src.vemb"]]),
               ("load_vocab", [paths["tgt_vocab.txt"]]),
               ("load_word_vectors", [paths["words.vec"], paths["tgt_vocab.txt"]])]
    shapes = dict(source=[p["source"], p["dim"]], untied=False, target=len(target),
                  support=p["support"], vec=[len(vec_tokens), p["vec_dim"]],
                  vec_aligned=len(aligned),
                  input_bytes=_input_bytes(paths, ["src_vocab.txt", "src.vemb",
                                                   "tgt_vocab.txt", "words.vec"]))
    return Workload("init-focus-vec", argv, loaders, [paths["out.vemb"], paths["report.json"]],
                    work_rows=len(queries) + len(orphans), expect=expect, shapes=shapes)


# ---------------------------------------------------------------- analyze-mixed


class _Zipf:
    """Draws item indices with probability proportional to rank^-a."""

    def __init__(self, n_items: int, a: float = 1.1):
        w = np.arange(1, n_items + 1, dtype=np.float64) ** -a
        self.cdf = np.cumsum(w / w.sum())

    def draw(self, rng, size: int) -> np.ndarray:
        return np.minimum(np.searchsorted(self.cdf, rng.random(size), side="right"),
                          len(self.cdf) - 1)


def gen_analyze(work: str, seed: int, p: dict) -> Workload:
    """Byte-level BPE source vs Unigram target on a mixed-script corpus.

    Latin/Arabic lines are Zipf-distributed short words; Japanese/Chinese-like
    lines are 10-40-character clauses between 、 and 。, each one pretoken.
    Some Han characters are left out of the Unigram vocabulary (unk path).

    The shape of the input is the same for every seed: word lengths by rank,
    which rank stands at each corpus position, line types, clause lengths,
    punctuation and where the rare characters go all come from a fixed
    `layout` generator. The seed only picks the characters, so every seed
    does the same tokenizer work (with the layout drawn per seed as well,
    interleaved commands of six seeds differed by up to 10%).
    """
    rng = _rng(seed, "analyze-mixed")
    layout = _rng(0, "analyze-mixed")
    nw = p["words"]
    n_latin, n_arabic = nw * 4 // 9, nw * 3 // 9
    latin = _words_of_lengths(rng, LATIN, layout.integers(2, 10, size=n_latin))
    arabic = _words_of_lengths(rng, ARABIC, layout.integers(2, 8, size=n_arabic))
    cjk = _words_of_lengths(rng, HAN[:1200] + KANA,
                            layout.integers(1, 4, size=nw - n_latin - n_arabic))
    lexicon = latin + arabic + cjk  # frequency order = list order within a script
    scripts = [(latin, _Zipf(len(latin))), (arabic, _Zipf(len(arabic)))]
    zipf_cjk = _Zipf(len(cjk))

    lines: list[str] = []
    pretokens: list[list[str]] = []
    for i in range(p["lines"]):
        kind = i % 20
        if kind < 13:
            words, zipf = scripts[0] if kind < 8 else scripts[1]
            idx = zipf.draw(layout, 5 + i * 7 % 11)
            parts, pres = [], []
            for k, w in enumerate(idx.tolist()):
                tok = words[w] if k == 0 else " " + words[w]
                parts.append(tok)
                pres.append(tok)
                if layout.random() < 0.08:
                    parts.append(",")
                    pres.append(",")
            if i % 5 == 0:
                num = " " + str(int(layout.integers(1, 3000)))
                parts.append(num)
                pres.append(num)
        else:
            parts, pres = [], []
            for c in range(1 + i % 3):
                clause = ""
                target_len = 10 + (i * 13 + c * 7) % 31
                for w in zipf_cjk.draw(layout, target_len).tolist():
                    clause += cjk[w]
                    if len(clause) >= target_len:
                        break
                if (i + c) % 3 == 0:  # a rare character (not in the Unigram vocab)
                    k = int(layout.integers(len(clause)))
                    clause = clause[:k] + HAN[1200 + int(rng.integers(300))] + clause[k:]
                punct = "、" if c % 2 == 0 else "。"
                parts += [clause, punct]
                pres += [clause, punct]
        lines.append("".join(parts))
        pretokens.append(pres)

    # BPE: left-branching merge chains for each lexicon word, with and
    # without the leading space, most frequent words first.
    merges: dict[tuple[str, str], None] = {}
    vocab: dict[str, None] = dict.fromkeys(reference.BYTE_TO_UNICODE)
    for w in lexicon:
        for form in (" " + w, w):
            s = reference.map_bytes(form)
            for i in range(1, len(s)):
                merges.setdefault((s[:i], s[i]), None)
                vocab.setdefault(s[: i + 1], None)
    merge_list = list(merges)

    # Unigram: integer log-probs so score ties are exact in every summation order.
    uni: dict[str, int] = {"<unk>": -30, "▁": -12}
    chars = sorted({c for w in lexicon for c in w} | set(",、。0123456789"))
    for c in chars:
        uni.setdefault(c, -12)
        uni.setdefault("▁" + c, -13)
    for r, w in enumerate(lexicon):
        score = -2 - min(6, r % 97 // 16)
        uni.setdefault(w, score)
        uni.setdefault("▁" + w, score)
    uni_tokens = list(uni)

    paths = _paths(work, "bpe_vocab.json", "bpe_merges.txt", "unigram.tsv", "corpus.txt",
                   "report.json")
    write_json_vocab(paths["bpe_vocab.json"], list(vocab))
    with open(paths["bpe_merges.txt"], "w", encoding="utf-8") as f:
        f.write("#version: 0.2\n")
        f.write("".join(f"{a} {b}\n" for a, b in merge_list))
    with open(paths["unigram.tsv"], "w", encoding="utf-8") as f:
        f.write("".join(f"{t}\t{uni[t]}\n" for t in uni_tokens))
    with open(paths["corpus.txt"], "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")

    ranks = {m: i for i, m in enumerate(merge_list)}
    src_total = reference.count_bpe(pretokens, ranks)
    tgt_total = reference.count_unigram(pretokens, uni)
    expect = dict(kind="analyze", n_samples=len(lines),
                  tokens_source=src_total, tokens_target=tgt_total)
    argv = ["analyze", "--source-vocab", paths["bpe_vocab.json"],
            "--source-merges", paths["bpe_merges.txt"], "--target-scores", paths["unigram.tsv"],
            "--corpus", paths["corpus.txt"], "--out", paths["report.json"]]
    loaders = [("load_bpe_spec", [paths["bpe_vocab.json"], paths["bpe_merges.txt"]]),
               ("load_unigram_spec", [paths["unigram.tsv"]]),
               ("load_corpus", [paths["corpus.txt"], "txt"])]
    shapes = dict(lines=len(lines), corpus_bytes=_size(paths["corpus.txt"]),
                  merges=len(merge_list), bpe_vocab=len(vocab), unigram_vocab=len(uni_tokens),
                  input_bytes=_input_bytes(paths, ["bpe_vocab.json", "bpe_merges.txt",
                                                   "unigram.tsv", "corpus.txt"]))
    return Workload("analyze-mixed", argv, loaders, [paths["report.json"]],
                    work_rows=len(lines), expect=expect, shapes=shapes)


GENERATORS = {
    "init-clp-plus": gen_clp_plus,
    "init-heuristics": gen_heuristics,
    "init-focus-vec": gen_focus,
    "analyze-mixed": gen_analyze,
}


def generate(name: str, work: str, seed: int, scale: str = "full") -> Workload:
    os.makedirs(work, exist_ok=True)
    return GENERATORS[name](work, seed, SCALES[scale][name])
