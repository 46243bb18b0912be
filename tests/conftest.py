"""Shared builders: toy tokenizer specs and a synthetic source/target instance."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from vocabport import kernels
from vocabport.aux_vectors import (
    WORD_VECTORS,
    AuxEmbeddings,
    _align,
    load_aux_model,
    load_word_vectors,
)
from vocabport.embedding_store import (
    EmbeddingMatrix,
    ModelBundle,
    Vocabulary,
    _check_dims,
    _read_utf8,
    _split_lines,
    save_matrix,
)
from vocabport.errors import FormatError, ValidationError
from vocabport.script_groups import GroupStats
from vocabport.tokenizers import BYTE_TO_UNICODE, UNICODE_TO_BYTE, BpeSpec, UnigramSpec

G = BYTE_TO_UNICODE[ord(" ")]  # "Ġ"

ASCII_BYTE_SYMBOLS = [BYTE_TO_UNICODE[b] for b in range(256)]


def sparsemax_oracle(z):
    """Brute-force simplex projection: enumerate every support set and keep
    the feasible candidate closest to z in Euclidean distance."""
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    best, best_dist = None, None
    for mask in range(1, 2**n):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        tau = (z[sel].sum() - 1.0) / sel.sum()
        p = np.zeros(n)
        p[sel] = z[sel] - tau
        if (p[sel] < -1e-12).any():
            continue
        dist = float(((p - z) ** 2).sum())
        if best_dist is None or dist < best_dist:
            best, best_dist = p, dist
    return best


@pytest.fixture
def recorded_supports(monkeypatch):
    """The number of rows each support-side split passes through
    kernels._split, in order: one query row's candidates, or the whole
    support for a clp call or a block's rows without their certificate."""
    sizes = []
    support_blocks = kernels.SupportCosines._support_blocks

    def recorded(self, ids):
        sizes.append(0)
        for part, *split in support_blocks(self, ids):
            sizes[-1] += len(split[0])
            yield part, *split

    monkeypatch.setattr(kernels.SupportCosines, "_support_blocks", recorded)
    return sizes


def bpe_merge_oracle(symbols, ranks):
    """Scan every applicable merge, apply the globally lowest rank at its
    leftmost occurrence, repeat until none applies."""
    symbols = list(symbols)
    while True:
        applicable = [
            (rank, i)
            for i, pair in enumerate(zip(symbols, symbols[1:]))
            if (rank := ranks.get(pair)) is not None
        ]
        if not applicable:
            return symbols
        _, i = min(applicable)
        symbols = symbols[:i] + [symbols[i] + symbols[i + 1]] + symbols[i + 2 :]


def _char_class(c: str) -> str:
    if c.isspace():
        return "space"
    if c.isalpha():
        return "letter"
    if c.isnumeric():
        return "numeric"
    return "other"


def pretokenize_oracle(text: str) -> list[str]:
    """The boundary rule as a state machine over characters, one class
    lookup per character."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == " " and i + 1 < n and not text[i + 1].isspace():
            cls = _char_class(text[i + 1])
            j = i + 1
            while j < n and _char_class(text[j]) == cls:
                j += 1
            out.append(text[i:j])
            i = j
        elif c.isspace():
            j = i
            while j < n and text[j].isspace():
                j += 1
            if j == n:
                out.append(text[i:j])
                i = j
            else:
                # Split off the run's last char; a plain space folds into
                # the next pretoken, any other whitespace stands alone.
                if j - 1 > i:
                    out.append(text[i : j - 1])
                if text[j - 1] == " ":
                    i = j - 1
                else:
                    out.append(text[j - 1 : j])
                    i = j
        else:
            cls = _char_class(c)
            j = i
            while j < n and _char_class(text[j]) == cls:
                j += 1
            out.append(text[i:j])
            i = j
    return out


def map_bytes_oracle(s: str) -> str:
    return "".join(BYTE_TO_UNICODE[b] for b in s.encode("utf-8"))


def unmap_bytes_oracle(s: str) -> str:
    try:
        raw = bytes(UNICODE_TO_BYTE[c] for c in s)
    except KeyError as e:
        raise ValidationError(f"symbol {e.args[0]!r} is not in the byte alphabet") from e
    return raw.decode("utf-8")


def bpe_oracle_encode(spec, text):
    from vocabport.tokenizers import byte_level_pretokenize

    ids = []
    for pre in byte_level_pretokenize(text):
        for sym in bpe_merge_oracle(list(pre), spec.ranks):
            if sym in spec.vocab.index:
                ids.append(spec.vocab.index[sym])
            else:
                ids.extend(spec.vocab.index[c] for c in sym)
    return ids


def unigram_oracle(spec, s):
    """Enumerate every segmentation into vocab tokens or single-char unks;
    maximize (score, fewer tokens, leftmost-longest, real-over-unk)."""
    best = None

    def rec(i, ids, segs, score):
        nonlocal best
        if i == len(s):
            key = (score, -len(ids), tuple(segs))
            if best is None or key > best[0]:
                best = (key, list(ids))
            return
        for j in range(i + 1, len(s) + 1):
            tid = spec.vocab.index.get(s[i:j])
            if tid is not None:
                ids.append(tid)
                segs.append((j - i, 1))
                rec(j, ids, segs, score + float(spec.log_probs[tid]))
                ids.pop()
                segs.pop()
        ids.append(spec.unk_id)
        segs.append((1, 0))
        rec(i + 1, ids, segs, score + spec.unk_penalty)
        ids.pop()
        segs.pop()

    rec(0, [], [], 0.0)
    return best[1], best[0][0]


def viterbi_full_window_oracle(spec, s):
    """The Viterbi pass with one window for every position: the length of
    the longest vocabulary token, whatever character starts it."""
    max_len = max((len(t) for t in spec.vocab.tokens), default=0)
    n = len(s)
    best_score = [0.0] * (n + 1)
    best_count = [0] * (n + 1)
    step = [(0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        best = (spec.unk_penalty + best_score[i + 1], -(1 + best_count[i + 1]), i + 1, 0)
        choice = (i + 1, spec.unk_id)
        for j in range(i + 1, min(n, i + max_len) + 1):
            tid = spec.vocab.index.get(s[i:j])
            if tid is None:
                continue
            cand = (spec.log_probs[tid] + best_score[j], -(1 + best_count[j]), j, 1)
            if cand > best:
                best = cand
                choice = (j, tid)
        best_score[i] = best[0]
        best_count[i] = -best[1]
        step[i] = choice
    ids = []
    i = 0
    while i < n:
        i, tid = step[i]
        ids.append(tid)
    return ids


def member_statistics_oracle(emb, members):
    """Per-group statistics from one float64 copy of all the group's rows."""
    stats = {}
    for group, ids in members.items():
        rows = emb.data[ids].astype(np.float64)
        stats[group] = GroupStats(group, len(ids), rows.mean(axis=0), rows.std(axis=0))
    return stats


def load_word_vectors_oracle(path, target):
    """The whole-file word-vector loader: decode the file, split it into
    lines, parse every value with float() and keep every vector, then
    align. A value that is not finite as float32 is an error."""
    lines = _split_lines(_read_utf8(path))
    if not lines:
        raise FormatError(f"{path}: empty word-vector file")
    header = lines[0].split(" ")
    if len(header) != 2:
        raise FormatError(f"{path}:1: expected header 'count dim'")
    try:
        declared_count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError(f"{path}:1: header fields must be integers") from None
    if dim <= 0:
        raise FormatError(f"{path}:1: dimension must be positive")
    _check_dims(f"{path}:1", dim)

    lookup = {}
    vectors = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(" ")
        if fields[-1] == "":
            fields.pop()
        if len(fields) != dim + 1:
            raise FormatError(
                f"{path}:{lineno}: {len(fields) - 1} values, header declares dim {dim}"
            )
        token = fields[0]
        try:
            with np.errstate(over="ignore"):
                vec = np.array([float(v) for v in fields[1:]], dtype=np.float32)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric vector value") from None
        if not np.isfinite(vec).all():
            raise FormatError(f"{path}:{lineno}: non-finite vector value")
        if token in lookup:
            warnings.warn(
                f"{path}:{lineno}: duplicate token {token!r}; keeping the first",
                RuntimeWarning,
            )
            continue
        lookup[token] = len(vectors)
        vectors.append(vec)
    if declared_count != len(vectors):
        warnings.warn(
            f"{path}: header declares {declared_count} vectors, file has {len(vectors)}",
            RuntimeWarning,
        )
    matrix = EmbeddingMatrix(
        np.vstack(vectors) if vectors else np.empty((0, dim), dtype=np.float32)
    )
    alignment, missing = _align(target, lookup)
    return AuxEmbeddings(WORD_VECTORS, alignment, matrix, missing)


def unigram_score(spec, ids):
    # Recompute a segmentation's score, charging unk emissions the penalty.
    return sum(
        spec.unk_penalty if tid == spec.unk_id else float(spec.log_probs[tid])
        for tid in ids
    )


def make_bpe_spec(extra_tokens, merges, full_byte_vocab=False):
    base = ASCII_BYTE_SYMBOLS if full_byte_vocab else sorted(
        {c for tok in extra_tokens for c in tok}
        | {c for pair in merges for c in pair[0] + pair[1]}
        | {G}
    )
    tokens = list(dict.fromkeys(list(base) + list(extra_tokens)))
    return BpeSpec(vocab=Vocabulary(tokens), merges=list(merges))


@pytest.fixture
def toy_bpe() -> BpeSpec:
    # vocab {a, b, c, ab, abc} plus byte symbols; merges (a,b) then (ab,c)
    return make_bpe_spec(["ab", "abc"], [("a", "b"), ("ab", "c")])


def make_unigram_spec(scored: dict[str, float], unk_token="<unk>",
                      unk_penalty=-16.0) -> UnigramSpec:
    tokens = list(scored)
    if unk_token not in scored:
        tokens.append(unk_token)
    log_probs = np.array([scored.get(t, -99.0) for t in tokens], dtype=np.float64)
    return UnigramSpec(
        vocab=Vocabulary(tokens),
        log_probs=log_probs,
        unk_token=unk_token,
        unk_penalty=unk_penalty,
    )


@dataclass
class Instance:
    """A synthetic source model, target vocabulary, and auxiliary inputs."""

    source: ModelBundle
    target_vocab: Vocabulary
    aux_dir: object  # path holding serialized forms
    aux_model_files: tuple[str, str]  # (vocab path, matrix path)
    word_vec_file: str
    source_files: dict  # vocab/emb/out-emb paths
    target_vocab_file: str
    n_overlap: int
    missing_word_vec_ids: set[int]


def build_instance(
    tmp_path,
    n_source=1000,
    n_target=800,
    n_overlap=300,
    dim=16,
    aux_dim=12,
    untied=True,
    seed=20240501,
    n_missing_vecs=25,
) -> Instance:
    rng = np.random.default_rng(seed)
    shared = [f"{G}shared{i:04d}" for i in range(n_overlap)]
    source_only = [f"{G}src{i:04d}" for i in range(n_source - n_overlap)]
    target_only = [f"{G}tgt{i:04d}" for i in range(n_target - n_overlap)]

    source_tokens = shared + source_only
    order = rng.permutation(len(source_tokens))
    source_tokens = [source_tokens[i] for i in order]
    target_tokens = shared + target_only
    order = rng.permutation(len(target_tokens))
    target_tokens = [target_tokens[i] for i in order]

    source_vocab = Vocabulary(source_tokens)
    target_vocab = Vocabulary(target_tokens)

    input_emb = EmbeddingMatrix(rng.normal(0.1, 1.2, (n_source, dim)).astype(np.float32))
    output_emb = (
        EmbeddingMatrix(rng.normal(-0.2, 0.9, (n_source, dim)).astype(np.float32))
        if untied
        else None
    )
    source = ModelBundle(vocab=source_vocab, input_emb=input_emb, output_emb=output_emb)

    # Auxiliary model shares the target vocabulary (plus a few extras).
    aux_tokens = list(target_tokens) + [f"{G}extra{i}" for i in range(7)]
    aux_matrix = EmbeddingMatrix(
        rng.normal(0.0, 1.0, (len(aux_tokens), aux_dim)).astype(np.float32)
    )

    # Word vectors cover all but a deterministic subset of target tokens.
    missing_ids = set(range(0, n_target, max(1, n_target // max(n_missing_vecs, 1)))) if n_missing_vecs else set()
    missing_ids = set(sorted(missing_ids)[:n_missing_vecs])
    vec_tokens = [t for i, t in enumerate(target_tokens) if i not in missing_ids]
    vec_values = rng.normal(0.0, 1.0, (len(vec_tokens), aux_dim)).astype(np.float32)

    # Serialize everything for the CLI-facing tests.
    src_vocab_path = tmp_path / "source_vocab.json"
    src_vocab_path.write_text(
        json.dumps({t: i for i, t in enumerate(source_tokens)}, ensure_ascii=False)
    )
    tgt_vocab_path = tmp_path / "target_vocab.json"
    tgt_vocab_path.write_text(
        json.dumps({t: i for i, t in enumerate(target_tokens)}, ensure_ascii=False)
    )
    src_emb_path = tmp_path / "source_emb.vemb"
    save_matrix(input_emb, str(src_emb_path))
    src_out_path = None
    if untied:
        src_out_path = tmp_path / "source_out_emb.vemb"
        save_matrix(output_emb, str(src_out_path))
    aux_vocab_path = tmp_path / "aux_vocab.json"
    aux_vocab_path.write_text(
        json.dumps({t: i for i, t in enumerate(aux_tokens)}, ensure_ascii=False)
    )
    aux_emb_path = tmp_path / "aux_emb.vemb"
    save_matrix(aux_matrix, str(aux_emb_path))
    vec_path = tmp_path / "word_vectors.vec"
    lines = [f"{len(vec_tokens)} {aux_dim}"]
    for tok, row in zip(vec_tokens, vec_values):
        lines.append(tok + " " + " ".join(repr(float(v)) for v in row))
    vec_path.write_text("\n".join(lines) + "\n")

    return Instance(
        source=source,
        target_vocab=target_vocab,
        aux_dir=tmp_path,
        aux_model_files=(str(aux_vocab_path), str(aux_emb_path)),
        word_vec_file=str(vec_path),
        source_files={
            "vocab": str(src_vocab_path),
            "emb": str(src_emb_path),
            "out_emb": str(src_out_path) if src_out_path else None,
        },
        target_vocab_file=str(tgt_vocab_path),
        n_overlap=n_overlap,
        missing_word_vec_ids=missing_ids,
    )


@pytest.fixture
def instance(tmp_path) -> Instance:
    return build_instance(tmp_path)


@pytest.fixture
def aux_model(instance):
    return load_aux_model(*instance.aux_model_files, instance.target_vocab)


@pytest.fixture
def word_vecs(instance):
    return load_word_vectors(instance.word_vec_file, instance.target_vocab)
