"""Auxiliary per-token representations used to score similarity.

Two sources: the embedding matrix of an auxiliary target-language model
that shares the target tokenizer, or static word vectors in the usual
text format (header "count dim", then "token v1 ... v_dim" per line).
A target token with no auxiliary vector is not an error here; the
initializer decides the fallback.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .embedding_store import (
    EmbeddingMatrix,
    Vocabulary,
    _check_dims,
    _utf8_lines,
    load_matrix,
    load_vocab,
    sniff_vocab_format,
)
from .errors import FormatError, ValidationError
from .overlap import WORD_MARKERS

AUX_MODEL = "aux-model"
WORD_VECTORS = "word-vectors"


@dataclass
class AuxEmbeddings:
    """Target-id-aligned auxiliary vectors.

    `vocab_alignment` maps target id -> row of `matrix`; ids with no
    auxiliary vector are in `missing`. The two partition the target ids.
    """

    source_kind: str
    vocab_alignment: dict[int, int]
    matrix: EmbeddingMatrix
    missing: set[int] = field(default_factory=set)

    def row(self, target_id: int) -> np.ndarray | None:
        """The aligned vector for a target id, or None if it has none.

        Raises IndexError for an id outside the target vocabulary, so an
        out-of-range id is never mistaken for a missing vector.
        """
        if not 0 <= target_id < len(self.vocab_alignment) + len(self.missing):
            raise IndexError(f"target id {target_id} out of range")
        aux_id = self.vocab_alignment.get(target_id)
        return None if aux_id is None else self.matrix.data[aux_id]


def _align(
    target: Vocabulary, lookup: Mapping[str, int | None], marker_fallback: bool
) -> tuple[dict[int, int], set[int]]:
    alignment: dict[int, int] = {}
    missing: set[int] = set()
    for tid, token in enumerate(target.tokens):
        row = lookup.get(token)
        if row is None and marker_fallback and token[:1] in WORD_MARKERS:
            row = lookup.get(token[1:])
        if row is None:
            missing.add(tid)
        else:
            alignment[tid] = row
    return alignment, missing


def load_aux_model(vocab_path: str, matrix_path: str, target: Vocabulary) -> AuxEmbeddings:
    """Load an auxiliary model's vocabulary (format sniffed) and VEMB matrix,
    aligned by token string."""
    aux_vocab = load_vocab(vocab_path, sniff_vocab_format(vocab_path))
    matrix = load_matrix(matrix_path)
    if matrix.rows != len(aux_vocab):
        raise ValidationError(
            f"aux matrix has {matrix.rows} rows for {len(aux_vocab)} tokens"
        )
    alignment, missing = _align(target, aux_vocab.index, marker_fallback=False)
    return AuxEmbeddings(
        source_kind=AUX_MODEL,
        vocab_alignment=alignment,
        matrix=matrix,
        missing=missing,
    )


def load_word_vectors(
    path: str, target: Vocabulary, marker_fallback: bool = False
) -> AuxEmbeddings:
    """Load static word vectors and align them to the target vocabulary.

    Lookup uses the raw token string; with `marker_fallback` a token that
    misses is retried with its leading word-boundary marker stripped.

    The file is read one line at a time and every line is checked, in file
    order: its UTF-8, its value count against the header dimension (one
    trailing space is allowed, since fastText writes one after every
    value), that each value is a number and finite as float32, and whether
    its token repeats (the first occurrence is kept, with a warning). Only
    the vectors of tokens the target can use are kept, so `matrix` has one
    row per such token, not one per line.
    """
    usable = target.index
    if marker_fallback:
        usable = set(usable).union(t[1:] for t in target.tokens if t[:1] in WORD_MARKERS)
    # Every token read -> its row in `kept`, or None if the target cannot use it.
    lookup: dict[str, int | None] = {}
    kept: list[np.ndarray] = []
    with open(path, "rb") as f, np.errstate(over="ignore"):
        lines = _utf8_lines(f, path)
        header = next(lines, None)
        if header is None:
            raise FormatError(f"{path}: empty word-vector file")
        fields = header.split(" ")
        if len(fields) != 2:
            raise FormatError(f"{path}:1: expected header 'count dim'")
        try:
            declared_count, dim = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"{path}:1: header fields must be integers") from None
        if dim <= 0:
            raise FormatError(f"{path}:1: dimension must be positive")
        _check_dims(f"{path}:1", dim)

        for lineno, line in enumerate(lines, start=2):
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
                # Values beyond float32 range become inf here (overflow
                # warnings are off) and fail the check below.
                vec = np.fromiter(map(float, fields[1:]), dtype=np.float32, count=dim)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric vector value") from None
            if not np.isfinite(vec).all():
                raise FormatError(f"{path}:{lineno}: non-finite vector value")
            if token in lookup:
                warnings.warn(
                    f"{path}:{lineno}: duplicate token {token!r}; keeping the first",
                    RuntimeWarning,
                )
            elif token in usable:
                lookup[token] = len(kept)
                kept.append(vec)
            else:
                lookup[token] = None
    if declared_count != len(lookup):
        warnings.warn(
            f"{path}: header declares {declared_count} vectors, file has {len(lookup)}",
            RuntimeWarning,
        )
    matrix = EmbeddingMatrix(
        np.vstack(kept) if kept else np.empty((0, dim), dtype=np.float32)
    )
    alignment, missing = _align(target, lookup, marker_fallback)
    return AuxEmbeddings(
        source_kind=WORD_VECTORS,
        vocab_alignment=alignment,
        matrix=matrix,
        missing=missing,
    )


def aux_row(a: AuxEmbeddings, target_id: int) -> np.ndarray | None:
    """The aligned auxiliary vector for a target id, or None if missing."""
    return a.row(target_id)
