"""Auxiliary per-token representations used to score similarity.

Two sources: the embedding matrix of an auxiliary target-language model
that shares the target tokenizer, or static word vectors in the usual
text format (header "count dim", then "token v1 ... v_dim" per line),
read in 64 KiB blocks of whole lines and never held whole. Every line is
checked: the lines the target keeps are converted, and the others are
proven plain decimals, which cannot fail to convert, or else converted
too.
A target token with no auxiliary vector is not an error here; the
initializer decides the fallback.
"""

from __future__ import annotations

import operator
import os
import stat
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

import numpy as np

from .embedding_store import (
    EmbeddingMatrix,
    Vocabulary,
    _check_dims,
    _line_blocks,
    load_matrix,
    load_vocab,
    sniff_vocab_format,
)
from .errors import FormatError, ValidationError

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
        """The aligned vector for a target id, or None for a missing one.

        Any other id raises IndexError: it is never taken for a missing one.
        So does an id aligned with no row of `matrix`; a negative row would
        otherwise count from the end, another token's vector.
        """
        target_id = operator.index(target_id)
        if target_id in self.vocab_alignment:
            row = operator.index(self.vocab_alignment[target_id])
            if not 0 <= row < self.matrix.rows:
                raise IndexError(
                    f"auxiliary vectors align target id {target_id} with row {row}, "
                    f"outside the {self.matrix.rows} auxiliary rows"
                )
            return self.matrix.data[row]
        if target_id in self.missing:
            return None
        raise IndexError(f"target id {target_id} out of range")


def _align(
    target: Vocabulary, lookup: Mapping[str, int | None]
) -> tuple[dict[int, int], set[int]]:
    alignment: dict[int, int] = {}
    missing: set[int] = set()
    for tid, token in enumerate(target.tokens):
        row = lookup.get(token)
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
    alignment, missing = _align(target, aux_vocab.index)
    return AuxEmbeddings(
        source_kind=AUX_MODEL,
        vocab_alignment=alignment,
        matrix=matrix,
        missing=missing,
    )


# Value text numpy's C reader converts as float() does (both parse ASCII
# with PyOS_string_to_double): digits, signs, points, exponents, the
# letters of inf/infinity/nan and the space between values. loadtxt also
# strips the separators \x1c-\x1f that float() rejects and breaks lines at
# "\r", so a block with any other character takes the per-line path.
_PLAIN_CHARS = b"0123456789+-.eEinfatyINFATY "


def _plain_numeric(values: list[str]) -> bool:
    """Whether a block's value strings are all non-empty whitelisted ASCII.

    loadtxt skips an empty line with a warning, so that is excluded here;
    an empty field (a doubled, leading or trailing space) makes loadtxt
    raise ValueError, which also sends the block down the per-line path.
    """
    return all(
        v and v.isascii() and not v.encode("ascii").translate(None, _PLAIN_CHARS)
        for v in values
    )


# Byte classes for _plain_decimals: a digit 2, " " 5, "-" 11, "." 7, any
# other byte 16. The low two bits are a byte's part as the left one of two
# neighbours, the next two its part as the right one, so a pair is refused
# when (4 * left) & right is not 0: bit 1 marks " ", "-" and "." on the
# left and meets bit 4, " " and "." on the right (a separator, sign or
# point is never followed by a separator or a point); bit 2 marks digits,
# "-" and "." on the left and meets bit 8, "-" on the right (a sign only
# follows a separator).
_DECIMAL_CLASSES = bytes(
    {ord(" "): 5, ord("-"): 11, ord("."): 7}.get(b, 2 if b in b"0123456789" else 16)
    for b in range(256)
)


def _plain_decimals(values: list[str]) -> bool:
    """Whether every field of the block's value strings is `-?D+(.D+)?`
    (D an ASCII digit) with no run of 39 or more digits.

    float() accepts every such field, and its value is below 1e38, so it
    is finite as float32: a block that passes has no value fault. The
    check reads the whole block at once, as one string of byte classes
    with a separator at each end: each pair of neighbours, the longest run
    of digits, and the points of each field. Its arrays hold a byte per
    character; the int64 positions of the non-digits would take several
    times the block's text.
    """
    try:
        classes = " ".join(["", *values, ""]).encode("ascii").translate(_DECIMAL_CLASSES)
    except UnicodeEncodeError:
        return False
    if b"\x10" in classes or b"\x02" * 39 in classes:
        return False
    c = np.frombuffer(classes, dtype=np.uint8)
    pairs = c[:-1] * 4
    pairs &= c[1:]
    if pairs.any():
        return False
    # A field's points have only digits between them, so two points in one
    # field are two points next to each other once the digits are gone.
    point = np.frombuffer(classes.translate(None, b"\x02"), dtype=np.uint8) == 7
    return not (point[:-1] & point[1:]).any()


def _convert_lines(
    lines: list[tuple[int, str, str]], dim: int, path: str
) -> tuple[np.ndarray, str | None]:
    """Float32 rows for the (lineno, token, values) lines up to the first
    faulty one, and that line's error text (None if none is faulty).

    Plain numeric text goes through np.loadtxt as float64, then the same
    double -> float32 cast np.fromiter makes; anything else, or lines
    loadtxt rejects, goes line by line through float(), which alone names
    a value error. Values beyond float32 range become inf (the caller turns
    overflow warnings off) and fail the finiteness check.
    """
    values = [v for _, _, v in lines]
    if values and _plain_numeric(values):  # loadtxt warns on no lines
        try:
            parsed = np.loadtxt(
                values, dtype=np.float64, delimiter=" ", comments=None, quotechar=None, ndmin=2
            )
        except ValueError:
            parsed = None
        if parsed is not None and parsed.shape == (len(lines), dim):
            vecs = parsed.astype(np.float32)
            finite = np.isfinite(vecs).all(axis=1)
            if finite.all():
                return vecs, None
            bad = int(np.argmin(finite))
            return vecs[:bad], f"{path}:{lines[bad][0]}: non-finite vector value"
    vecs = np.empty((len(lines), dim), dtype=np.float32)
    for i, (lineno, _, text) in enumerate(lines):
        try:
            vecs[i] = np.fromiter(map(float, text.split(" ")), dtype=np.float32, count=dim)
        except ValueError:
            return vecs[:i], f"{path}:{lineno}: non-numeric vector value"
        if not np.isfinite(vecs[i]).all():
            return vecs[:i], f"{path}:{lineno}: non-finite vector value"
    return vecs, None


def _convert_block(
    block: list[tuple[int, str, str]], keep: list[int], dim: int, path: str
) -> tuple[np.ndarray, int, str | None]:
    """Float32 rows for the block's lines at `keep` (ascending indices),
    the index of the block's first faulty line (len(block) if none is) and
    that line's error text (None if none is).

    Only the kept lines are converted. The others are proven plain
    decimals, which cannot fail (see _plain_decimals); only if that proof
    fails are they converted as well, to find their first faulty value.
    The rows are complete only when no line is faulty.
    """
    vecs, error = _convert_lines([block[i] for i in keep], dim, path)
    bad = keep[len(vecs)] if error else len(block)
    rest = sorted(set(range(len(block))).difference(keep))
    if rest and not _plain_decimals([block[i][2] for i in rest]):
        rest_vecs, rest_error = _convert_lines([block[i] for i in rest], dim, path)
        if rest_error and rest[len(rest_vecs)] < bad:
            bad, error = rest[len(rest_vecs)], rest_error
    return vecs, bad, error


def load_word_vectors(path: str, target: Vocabulary) -> AuxEmbeddings:
    """Load static word vectors and align them to the target vocabulary.

    Lookup uses the exact token string, word-boundary marker included:
    FOCUS trains its vectors on text split by the target tokenizer, so
    their tokens are spelled as the target's are.

    The file is read a block of whole lines at a time (one 64 KiB read,
    see embedding_store._line_blocks), never whole, and every line is
    checked, in file order: its UTF-8, its value count against the header
    dimension (one trailing space is allowed, since fastText writes one
    after every value), that each value is a number and finite as float32,
    and whether its token repeats (the first occurrence is kept, with a
    warning). Only the vectors of tokens the target can use are kept, so
    `matrix` has one row per such token, not one per line.

    Of each block, the lines the target keeps are converted. The values of
    the other lines are checked at once: if every field is a plain decimal,
    `-?D+(.D+)?` with no run of 39 digits, none can fail (see
    _plain_decimals); otherwise those lines are converted too, to find
    their first faulty value. Conversion is by numpy's C reader when the
    text is plain ASCII numeric, by Python's float() otherwise. Both give
    the same float32 values, and the errors, their order and the warnings
    are those of converting every line one at a time.
    """
    usable = target.index
    with open(path, "rb") as f, np.errstate(over="ignore"):
        blocks = _line_blocks(f, path)
        lines = next(blocks, None)
        if lines is None:
            raise FormatError(f"{path}: empty word-vector file")
        fields = lines.pop(0).split(" ")
        if len(fields) != 2:
            raise FormatError(f"{path}:1: expected header 'count dim'")
        try:
            declared_count, dim = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"{path}:1: header fields must be integers") from None
        if dim <= 0:
            raise FormatError(f"{path}:1: dimension must be positive")
        _check_dims(f"{path}:1", dim)

        # Every token read -> its row in the kept vectors, or None if the
        # target cannot use it.
        lookup: dict[str, int | None] = {}
        # Kept vectors go straight into one float32 array, trimmed in place
        # at the end. It has a row per usable token (a repeated token is not
        # kept again), but no more than a regular file can hold, since a line
        # of dim values spans at least 2 * dim bytes; pages never written
        # never become resident. A file that outgrows it (a pipe, say, whose
        # size is unknown) doubles it as it fills.
        st = os.fstat(f.fileno())
        max_rows = st.st_size // (2 * dim) if stat.S_ISREG(st.st_mode) else 0
        kept = np.empty((min(len(usable), max_rows), dim), dtype=np.float32)
        n_kept = 0
        lineno = 1  # of the last line read
        for lines in chain([lines], blocks):
            block, fault = [], None
            for i, line in enumerate(lines):
                lines[i] = ""  # each line is released once split
                lineno += 1
                if not line:
                    continue
                # The fields of line.split(" "), less one trailing empty one.
                trailing = line.endswith(" ")
                n_values = line.count(" ") - trailing
                if n_values != dim:
                    fault = f"{path}:{lineno}: {n_values} values, header declares dim {dim}"
                    break
                token, _, values = line.partition(" ")
                block.append((lineno, token, values[:-1] if trailing else values))
            # The bookkeeping comes first, so that only the kept lines are
            # converted. A repeated token warns only if it comes before the
            # block's first faulty line, as when lines are converted one at
            # a time.
            keep, repeats = [], []
            for i, (_, token, _) in enumerate(block):
                if token in lookup:
                    repeats.append(i)
                elif token in usable:
                    lookup[token] = n_kept + len(keep)
                    keep.append(i)
                else:
                    lookup[token] = None
            vecs, bad, bad_value = _convert_block(block, keep, dim, path)
            for i in repeats:
                if i < bad:
                    at, token, _ = block[i]
                    warnings.warn(
                        f"{path}:{at}: duplicate token {token!r}; keeping the first",
                        RuntimeWarning,
                    )
            if bad_value or fault:
                raise FormatError(bad_value or fault)
            if keep:
                n_kept += len(keep)
                if n_kept > len(kept):
                    rows = min(max(n_kept, 2 * len(kept)), len(usable))
                    kept.resize((rows, dim), refcheck=False)
                kept[n_kept - len(keep) : n_kept] = vecs
    if declared_count != len(lookup):
        warnings.warn(
            f"{path}: header declares {declared_count} vectors, file has {len(lookup)}",
            RuntimeWarning,
        )
    kept.resize((n_kept, dim), refcheck=False)
    alignment, missing = _align(target, lookup)
    return AuxEmbeddings(
        source_kind=WORD_VECTORS,
        vocab_alignment=alignment,
        matrix=EmbeddingMatrix(kept),
        missing=missing,
    )


def aux_row(a: AuxEmbeddings, target_id: int) -> np.ndarray | None:
    """The aligned auxiliary vector for a target id, or None if missing."""
    return a.row(target_id)
