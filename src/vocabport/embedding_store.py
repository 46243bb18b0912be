"""Vocabularies, embedding matrices, and their on-disk formats.

Embedding matrices are stored in the VEMB container, a self-describing
little-endian binary format:

    magic   4 bytes   b"VEMB"
    version u32       1
    rows    u64
    cols    u64
    dtype   u32       0 = float32
    data    rows*cols little-endian float32 values, row-major

load_matrix maps the file read-only and gives the matrix a view of its
payload; every read of matrix rows copies them through one gather, which
releases the mapped pages after each row block (_gather, _drop_pages).

Vocabularies come in three text formats:

    json-map        JSON object mapping token -> id (ids must be dense,
                    0-based; sparse id spaces are rejected, not compacted)
    line-per-token  UTF-8 text, one token per line, ids by line order
    tsv-scored      "token<TAB>score" per line; load_vocab checks the scores
                    and drops them, Unigram specs read the same format
                    through load_scored_tsv and keep them

The line formats, and every other line-based input of the package, are
read a line at a time from 64 KiB blocks (_numbered_lines), never whole.

Values are stored as 32-bit floats; arithmetic elsewhere in the package
accumulates in 64-bit.

Only the matrix code (EmbeddingMatrix, load_matrix, save_matrix and their
helpers) imports numpy, inside its functions, so the vocabulary and line
readers load without it.
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import struct
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import FormatError, ValidationError

VEMB_MAGIC = b"VEMB"
VEMB_VERSION = 1
VEMB_DTYPE_F32 = 0
_VEMB_HEADER = struct.Struct("<4sIQQI")

VOCAB_FORMATS = ("json-map", "line-per-token", "tsv-scored")
# Largest dimension numpy can give a float32 array, even an empty one
# (numpy's intp is the platform's ssize_t).
_MAX_DIM = sys.maxsize // 4
# Rows per step of every pass over matrix rows (_row_blocks). Statistics and
# combines sum block by block, so the size is part of their result.
_BLOCK_ROWS = 1024
# Bytes per read of a line-based text file (see _line_blocks).
_READ_BYTES = 1 << 16


class _DuplicateToken(ValidationError):
    """A vocabulary's token at ids `first` and `again`, first < again."""

    def __init__(self, token: str, first: int, again: int):
        super().__init__(f"duplicate token {token!r} (ids {first} and {again})")
        self.token, self.first, self.again = token, first, again


class Vocabulary:
    """Ordered token strings with a dense 0-based token -> id index."""

    __slots__ = ("tokens", "index")

    def __init__(self, tokens: Iterable[str]):
        self.tokens = toks = tuple(tokens)
        self.index = dict(zip(toks, range(len(toks))))
        if len(self.index) != len(toks):
            first, again = _first_repeat(toks)
            raise _DuplicateToken(toks[again], first, again)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def __repr__(self) -> str:
        return f"Vocabulary({len(self.tokens)} tokens)"


class EmbeddingMatrix:
    """Dense |V| x H float32 matrix; row i is the embedding of token id i.

    `data` is the matrix's own array, or, for a matrix from load_matrix, a
    read-only view of the mapped file (see _drop_pages).
    """

    __slots__ = ("data",)

    def __init__(self, values):
        import numpy as np

        arr = np.ascontiguousarray(values, dtype=np.float32)
        if arr.ndim != 2:
            raise ValidationError(f"embedding matrix must be 2-D, got ndim={arr.ndim}")
        bad = _first_nonfinite(arr)
        if bad is not None:
            raise ValidationError(f"non-finite value at row {bad[0]}, col {bad[1]}")
        self.data = arr

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other: object) -> bool:
        # Bitwise equality; matrices are the unit of round-trip contracts.
        return (
            isinstance(other, EmbeddingMatrix)
            and self.data.shape == other.data.shape
            and self.data.tobytes() == other.data.tobytes()
        )

    def __repr__(self) -> str:
        return f"EmbeddingMatrix({self.rows}x{self.cols})"


@dataclass
class ModelBundle:
    """A vocabulary plus its input embedding and optional output matrix.

    A bundle without `output_emb` is tied: its output projection reuses
    the input matrix.
    """

    vocab: Vocabulary
    input_emb: EmbeddingMatrix
    output_emb: EmbeddingMatrix | None = None

    @property
    def tied(self) -> bool:
        """Whether the output projection reuses the input matrix."""
        return self.output_emb is None


def _first_repeat(items: Sequence) -> tuple[int, int]:
    """Positions (first, second) of the first repeated item; for failure paths only."""
    seen: dict = {}
    for i, item in enumerate(items):
        if seen.setdefault(item, i) != i:
            return seen[item], i


def _row_blocks(n: int) -> Iterator[slice]:
    """Slices of _BLOCK_ROWS consecutive rows that cover rows 0..n-1."""
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, start + _BLOCK_ROWS)


def _drop_pages(arr) -> None:
    """Release the pages this process has mapped of the file behind `arr`.

    _gather and _first_nonfinite call this after each block, so a matrix
    from load_matrix holds no pages between blocks: the kernel unmaps them,
    they stay in the page cache and fault back in on the next read. Until
    its release, a gather of scattered rows maps far more than its rows: of
    a 250 MiB VEMB (32,000 x 2,048) on a Linux 6.18 host, 100 random rows
    mapped 150 MiB and 1,024 random rows the whole file. Only a read-only
    mapping is released. Any other array is left as it is, since
    MADV_DONTNEED zeroes anonymous memory and drops the writes to a private
    mapping.
    """
    import numpy as np

    base = arr  # followed through views and np.frombuffer's memoryview
    while isinstance(base, (np.ndarray, memoryview)):
        base = base.base if isinstance(base, np.ndarray) else base.obj
    if isinstance(base, mmap.mmap):
        with memoryview(base) as view:
            if view.readonly:
                base.madvise(mmap.MADV_DONTNEED)


def _gather(data, rows, out=None):
    """A copy of the rows `rows` of a 2-D array, with the pages of a mapped
    `data` released once it is made: every read of matrix rows but
    _first_nonfinite's scan goes through here.

    `rows` is an id array, or a slice when the copy goes into `out`, cast
    to its dtype; the copy is `out` when given.
    """
    if out is None:
        out = data[rows]
    else:
        out[...] = data[rows]
    _drop_pages(data)
    return out


def _first_nonfinite(arr) -> tuple[int, int] | None:
    """(row, col) of the first NaN or infinity of a 2-D array in row-major
    order, or None."""
    import numpy as np

    if arr.size == 0:  # a header may declare 2**40 rows of 0 columns
        return None
    for part in _row_blocks(arr.shape[0]):
        finite = np.isfinite(arr[part])
        _drop_pages(arr)
        if not finite.all():
            flat = int(np.argmin(finite))
            return part.start + flat // arr.shape[1], flat % arr.shape[1]
    return None


def _utf8_error(path: str, offset: int) -> FormatError:
    """The error for a file whose bytes are not UTF-8 from `offset` on."""
    return FormatError(f"{path}: invalid UTF-8 at byte offset {offset}")


def _read_utf8(path: str) -> str:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise _utf8_error(path, e.start) from e


def _split_lines(text: str) -> list[str]:
    """Split text at "\n" only, dropping one "\r" before each break.

    Unlike str.splitlines(), U+0085, U+2028, U+2029 and the other Unicode
    separators stay inside their line, since tokens may contain them. A
    final newline ends the last line rather than starting an empty one.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return lines


def _line_blocks(f, path: str) -> Iterator[list[str]]:
    """The lines of an open binary file, one list per read of _READ_BYTES.

    Each read is cut after its last b"\n" and the rest carried into the
    next, so a block holds whole lines, decoded at once and split by
    _split_lines. On invalid UTF-8 the lines before the bad one are
    yielded, then FormatError is raised with the byte offset in the file,
    as _read_utf8 reports it.
    """
    offset = 0  # of the block's first byte in the file
    carried: list[bytes] = []  # the bytes read since the last b"\n"
    while True:
        raw = f.read(_READ_BYTES)
        cut = raw.rfind(b"\n") + 1  # 0 if the read ends no line, or is empty at the end
        if raw and not cut:
            carried.append(raw)
            continue
        carried.append(raw[:cut])
        block, carried = b"".join(carried), [raw[cut:]]
        del raw  # while the caller works on a block, only its lines are held
        if not block:
            return
        try:
            lines = _split_lines(block.decode("utf-8"))
        except UnicodeDecodeError as e:
            good = block.rfind(b"\n", 0, e.start) + 1
            if good:
                yield _split_lines(block[:good].decode("utf-8"))
            raise _utf8_error(path, offset + e.start) from e
        offset += len(block)
        del block
        yield lines
        del lines  # the caller holds what it keeps of them


def _numbered_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number from 1, line) for each line of a UTF-8 text file (see
    _split_lines), in file order, read a block at a time by _line_blocks;
    invalid UTF-8 raises FormatError where the reader meets it."""
    with open(path, "rb") as f:
        yield from enumerate(itertools.chain.from_iterable(_line_blocks(f, path)), start=1)


def _check_dims(where: str, *dims: int) -> None:
    """Reject a declared shape that numpy cannot give a float32 array."""
    for d in dims:
        if d > _MAX_DIM:
            raise FormatError(f"{where}: dimension {d} is too large")


def load_vocab(path: str, fmt: str) -> Vocabulary:
    """Load a vocabulary file in one of the formats named in VOCAB_FORMATS.

    Raises FormatError with position info on duplicate tokens, non-dense
    ids (json-map), malformed lines, or bad encoding.
    """
    if fmt not in VOCAB_FORMATS:
        raise ValidationError(f"unknown vocabulary format {fmt!r}")
    if fmt == "tsv-scored":
        return load_scored_tsv(path)[0]
    if fmt == "json-map":
        return _vocab_from_json_map(_read_utf8(path), path)
    return _vocab_from_lines((line for _, line in _numbered_lines(path)), path)


def load_scored_tsv(path: str) -> tuple[Vocabulary, list[float]]:
    """Read a "token<TAB>score" file: its tokens in line order, and their scores."""
    scores: list[float] = []

    def tokens():  # each line's token, its score appended to `scores`
        for lineno, line in _numbered_lines(path):
            fields = line.split("\t")
            if len(fields) != 2:
                raise FormatError(
                    f"{path}:{lineno}: expected 'token<TAB>score', got {len(fields)} fields"
                )
            try:
                scores.append(float(fields[1]))
            except ValueError:
                raise FormatError(f"{path}:{lineno}: score {fields[1]!r} is not a number") from None
            yield fields[0]

    return _vocab_from_lines(tokens(), path), scores


def _vocab_from_lines(tokens: Iterable[str], path: str) -> Vocabulary:
    try:
        return Vocabulary(tokens)
    except _DuplicateToken as e:  # token i is on line i + 1
        raise FormatError(
            f"{path}:{e.again + 1}: duplicate token {e.token!r} (first at line {e.first + 1})"
        ) from None


def _vocab_from_json_map(text: str, path: str) -> Vocabulary:
    def pairs_hook(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            keys = [k for k, _ in pairs]
            raise FormatError(f"{path}: duplicate token {keys[_first_repeat(keys)[1]]!r}")
        return obj

    try:
        obj = json.loads(text, object_pairs_hook=pairs_hook)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON at line {e.lineno}, col {e.colno}") from e
    except (ValueError, RecursionError) as e:
        # Integers beyond int()'s digit limit, or nesting beyond the
        # recursion limit.
        raise FormatError(f"{path}: unreadable JSON ({e})") from e
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object mapping token -> id")

    # n tokens with n distinct ids in 0..n-1 fill every slot.
    n = len(obj)
    tokens: list = [None] * n
    out_of_range = False
    for tok, tid in obj.items():
        if type(tid) is not int:  # also rejects bool
            raise FormatError(f"{path}: id for token {tok!r} is not an integer")
        if not 0 <= tid < n:
            out_of_range = True
        elif tokens[tid] is None:
            tokens[tid] = tok
        else:
            raise FormatError(
                f"{path}: non-dense ids: id {tid} assigned to both {tokens[tid]!r} and {tok!r}"
            )
    if out_of_range:
        missing = tokens.index(None)
        raise FormatError(f"{path}: non-dense ids: expected 0..{n - 1}, missing id {missing}")
    return Vocabulary(tokens)


def sniff_vocab_format(path: str) -> str:
    """Guess a vocabulary file's format from its extension and first line.

    ".json" -> json-map, ".tsv" -> tsv-scored; otherwise a leading "{"
    means json-map and a tab in the first line means tsv-scored; anything
    else is line-per-token.
    """
    lower = path.lower()
    if lower.endswith(".json"):
        return "json-map"
    if lower.endswith(".tsv"):
        return "tsv-scored"
    with open(path, "rb") as f:
        head = f.read(4096)
    if head.lstrip()[:1] == b"{":
        return "json-map"
    if b"\t" in head.split(b"\n", 1)[0]:
        return "tsv-scored"
    return "line-per-token"


def load_matrix(path: str) -> EmbeddingMatrix:
    """Read a VEMB file; rejects bad magic, truncation, and non-finite values.

    The header and the file size are checked before anything is mapped.
    The matrix's data is then a read-only view of the file, mapped, not
    copied, and its finiteness is scanned once, a row block at a time. The
    file must not change while the matrix is in use: a read of a page that
    truncation removed raises SIGBUS, which ends the process.
    """
    import numpy as np

    with open(path, "rb") as f:
        head = f.read(_VEMB_HEADER.size)
        if len(head) < _VEMB_HEADER.size:
            raise FormatError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, rows, cols, dtype = _VEMB_HEADER.unpack(head)
        if magic != VEMB_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != VEMB_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dtype != VEMB_DTYPE_F32:
            raise FormatError(f"{path}: unsupported dtype code {dtype}")
        _check_dims(path, rows, cols)
        expected = rows * cols * 4
        payload = os.fstat(f.fileno()).st_size - _VEMB_HEADER.size
        if payload < expected:
            raise FormatError(
                f"{path}: truncated payload ({payload} bytes, expected {expected})"
            )
        if payload > expected:
            raise FormatError(
                f"{path}: {payload - expected} trailing bytes after payload"
            )
        try:
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # the file is empty now
            mapped = None
    if mapped is None or len(mapped) < _VEMB_HEADER.size + expected:
        raise FormatError(f"{path}: truncated payload (file shrank while reading)")
    arr = np.frombuffer(mapped, dtype="<f4", count=rows * cols, offset=_VEMB_HEADER.size)
    try:
        return EmbeddingMatrix(arr.reshape(rows, cols))
    except ValidationError as e:
        raise FormatError(f"{path}: {e}") from None


def save_matrix(m: EmbeddingMatrix, path: str) -> None:
    """Write a VEMB file; load_matrix(save_matrix(m)) is bit-identical."""
    import numpy as np

    header = _VEMB_HEADER.pack(VEMB_MAGIC, VEMB_VERSION, m.rows, m.cols, VEMB_DTYPE_F32)
    data = np.ascontiguousarray(m.data, dtype="<f4")
    with open(path, "wb") as f:
        f.write(header)
        f.write(data)  # the array's own buffer: no payload-sized copy


def validate_bundle(b: ModelBundle) -> list[str]:
    """Return a list of violated bundle invariants (empty means valid)."""
    problems: list[str] = []
    if b.input_emb.rows != len(b.vocab):
        problems.append(
            f"input matrix has {b.input_emb.rows} rows for {len(b.vocab)} tokens"
        )
    if b.output_emb is not None:
        if (b.output_emb.rows, b.output_emb.cols) != (b.input_emb.rows, b.input_emb.cols):
            problems.append(
                f"output matrix is {b.output_emb.rows}x{b.output_emb.cols}, "
                f"input is {b.input_emb.rows}x{b.input_emb.cols}"
            )
    return problems
