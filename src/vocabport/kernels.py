"""Numeric kernels shared by the embedding initializers.

All reductions run in float64 regardless of input dtype; the matrices on
disk are float32 and summing ~1e5 terms at that precision loses digits.
Every pass over matrix rows takes the row blocks of embedding_store's one
policy; `_float64_blocks` upcasts them into one reused buffer per pass.

The similarity initializers work on blocks of query rows: `SupportCosines`
gives a block's cosines against the whole support, `sparsemax` projects
each row of a 2-D block, and `convex_combine` mixes one row's nonzero
weights. `SupportCosines` rounds nothing inside BLAS, so a row's cosines
are the same bits whichever rows share its block and however many BLAS
threads run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import embedding_store
from .embedding_store import EmbeddingMatrix, _row_blocks
from .errors import ValidationError

CONVEX_TOL = 1e-6


def _float64_blocks(
    data: np.ndarray, ids: np.ndarray | None = None, buf: np.ndarray | None = None
) -> Iterator[tuple]:
    """(part, block) for each row block of `data`, or of the rows `ids` in
    that order: `part` is the block's slice of those rows and `block` the
    rows upcast to float64, a view of `buf` or else of a buffer the size of
    the first block, so the next overwrites it and callers may write to it.
    """
    n = data.shape[0] if ids is None else len(ids)
    for part in _row_blocks(n):
        rows = data[part] if ids is None else data[ids[part]]
        if buf is None:  # the first block is the largest
            buf = np.empty(rows.shape)
        block = buf[: len(rows)]
        np.copyto(block, rows)
        yield part, block


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two finite vectors, in [-1, 1].

    The cosine of a one-row query against a one-row support, computed by
    SupportCosines: each vector is scaled by a power of two first, so no
    finite input overflows or underflows. An all-zero input is degenerate
    (padding rows exist in real checkpoints); the similarity is defined as
    0.0 and a RuntimeWarning is emitted rather than aborting.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or vb.ndim != 1 or va.shape != vb.shape:
        raise ValueError(f"expected equal-length vectors, got {va.shape} and {vb.shape}")
    if not (np.isfinite(va).all() and np.isfinite(vb).all()):
        raise ValueError("cosine_similarity input must be finite")
    support = SupportCosines(vb[None])
    cos, zero = support(va[None])
    if zero[0] or support.zero_rows[0]:
        warnings.warn("zero-norm vector in cosine_similarity; returning 0.0", RuntimeWarning)
    return float(cos[0, 0])


def mean_std(
    data: np.ndarray, ids: np.ndarray | None = None, axis: int | None = None
) -> tuple:
    """Float64 population mean and std of the rows of a 2-D array.

    Takes all rows, or the rows `ids` in that order; axis=None gives one
    mean/std over every element, axis=0 one per column. The rows are read
    by _float64_blocks, one row block at a time: a first pass adds the
    block sums for the mean, a second adds the blocks' squared deviations
    from it. Block by block, in row order, is the only summation order, so
    the result depends on the data alone, and the temporaries (the buffer,
    plus the float32 gather of one block of `ids`) on the block size alone.
    """
    n = data.shape[0] if ids is None else len(ids)
    count = n * data.shape[1] if axis is None else n
    zero = np.zeros(() if axis is None else data.shape[1])  # no rows: nan statistics
    buf = np.empty((min(n, embedding_store._BLOCK_ROWS), data.shape[1]))  # both passes fill it
    mean = sum((b.sum(axis=axis) for _, b in _float64_blocks(data, ids, buf)), zero) / count
    squares = np.zeros_like(zero)
    for _, block in _float64_blocks(data, ids, buf):
        block -= mean
        block *= block
        squares += block.sum(axis=axis)
    return mean, np.sqrt(squares / count)


def sparsemax(z) -> np.ndarray:
    """Euclidean projection of z onto the probability simplex.

    With z sorted descending as z(1) >= ... >= z(n):

        k   = max{ j : 1 + j*z(j) > sum_{i<=j} z(i) }
        tau = (sum_{i<=k} z(i) - 1) / k
        p_i = max(z_i - tau, 0)

    The output is nonnegative and sums to 1; entries far below the top
    scores project to exactly zero, which is what makes the resulting
    mixture weights sparse. A 2-D z is a batch: each row is projected on
    its own, with the same operations and so the same bits as a 1-D call
    on that row.
    """
    v = np.asarray(z, dtype=np.float64)
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError("sparsemax expects a non-empty 1-D vector or 2-D batch of rows")
    if not np.all(np.isfinite(v)):
        raise ValueError("sparsemax input must be finite")
    zs = np.sort(v, axis=-1)[..., ::-1]
    cumulative = np.cumsum(zs, axis=-1)
    bound = np.arange(1, v.shape[-1] + 1) * zs
    bound += 1.0
    in_support = bound > cumulative
    # j = 1 always qualifies; rounding can only hide that for |z| > 2**53.
    in_support[..., 0] = True
    k = v.shape[-1] - np.argmax(in_support[..., ::-1], axis=-1)[..., None]
    tau = (np.take_along_axis(cumulative, k - 1, axis=-1) - 1.0) / k
    return np.maximum(v - tau, 0.0)


class SupportCosines:
    """Cosines of query rows against fixed support rows, bit-reproducible.

    A float64 GEMM rounds differently with the BLAS kernel it picks, and
    that pick depends on the number of rows and of threads. Here every
    row is scaled by a power of two and split into two integer-valued
    slices, row ~ (hi + lo * 2**-bits) * scale, which keep 2*bits
    significant bits below the row's largest entry. bits is chosen so that
    each slice product (hi @ hi.T, hi @ lo.T, lo @ hi.T) is a sum of
    integers below 2**53 and therefore exact in any summation order. Only
    elementwise float64 operations round, so a query's cosines do not
    depend on which rows share its block, on how the support is tiled or
    on the BLAS build. A cosine's error is below dim * 2**(-2*bits): 2e-10
    at dimension 768, 4e-9 at 4096.

    The support is the rows of `data`, or the rows `ids` in that order. Its
    slices are stored as int32, 8 bytes per support element: |hi| <=
    2**bits <= 2**26 for every dim, so int32 holds them exactly (float32
    would need bits capped at 24, which changes cosines at dims below 9).
    The support is gathered and split, and each call upcasts its slices
    for the GEMMs, one row block at a time through _float64_blocks, so no
    temporary spans the whole support.
    """

    def __init__(self, data, ids=None):
        data = np.asarray(data)
        if data.ndim != 2:
            raise ValueError("support must be a 2-D array of rows")
        n = data.shape[0] if ids is None else len(ids)
        # |hi| <= 2**bits, |lo| <= 2**(bits-1) and dim * 2**(2*bits) <= 2**53.
        self.bits = (53 - (data.shape[1] - 1).bit_length()) // 2
        self.hi = np.empty((n, data.shape[1]), dtype=np.int32)
        self.lo = np.empty_like(self.hi)
        norms = np.empty(n)
        for part, block in _float64_blocks(data, ids):
            self.hi[part], self.lo[part], norms[part] = self._split(block)
        if not np.isfinite(norms).all():
            # int32 holds no inf or nan; the slices of such a row are garbage.
            raise ValueError("support rows must be finite")
        self.zero_rows = norms == 0.0
        self._norms = np.where(self.zero_rows, 1.0, norms)

    def _split(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer-valued float64 slices hi and lo of float64 rows `a`, and
        the rows' norms in the same scaled units (0 for an all-zero row).
        Works in place: `a` is overwritten, and lo is stored in it."""
        peak = np.maximum(a.max(axis=1, initial=0.0), -a.min(axis=1, initial=0.0))
        _, exp = np.frexp(peak)
        np.ldexp(a, (self.bits - exp)[:, None], out=a)
        hi = np.rint(a)
        a -= hi
        lo = np.rint(np.ldexp(a, self.bits, out=a), out=a)
        squares = np.einsum("ij,ij->i", hi, hi)
        squares += np.ldexp(np.einsum("ij,ij->i", hi, lo), 1 - self.bits)
        return hi, lo, np.sqrt(squares)

    def __call__(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """(cosines, all-zero query mask) for a 2-D block of query rows.

        Cosines lie in [-1, 1]; those of an all-zero query or support row
        are 0.
        """
        q_hi, q_lo, q_norms = self._split(np.array(queries, dtype=np.float64))
        cos = np.empty((len(q_hi), len(self.hi)))
        for (part, hi), (_, lo) in zip(_float64_blocks(self.hi), _float64_blocks(self.lo)):
            cross = q_hi @ lo.T
            cross += q_lo @ hi.T
            # Rounds once, as hi-product + cross would. A matmul straight into
            # the strided columns of cos runs slower than into a new array.
            np.add(q_hi @ hi.T, np.ldexp(cross, -self.bits, out=cross), out=cos[:, part])
        zero = q_norms == 0.0
        cos /= np.where(zero, 1.0, q_norms)[:, None]
        cos /= self._norms
        return np.clip(cos, -1.0, 1.0, out=cos), zero


@dataclass
class WeightVector:
    """Mixture weights over source rows, aligned id-by-id.

    The weights are convex when they are nonnegative and sum to 1 +-
    CONVEX_TOL; `validate_convex` checks that before a convex combination.
    """

    ids: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.ids.shape != self.weights.shape or self.ids.ndim != 1:
            raise ValidationError("ids and weights must be 1-D and aligned")
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("weights must be finite")

    def validate_convex(self) -> None:
        if self.weights.size == 0:
            raise ValidationError("empty weight vector")
        if np.any(self.weights < 0.0):
            raise ValidationError("convex weights must be nonnegative")
        total = float(self.weights.sum())
        if abs(total - 1.0) > CONVEX_TOL:
            raise ValidationError(f"convex weights sum to {total}, not 1")


def weighted_sum(w: WeightVector, rows: EmbeddingMatrix) -> np.ndarray:
    """sum_i w_i * rows[id_i] in float64, for any weights and in-range ids.

    Rows are gathered and upcast one row block at a time, so a long weight
    vector needs no float64 copy of all its rows. Each block is a fresh copy,
    not _float64_blocks' reused buffer: called once per target row, that
    buffer is allocated per call, and a 4,000-row combine took 12.4 ms, not 6.4.
    """
    total = None
    for part in _row_blocks(w.ids.size):
        mixed = w.weights[part] @ rows.data[w.ids[part]].astype(np.float64)
        total = mixed if total is None else total + mixed
    return total


def convex_combine(w: WeightVector, rows: EmbeddingMatrix) -> np.ndarray:
    """Weighted sum of matrix rows: sum_i w_i * rows[id_i], in float64.

    The weight vector must be convex, so the result lies coordinatewise
    inside the hull of the participating rows.
    """
    w.validate_convex()
    if w.ids.size and (w.ids.min() < 0 or w.ids.max() >= rows.rows):
        raise ValidationError(
            f"weight id out of range 0..{rows.rows - 1}"
        )
    return weighted_sum(w, rows)
