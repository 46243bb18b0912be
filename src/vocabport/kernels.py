"""Numeric kernels shared by the embedding initializers.

All reductions run in float64 regardless of input dtype; the matrices on
disk are float32 and summing ~1e5 terms at that precision loses digits.

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

import numpy as np

from .embedding_store import EmbeddingMatrix
from .errors import ValidationError

CONVEX_TOL = 1e-6
# Rows convex_combine gathers per step; bounds its float64 temporary.
_COMBINE_ROWS = 1024
# Rows mean_std upcasts per step. It bounds the float64 temporary and fixes
# the summation order, so the statistics do not depend on the machine.
_STAT_ROWS = 1024
# Support rows SupportCosines gathers and splits per step; bounds its float64
# temporaries while it builds the int32 slices.
_SPLIT_ROWS = 1024
# Support rows SupportCosines upcasts per GEMM tile in each call; bounds the
# two reused float64 tile buffers.
_TILE_ROWS = 1024


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors, clamped into [-1, 1].

    Computes a.b / (|a| |b|) in float64. A zero-norm input is degenerate
    (padding rows exist in real checkpoints); the similarity is defined
    as 0.0 and a RuntimeWarning is emitted rather than aborting.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or vb.ndim != 1 or va.shape != vb.shape:
        raise ValueError(f"expected equal-length vectors, got {va.shape} and {vb.shape}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        warnings.warn("zero-norm vector in cosine_similarity; returning 0.0", RuntimeWarning)
        return 0.0
    return float(np.clip(va.dot(vb) / (na * nb), -1.0, 1.0))


def mean_std(
    data: np.ndarray, ids: np.ndarray | None = None, axis: int | None = None
) -> tuple:
    """Float64 population mean and std of the rows of a 2-D array.

    Takes all rows, or the rows `ids` in that order; axis=None gives one
    mean/std over every element, axis=0 one per column. The rows are read
    in consecutive blocks of _STAT_ROWS, each upcast into one reused
    float64 buffer: a first pass adds the block sums for the mean, a
    second adds the blocks' squared deviations from it. Block by block, in
    row order, is the only summation order, so the result depends on the
    data alone, and the temporaries (the buffer, plus the float32 gather
    of one block of `ids`) on the block size alone.
    """
    n = data.shape[0] if ids is None else len(ids)
    count = n * data.shape[1] if axis is None else n
    buf = np.empty((min(n, _STAT_ROWS), data.shape[1]))

    def blocks():
        for start in range(0, max(n, 1), _STAT_ROWS):  # no rows: one empty block, nan stats
            part = slice(start, start + _STAT_ROWS)
            rows = data[part] if ids is None else data[ids[part]]
            block = buf[: len(rows)]
            np.copyto(block, rows)
            yield block

    total = sum(block.sum(axis=axis) for block in blocks())
    mean = total / count
    squares = 0.0
    for block in blocks():
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
    They are gathered and split _SPLIT_ROWS rows at a time, and each call
    upcasts _TILE_ROWS support rows at a time into two float64 buffers for
    the GEMMs, so no temporary spans the whole support.
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
        for start in range(0, n, _SPLIT_ROWS):
            part = slice(start, start + _SPLIT_ROWS)
            rows = data[part] if ids is None else data[ids[part]]
            self.hi[part], self.lo[part], norms[part] = self._split(rows)
        if not np.isfinite(norms).all():
            # int32 holds no inf or nan; the slices of such a row are garbage.
            raise ValueError("support rows must be finite")
        self.zero_rows = norms == 0.0
        self._norms = np.where(self.zero_rows, 1.0, norms)

    def _split(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer-valued float64 slices hi and lo of float rows, and the
        rows' norms in the same scaled units (0 for an all-zero row)."""
        a = np.array(rows, dtype=np.float64)
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
        q_hi, q_lo, q_norms = self._split(queries)
        n = len(self.hi)
        cos = np.empty((len(q_hi), n))
        # Reused per tile: a fresh array per tile would fault in new pages.
        hi_buf = np.empty((min(n, _TILE_ROWS), self.hi.shape[1]))
        lo_buf = np.empty_like(hi_buf)
        for start in range(0, n, _TILE_ROWS):
            part = slice(start, start + _TILE_ROWS)
            hi = hi_buf[: min(_TILE_ROWS, n - start)]
            lo = lo_buf[: len(hi)]
            np.copyto(hi, self.hi[part])
            np.copyto(lo, self.lo[part])
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

    When `convex` is set the weights must be nonnegative and sum to
    1 +- 1e-6; `validate_convex` enforces that before any combination.
    """

    ids: np.ndarray
    weights: np.ndarray
    convex: bool = True

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.ids.shape != self.weights.shape or self.ids.ndim != 1:
            raise ValidationError("ids and weights must be 1-D and aligned")
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("weights must be finite")

    def validate_convex(self, tol: float = CONVEX_TOL) -> None:
        if not self.convex:
            raise ValidationError("weight vector is not flagged convex")
        if self.weights.size == 0:
            raise ValidationError("empty weight vector")
        if np.any(self.weights < 0.0):
            raise ValidationError("convex weights must be nonnegative")
        total = float(self.weights.sum())
        if abs(total - 1.0) > tol:
            raise ValidationError(f"convex weights sum to {total}, not 1")


def weighted_sum(w: WeightVector, rows: EmbeddingMatrix) -> np.ndarray:
    """sum_i w_i * rows[id_i] in float64, for any weights and in-range ids.

    Rows are gathered and upcast _COMBINE_ROWS at a time, so a long weight
    vector needs no float64 copy of all its rows.
    """
    total = None
    for start in range(0, w.ids.size, _COMBINE_ROWS):
        part = slice(start, start + _COMBINE_ROWS)
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
