"""Numeric kernels shared by the embedding initializers.

All reductions run in float64 regardless of input dtype; the matrices on
disk are float32 and summing ~1e5 terms at that precision loses digits.
Every pass over matrix rows takes the row blocks of embedding_store's one
policy and copies them through its one gather; `_float64_blocks` upcasts
them into one reused buffer per pass.

The similarity initializers work on blocks of query rows against one
`SupportCosines` per run: calling it gives a block's cosines against the
whole support, its `sparsemax` a block's sparsemax weights over those
cosines; `sparsemax` projects each row of a 2-D block, and
`convex_combine` mixes one row's nonzero weights. Every exact cosine comes
from one product of integer slices (`_split`) that rounds nothing inside
BLAS, so a row's cosines are the same bits whichever rows share its block
and however many BLAS threads run. The sparsemax weights keep those bits
but compute exact cosines only for each row's candidates, which a float32
screen picks; the candidates may vary with the BLAS build and thread
count, the weights do not.

The screen's error. Take a query row and a support row of dimension d,
each scaled by the power of two that brings its largest magnitude into
[1/2, 1): a and b, exact in float64, with 1/2 <= |a| <= sqrt(d) and
|a_i| < 1. Their cosine is c = a.b / (|a| |b|). Let u = 2**-24 (float32)
and u' = 2**-53 (float64), and gamma_m = m u / (1 - m u), gamma'_m the
same with u' (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
ed., 3.1). The screen returns c~ = clip(fl(fl(r / na) / nb), -1, 1), where:

- a', b' are a, b rounded to float32: |a'_i - a_i| <= u |a_i| + 2**-150.
  The first term is 0 for float32 rows, which a power of two scales
  exactly; the second is the float32 subnormals after scaling, entries
  pushed below 2**-126 and rounded to a multiple of 2**-149.
- r is the float32 GEMM's a'.b'. In any summation order, with or without
  FMA, |r - a'.b'| <= gamma_d sum_i |a'_i b'_i|, plus 2**-150 for each of
  the d products that underflows.
- na, nb are the float64 norms of a and b, each within gamma'_{d+1} of
  |a|, |b| (a sum of d nonnegative squares, then a square root).

Summing those terms with |a_i|, |b_i| < 1 and dividing by |a| |b| >= 1/4,
|r / (|a| |b|) - c| <= gamma_d (1 + u)**2 + 2u + u**2 + d 2**-145. The
norms and the two divisions scale that quotient, at most 2 in magnitude,
by a factor within gamma'_{2d+4} of 1, adding 2 gamma'_{2d+4}, and the
clip only moves a value towards c, which lies in [-1, 1]. SupportCosines'
cosine c' is within d 2**(-2 bits) of c (its docstring), plus its own norm
and division roundings, another 2 gamma'_{2d+4}. So |c~ - c'| is at most

    eps = gamma_d (1 + u)**2 + 2u + u**2 + d 2**-145
          + 4 gamma'_{2d+4} + d 2**(-2 bits),

`_screen_error(d)`: 4.6e-5 at d = 768, 2.4e-4 at d = 4,096.

The certificate. Let v = fl(c' / T) be the values the whole-support
sparsemax projects, z~ = fl(c~ / T) the screened ones, n the support size
and eta = (n + 2)**2 2**-52 (1 + 1/T). Then |z~ - v| <= eps/T + 2u'/T.
Sparsemax's threshold tau is 1-Lipschitz in the max-norm, so every entry
with a nonzero weight has z~ >= tau(z~) - 2 eps/T: these are candidates
("safe screening", El Ghaoui, Viallon & Rabbani 2012). Let tau be the
threshold sparsemax computes over the exact candidate values, and suppose
every other entry has z~ + eps/T + eta < tau (`_certified`). Then each of
them has v < tau - eta/2, the check's own roundings included. The entries
with v >= tau - eta/2 are therefore all candidates, and they lead the
sorted order of both the whole row and the candidates with the same
values, so the prefix sums and the support test 1 + j z(j) > sum_{i<=j}
z(i) are the same bits at their positions. Past them, with k the
candidates' support size, the exact test falls short by at least
k (t_k - z(j)), where t_k = (sum_{i<=k} z(i) - 1) / k is tau before
rounding. With z(j) < tau - eta/2 that exceeds the test's rounding error
plus tau's, which stay below (n + 2)**2 u' (1 + 1/T) = eta/2 together,
as |v| <= 1/T. So the test fails there in both, k and tau are the same
bits, and every other entry gets max(v - tau, 0) = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import embedding_store
from .embedding_store import EmbeddingMatrix, _gather, _row_blocks
from .errors import ValidationError

CONVEX_TOL = 1e-6


def _float64_blocks(
    data: np.ndarray, ids: np.ndarray | None = None, buf: np.ndarray | None = None
) -> Iterator[tuple]:
    """(part, block) for each row block of `data`, or of the rows `ids` in
    that order: `part` is the block's slice of those rows and `block` the
    rows upcast to float64 by _gather, a view of `buf` or else of a buffer
    the size of the first block, so the next overwrites it and callers may
    write to it.
    """
    n = data.shape[0] if ids is None else len(ids)
    for part in _row_blocks(n):
        size = min(part.stop, n) - part.start
        if buf is None:  # the first block is the largest
            buf = np.empty((size, data.shape[1]))
        yield part, _gather(data, part if ids is None else ids[part], buf[:size])


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
    return np.maximum(v - _sparsemax_threshold(v), 0.0)


def _sparsemax_threshold(v: np.ndarray) -> np.ndarray:
    """sparsemax's tau of each row of a finite float64 batch, shape (..., 1)."""
    zs = np.sort(v, axis=-1)[..., ::-1]
    cumulative = np.cumsum(zs, axis=-1)
    bound = np.arange(1, v.shape[-1] + 1) * zs
    bound += 1.0
    in_support = bound > cumulative
    # j = 1 always qualifies; rounding can only hide that for |z| > 2**53.
    in_support[..., 0] = True
    k = v.shape[-1] - np.argmax(in_support[..., ::-1], axis=-1)[..., None]
    return (np.take_along_axis(cumulative, k - 1, axis=-1) - 1.0) / k


def _scale_rows(rows: np.ndarray) -> np.ndarray:
    """Float64 rows `rows`, scaled in place, each by the power of two that
    brings its largest magnitude into [1/2, 1); an all-zero row stays 0."""
    return np.ldexp(rows, -np.frexp(_peaks(rows))[1][:, None], out=rows)


def _peaks(rows: np.ndarray) -> np.ndarray:
    """The largest magnitude of each row: 0 for an all-zero row, nan or inf
    for a row holding one."""
    return np.maximum(rows.max(axis=1, initial=0.0), -rows.min(axis=1, initial=0.0))


def _split(
    rows: np.ndarray, bits: int, hi: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer-valued float64 slices hi and lo of finite float64 rows, and
    the rows' norms in the same scaled units (0 for an all-zero row).

    Each row is scaled by _scale_rows, then by 2**bits; hi is that rounded
    and lo the remainder times 2**bits, rounded. Scaling by powers of two is
    exact, so the slices are the same bits for rows scaled before. Works in
    place: `rows` is overwritten, and lo is stored in it; hi goes to `hi`,
    or else to a new array.
    """
    a = np.ldexp(_scale_rows(rows), bits, out=rows)
    hi = np.rint(a, out=hi)
    a -= hi
    lo = np.rint(np.ldexp(a, bits, out=a), out=a)
    squares = np.einsum("ij,ij->i", hi, hi)
    squares += np.ldexp(np.einsum("ij,ij->i", hi, lo), 1 - bits)
    return hi, lo, np.sqrt(squares)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _finite(queries) -> np.ndarray:
    """A float64 copy of a block of query rows, which must be finite."""
    q = np.array(queries, dtype=np.float64)
    if not np.isfinite(q).all():
        raise ValueError("query rows must be finite")
    return q


def _screen_error(dim: int) -> float:
    """eps, the bound on |screened cosine - SupportCosines' cosine| at
    dimension `dim` that the module docstring proves; inf once d * 2**-24
    reaches 1 and gamma_d has no bound."""
    u, u64 = 2.0**-24, 2.0**-53
    if dim * u >= 1:
        return np.inf
    gamma = dim * u / (1 - dim * u)
    rounding = 2 * (2 * dim + 4) * u64 / (1 - (2 * dim + 4) * u64)
    bits = (53 - (dim - 1).bit_length()) // 2
    return (
        gamma * (1 + u) ** 2 + 2 * u + u * u  # the float32 GEMM and operands
        + dim * 2.0**-145  # float32 subnormals after scaling
        + 2 * rounding  # norms and divisions, screen and exact product
        + dim * 2.0 ** (-2 * bits)  # SupportCosines' own error
    )


def _certified(rest: float, err: float, tau: float) -> bool:
    """Whether the entries left out of the candidates, whose screened scores
    are at most `rest`, sit below the candidates' threshold `tau` by more
    than `err`, so that none of them can take a nonzero weight."""
    return rest + err < tau


class SupportCosines:
    """Cosines of query rows against fixed support rows, bit-reproducible,
    and sparsemax weights over them.

    A float64 GEMM rounds differently with the BLAS kernel it picks, and
    that pick depends on the number of rows and of threads. Here every
    row is split into two integer-valued slices by `_split`, row ~ (hi +
    lo * 2**-bits) * scale, which keep 2*bits significant bits below the
    row's largest entry. bits is chosen so that each slice product (hi @
    hi.T, hi @ lo.T, lo @ hi.T) is a sum of integers below 2**53 and
    therefore exact in any summation order. Only elementwise float64
    operations round (`_product`), so a query's cosines do not depend on
    which rows share its block, on which other support rows are multiplied
    with it or how they are tiled, or on the BLAS build. A cosine's error
    is below dim * 2**(-2*bits): 2e-10 at dimension 768, 4e-9 at 4096.

    The support is the rows of `data`, or the rows `ids` in that order. The
    constructor reads it once, one row block at a time through
    _float64_blocks, for each row's largest magnitude, which marks the
    all-zero rows (`zero_rows`) and rejects a non-finite row. The first
    screen takes the rows' norms from the scaled blocks it builds, so a
    caller that never screens (clp) never computes them. Those are all it
    keeps, one value a support row: every product gathers and splits its
    support rows again, one row block at a time (`_support_blocks`). A
    call takes one product of its query block against the whole support.
    `sparsemax` splits only each query row's candidates; the rows of a
    block without their certificate share one whole-support product.
    """

    def __init__(self, data, ids=None):
        data = np.asarray(data)
        if data.ndim != 2:
            raise ValueError("support must be a 2-D array of rows")
        self.data = data
        self.ids = np.arange(data.shape[0]) if ids is None else np.asarray(ids, dtype=np.int64)
        # |hi| <= 2**bits, |lo| <= 2**(bits-1) and dim * 2**(2*bits) <= 2**53.
        self.bits = (53 - (data.shape[1] - 1).bit_length()) // 2
        peaks = np.empty(len(self.ids))
        for part, block in _float64_blocks(data, self.ids):
            peaks[part] = _peaks(block)
        if not np.isfinite(peaks).all():
            # _split of such a row gives nan slices, and its cosines would be garbage.
            raise ValueError("support rows must be finite")
        self.zero_rows = peaks == 0.0
        self._norms = None  # the screen's, taken by the first _screen
        self._eps = _screen_error(data.shape[1])
        self._top = 1

    def __call__(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """(cosines, all-zero query mask) for a 2-D block of query rows.

        Cosines lie in [-1, 1]; those of an all-zero query or support row
        are 0.
        """
        q = _split(_finite(queries), self.bits)
        return self._product(q, self.ids), q[2] == 0.0

    def _support_blocks(self, ids: np.ndarray) -> Iterator[tuple]:
        """(part, hi, lo, norms) for each row block of the support rows
        `ids`: `part` is the block's slice of `ids`, the rest its _split,
        whose slices the next block overwrites."""
        hi = np.empty((min(len(ids), embedding_store._BLOCK_ROWS), self.data.shape[1]))
        for part, block in _float64_blocks(self.data, ids):
            yield part, *_split(block, self.bits, hi[: len(block)])

    def _product(self, q: tuple, ids: np.ndarray) -> np.ndarray:
        """Cosines of split query rows q = (hi, lo, norms) against the
        support rows `ids`, split one row block at a time."""
        q_hi, q_lo, q_norms = q
        cos = np.empty((len(q_hi), len(ids)))
        s_norms = np.empty(len(ids))
        for part, hi, lo, norms in self._support_blocks(ids):
            s_norms[part] = norms
            cross = q_hi @ lo.T
            cross += q_lo @ hi.T
            # Rounds once, as hi-product + cross would. A matmul straight into
            # the strided columns of cos runs slower than into a new array.
            np.add(q_hi @ hi.T, np.ldexp(cross, -self.bits, out=cross), out=cos[:, part])
        cos /= np.where(q_norms == 0.0, 1.0, q_norms)[:, None]
        cos /= np.where(s_norms == 0.0, 1.0, s_norms)
        return np.clip(cos, -1.0, 1.0, out=cos)

    def sparsemax(self, queries, temperature: float) -> tuple[np.ndarray, np.ndarray]:
        """(weights, all-zero query mask) for a 2-D block of query rows: the
        bits of `sparsemax(self(queries)[0] / temperature)`, without
        splitting the whole support. It:

        - screens: one float32 GEMM per support row block, gathered and scaled
          one block at a time, gives cosines within eps of the exact ones
          (module docstring). With z~ = screened cosine / T and err = eps/T +
          eta, a row's candidates are its entries with z~ >= tau~ - 2 err.
        - finds tau~, sparsemax's threshold of the row of z~, from its top k
          entries (np.partition): any entries give the lower bound
          t = max_j (sum of the top j - 1) / j, and once at most k entries
          exceed t, the top k hold the support and t is tau~. k starts where
          the previous call's search ended and doubles.
        - rescores each row's candidates: their rows are gathered and split
          to float64, multiplied with the row's slices, and sparsemax runs
          over the exact cosines, with threshold tau.
        - keeps those weights if every other entry has z~ + err < tau
          (`_certified`), which proves they are the whole row's. The rows
          without that certificate, or whose candidates are the whole
          support, share one whole-support product and one batch sparsemax.

        An all-zero query's cosines are all 0, so its weights are 1/n.
        """
        q = _scale_rows(_finite(queries))
        q_norms = _row_norms(q)
        zero = q_norms == 0.0
        n = len(self.ids)
        if not n:
            raise ValueError("sparsemax needs a non-empty support")
        weights = np.zeros((len(q), n))
        weights[zero] = 1.0 / n
        live = np.flatnonzero(~zero)
        if not live.size:
            return weights, zero
        z = self._screen(q[live].astype(np.float32), q_norms[live])
        z /= temperature
        err = self._eps / temperature + (n + 2) ** 2 * 2.0**-52 * (1.0 + 1.0 / temperature)
        candidates = z >= (self._thresholds(z) - 2 * err)[:, None]
        q_split = _split(q, self.bits)
        whole = []  # the rows weighted from the whole-support product
        for scores, chosen, row in zip(z, candidates, live):
            ids = np.flatnonzero(chosen)
            if len(ids) < n:
                query = tuple(part[row : row + 1] for part in q_split)
                v = self._product(query, self.ids[ids])[0]
                v /= temperature
                tau = _sparsemax_threshold(v)[0]
                if _certified(np.max(scores, where=~chosen, initial=-np.inf), err, tau):
                    weights[row, ids] = np.maximum(v - tau, 0.0)
                    continue
            whole.append(row)
        if whole:
            v = self._product(tuple(part[whole] for part in q_split), self.ids)
            weights[whole] = sparsemax(v / temperature)
        return weights, zero

    def _screen(self, q32: np.ndarray, q_norms: np.ndarray) -> np.ndarray:
        """Screened cosines of scaled float32 query rows with norms `q_norms`."""
        cos = np.empty((len(q32), len(self.ids)))
        norms = np.empty(len(self.ids)) if self._norms is None else None
        for part, block in _float64_blocks(self.data, self.ids):
            scaled = _scale_rows(block)
            if norms is not None:
                norms[part] = _row_norms(scaled)
            cos[:, part] = q32 @ scaled.astype(np.float32).T
        if norms is not None:
            self._norms = np.where(self.zero_rows, 1.0, norms)
        cos /= q_norms[:, None]
        cos /= self._norms
        return np.clip(cos, -1.0, 1.0, out=cos)

    def _thresholds(self, z: np.ndarray) -> np.ndarray:
        """sparsemax's threshold of each row of z, from its top k entries."""
        n = z.shape[1]
        tau = np.empty(len(z))
        rows = np.arange(len(z))
        k = min(self._top, n)
        while True:
            part = z[rows]
            top = np.sort(np.partition(part, n - k, axis=1)[:, n - k :], axis=1)[:, ::-1]
            t = ((np.cumsum(top, axis=1) - 1.0) / np.arange(1, k + 1)).max(axis=1)
            above = np.count_nonzero(part > t[:, None], axis=1)
            done = above <= k
            tau[rows[done]] = t[done]
            if done.all():
                self._top = k
                return tau
            rows = rows[~done]
            k = min(2 * k, int(above.max()))


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

    Rows are gathered (_gather, which releases a mapped matrix's pages) and
    upcast one row block at a time, so a long weight vector needs no float64
    copy of all its rows. Each block is a fresh copy, not _float64_blocks'
    reused buffer: called once per target row, that buffer is allocated per
    call, and a 4,000-row combine took 12.4 ms, not 6.4.
    """
    total = None
    for part in _row_blocks(w.ids.size):
        mixed = w.weights[part] @ _gather(rows.data, w.ids[part]).astype(np.float64)
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
