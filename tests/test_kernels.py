import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sparsemax_oracle

from vocabport import embedding_store, kernels
from vocabport.embedding_store import EmbeddingMatrix
from vocabport.errors import ValidationError
from vocabport.kernels import (
    SupportCosines,
    WeightVector,
    convex_combine,
    cosine_similarity,
    mean_std,
    sparsemax,
)


class TestCosine:
    def test_identical_direction(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        # 32 / sqrt(14 * 77), evaluated with mpmath at 30 digits
        assert cosine_similarity([1, 2, 3], [4, 5, 6]) == pytest.approx(
            0.9746318461970762, abs=1e-12
        )

    def test_zero_norm_policy(self):
        with pytest.warns(RuntimeWarning):
            assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_clamped_into_range(self):
        v = np.full(200, 0.1)
        assert -1.0 <= cosine_similarity(v, v) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0], [1.0, 2.0])

    def test_huge_finite_vectors_do_not_overflow(self):
        # The squared norm 2e400 overflows float64; a.b / (|a| |b|) gave nan.
        assert cosine_similarity([1e200, 1e200], [1e200, 1e200]) == 1.0

    def test_tiny_nonzero_vectors_are_not_zero_norm(self):
        # The squared norms underflow to 0; the quotient gave 0.0 and warned.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cosine_similarity([1e-300, 3e-310], [2e-300, 1e-310]) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            cosine_similarity([bad, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            cosine_similarity([1.0, 1.0], [1.0, bad])


class TestSparsemax:
    def test_symmetry(self):
        np.testing.assert_allclose(sparsemax([1.0, 1.0, 1.0]), [1 / 3] * 3)

    def test_dominant_entry(self):
        # Oracle confirms tau = 1 for [2, 0].
        np.testing.assert_array_equal(sparsemax([2.0, 0.0]), [1.0, 0.0])

    def test_point_on_simplex_is_fixed(self):
        np.testing.assert_allclose(
            sparsemax([0.5, 0.3, 0.2]), [0.5, 0.3, 0.2], atol=1e-15
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparsemax([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sparsemax([1.0, np.nan])

    def test_matches_oracle_on_seeded_batch(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            z = rng.normal(0.0, 2.0, n)
            np.testing.assert_allclose(sparsemax(z), sparsemax_oracle(z), atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        z=st.lists(
            st.floats(-50, 50, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        ),
        shift=st.floats(-20, 20, allow_nan=False),
    )
    def test_properties(self, z, shift):
        z = np.asarray(z)
        p = sparsemax(z)
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) <= 1e-9
        np.testing.assert_allclose(sparsemax(z + shift), p, atol=1e-9)

    @given(
        z=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8),
        seed=st.integers(0, 999),
    )
    def test_permutation_equivariance(self, z, seed):
        z = np.asarray(z)
        perm = np.random.default_rng(seed).permutation(z.size)
        np.testing.assert_allclose(
            sparsemax(z[perm]), sparsemax(z)[perm], atol=1e-9
        )


class TestSparsemaxBatch:
    @staticmethod
    def _assert_rowwise(batch):
        batch = np.asarray(batch, dtype=np.float64)
        expected = np.stack([sparsemax(row) for row in batch])
        np.testing.assert_array_equal(sparsemax(batch), expected)

    def test_seeded_batches_match_rows_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 40))
            self._assert_rowwise(rng.normal(0.0, 2.0, (rows, cols)))

    def test_ties_and_constant_rows(self):
        rng = np.random.default_rng(12)
        batch = rng.integers(-2, 3, (9, 17)).astype(np.float64) / 4.0
        batch[2] = 0.0  # the cosines of a zero-norm query
        batch[5] = 0.7
        self._assert_rowwise(batch)
        np.testing.assert_array_equal(sparsemax(batch)[2], np.full(17, 1.0 / 17))

    def test_one_column_batch(self):
        batch = np.array([[3.0], [-1.0], [0.0]])
        self._assert_rowwise(batch)
        np.testing.assert_array_equal(sparsemax(batch), np.ones((3, 1)))

    def test_temperature_scaled_batch(self):
        rng = np.random.default_rng(13)
        cosines = np.clip(rng.normal(0.0, 0.5, (6, 300)), -1.0, 1.0)
        for temperature in (0.05, 0.3, 2.5):
            self._assert_rowwise(cosines / temperature)

    def test_batch_matches_oracle(self):
        rng = np.random.default_rng(14)
        batch = rng.normal(0.0, 2.0, (25, 6))
        for p, z in zip(sparsemax(batch), batch):
            np.testing.assert_allclose(p, sparsemax_oracle(z), atol=1e-9)

    def test_rejected_batches(self):
        with pytest.raises(ValueError):
            sparsemax(np.empty((3, 0)))
        with pytest.raises(ValueError):
            sparsemax([[1.0, 2.0], [np.inf, 0.0]])
        with pytest.raises(ValueError):
            sparsemax(np.zeros((2, 2, 2)))


def support_cosines_oracle(support, queries):
    """Exact-slice cosines from one float64 copy of both slices of the
    whole support and three whole-support GEMMs. Returns (cosines,
    zero-query mask, zero-support mask)."""
    bits = (53 - (support.shape[1] - 1).bit_length()) // 2

    def split(rows):
        a = np.array(rows, dtype=np.float64)
        peak = np.maximum(a.max(axis=1, initial=0.0), -a.min(axis=1, initial=0.0))
        _, exp = np.frexp(peak)
        np.ldexp(a, (bits - exp)[:, None], out=a)
        hi = np.rint(a)
        a -= hi
        lo = np.rint(np.ldexp(a, bits, out=a), out=a)
        squares = np.einsum("ij,ij->i", hi, hi)
        squares += np.ldexp(np.einsum("ij,ij->i", hi, lo), 1 - bits)
        return hi, lo, np.sqrt(squares)

    s_hi, s_lo, s_norms = split(support)
    q_hi, q_lo, q_norms = split(queries)
    cos = q_hi @ s_hi.T
    cross = q_hi @ s_lo.T
    cross += q_lo @ s_hi.T
    cos += np.ldexp(cross, -bits, out=cross)
    zero = q_norms == 0.0
    cos /= np.where(zero, 1.0, q_norms)[:, None]
    cos /= np.where(s_norms == 0.0, 1.0, s_norms)
    return np.clip(cos, -1.0, 1.0, out=cos), zero, s_norms == 0.0


def _extreme_rows(rng, rows, dim):
    """Normal rows with all-zero, float32-max, subnormal and mixed-scale
    rows mixed in."""
    a = rng.normal(size=(rows, dim)).astype(np.float32)
    big = np.finfo(np.float32).max
    tiny = np.finfo(np.float32).smallest_subnormal
    a[1] = 0.0
    a[2] = big
    a[3] = np.where(a[3] > 0, tiny, -tiny)
    a[4] *= np.float32(1e30)
    a[5] *= np.float32(1e-40)
    a[6, 0] = big / 2  # one huge entry; the rest quantize to nearly nothing
    return a


# Digests of SupportCosines' cosines and its sparsemax weights and zero-row
# flags over seeded float32 rows, then the count of nonzero weights.
_KERNEL_DIGESTS = """
import hashlib
import numpy as np
from vocabport.kernels import SupportCosines
rng = np.random.default_rng(11)
data = rng.normal(size=(2500, 64)).astype(np.float32)
queries = rng.normal(size=(400, 64)).astype(np.float32)
queries[::50] = 0.0
kernel = SupportCosines(data, rng.permutation(2500)[:2000])
cos, _ = kernel(queries)
weights, zero = kernel.sparsemax(queries, 0.05)
for a in (cos, weights, zero):
    print(hashlib.sha256(a.tobytes()).hexdigest())
print(np.count_nonzero(weights))
"""


class TestSupportCosines:
    def _reference(self, queries, support):
        q = np.asarray(queries, dtype=np.float64)
        s = np.asarray(support, dtype=np.float64)
        qn = np.linalg.norm(q, axis=1)[:, None]
        sn = np.linalg.norm(s, axis=1)[None, :]
        cos = (q @ s.T) / np.where(qn == 0, 1.0, qn) / np.where(sn == 0, 1.0, sn)
        return np.clip(cos, -1.0, 1.0)

    def test_matches_float64_cosines(self):
        rng = np.random.default_rng(21)
        for dim in (1, 3, 12, 300, 768):
            support = rng.normal(size=(50, dim)).astype(np.float32)
            queries = rng.normal(size=(7, dim)).astype(np.float32) * 1e-3
            cos, zero = SupportCosines(support)(queries)
            np.testing.assert_allclose(cos, self._reference(queries, support), atol=1e-12)
            assert not zero.any()

    def test_rows_do_not_depend_on_their_block(self):
        rng = np.random.default_rng(22)
        support = rng.normal(size=(300, 12)).astype(np.float32)
        queries = rng.normal(size=(40, 12)).astype(np.float32)
        cosines = SupportCosines(support)
        whole, _ = cosines(queries)
        for size in (1, 3, 7):
            parts = [cosines(queries[i : i + size])[0] for i in range(0, 40, size)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_zero_rows(self):
        support = np.array([[1.0, 0.0], [0.0, 0.0], [-2.0, 2.0]], dtype=np.float32)
        cosines = SupportCosines(support)
        np.testing.assert_array_equal(cosines.zero_rows, [False, True, False])
        cos, zero = cosines(np.array([[0.0, 0.0], [3.0, 0.0]], dtype=np.float32))
        np.testing.assert_array_equal(zero, [True, False])
        np.testing.assert_array_equal(cos[0], 0.0)
        np.testing.assert_allclose(cos[1], [1.0, 0.0, -np.sqrt(0.5)], atol=1e-15)

    def test_screen_norms_taken_on_first_screen(self, monkeypatch):
        # clp only calls the kernel and never needs the screen's norms; the
        # first sparsemax takes them from the scaled rows it screens, over
        # more than one row block.
        monkeypatch.setattr(embedding_store, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(23)
        support = rng.normal(size=(10, 6)).astype(np.float32)
        support[3] = 0.0
        cosines = SupportCosines(support)
        cosines(support[:2])
        assert cosines._norms is None
        cosines.sparsemax(support[:2], 1.0)
        scaled = kernels._scale_rows(support.astype(np.float64))
        want = np.where(cosines.zero_rows, 1.0, kernels._row_norms(scaled))
        assert cosines._norms.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 3, 8, 9, 12, 300, 768])
    @pytest.mark.parametrize("build_rows,call_rows", [(1, 7), (7, 1), (None, None)])
    def test_bitwise_equal_to_whole_float64_oracle(
        self, monkeypatch, dim, build_rows, call_rows
    ):
        # 1,100 support rows: more than one row block at the default size. The
        # support is split at one block size and tiled at another.
        rng = np.random.default_rng(dim)
        data = _extreme_rows(rng, 1200, dim)
        ids = rng.permutation(1200)[:1100]
        ids[:10] = np.arange(10)  # every extreme row is in the support
        queries = _extreme_rows(rng, 9, dim)
        expected, expected_zero, zero_rows = support_cosines_oracle(data[ids], queries)
        if build_rows is not None:
            monkeypatch.setattr(embedding_store, "_BLOCK_ROWS", build_rows)
        built = (SupportCosines(data, ids), SupportCosines(data[ids]))
        for cosines in built:
            cos, _ = cosines(queries[:1])  # split at the build block size
            np.testing.assert_array_equal(cos, expected[:1])
        if call_rows is not None:
            monkeypatch.setattr(embedding_store, "_BLOCK_ROWS", call_rows)
        for cosines in built:
            cos, zero = cosines(queries)
            np.testing.assert_array_equal(cos, expected)
            np.testing.assert_array_equal(zero, expected_zero)
            np.testing.assert_array_equal(cosines.zero_rows, zero_rows)

    def test_empty_support_and_queries(self):
        cosines = SupportCosines(np.ones((4, 3), dtype=np.float32), np.array([], dtype=np.int64))
        cos, zero = cosines(np.ones((2, 3), dtype=np.float32))
        assert cos.shape == (2, 0) and not zero.any()
        cos, zero = SupportCosines(np.ones((4, 3), dtype=np.float32))(np.empty((0, 3)))
        assert cos.shape == (0, 4) and zero.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_support_rejected(self, bad):
        # _split of a non-finite row gives nan slices, which would make
        # garbage cosines instead of an error.
        data = np.ones((5, 4))
        data[3, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            SupportCosines(data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_queries_rejected(self, bad):
        # Both products split their queries through one check.
        cosines = SupportCosines(np.eye(3))
        queries = np.array([[bad, 0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            cosines(queries)
        with pytest.raises(ValueError, match="finite"):
            cosines.sparsemax(queries, 1.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 9, 768])
    @pytest.mark.parametrize("block_rows", [1, 7, None])
    def test_gathered_subsets_equal_whole_support_columns(self, monkeypatch, dim, block_rows):
        # The rescoring path: support rows gathered by ids and split, against
        # the same columns of the whole-support product at the default block.
        rng = np.random.default_rng(dim + 50)
        data = _extreme_rows(rng, 40, dim)
        queries = _extreme_rows(rng, 9, dim)
        cosines = SupportCosines(data)
        whole, _ = cosines(queries)
        if block_rows is not None:
            monkeypatch.setattr(embedding_store, "_BLOCK_ROWS", block_rows)
        split = kernels._split(queries.astype(np.float64), cosines.bits)
        for ids in (rng.permutation(40)[:17], np.arange(40)[::-1].copy(), rng.integers(0, 40, 60)):
            gathered = cosines._product(split, ids)
            np.testing.assert_array_equal(gathered, whole[:, ids])
            for row in range(len(queries)):
                query = tuple(part[row : row + 1] for part in split)
                one = cosines._product(query, ids)
                np.testing.assert_array_equal(one[0], whole[row, ids])
            np.testing.assert_array_equal(SupportCosines(data, ids)(queries)[0], whole[:, ids])

    def test_bits_do_not_depend_on_blas_threads(self):
        # Each product runs in a child, as OpenBLAS reads its thread count
        # once, at load. 400 queries x 2,000 support rows x 64 is enough for
        # it to split the float32 screen and the slice products over two
        # threads; the cosines and the sparsemax weights may not change.
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            digests[threads] = subprocess.run(
                [sys.executable, "-c", _KERNEL_DIGESTS], env=env, check=True,
                capture_output=True, text=True, timeout=60,
            ).stdout.split()
        assert len(digests["1"]) == 4 and int(digests["1"][3]) > 400
        assert digests["1"] == digests["2"]

    def test_extreme_magnitudes(self):
        big = np.finfo(np.float32).max
        tiny = np.finfo(np.float32).smallest_subnormal
        support = np.array([[big, big / 2], [tiny, 0.0], [1.0, -1.0]], dtype=np.float32)
        queries = np.array([[tiny, tiny], [big, -big]], dtype=np.float32)
        cos, _ = SupportCosines(support)(queries)
        np.testing.assert_allclose(cos, self._reference(queries, support), atol=1e-12)


def _whole_support_weights(data, ids, queries, temperature):
    # The oracle has the bits of SupportCosines' whole-support product
    # (test_bitwise_equal_to_whole_float64_oracle) and splits no support
    # that recorded_supports would count.
    support = data if ids is None else data[ids]
    return sparsemax(support_cosines_oracle(support, queries)[0] / temperature)


class TestSparsemaxWeights:
    """The screened weights against sparsemax over the whole-support exact
    cosines, compared bit for bit."""

    @pytest.mark.parametrize("temperature", [1.0, 0.2, 1e-3])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 768])
    def test_bitwise_equal_to_whole_support_sparsemax(self, monkeypatch, dim, temperature):
        # Zero, float32-max, subnormal and mixed-scale rows on both sides,
        # duplicate support rows, and queries equal to support rows. The
        # support spans several row blocks.
        monkeypatch.setattr(embedding_store, "_BLOCK_ROWS", 64)
        rng = np.random.default_rng(dim)
        data = _extreme_rows(rng, 450, dim)
        data[20:30] = data[10]
        ids = rng.permutation(450)[:400]
        ids[:12] = np.arange(12)
        queries = _extreme_rows(rng, 24, dim)
        queries[10:14] = data[ids[[0, 10, 20, 30]]]
        weights, zero = SupportCosines(data, ids).sparsemax(queries, temperature)
        expected = _whole_support_weights(data, ids, queries, temperature)
        np.testing.assert_array_equal(weights, expected)
        np.testing.assert_array_equal(zero, ~queries.any(axis=1))

    @pytest.mark.parametrize("temperature", [1.0, 0.5])
    def test_exact_ties_at_the_threshold(self, recorded_supports, temperature):
        # Against e1 the cosines are 1, 0 (four times, three of them
        # duplicates), -0.6 and -1 (twice). At T = 1 sparsemax keeps e1
        # alone and tau is exactly 0, the cosine of the four orthogonal rows.
        support = np.array(
            [[1, 0], [0, 1], [0, 1], [0, -1], [0, 1], [-0.6, 0.8], [-1, 0], [-2, 0]],
            dtype=np.float32,
        )
        queries = np.array([[1, 0], [0.6, 0.8], [0, 0]], dtype=np.float32)
        weights, zero = SupportCosines(support).sparsemax(queries, temperature)
        expected = _whole_support_weights(support, None, queries, temperature)
        np.testing.assert_array_equal(weights, expected)
        np.testing.assert_array_equal(zero, [False, False, True])
        if temperature == 1.0:
            np.testing.assert_array_equal(weights[0], [1, 0, 0, 0, 0, 0, 0, 0])
        # The all-zero query takes 1/n weights without a product.
        np.testing.assert_array_equal(weights[2], 1.0 / len(support))
        assert all(size < len(support) for size in recorded_supports)

    def test_uncertified_rows_take_the_whole_support_product(self, monkeypatch, recorded_supports):
        rng = np.random.default_rng(31)
        data = _extreme_rows(rng, 300, 12)
        queries = _extreme_rows(rng, 9, 12)
        expected = _whole_support_weights(data, None, queries, 0.2)
        monkeypatch.setattr(kernels, "_certified", lambda rest, err, tau: False)
        weigh = SupportCosines(data).sparsemax
        weights, _ = weigh(queries, 0.2)
        np.testing.assert_array_equal(weights, expected)
        # Every nonzero query is rescored, refused, then weighted from one
        # whole-support product that the call's refused rows share.
        assert recorded_supports.count(300) == 1
        assert len(recorded_supports) == 1 + 8
        weights, _ = weigh(queries, 0.2)
        np.testing.assert_array_equal(weights, expected)
        assert recorded_supports.count(300) == 2

    @pytest.mark.parametrize("temperature", [1.0, 0.2])
    def test_screen_errors_up_to_eps_keep_the_bits(self, monkeypatch, recorded_supports,
                                                   temperature):
        # Take eps = 0.01 and move every screened cosine by 0.0099, up or
        # down at random, so entries near tau cross it both ways. The
        # margin keeps every nonzero weight among the candidates, and every
        # row gets its certificate.
        rng = np.random.default_rng(34)
        data = rng.normal(size=(600, 24)).astype(np.float32)
        queries = rng.normal(size=(40, 24)).astype(np.float32)
        expected = _whole_support_weights(data, None, queries, temperature)
        screen = SupportCosines._screen

        def shifted_screen(self, q32, q_norms):
            cos = screen(self, q32, q_norms)
            return cos + 0.0099 * rng.choice([-1.0, 1.0], size=cos.shape)

        monkeypatch.setattr(kernels, "_screen_error", lambda dim: 0.01)
        monkeypatch.setattr(SupportCosines, "_screen", shifted_screen)
        refused = []
        certified = kernels._certified
        monkeypatch.setattr(
            kernels, "_certified", lambda *args: certified(*args) or refused.append(args)
        )
        weights, _ = SupportCosines(data).sparsemax(queries, temperature)
        np.testing.assert_array_equal(weights, expected)
        assert not refused and max(recorded_supports) < 600

    def test_missed_candidates_lose_the_certificate(self, monkeypatch, recorded_supports):
        # A screen threshold set too high leaves nonzero weights out of the
        # candidates: the certificate refuses those rows, and they take the
        # whole-support product.
        rng = np.random.default_rng(35)
        data = rng.normal(size=(600, 24)).astype(np.float32)
        queries = rng.normal(size=(40, 24)).astype(np.float32)
        expected = _whole_support_weights(data, None, queries, 1.0)
        thresholds = SupportCosines._thresholds
        monkeypatch.setattr(
            SupportCosines, "_thresholds", lambda self, z: thresholds(self, z) + 0.05
        )
        weights, _ = SupportCosines(data).sparsemax(queries, 1.0)
        np.testing.assert_array_equal(weights, expected)
        assert recorded_supports.count(600) == 1

    def test_only_candidates_are_split(self, recorded_supports):
        rng = np.random.default_rng(32)
        data = rng.normal(size=(2000, 64)).astype(np.float32)
        queries = rng.normal(size=(20, 64)).astype(np.float32)
        weights, _ = SupportCosines(data).sparsemax(queries, 1.0)
        nonzero = np.count_nonzero(weights, axis=1)
        # One split per query, of its candidates: at most a few more rows
        # than it has nonzero weights, far fewer than the support.
        assert len(recorded_supports) == 20
        assert all(n <= size <= n + 5 for n, size in zip(nonzero, recorded_supports))
        assert max(recorded_supports) < 200

    def test_rows_do_not_depend_on_their_block(self):
        rng = np.random.default_rng(33)
        data = rng.normal(size=(500, 16)).astype(np.float32)
        queries = rng.normal(size=(30, 16)).astype(np.float32)
        weigh = SupportCosines(data).sparsemax
        whole, _ = weigh(queries, 0.2)
        for size in (1, 3, 7):
            parts = [weigh(queries[i : i + size], 0.2)[0] for i in range(0, 30, size)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("dim", [1, 3, 8, 9, 64, 768])
    def test_screen_within_its_error_bound(self, dim):
        rng = np.random.default_rng(dim + 40)
        data = _extreme_rows(rng, 200, dim)
        queries = _extreme_rows(rng, 12, dim)
        weigh = SupportCosines(data)
        q = kernels._scale_rows(queries.astype(np.float64))
        norms = kernels._row_norms(q)
        live = norms > 0
        screened = weigh._screen(q[live].astype(np.float32), norms[live])
        exact, _ = SupportCosines(data)(queries[live])
        assert np.abs(screened - exact).max() <= kernels._screen_error(dim)

    def test_rejected_inputs(self):
        with pytest.raises(ValueError, match="finite"):
            SupportCosines(np.array([[1.0, np.inf]]))
        weigh = SupportCosines(np.eye(3)).sparsemax
        with pytest.raises(ValueError, match="finite"):
            weigh(np.array([[np.nan, 0.0, 1.0]]), 1.0)
        with pytest.raises(ValueError, match="non-empty"):
            SupportCosines(np.eye(3), np.array([], dtype=np.int64)).sparsemax(np.eye(3), 1.0)


class TestConvexCombine:
    def _rows(self, values):
        return EmbeddingMatrix(np.array(values, dtype=np.float32))

    def test_identity_weight(self):
        rows = self._rows([[3.0, 4.0]])
        w = WeightVector([0], [1.0])
        np.testing.assert_array_equal(convex_combine(w, rows), [3.0, 4.0])

    def test_midpoint(self):
        rows = self._rows([[2.0, 0.0], [0.0, 2.0]])
        w = WeightVector([0, 1], [0.5, 0.5])
        np.testing.assert_array_equal(convex_combine(w, rows), [1.0, 1.0])

    def test_hand_mixture(self):
        rows = self._rows([[1.0, 0.0], [0.0, 1.0]])
        w = WeightVector([0, 1], [0.8, 0.2])
        np.testing.assert_allclose(convex_combine(w, rows), [0.8, 0.2], atol=1e-12)

    def test_id_out_of_range(self):
        rows = self._rows([[1.0, 0.0]])
        with pytest.raises(ValidationError, match="out of range"):
            convex_combine(WeightVector([1], [1.0]), rows)

    def test_non_convex_rejected(self):
        rows = self._rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            convex_combine(WeightVector([0, 1], [0.9, 0.2]), rows)
        with pytest.raises(ValidationError):
            convex_combine(WeightVector([0, 1], [-0.5, 1.5]), rows)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), dim=st.integers(1, 5))
    def test_output_inside_hull(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, dim)).astype(np.float32)
        raw = rng.random(n) + 1e-9
        weights = raw / raw.sum()
        out = convex_combine(
            WeightVector(np.arange(n), weights), EmbeddingMatrix(rows)
        )
        lo = rows.astype(np.float64).min(axis=0) - 1e-9
        hi = rows.astype(np.float64).max(axis=0) + 1e-9
        assert (out >= lo).all() and (out <= hi).all()

    def test_long_weight_vector_combines_in_parts(self):
        # More rows than one gather step holds: parts must add up to the
        # full float64 sum.
        rng = np.random.default_rng(31)
        n = 2500
        rows = rng.normal(size=(n, 3)).astype(np.float32)
        raw = rng.random(n)
        w = WeightVector(np.arange(n)[::-1], raw / raw.sum())
        expected = w.weights @ rows[w.ids].astype(np.float64)
        np.testing.assert_allclose(
            convex_combine(w, EmbeddingMatrix(rows)), expected, rtol=0, atol=1e-12
        )


# One row, one row past a block, and a count that is not a multiple of it.
ROW_COUNTS = pytest.mark.parametrize(
    "rows",
    [1, embedding_store._BLOCK_ROWS + 1, 3 * embedding_store._BLOCK_ROWS + 37],
    ids=["one", "block+1", "ragged"],
)


class TestMeanStd:
    """Block-wise statistics against numpy's mean()/std() of one float64 copy."""

    @staticmethod
    def _rel(got, want):
        return np.max(np.abs(np.asarray(got) - want) / np.abs(want))

    @ROW_COUNTS
    def test_whole_matrix_matches_float64_oracle(self, rows):
        data = np.random.default_rng(rows).normal(0.3, 1.7, (rows, 5)).astype(np.float32)
        whole = data.astype(np.float64)
        mean, std = mean_std(data)
        assert np.ndim(mean) == 0 and np.ndim(std) == 0
        assert self._rel(mean, whole.mean()) < 1e-12
        assert self._rel(std, whole.std()) < 1e-12

    @ROW_COUNTS
    def test_row_subset_per_column_matches_float64_oracle(self, rows):
        rng = np.random.default_rng(rows + 1)
        data = rng.normal(-0.4, 0.8, (rows + 50, 6)).astype(np.float32)
        ids = rng.permutation(rows + 50)[:rows]
        chosen = data[ids].astype(np.float64)
        mean, std = mean_std(data, ids, axis=0)
        assert mean.shape == std.shape == (6,)
        assert self._rel(mean, chosen.mean(axis=0)) < 1e-12
        if rows > 1:
            assert self._rel(std, chosen.std(axis=0)) < 1e-12
        else:
            assert not std.any()
