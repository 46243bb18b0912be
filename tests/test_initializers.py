import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import build_instance, sparsemax_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from vocabport import embedding_store, initializers, kernels, script_groups
from vocabport.aux_vectors import AUX_MODEL, WORD_VECTORS, AuxEmbeddings, load_aux_model
from vocabport.embedding_store import EmbeddingMatrix, ModelBundle, Vocabulary, load_matrix
from vocabport.errors import ValidationError
from vocabport.initializers import (
    InitConfig,
    InitReport,
    init_clp,
    init_clp_plus,
    init_focus,
    init_heuristics,
    init_random,
    init_target_bundle,
)
from vocabport.kernels import SupportCosines, sparsemax, weighted_sum
from vocabport.overlap import OverlapMap, compute_overlap


def _bundle(tokens, rows, out_rows=None):
    return ModelBundle(
        vocab=Vocabulary(tokens),
        input_emb=EmbeddingMatrix(np.asarray(rows, dtype=np.float32)),
        output_emb=EmbeddingMatrix(np.asarray(out_rows, dtype=np.float32))
        if out_rows is not None
        else None,
    )


def _aux(kind, alignment, matrix, n_target):
    return AuxEmbeddings(
        source_kind=kind,
        vocab_alignment=alignment,
        matrix=EmbeddingMatrix(np.asarray(matrix, dtype=np.float32)),
        missing=set(range(n_target)) - set(alignment),
    )


_ZERO_QUANTILES = {"min": 0, "p50": 0, "p90": 0, "max": 0}


def _cfg(method, **kw):
    kw.setdefault("seed", 42)
    return InitConfig(method=method, **kw)


@pytest.fixture
def stats_calls(monkeypatch):
    """The (data, ids) of every kernels.mean_std call the initializers and
    group statistics make, in call order; ids is None for the statistics
    of a whole matrix."""
    calls = []
    real_stats = kernels.mean_std

    def recording_stats(data, ids=None, axis=None):
        calls.append((data, ids))
        return real_stats(data, ids, axis)

    monkeypatch.setattr(initializers, "mean_std", recording_stats)
    monkeypatch.setattr(script_groups, "mean_std", recording_stats)
    return calls


class TestRandom:
    def test_degenerate_source_gives_constant_rows(self):
        source = _bundle(["a", "b"], np.zeros((2, 3)))
        bundle, report = init_random(source, Vocabulary(["x", "y", "z"]), _cfg("random"))
        np.testing.assert_array_equal(bundle.input_emb.data, np.zeros((3, 3)))
        assert report.random_fallback == 3
        assert report.counter_total() == 3
        assert report.support_size == report.support_dropped == 0
        assert report.nonzero_weights == _ZERO_QUANTILES

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        source = _bundle(["a", "b", "c"], rng.normal(size=(3, 4)))
        target = Vocabulary(["p", "q"])
        one, _ = init_random(source, target, _cfg("random"))
        two, _ = init_random(source, target, _cfg("random"))
        assert one.input_emb.data.tobytes() == two.input_emb.data.tobytes()
        other, _ = init_random(source, target, _cfg("random", seed=43))
        assert other.input_emb.data.tobytes() != one.input_emb.data.tobytes()

    def test_sample_mean_tracks_source_stats(self):
        # 12,500 rows x 8 cols = 1e5 samples; standard-error bound at 3 sigma.
        rng = np.random.default_rng(5)
        source = _bundle([f"s{i}" for i in range(40)], rng.normal(0.7, 2.0, (40, 8)))
        elements = source.input_emb.data.astype(np.float64)
        mu, sigma = elements.mean(), elements.std()
        target = Vocabulary([f"t{i}" for i in range(12_500)])
        bundle, _ = init_random(source, target, _cfg("random"))
        sample_mean = bundle.input_emb.data.astype(np.float64).mean()
        assert abs(sample_mean - mu) <= 3.0 * sigma / np.sqrt(12_500 * 8)

    def test_untied_output_uses_output_stats(self):
        source = _bundle(["a", "b"], np.zeros((2, 3)), np.full((2, 3), 7.0))
        bundle, _ = init_random(source, Vocabulary(["x"]), _cfg("random"))
        np.testing.assert_array_equal(bundle.input_emb.data, np.zeros((1, 3)))
        np.testing.assert_array_equal(bundle.output_emb.data, np.full((1, 3), 7.0))


class TestClp:
    def test_full_overlap_is_pure_copy(self):
        rows = np.arange(6, dtype=np.float32).reshape(3, 2)
        source = _bundle(["a", "b", "c"], rows)
        target = Vocabulary(["c", "a", "b"])
        overlap = compute_overlap(source.vocab, target)
        aux = _aux(AUX_MODEL, {0: 0, 1: 1, 2: 2}, np.eye(3), 3)
        bundle, report = init_clp(source, target, overlap, aux, _cfg("clp"))
        np.testing.assert_array_equal(bundle.input_emb.data, rows[[2, 0, 1]])
        assert report.copied == 3 and report.similarity_initialized == 0

    def test_hand_weighted_average(self):
        source = _bundle(["t0", "t1"], [[1.0, 0.0], [0.0, 1.0]])
        target = Vocabulary(["t0", "t1", "q"])
        overlap = compute_overlap(source.vocab, target)
        z = np.sqrt(0.32)
        aux = _aux(
            AUX_MODEL,
            {0: 0, 1: 1, 2: 2},
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.8, 0.2, z]],
            3,
        )
        bundle, report = init_clp(source, target, overlap, aux, _cfg("clp"))
        np.testing.assert_allclose(bundle.input_emb.data[2], [0.8, 0.2], atol=1e-6)
        assert report.similarity_initialized == 1

    def test_all_nonpositive_cosines_fall_back_to_uniform(self):
        source = _bundle(
            ["t0", "t1", "t2"], [[3.0, 0.0], [0.0, 3.0], [0.0, 0.0]]
        )
        target = Vocabulary(["t0", "t1", "t2", "q"])
        overlap = compute_overlap(source.vocab, target)
        aux = _aux(
            AUX_MODEL,
            {0: 0, 1: 1, 2: 2, 3: 3},
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
            4,
        )
        bundle, _ = init_clp(source, target, overlap, aux, _cfg("clp"))
        np.testing.assert_allclose(bundle.input_emb.data[3], [1.0, 1.0], atol=1e-6)

    def test_missing_aux_policy_error(self):
        source = _bundle(["a"], [[1.0, 1.0]])
        target = Vocabulary(["a", "q"])
        overlap = compute_overlap(source.vocab, target)
        aux = _aux(AUX_MODEL, {0: 0}, np.eye(1), 2)
        with pytest.raises(ValidationError, match="'q'"):
            init_clp(
                source, target, overlap, aux,
                _cfg("clp", missing_aux_policy="error"),
            )

    def test_wrong_aux_kind_rejected(self):
        source = _bundle(["a"], [[1.0]])
        target = Vocabulary(["a"])
        overlap = compute_overlap(source.vocab, target)
        vecs = _aux(WORD_VECTORS, {0: 0}, np.eye(1), 1)
        with pytest.raises(ValidationError, match="aux-model"):
            init_clp(source, target, overlap, vecs, _cfg("clp"))

    def test_raw_weights_escape_hatch(self):
        source = _bundle(["t0", "t1"], [[1.0, 0.0], [0.0, 1.0]])
        target = Vocabulary(["t0", "t1", "q"])
        overlap = compute_overlap(source.vocab, target)
        z = np.sqrt(1.0 - 0.8**2 - 0.4**2)
        aux = _aux(
            AUX_MODEL,
            {0: 0, 1: 1, 2: 2},
            [[1, 0, 0], [0, 1, 0], [0.8, -0.4, z]],
            3,
        )
        bundle, _ = init_clp(
            source, target, overlap, aux, _cfg("clp", clp_raw_weights=True)
        )
        # raw normalization: weights (0.8, -0.4) / 0.4 = (2, -1)
        np.testing.assert_allclose(bundle.input_emb.data[2], [2.0, -1.0], atol=1e-5)


class TestHeuristics:
    def test_overlap_rows_copied_bitwise(self):
        rng = np.random.default_rng(9)
        source = _bundle(["Ġaa", "Ġbb"], rng.normal(size=(2, 3)))
        target = Vocabulary(["Ġbb", "Ġzz"])
        overlap = compute_overlap(source.vocab, target)
        bundle, report = init_heuristics(source, target, overlap, _cfg("heuristics"))
        assert (
            bundle.input_emb.data[0].tobytes()
            == source.input_emb.data[1].tobytes()
        )
        assert report.copied == 1
        assert report.support_size == report.support_dropped == 0
        assert report.nonzero_weights == _ZERO_QUANTILES

    def test_degenerate_group_samples_exactly(self):
        source = _bundle(
            ["Ġaa", "Ġbb", "123"],
            [[5.0, 5.0], [5.0, 5.0], [0.0, 0.0]],
        )
        target = Vocabulary(["Ġcc"])
        overlap = compute_overlap(source.vocab, target)
        bundle, report = init_heuristics(
            source, target, overlap, _cfg("heuristics", min_group_size=1)
        )
        np.testing.assert_array_equal(bundle.input_emb.data[0], [5.0, 5.0])
        assert report.group_sampled == 1

    def test_group_sample_mean_tracks_group_stats(self):
        # Source group engineered to mean [1,1], std [1,1]; 1e4 sampled rows
        # must land within 3/sqrt(1e4) per coordinate.
        group_rows = [[0.0, 0.0]] * 6 + [[2.0, 2.0]] * 6
        source = _bundle(
            [f"Ġg{i}" for i in range(12)] + ["1", "2"],
            group_rows + [[9.0, -9.0], [-9.0, 9.0]],
        )
        n = 10_000
        target = Vocabulary([f"Ġw{i}" for i in range(n)])
        overlap = compute_overlap(source.vocab, target)
        bundle, report = init_heuristics(
            source, target, overlap, _cfg("heuristics", min_group_size=12)
        )
        assert report.group_sampled == n
        means = bundle.input_emb.data.astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(means, [1.0, 1.0], atol=3.0 / np.sqrt(n))

    def test_unknown_tokens_use_global_fallback(self):
        source = _bundle(["Ġaa"] , [[2.0, 2.0]])
        target = Vocabulary(["100", "?"])
        overlap = compute_overlap(source.vocab, target)
        bundle, report = init_heuristics(source, target, overlap, _cfg("heuristics"))
        assert report.random_fallback == 2
        # global stats of a constant matrix: mean 2, std 0
        np.testing.assert_array_equal(bundle.input_emb.data, np.full((2, 2), 2.0))

    def test_source_vocabulary_classified_once(self, monkeypatch):
        # Both matrices of an untied source share one membership pass, which
        # classifies only the source tokens that can join a sampled group:
        # "12" holds no letter, so it is never classified.
        calls = []
        classify = script_groups.classify_token

        def counting(token, *args):
            calls.append(token)
            return classify(token, *args)

        monkeypatch.setattr(script_groups, "classify_token", counting)
        monkeypatch.setattr(initializers, "classify_token", counting)
        tokens = ["Ġaa", "Ġbb", "cc", "12"]
        source = _bundle(tokens, np.eye(4), np.eye(4) * 2)
        target = Vocabulary(["Ġaa", "Ġzz", "yy"])
        overlap = compute_overlap(source.vocab, target)
        bundle, report = init_heuristics(
            source, target, overlap, _cfg("heuristics", min_group_size=1)
        )
        # The free target tokens first, then the candidate source tokens.
        assert calls == ["Ġzz", "yy", "Ġaa", "Ġbb", "cc"]
        assert report.group_sampled == 2
        # Ġzz samples the Latin/word-initial group {Ġaa, Ġbb}, whose rows are
        # zero past column 2 in both matrices, so its rows are too.
        for m in (bundle.input_emb, bundle.output_emb):
            assert m.data[1][2:].tolist() == [0.0, 0.0]

    def test_small_group_falls_back(self):
        source = _bundle(["Ġaa", "Ġbb"], [[1.0], [3.0]])
        target = Vocabulary(["Ġcc"])
        overlap = compute_overlap(source.vocab, target)
        _, report = init_heuristics(
            source, target, overlap, _cfg("heuristics", min_group_size=10)
        )
        assert report.random_fallback == 1 and report.group_sampled == 0

    def test_min_group_size_boundary(self):
        # A group with exactly min_group_size members samples; one with a
        # member fewer falls back.
        source = _bundle(["Ġaa", "Ġbb", "Ġcc", "Ġдд", "Ġее"], np.eye(5))
        target = Vocabulary(["Ġzz", "Ġжж"])
        overlap = compute_overlap(source.vocab, target)
        _, report = init_heuristics(source, target, overlap, _cfg("heuristics", min_group_size=3))
        assert report.group_sampled_by_group == {"Latin/word-initial": 1}
        assert (report.group_sampled, report.random_fallback) == (1, 1)

    def test_statistics_only_for_sampled_groups(self, monkeypatch, stats_calls):
        # Group statistics are taken per source matrix for the groups that
        # sample rows only: not for the Unknown digit and punctuation groups
        # of the source, whose rows nothing reads. All of them come before
        # the first row is drawn, so no group's float64 temporaries stack
        # on the draw buffer.
        real_rng = initializers._token_rng

        def recording_rng(state):
            stats_calls.append("draw")
            return real_rng(state)

        monkeypatch.setattr(initializers, "_token_rng", recording_rng)
        source, target, overlap = _sampling_instance(3, untied=True)
        _, report = init_heuristics(
            source, target, overlap, _cfg("heuristics", min_group_size=2)
        )
        # Group statistics and draws; whole-matrix statistics are another test's.
        calls = [c for c in stats_calls if c == "draw" or c[1] is not None]
        sampled = {"Latin/word-initial", "Latin/word-internal", "Cyrillic/word-initial",
                   "Cyrillic/word-internal", "Arabic/word-initial", "Arabic/word-internal",
                   "Han/word-initial"}
        assert set(report.group_sampled_by_group) == sampled
        first_draw = calls.index("draw")
        assert calls[first_draw:] == ["draw"] * 24  # 21 group-sampled, 3 fallback rows
        matrices = [source.input_emb.data, source.output_emb.data]
        got = []
        for data, ids in calls[:first_draw]:
            (label,) = {script_groups.classify_token(source.vocab.tokens[i]).label() for i in ids}
            got.append((next(k for k, m in enumerate(matrices) if m is data), label))
        assert sorted(got) == sorted((k, label) for label in sampled for k in (0, 1))


class TestFocus:
    def _setup(self):
        source = _bundle(["o1", "o2"], [[4.0, 0.0], [0.0, 4.0]])
        target = Vocabulary(["o1", "o2", "q"])
        overlap = compute_overlap(source.vocab, target)
        return source, target, overlap

    def test_dominant_similarity_selects_single_row(self):
        source, target, overlap = self._setup()
        vecs = _aux(WORD_VECTORS, {0: 0, 1: 1, 2: 2}, [[1, 0], [0, 1], [2, 0]], 3)
        bundle, _ = init_focus(source, target, overlap, vecs, _cfg("focus"))
        np.testing.assert_array_equal(bundle.input_emb.data[2], [4.0, 0.0])

    def test_equal_similarities_give_uniform_mean(self):
        source, target, overlap = self._setup()
        vecs = _aux(
            WORD_VECTORS, {0: 0, 1: 1, 2: 2}, [[1, 0], [0, 1], [1, 1]], 3
        )
        bundle, _ = init_focus(source, target, overlap, vecs, _cfg("focus"))
        np.testing.assert_allclose(bundle.input_emb.data[2], [2.0, 2.0], atol=1e-6)

    def test_missing_vector_random_fallback_counted(self):
        source, target, overlap = self._setup()
        vecs = _aux(WORD_VECTORS, {0: 0, 1: 1}, [[1, 0], [0, 1]], 3)
        bundle, report = init_focus(source, target, overlap, vecs, _cfg("focus"))
        assert report.random_fallback == 1
        assert report.similarity_initialized == 0
        assert report.copied == 2

    def test_no_support_is_an_error(self):
        source, target, overlap = self._setup()
        vecs = _aux(WORD_VECTORS, {2: 0}, [[1.0, 0.0]], 3)
        with pytest.raises(ValidationError, match="support"):
            init_focus(source, target, overlap, vecs, _cfg("focus"))

    def test_sparsemax_weights_match_projection_oracle(self):
        source = _bundle(
            ["o1", "o2", "o3"], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        )
        target = Vocabulary(["o1", "o2", "o3", "q"])
        overlap = compute_overlap(source.vocab, target)
        rng = np.random.default_rng(12)
        vec_rows = rng.normal(size=(4, 6))
        vecs = _aux(WORD_VECTORS, {i: i for i in range(4)}, vec_rows, 4)
        bundle, _ = init_focus(source, target, overlap, vecs, _cfg("focus"))
        vec64 = vecs.matrix.data.astype(np.float64)
        sims = np.array(
            [
                vec64[3] @ vec64[i] / (np.linalg.norm(vec64[3]) * np.linalg.norm(vec64[i]))
                for i in range(3)
            ]
        )
        expected = sparsemax_oracle(sims) @ source.input_emb.data.astype(np.float64)
        np.testing.assert_allclose(bundle.input_emb.data[3], expected, atol=1e-6)


class TestClpPlus:
    def test_full_aux_coverage_reads_no_element_statistics(self, stats_calls):
        source, target, overlap = _sampling_instance(3, untied=True)
        alignment = {t: t for t in range(len(target))}
        aux_rows = np.random.default_rng(5).normal(size=(len(target), 4))
        aux = _aux(AUX_MODEL, alignment, aux_rows, len(target))
        _, report = init_clp_plus(source, target, overlap, aux, _cfg("clp-plus"))
        assert report.random_fallback == 0 and report.similarity_initialized > 0
        assert [ids for _, ids in stats_calls if ids is None] == []

    def test_fallback_reads_each_matrix_once(self, stats_calls):
        # Two tokens without an auxiliary vector are sampled from the
        # element statistics, taken once per source matrix for both.
        source, target, overlap = _sampling_instance(3, untied=True)
        missing = overlap.non_overlap[:2]
        alignment = {t: t for t in range(len(target)) if t not in missing}
        aux_rows = np.random.default_rng(5).normal(size=(len(target), 4))
        aux = _aux(AUX_MODEL, alignment, aux_rows, len(target))
        _, report = init_clp_plus(source, target, overlap, aux, _cfg("clp-plus"))
        assert report.random_fallback == 2
        whole = [data for data, ids in stats_calls if ids is None]
        assert len(whole) == 2
        assert whole[0] is source.input_emb.data and whole[1] is source.output_emb.data

    def test_matches_focus_given_identical_similarity_inputs(self):
        source = _bundle(["o1", "o2"], [[4.0, 0.0], [0.0, 4.0]])
        target = Vocabulary(["o1", "o2", "q"])
        overlap = compute_overlap(source.vocab, target)
        rows = [[1.0, 0.0], [0.3, 0.7], [0.9, 0.1]]
        aux = _aux(AUX_MODEL, {0: 0, 1: 1, 2: 2}, rows, 3)
        vecs = _aux(WORD_VECTORS, {0: 0, 1: 1, 2: 2}, rows, 3)
        a, _ = init_clp_plus(source, target, overlap, aux, _cfg("clp-plus"))
        b, _ = init_focus(source, target, overlap, vecs, _cfg("focus"))
        assert a.input_emb.data.tobytes() == b.input_emb.data.tobytes()

    def test_full_overlap_reports_zero_similarity(self):
        source = _bundle(["a", "b"], [[1.0], [2.0]])
        target = Vocabulary(["b", "a"])
        overlap = compute_overlap(source.vocab, target)
        aux = _aux(AUX_MODEL, {0: 0, 1: 1}, np.eye(2), 2)
        bundle, report = init_clp_plus(source, target, overlap, aux, _cfg("clp-plus"))
        assert report.similarity_initialized == 0 and report.copied == 2
        assert report.nonzero_weights == _ZERO_QUANTILES
        np.testing.assert_array_equal(bundle.input_emb.data, [[2.0], [1.0]])

    def test_row_stays_inside_supported_hull(self):
        source = _bundle(
            ["o1", "o2", "o3"], [[0.0, 0.0], [1.0, 2.0], [10.0, -10.0]]
        )
        target = Vocabulary(["o1", "o2", "o3", "q"])
        overlap = compute_overlap(source.vocab, target)
        rng = np.random.default_rng(77)
        aux_rows = rng.normal(size=(4, 5))
        aux = _aux(AUX_MODEL, {i: i for i in range(4)}, aux_rows, 4)
        bundle, _ = init_clp_plus(source, target, overlap, aux, _cfg("clp-plus"))
        aux64 = aux.matrix.data.astype(np.float64)
        sims = np.array(
            [
                aux64[3] @ aux64[i] / (np.linalg.norm(aux64[3]) * np.linalg.norm(aux64[i]))
                for i in range(3)
            ]
        )
        p = sparsemax_oracle(sims)
        support_rows = source.input_emb.data[p > 0].astype(np.float64)
        lo, hi = support_rows.min(axis=0), support_rows.max(axis=0)
        row = bundle.input_emb.data[3].astype(np.float64)
        assert (row >= lo - 1e-6).all() and (row <= hi + 1e-6).all()


class TestTargetBundle:
    @pytest.mark.parametrize("method", initializers.METHODS)
    def test_mapped_inputs_give_the_bytes_of_in_memory_ones(self, tmp_path, monkeypatch, method):
        # Loaded matrices are read-only file mappings whose pages every pass
        # drops after each block; 7-row blocks drop them many times a run.
        monkeypatch.setattr(embedding_store, "_BLOCK_ROWS", 7)
        inst = build_instance(tmp_path)
        files = inst.source_files
        mapped = ModelBundle(inst.source.vocab, load_matrix(files["emb"]),
                             load_matrix(files["out_emb"]))
        model = load_aux_model(*inst.aux_model_files, inst.target_vocab)
        kind = WORD_VECTORS if method == "focus" else AUX_MODEL

        def aux(matrix):
            return AuxEmbeddings(kind, model.vocab_alignment, matrix, model.missing)

        in_memory = EmbeddingMatrix(np.array(model.matrix.data))
        cfg = _cfg(method)
        want = init_target_bundle(inst.source, inst.target_vocab, cfg, aux=aux(in_memory))
        got = init_target_bundle(mapped, inst.target_vocab, cfg, aux=aux(model.matrix))
        assert got == want
        assert mapped.input_emb == inst.source.input_emb
        assert mapped.output_emb == inst.source.output_emb
        assert model.matrix == in_memory

    def test_overlap_copy_takes_any_number_of_pairs_per_source_block(self, monkeypatch):
        # Rows are copied one block of source rows at a time; five target
        # tokens share source row 2, more than a 2-row block.
        monkeypatch.setattr(embedding_store, "_BLOCK_ROWS", 2)
        rng = np.random.default_rng(11)
        source = _bundle([f"s{i}" for i in range(5)], rng.normal(size=(5, 3)),
                         rng.normal(size=(5, 3)))
        pairs = {0: 2, 1: 4, 3: 2, 4: 2, 5: 0, 6: 2, 8: 2, 9: 3}
        overlap = OverlapMap(pairs=pairs, non_overlap=[7, 2])
        rows = initializers._TargetRows("heuristics", source, Vocabulary(f"t{i}" for i in range(10)),
                                        _cfg("heuristics"), overlap)
        t, s = list(pairs), list(pairs.values())
        for out, m in zip(rows.outs, (source.input_emb, source.output_emb)):
            assert out[t].tobytes() == m.data[s].tobytes()

    def test_tied_source_stays_tied(self, instance_tied):
        cfg = _cfg("heuristics")
        bundle, _ = init_target_bundle(
            instance_tied.source, instance_tied.target_vocab, cfg
        )
        assert bundle.tied and bundle.output_emb is None

    def test_untied_output_reuses_input_weights(self):
        source = _bundle(
            ["o1", "o2"],
            [[4.0, 0.0], [0.0, 4.0]],
            [[-1.0, 2.0], [3.0, 5.0]],
        )
        target = Vocabulary(["o1", "o2", "q"])
        rng = np.random.default_rng(21)
        aux_rows = rng.normal(size=(3, 6))
        aux = _aux(AUX_MODEL, {0: 0, 1: 1, 2: 2}, aux_rows, 3)
        bundle, _ = init_target_bundle(source, target, _cfg("clp-plus"), aux=aux)
        aux64 = aux.matrix.data.astype(np.float64)
        sims = np.array(
            [
                aux64[2] @ aux64[i] / (np.linalg.norm(aux64[2]) * np.linalg.norm(aux64[i]))
                for i in range(2)
            ]
        )
        p = sparsemax_oracle(sims)
        expected_out = p @ source.output_emb.data.astype(np.float64)
        np.testing.assert_allclose(
            bundle.output_emb.data[2], expected_out, atol=1e-6
        )
        expected_in = p @ source.input_emb.data.astype(np.float64)
        np.testing.assert_allclose(bundle.input_emb.data[2], expected_in, atol=1e-6)
        assert not bundle.tied

    def test_focus_without_vectors_is_a_config_error(self):
        source = _bundle(["a"], [[1.0]])
        with pytest.raises(ValidationError, match="focus"):
            init_target_bundle(source, Vocabulary(["a"]), _cfg("focus"))

    def test_report_conservation_across_methods(self, instance, aux_model, word_vecs):
        for method, aux in [
            ("random", None),
            ("heuristics", None),
            ("clp", aux_model),
            ("clp-plus", aux_model),
            ("focus", word_vecs),
        ]:
            _, report = init_target_bundle(
                instance.source, instance.target_vocab, _cfg(method), aux=aux
            )
            assert report.counter_total() == len(instance.target_vocab), method


_N_OVERLAP = 300


def _block_instance():
    """300 overlap tokens and 30 new ones (q0..q29) in one untied source.

    Support aux vectors are nonnegative, so under clp raw weights a
    nonnegative query is convex and a mixed-sign one is not. With 3-row
    blocks the first block holds q0, q2 (zero-norm) and q3 (mixed signs),
    and q1, which has no aux vector, sits between q0 and q2. q4 points
    away from every support vector (a clp uniform fallback); q7 repeats
    a support vector and q8 is its negation.
    """
    rng = np.random.default_rng(99)
    n_ov, n_new, dim, aux_dim = _N_OVERLAP, 30, 5, 16
    overlap_tokens = [f"o{i}" for i in range(n_ov)]
    source = _bundle(
        overlap_tokens,
        rng.normal(0.0, 1.0, (n_ov, dim)),
        rng.normal(0.5, 2.0, (n_ov, dim)),
    )
    target = Vocabulary(overlap_tokens + [f"q{i}" for i in range(n_new)])
    support_vecs = np.abs(rng.normal(size=(n_ov, aux_dim)))
    support_vecs[11] = 0.0  # zero-norm support row
    support_vecs[12] = support_vecs[13]  # tied similarities
    queries = rng.normal(size=(n_new, aux_dim))
    queries[0] = np.abs(queries[0])
    queries[2] = 0.0
    queries[3] = np.tile([1.0, -1.0], aux_dim // 2)
    queries[4] = -np.abs(queries[4]) - 0.1
    queries[7] = support_vecs[5]
    queries[8] = -support_vecs[5]
    alignment, matrix = {}, []
    for t in range(n_ov + n_new):
        if t == 3:  # an overlap token left out of the support
            continue
        if t == n_ov + 1:  # q1 has no aux vector
            continue
        alignment[t] = len(matrix)
        matrix.append(support_vecs[t] if t < n_ov else queries[t - n_ov])
    overlap = compute_overlap(source.vocab, target)
    n_supp = n_ov - 1
    return source, target, overlap, alignment, np.array(matrix), n_supp


def _oracle_rows(source, overlap, aux, t, mode, temperature=1.0):
    """Per-row float64 recomputation of one similarity row (input, output)."""
    support = [(ti, si) for ti, si in sorted(overlap.pairs.items()) if ti in aux.vocab_alignment]
    vecs = aux.matrix.data.astype(np.float64)
    q = vecs[aux.vocab_alignment[t]]
    sims = np.zeros(len(support))
    for k, (ti, _) in enumerate(support):
        r = vecs[aux.vocab_alignment[ti]]
        if np.linalg.norm(q) > 0 and np.linalg.norm(r) > 0:
            sims[k] = np.clip(q @ r / (np.linalg.norm(q) * np.linalg.norm(r)), -1.0, 1.0)
    uniform = np.full(len(support), 1.0 / len(support))
    if mode == "clamp":
        w = np.maximum(sims, 0.0)
        w = w / w.sum() if w.sum() > 0 else uniform
    elif mode == "raw":
        w = sims / sims.sum() if abs(sims.sum()) >= 1e-12 else uniform
    else:
        w = sparsemax(sims / temperature)
    src_ids = [si for _, si in support]
    return tuple(
        w @ m.data[src_ids].astype(np.float64) for m in (source.input_emb, source.output_emb)
    )


_BLOCK_CASES = [
    ("clp", AUX_MODEL, {}, "clamp"),
    ("clp", AUX_MODEL, {"clp_raw_weights": True}, "raw"),
    ("focus", WORD_VECTORS, {}, "sparsemax"),
    ("clp-plus", AUX_MODEL, {"sparsemax_temperature": 0.2}, "sparsemax"),
]


class TestBlockEngine:
    @pytest.mark.parametrize("method,kind,extra,mode", _BLOCK_CASES)
    def test_three_row_blocks_match_one_block(self, monkeypatch, method, kind, extra, mode):
        source, target, overlap, alignment, matrix, n_supp = _block_instance()
        # q2 and q10..q16 are zero-norm: in 3-row blocks they sit in blocks
        # 1, 4, 5 and 6, and the capped sample fills up inside block 5.
        matrix[[alignment[_N_OVERLAP + i] for i in range(10, 17)]] = 0.0
        aux = _aux(kind, alignment, matrix, len(target))
        cfg = _cfg(method, **extra)
        # Record the weight blocks the rule gives: output rows are float32
        # and would hide a last-bit difference in the weights.
        seen = []
        spec = initializers.METHOD_SPECS[method]

        def recording_rule(support, queries, cfg):
            weights, uniform, zero = spec.weigh(support, queries, cfg)
            seen.append(weights.copy())
            return weights, uniform, zero

        monkeypatch.setitem(
            initializers.METHOD_SPECS, method, replace(spec, weigh=recording_rule)
        )
        one, one_report = init_target_bundle(source, target, cfg, aux=aux)
        monkeypatch.setattr(initializers, "_BLOCK_BYTES", 3 * 8 * n_supp)
        blocks = len(seen)
        split, split_report = init_target_bundle(source, target, cfg, aux=aux)
        # 29 queries: nine blocks of 3 rows and one of 2
        assert blocks == 1
        assert [b.shape for b in seen[1:]] == [(3, n_supp)] * 9 + [(2, n_supp)]
        np.testing.assert_array_equal(np.concatenate(seen[1:]), seen[0])
        if mode == "sparsemax":
            # The screened weights have the bits of sparsemax over the
            # whole-support exact cosines.
            support = [alignment[t] for t in sorted(overlap.pairs) if t in alignment]
            queries = [alignment[t] for t in overlap.non_overlap if t in alignment]
            data = aux.matrix.data
            cos, _ = SupportCosines(data, support)(data[queries])
            expected = sparsemax(cos / cfg.sparsemax_temperature)
            np.testing.assert_array_equal(seen[0], expected)
        assert split.input_emb.data.tobytes() == one.input_emb.data.tobytes()
        assert split.output_emb.data.tobytes() == one.output_emb.data.tobytes()
        assert split_report.to_dict() == one_report.to_dict()

        assert one_report.similarity_initialized == 29
        assert one_report.random_fallback == 1
        assert (one_report.support_size, one_report.support_dropped) == (n_supp, 1)
        assert split_report.zero_norm_queries == one_report.zero_norm_queries == 8
        assert split_report.uniform_fallbacks == one_report.uniform_fallbacks
        assert (
            "8 queries have zero-norm auxiliary vectors (target ids 302, 310, 311, 312, "
            "313, ...); their weights fall back to uniform"
        ) in split_report.warnings
        assert split_report.nonzero_weights == one_report.nonzero_weights
        assert one_report.nonzero_weights["max"] == n_supp
        for t in overlap.non_overlap:
            if t not in aux.vocab_alignment:
                continue
            expected = _oracle_rows(source, overlap, aux, t, mode, cfg.sparsemax_temperature)
            np.testing.assert_allclose(one.input_emb.data[t], expected[0], atol=1e-6)
            np.testing.assert_allclose(one.output_emb.data[t], expected[1], atol=1e-6)

    def test_raw_weights_block_mixes_convex_and_non_convex_rows(self):
        source, target, overlap, alignment, matrix, _ = _block_instance()
        aux = _aux(AUX_MODEL, alignment, matrix, len(target))
        bundle, _ = init_clp(
            source, target, overlap, aux, _cfg("clp", clp_raw_weights=True)
        )
        support_rows = source.input_emb.data[[s for t, s in sorted(overlap.pairs.items())
                                              if t in alignment]].astype(np.float64)
        lo, hi = support_rows.min(axis=0), support_rows.max(axis=0)

        def inside(t):
            row = bundle.input_emb.data[t].astype(np.float64)
            return bool(((row >= lo - 1e-6) & (row <= hi + 1e-6)).all())

        q = {i: _N_OVERLAP + i for i in range(10)}
        assert inside(q[0]) and inside(q[2])  # convex: nonnegative, zero-norm
        assert not inside(q[3])  # mixed-sign raw weights leave the hull

    def test_raw_weights_sum_in_chunks_over_nonzero_weights(self, monkeypatch):
        # Non-convex raw-weight rows go through the chunked row sum; with a
        # 7-row chunk the 299-row support takes 43 steps per row.
        source, target, overlap, alignment, matrix, n_supp = _block_instance()
        aux = _aux(AUX_MODEL, alignment, matrix, len(target))
        cfg = _cfg("clp", clp_raw_weights=True)
        whole, _ = init_clp(source, target, overlap, aux, cfg)
        sums = []

        def recording_sum(w, rows):
            sums.append((bool((w.weights >= 0.0).all()), w.ids.size))
            return weighted_sum(w, rows)

        monkeypatch.setattr(initializers, "weighted_sum", recording_sum)
        monkeypatch.setattr(embedding_store, "_BLOCK_ROWS", 7)
        chunked, _ = init_clp(source, target, overlap, aux, cfg)
        assert sums and all(not convex and size > 7 for convex, size in sums)
        for t in overlap.non_overlap:
            if t not in aux.vocab_alignment:
                continue
            expected = _oracle_rows(source, overlap, aux, t, "raw")
            np.testing.assert_allclose(chunked.input_emb.data[t], expected[0], atol=1e-6)
            np.testing.assert_allclose(chunked.output_emb.data[t], expected[1], atol=1e-6)
        np.testing.assert_allclose(chunked.input_emb.data, whole.input_emb.data, atol=1e-6)

    def test_missing_aux_error_still_names_the_token(self):
        source, target, overlap, alignment, matrix, _ = _block_instance()
        aux = _aux(AUX_MODEL, alignment, matrix, len(target))
        with pytest.raises(ValidationError, match="'q1'"):
            init_clp(source, target, overlap, aux, _cfg("clp", missing_aux_policy="error"))


class TestReportDiagnostics:
    def test_zero_norm_queries_counted_with_capped_sample(self):
        n = 8
        source = _bundle(["o1", "o2"], [[2.0, 0.0], [0.0, 4.0]])
        target = Vocabulary(["o1", "o2"] + [f"q{i}" for i in range(n)])
        overlap = compute_overlap(source.vocab, target)
        rows = [[1.0, 0.0], [0.0, 1.0]] + [[0.0, 0.0]] * (n - 1) + [[1.0, 1.0]]
        aux = _aux(AUX_MODEL, {i: i for i in range(n + 2)}, rows, n + 2)
        bundle, report = init_clp_plus(source, target, overlap, aux, _cfg("clp-plus"))
        assert report.zero_norm_queries == n - 1
        assert report.uniform_fallbacks == 0
        zero_warnings = [w for w in report.warnings if "zero-norm" in w]
        assert zero_warnings == [
            "7 queries have zero-norm auxiliary vectors (target ids 2, 3, 4, 5, 6, ...); "
            "their weights fall back to uniform"
        ]
        np.testing.assert_allclose(bundle.input_emb.data[2:9], [[1.0, 2.0]] * 7, atol=1e-6)
        assert report.counter_total() == n + 2

    def test_uniform_fallbacks_counts_clp_rows_clamped_away(self):
        source = _bundle(["t0", "t1"], [[3.0, 0.0], [0.0, 3.0]])
        target = Vocabulary(["t0", "t1", "neg", "pos", "zero"])
        overlap = compute_overlap(source.vocab, target)
        aux = _aux(
            AUX_MODEL,
            {i: i for i in range(5)},
            [[1, 0], [0, 1], [-1, -2], [1, 2], [0, 0]],
            5,
        )
        bundle, report = init_clp(source, target, overlap, aux, _cfg("clp"))
        assert report.uniform_fallbacks == 1  # "neg"; "zero" counts as zero-norm
        assert report.zero_norm_queries == 1
        np.testing.assert_allclose(bundle.input_emb.data[2], [1.5, 1.5], atol=1e-6)
        _, plus = init_clp_plus(source, target, overlap, aux, _cfg("clp-plus"))
        assert plus.uniform_fallbacks == 0

    def test_nonzero_weight_quantiles_focus(self):
        # Support e1, e2, e3. Per query, sparsemax keeps: e1 -> 1 weight,
        # (1, 1, 0) -> 2, (1, 1, 1) -> 3 equal ones, zero vector -> uniform 3.
        source = _bundle(["o1", "o2", "o3"], np.eye(3))
        target = Vocabulary(["o1", "o2", "o3", "qa", "qb", "qc", "qd"])
        overlap = compute_overlap(source.vocab, target)
        rows = np.vstack([np.eye(3), [[1, 0, 0], [1, 1, 0], [1, 1, 1], [0, 0, 0]]])
        vecs = _aux(WORD_VECTORS, {i: i for i in range(7)}, rows, 7)
        _, report = init_focus(source, target, overlap, vecs, _cfg("focus"))
        # counts 1, 2, 3, 3: nearest ranks ceil(2) = 2 and ceil(3.6) = 4
        assert report.nonzero_weights == {"min": 1, "p50": 2, "p90": 3, "max": 3}
        assert report.counter_total() == 7
        assert report.to_dict()["nonzero_weights"] == report.nonzero_weights

    def test_nonzero_weight_quantiles_clp_plus(self, monkeypatch):
        source, target, overlap, alignment, matrix, n_supp = _block_instance()
        aux = _aux(AUX_MODEL, alignment, matrix, len(target))
        counts = []
        spec = initializers.METHOD_SPECS["clp-plus"]

        def recording_rule(support, queries, cfg):
            weights, uniform, zero = spec.weigh(support, queries, cfg)
            counts.extend(np.count_nonzero(weights, axis=1).tolist())
            return weights, uniform, zero

        monkeypatch.setitem(
            initializers.METHOD_SPECS, "clp-plus", replace(spec, weigh=recording_rule)
        )
        # Blocks of 3 rows: the quantiles do not depend on the block.
        monkeypatch.setattr(initializers, "_BLOCK_BYTES", 3 * 8 * n_supp)
        _, report = init_target_bundle(
            source, target, _cfg("clp-plus", sparsemax_temperature=0.2), aux=aux
        )
        assert len(counts) == report.similarity_initialized == 29
        assert counts[1] == n_supp  # q2, zero-norm, takes uniform weights
        want = {
            name: int(np.percentile(counts, p, method="inverted_cdf"))
            for name, p in [("min", 0), ("p50", 50), ("p90", 90), ("max", 100)]
        }
        assert report.nonzero_weights == want
        assert want["max"] == n_supp and want["min"] < want["p90"] < n_supp

    def test_nearest_rank_quantiles_match_inverted_cdf(self):
        rng = np.random.default_rng(21)
        for n in range(1, 41):
            counts = rng.integers(1, 50, n).tolist()
            want = {
                name: int(np.percentile(counts, p, method="inverted_cdf"))
                for name, p in [("min", 0), ("p50", 50), ("p90", 90), ("max", 100)]
            }
            assert initializers._nearest_rank_quantiles(counts) == want, counts

    def test_diagnostics_in_dict_but_not_in_total(self):
        report = InitReport(
            method="clp", copied=4, similarity_initialized=3, zero_norm_queries=2,
            uniform_fallbacks=1, support_size=3, support_dropped=1,
        )
        assert report.counter_total() == 7
        payload = report.to_dict()
        assert payload["zero_norm_queries"] == 2
        assert payload["uniform_fallbacks"] == 1
        assert payload["support_size"] == 3
        assert payload["support_dropped"] == 1
        assert payload["nonzero_weights"] == _ZERO_QUANTILES


def _sampled_rows_oracle(seed, ids, params, widths):
    """The per-token loop the block sampler replaced: one rng.normal call
    per matrix and token, array-parameter form for per-column statistics."""
    outs = [np.empty((len(ids), w), dtype=np.float32) for w in widths]
    for i, t in enumerate(ids):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        for out, (mean, std) in zip(outs, params):
            out[i] = rng.normal(mean, std) if np.ndim(mean) else rng.normal(mean, std, out.shape[1])
    return outs


def _heuristics_oracle(source, target, overlap, cfg):
    """Non-overlap rows of init_heuristics by the old per-token loop."""
    sources = [m for m in (source.input_emb, source.output_emb) if m is not None]
    stats = [script_groups.group_statistics(source.vocab, m) for m in sources]
    element = [initializers._element_stats(m) for m in sources]
    rows = []
    for t in overlap.non_overlap:
        group = script_groups.classify_token(target.tokens[t])
        st = stats[0].get(group)
        if group.script == "Unknown" or st is None or st.count < cfg.min_group_size:
            params = element
        else:
            params = [(s[group].mean, s[group].std) for s in stats]
        rows.append(_sampled_rows_oracle(cfg.seed, [t], params, [m.cols for m in sources]))
    return [np.concatenate([r[k] for r in rows]) for k in range(len(sources))]


_SCRIPT_WORDS = ["Ġcat", "dog", "Ġдом", "кот", "Ġبيت", "كتب", "Ġ猫", "12", "?!"]


def _sampling_instance(dim, untied):
    """A source of Latin, Cyrillic, Arabic and Han words on both positions
    plus digit tokens, and a target with new words of each group, Unknown
    tokens and a group the source lacks (Greek)."""
    rng = np.random.default_rng(dim)
    tokens = [
        f"{w}{i}" if w[-1].isalpha() else w * (i + 1) for w in _SCRIPT_WORDS for i in range(4)
    ]
    rows = rng.normal(0.3, 1.4, (len(tokens), dim))
    out_rows = rng.normal(-0.2, 0.6, (len(tokens), dim)) if untied else None
    source = _bundle(tokens, rows, out_rows)
    new = [f"{w}{i}" for w in _SCRIPT_WORDS[:7] for i in range(4, 7)] + ["777", "αβγ", "Ġ"]
    target = Vocabulary(tokens[::5] + new)
    return source, target, compute_overlap(source.vocab, target)


def _block_budget(monkeypatch, block_rows, width):
    if block_rows is not None:
        monkeypatch.setattr(initializers, "_DRAW_BYTES", block_rows * 8 * width)


# One- and two-word seeds and ids, each side of every word boundary.
_STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, np.uint64(2**63 + 5)]
_STREAM_IDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


class TestStreamSeeds:
    """Block-seeded streams are numpy's SeedSequence([seed, t]) streams, so
    a change to numpy's seeding fails here before it changes an output."""

    @pytest.mark.parametrize("seed", _STREAM_SEEDS, ids=repr)
    def test_states_equal_seed_sequence(self, seed):
        got = initializers._stream_states(seed, np.array(_STREAM_IDS, dtype=np.int64))
        assert got.dtype == np.uint64 and got.shape == (len(_STREAM_IDS), 4)
        for t, row in zip(_STREAM_IDS, got):
            want = np.random.SeedSequence([seed, t]).generate_state(4, np.uint64)
            assert row.tolist() == want.tolist(), t

    @pytest.mark.parametrize("seed", _STREAM_SEEDS, ids=repr)
    def test_draws_equal_default_rng(self, seed):
        width = 11
        for t, state in zip(_STREAM_IDS, initializers._stream_states(seed, _STREAM_IDS)):
            row = np.empty(width)
            initializers._token_rng(state).standard_normal(out=row)
            want = np.random.default_rng(np.random.SeedSequence([seed, t])).standard_normal(width)
            assert row.tobytes() == want.tobytes(), t

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        ids=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8),
    )
    def test_any_seed_and_ids(self, seed, ids):
        got = initializers._stream_states(seed, ids)
        want = [np.random.SeedSequence([seed, t]).generate_state(4, np.uint64) for t in ids]
        assert got.tolist() == np.array(want).tolist()

    def test_numpy_random_loads_on_the_first_draw(self):
        # numpy.random adds about 6 MiB to a process; importing the modules
        # init runs leaves it unloaded, and the first token generator loads it.
        child = (
            "import sys\n"
            "from vocabport import cli, initializers\n"
            "print('numpy.random' in sys.modules)\n"
            "initializers._token_rng(initializers._stream_states(0, [0])[0])\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout.split() == ["False", "True"]


class TestSamplerOracle:
    """Block-sampled rows equal the old per-token rng.normal rows bit for bit."""

    @pytest.mark.parametrize("block_rows", [1, 3, None], ids=["1row", "3rows", "default"])
    @pytest.mark.parametrize("untied", [False, True], ids=["tied", "untied"])
    @pytest.mark.parametrize("dim", [1, 3, 1024])
    def test_heuristics(self, monkeypatch, dim, untied, block_rows):
        source, target, overlap = _sampling_instance(dim, untied)
        _block_budget(monkeypatch, block_rows, dim * (1 + untied))
        cfg = _cfg("heuristics", seed=2024, min_group_size=2)
        bundle, report = init_heuristics(source, target, overlap, cfg)
        assert report.group_sampled == 21 and report.random_fallback == 3
        got = [bundle.input_emb, bundle.output_emb][: 1 + untied]
        for m, want in zip(got, _heuristics_oracle(source, target, overlap, cfg)):
            assert m.data[overlap.non_overlap].tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_rows", [1, 3, None], ids=["1row", "3rows", "default"])
    @pytest.mark.parametrize("untied", [False, True], ids=["tied", "untied"])
    @pytest.mark.parametrize("dim", [1, 3, 1024])
    def test_random(self, monkeypatch, dim, untied, block_rows):
        source, target, _ = _sampling_instance(dim, untied)
        _block_budget(monkeypatch, block_rows, dim * (1 + untied))
        bundle, _ = init_random(source, target, _cfg("random", seed=7))
        sources = [source.input_emb, source.output_emb][: 1 + untied]
        want = _sampled_rows_oracle(
            7, range(len(target)), [initializers._element_stats(m) for m in sources],
            [dim] * len(sources),
        )
        got = [bundle.input_emb, bundle.output_emb][: 1 + untied]
        for m, w in zip(got, want):
            assert m.data.tobytes() == w.tobytes()

    @pytest.mark.parametrize("block_rows", [1, 3, None], ids=["1row", "3rows", "default"])
    @pytest.mark.parametrize("untied", [False, True], ids=["tied", "untied"])
    @pytest.mark.parametrize("dim", [1, 3, 1024])
    def test_missing_aux_fallback(self, monkeypatch, dim, untied, block_rows):
        source, target, overlap = _sampling_instance(dim, untied)
        _block_budget(monkeypatch, block_rows, dim * (1 + untied))
        # Every other target token has an auxiliary vector.
        alignment = {t: i for i, t in enumerate(range(0, len(target), 2))}
        aux_rows = np.random.default_rng(1).normal(size=(len(alignment), 4))
        aux = _aux(AUX_MODEL, alignment, aux_rows, len(target))
        bundle, report = init_clp_plus(source, target, overlap, aux, _cfg("clp-plus", seed=11))
        missing = [t for t in overlap.non_overlap if t not in alignment]
        assert report.random_fallback == len(missing) > 3
        sources = [source.input_emb, source.output_emb][: 1 + untied]
        want = _sampled_rows_oracle(
            11, missing, [initializers._element_stats(m) for m in sources], [dim] * len(sources)
        )
        got = [bundle.input_emb, bundle.output_emb][: 1 + untied]
        for m, w in zip(got, want):
            assert m.data[missing].tobytes() == w.tobytes()

    def test_zero_std_and_extreme_means_round_alike(self, monkeypatch):
        # std 0 gives the mean exactly (no -0.0 from a negative z times 0);
        # a huge mean overflows float32 to inf in both.
        source = _bundle(["a", "b"], np.zeros((2, 5)))
        target = Vocabulary(["x", "y", "z"])
        rows = initializers._TargetRows("random", source, target, _cfg("random", seed=3))
        for params in ([(0.0, 0.0)], [(-2.5, 0.0)], [(3.0e38, 1.0e38)], [(1e-40, 1e-45)]):
            with np.errstate(over="ignore"):
                rows.sample([0, 1, 2], params)
                want = _sampled_rows_oracle(3, [0, 1, 2], params, [5])[0]
            assert rows.outs[0].tobytes() == want.tobytes(), params


class TestGroupSampledByGroup:
    def _run(self, counts, min_group_size=1):
        # One source token and counts[label] new target tokens per group.
        words = {"Latin": "cat", "Cyrillic": "кот", "Greek": "γάτα", "Arabic": "قط",
                 "Hebrew": "חתול", "Han": "猫"}
        src, tgt = [], []
        for label, n in counts.items():
            script, position = label.split("/")
            marker = "Ġ" if position == "word-initial" else ""
            src.append(marker + words[script])
            tgt += [f"{marker}{words[script]}{'x' if script == 'Latin' else ''}{i}"
                    for i in range(n)]
        source = _bundle(src, np.eye(len(src)))
        target = Vocabulary(tgt)
        overlap = compute_overlap(source.vocab, target)
        cfg = _cfg("heuristics", min_group_size=min_group_size)
        return init_heuristics(source, target, overlap, cfg)[1]

    def test_largest_eight_with_ties_broken_by_label(self):
        counts = {"Latin/word-initial": 5, "Latin/word-internal": 4,
                  "Cyrillic/word-initial": 3, "Cyrillic/word-internal": 3,
                  "Hebrew/word-initial": 2, "Greek/word-internal": 2,
                  "Greek/word-initial": 2, "Arabic/word-internal": 2,
                  "Arabic/word-initial": 2, "Han/word-internal": 1}
        report = self._run(counts)
        assert report.group_sampled == sum(counts.values())
        # Five groups tie at 2 for the last four places: Hebrew sorts last.
        want = {k: v for k, v in counts.items() if k not in ("Hebrew/word-initial",
                                                             "Han/word-internal")}
        assert report.group_sampled_by_group == want
        assert list(report.group_sampled_by_group) == sorted(want)
        assert report.to_dict()["group_sampled_by_group"] == want

    def test_fallback_rows_are_not_listed(self):
        report = self._run({"Latin/word-initial": 3, "Greek/word-internal": 2}, min_group_size=2)
        assert (report.group_sampled, report.random_fallback) == (0, 5)
        assert report.group_sampled_by_group == {}

    def test_empty_for_other_methods(self, instance, aux_model, word_vecs):
        cfg_aux = {"clp": aux_model, "focus": word_vecs, "clp-plus": aux_model, "random": None}
        for method, aux in cfg_aux.items():
            _, report = init_target_bundle(
                instance.source, instance.target_vocab, _cfg(method), aux=aux
            )
            assert report.group_sampled_by_group == {}, method


@pytest.fixture
def instance_tied(tmp_path):
    return build_instance(tmp_path, untied=False)


class TestEdgeCases:
    def test_zero_norm_query_vector_warns_and_uses_uniform(self):
        source = _bundle(["o1", "o2"], [[2.0, 0.0], [0.0, 4.0]])
        target = Vocabulary(["o1", "o2", "q"])
        overlap = compute_overlap(source.vocab, target)
        aux = _aux(AUX_MODEL, {0: 0, 1: 1, 2: 2}, [[1, 0], [0, 1], [0, 0]], 3)
        bundle, report = init_clp(source, target, overlap, aux, _cfg("clp"))
        assert any("zero-norm" in w for w in report.warnings)
        np.testing.assert_allclose(bundle.input_emb.data[2], [1.0, 2.0], atol=1e-6)

    def test_overlap_tokens_without_vectors_are_dropped_from_support(self):
        source = _bundle(["o1", "o2"], [[2.0, 0.0], [0.0, 2.0]])
        target = Vocabulary(["o1", "o2", "q"])
        overlap = compute_overlap(source.vocab, target)
        vecs = _aux(WORD_VECTORS, {0: 0, 2: 1}, [[1.0, 0.0], [1.0, 0.0]], 3)
        bundle, report = init_focus(source, target, overlap, vecs, _cfg("focus"))
        assert any("excluded" in w for w in report.warnings)
        assert (report.support_size, report.support_dropped) == (1, 1)
        assert report.counter_total() == 3
        # support is o1 alone, so q copies o1's row exactly
        np.testing.assert_array_equal(bundle.input_emb.data[2], [2.0, 0.0])

    def test_empty_target_vocabulary(self):
        source = _bundle(["a"], [[1.0, 2.0]])
        bundle, report = init_random(source, Vocabulary([]), _cfg("random"))
        assert bundle.input_emb.rows == 0
        assert report.counter_total() == 0

    def test_malformed_overlap_map_rejected(self):
        from vocabport.overlap import OverlapMap

        source = _bundle(["a", "b"], [[1.0], [2.0]])
        target = Vocabulary(["a", "b"])
        bad = OverlapMap(pairs={0: 0}, non_overlap=[])  # id 1 unaccounted
        with pytest.raises(ValidationError, match="partition"):
            init_heuristics(source, target, bad, _cfg("heuristics"))

    @pytest.mark.parametrize(
        "pairs,non_overlap,fault",
        [
            # 2 repeated: counters would sum to 4 for 3 tokens
            ({0: 0}, [1, 2, 2], "non_overlap repeats id 2"),
            ({0: 0, 1: 1}, [1, 2], "id 1 is in both pairs and non_overlap"),
            ({0: 0}, [2], "id 1 is missing"),
            ({0: 0, 3: 1}, [1, 2], "pairs holds id 3, out of range 0..2"),
            ({0: 0}, [-1, 1, 2], "non_overlap holds id -1, out of range 0..2"),
            ({0: 0}, [1.5, 2], "non_overlap holds 1.5, not an integer"),
            ({0: 0}, ["1", 2], "non_overlap holds '1', not an integer"),
            ({0: 0, 1.0: 1}, [2], "pairs holds 1.0, not an integer"),
            ({0: 0}, [1, 2, 2**70], f"non_overlap holds id {2**70}, out of range 0..2"),
            ({0: 0}, [1, 1], "non_overlap repeats id 1"),
            ({0: 0}, [1], "id 2 is missing"),
            ({0: 0}, [1, 5], "non_overlap holds id 5, out of range 0..2"),
            ({0: 0}, [1, 2.0], "non_overlap holds 2.0, not an integer"),
            # Integer and range faults first, pairs before non_overlap; then
            # the lowest repeated or missing id.
            ({0: 0, 5: 1}, [1, 1], "pairs holds id 5, out of range 0..2"),
        ],
        ids=["repeated", "paired-and-non-overlap", "missing", "out-of-range", "negative",
             "float", "str", "float-paired", "huge", "repeated-in-place-of-last",
             "last-missing", "last-out-of-range", "float-equal-to-its-id", "several-faults"],
    )
    @pytest.mark.parametrize("method", ["heuristics", "clp"])
    def test_overlap_map_must_partition_the_target_ids(self, method, pairs, non_overlap, fault):
        from vocabport.overlap import OverlapMap

        source = _bundle(["a", "b"], [[1.0], [2.0]])
        target = Vocabulary(["a", "b", "c"])
        bad = OverlapMap(pairs=pairs, non_overlap=non_overlap)
        with pytest.raises(ValidationError) as err:
            if method == "heuristics":
                init_heuristics(source, target, bad, _cfg(method))
            else:
                aux = _aux(AUX_MODEL, {0: 0, 1: 1, 2: 2}, [[1.0], [1.0], [1.0]], 3)
                init_clp(source, target, bad, aux, _cfg(method))
        assert str(err.value) == f"overlap map does not partition the target ids: {fault}"

    @pytest.mark.parametrize("source_id", [-1, 2, 1.9, "1", 2**70])
    @pytest.mark.parametrize("method", ["heuristics", "clp"])
    def test_overlap_source_id_outside_source_rejected(self, source_id, method):
        # -1 would copy the last source row, 2 would raise a bare IndexError;
        # 1.9 and "1" would be coerced to row 1, 2**70 would overflow int64.
        from vocabport.overlap import OverlapMap

        source = _bundle(["a", "b"], [[1.0], [2.0]])
        target = Vocabulary(["a", "q"])
        bad = OverlapMap(pairs={0: source_id}, non_overlap=[1])
        message = f"target id 0 with source id {source_id!r}, outside the source's 2 rows"
        with pytest.raises(ValidationError, match=re.escape(message)):
            if method == "heuristics":
                init_heuristics(source, target, bad, _cfg(method))
            else:
                aux = _aux(AUX_MODEL, {0: 0, 1: 1}, [[1.0], [1.0]], 2)
                init_clp(source, target, bad, aux, _cfg(method))

    @pytest.mark.parametrize("row", [5, -1, 1.0, "1"])
    def test_aux_alignment_outside_aux_rows_rejected(self, monkeypatch, row):
        # Every aligned row is checked before any cosine: 5 would raise a
        # bare IndexError inside the gather, -1 would read the last row.
        def no_cosines(*args):
            raise AssertionError("cosines computed before the alignment check")

        monkeypatch.setattr(initializers, "SupportCosines", no_cosines)
        source = _bundle(["a", "b"], [[1.0], [2.0]])
        target = Vocabulary(["a", "q", "r"])
        overlap = compute_overlap(source.vocab, target)
        aux = AuxEmbeddings(
            AUX_MODEL, {0: 0, 1: row, 2: 1}, EmbeddingMatrix(np.eye(2, dtype=np.float32)), set()
        )
        with pytest.raises(ValidationError) as err:
            init_clp_plus(source, target, overlap, aux, _cfg("clp-plus"))
        assert str(err.value) == (
            f"auxiliary vectors align target id 1 with row {row!r}, outside the 2 auxiliary rows"
        )

    @pytest.mark.parametrize("method", ["clp", "focus", "clp-plus"])
    def test_bool_alignment_rows_are_row_ids(self, method):
        # True is row 1 and False row 0 wherever a row is read; gathered as
        # a list, [True, False] would be a boolean mask over the aux rows.
        init = {"clp": init_clp, "focus": init_focus, "clp-plus": init_clp_plus}[method]
        kind = WORD_VECTORS if method == "focus" else AUX_MODEL
        source = _bundle(["a", "b"], [[1.0, 0.0], [0.0, 2.0]])
        target = Vocabulary(["a", "b", "q", "r"])
        overlap = compute_overlap(source.vocab, target)
        matrix = [[1.0, 0.2], [0.3, 1.0]]
        outputs = [
            init(source, target, overlap, _aux(kind, align, matrix, 4), _cfg(method))[0]
            .input_emb.data
            for align in ({0: 0, 1: 1, 2: 1, 3: 0}, {0: 0, 1: 1, 2: True, 3: False})
        ]
        assert outputs[1].tobytes() == outputs[0].tobytes()

    def test_bool_non_overlap_id_is_a_target_id(self):
        from vocabport.overlap import OverlapMap

        source = _bundle(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        target = Vocabulary(["a", "x", "b", "c"])
        filled = [
            init_heuristics(
                source, target, OverlapMap(pairs={0: 0, 2: 1, 3: 1}, non_overlap=[t]),
                _cfg("heuristics"),
            )
            for t in (1, True)
        ]
        assert filled[1][1].random_fallback == 1
        assert filled[1][0].input_emb.data.tobytes() == filled[0][0].input_emb.data.tobytes()

    def test_invalid_source_bundle_rejected(self):
        source = ModelBundle(
            vocab=Vocabulary(["a", "b", "c"]),
            input_emb=EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32)),
        )
        with pytest.raises(ValidationError, match="invalid source bundle"):
            init_random(source, Vocabulary(["x"]), _cfg("random"))

    def test_empty_source_matrix_has_no_statistics(self):
        source = ModelBundle(
            vocab=Vocabulary([]),
            input_emb=EmbeddingMatrix(np.empty((0, 4), dtype=np.float32)),
        )
        with pytest.raises(ValidationError, match="no elements"):
            init_random(source, Vocabulary(["x"]), _cfg("random"))

    def test_huge_seed_accepted(self):
        source = _bundle(["a"], [[1.0, 2.0]])
        cfg = _cfg("random", seed=2**64 - 1)
        one, _ = init_random(source, Vocabulary(["x"]), cfg)
        two, _ = init_random(source, Vocabulary(["x"]), cfg)
        assert one.input_emb.data.tobytes() == two.input_emb.data.tobytes()


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValidationError):
            InitConfig(method="magic", seed=1)

    def test_bad_temperature(self):
        with pytest.raises(ValidationError):
            InitConfig(method="focus", seed=1, sparsemax_temperature=0.0)

    def test_temperature_floor(self):
        # Below 2**-53 a cosine over T can pass 2**53, and sparsemax can then
        # round every weight of a row to 0.
        for t in (2**-54, 1e-300, 1e-310):
            with pytest.raises(ValidationError) as err:
                InitConfig(method="focus", seed=1, sparsemax_temperature=t)
            assert str(err.value) == "sparsemax temperature must be >= 2**-53"
        source, target, overlap, alignment, matrix, _ = _block_instance()
        aux = _aux(WORD_VECTORS, alignment, matrix, len(target))
        cfg = _cfg("focus", sparsemax_temperature=2**-53)
        _, report = init_focus(source, target, overlap, aux, cfg)
        assert report.similarity_initialized == 29 and report.nonzero_weights["min"] >= 1

    def test_negative_seed(self):
        with pytest.raises(ValidationError):
            InitConfig(method="random", seed=-1)

    @pytest.mark.parametrize("seed", [1.5, "7", True], ids=["float", "str", "bool"])
    def test_non_integer_seed(self, seed):
        with pytest.raises(ValidationError, match="seed must be an unsigned 64-bit integer"):
            InitConfig(method="random", seed=seed)

    def test_numpy_integer_seed(self):
        assert InitConfig(method="random", seed=np.uint64(2**64 - 1)).seed == 2**64 - 1

    def test_bad_policy(self):
        with pytest.raises(ValidationError):
            InitConfig(method="clp", seed=1, missing_aux_policy="explode")
