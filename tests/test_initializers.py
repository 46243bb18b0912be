import numpy as np
import pytest
from conftest import build_instance, sparsemax_oracle

from vocabport.aux_vectors import AUX_MODEL, WORD_VECTORS, AuxEmbeddings
from vocabport.embedding_store import EmbeddingMatrix, ModelBundle, Vocabulary
from vocabport.errors import ValidationError
from vocabport.initializers import (
    InitConfig,
    init_clp,
    init_clp_plus,
    init_focus,
    init_heuristics,
    init_random,
    init_target_bundle,
)
from vocabport.overlap import compute_overlap


def _bundle(tokens, rows, out_rows=None):
    return ModelBundle(
        vocab=Vocabulary(tokens),
        input_emb=EmbeddingMatrix(np.asarray(rows, dtype=np.float32)),
        output_emb=EmbeddingMatrix(np.asarray(out_rows, dtype=np.float32))
        if out_rows is not None
        else None,
        tied=out_rows is None,
    )


def _aux(kind, alignment, matrix, n_target):
    return AuxEmbeddings(
        source_kind=kind,
        vocab_alignment=alignment,
        matrix=EmbeddingMatrix(np.asarray(matrix, dtype=np.float32)),
        missing=set(range(n_target)) - set(alignment),
    )


def _cfg(method, **kw):
    kw.setdefault("seed", 42)
    return InitConfig(method=method, **kw)


class TestRandom:
    def test_degenerate_source_gives_constant_rows(self):
        source = _bundle(["a", "b"], np.zeros((2, 3)))
        bundle, report = init_random(source, Vocabulary(["x", "y", "z"]), _cfg("random"))
        np.testing.assert_array_equal(bundle.input_emb.data, np.zeros((3, 3)))
        assert report.random_fallback == 3
        assert report.counter_total() == 3

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

    def test_small_group_falls_back(self):
        source = _bundle(["Ġaa", "Ġbb"], [[1.0], [3.0]])
        target = Vocabulary(["Ġcc"])
        overlap = compute_overlap(source.vocab, target)
        _, report = init_heuristics(
            source, target, overlap, _cfg("heuristics", min_group_size=10)
        )
        assert report.random_fallback == 1 and report.group_sampled == 0


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

    def test_negative_seed(self):
        with pytest.raises(ValidationError):
            InitConfig(method="random", seed=-1)

    def test_bad_policy(self):
        with pytest.raises(ValidationError):
            InitConfig(method="clp", seed=1, missing_aux_policy="explode")
