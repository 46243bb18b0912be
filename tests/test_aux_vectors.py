import numpy as np
import pytest

from vocabport.aux_vectors import aux_row, load_aux_model, load_word_vectors
from vocabport.embedding_store import EmbeddingMatrix, Vocabulary, save_matrix
from vocabport.errors import FormatError, ValidationError


def _write_aux(tmp_path, tokens, matrix):
    vocab_path = tmp_path / "aux.txt"
    vocab_path.write_text("\n".join(tokens) + "\n")
    emb_path = tmp_path / "aux.vemb"
    save_matrix(EmbeddingMatrix(np.asarray(matrix, dtype=np.float32)), str(emb_path))
    return str(vocab_path), str(emb_path)


class TestAuxModel:
    def test_superset_vocab_has_no_missing(self, tmp_path):
        paths = _write_aux(tmp_path, ["a", "b", "c"], np.eye(3))
        aux = load_aux_model(*paths, Vocabulary(["a", "b"]))
        assert aux.missing == set()
        assert aux.vocab_alignment == {0: 0, 1: 1}
        assert aux.source_kind == "aux-model"

    def test_absent_token_lands_in_missing(self, tmp_path):
        paths = _write_aux(tmp_path, ["a", "b"], np.eye(2))
        aux = load_aux_model(*paths, Vocabulary(["a", "xyz"]))
        assert aux.missing == {1}
        assert 1 not in aux.vocab_alignment

    def test_row_count_mismatch(self, tmp_path):
        paths = _write_aux(tmp_path, ["a", "b", "c"], np.eye(2))
        with pytest.raises(ValidationError, match="2 rows for 3 tokens"):
            load_aux_model(*paths, Vocabulary(["a"]))

    def test_alignment_is_total(self, tmp_path):
        paths = _write_aux(tmp_path, ["a", "c"], np.eye(2))
        target = Vocabulary(["a", "b", "c", "d"])
        aux = load_aux_model(*paths, target)
        assert len(aux.vocab_alignment) + len(aux.missing) == len(target)


class TestWordVectors:
    def test_full_alignment(self, tmp_path):
        p = tmp_path / "w.vec"
        p.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        vecs = load_word_vectors(str(p), Vocabulary(["a", "b"]))
        assert vecs.missing == set()
        np.testing.assert_array_equal(vecs.row(0), [1, 0, 0])
        assert vecs.source_kind == "word-vectors"

    def test_dimension_mismatch_reports_line(self, tmp_path):
        p = tmp_path / "w.vec"
        p.write_text("2 3\na 1 0 0\nb 0 1\n")
        with pytest.raises(FormatError, match=r":3"):
            load_word_vectors(str(p), Vocabulary(["a"]))

    def test_uncovered_token_is_missing(self, tmp_path):
        p = tmp_path / "w.vec"
        p.write_text("2 2\na 1 0\nb 0 1\n")
        vecs = load_word_vectors(str(p), Vocabulary(["a", "c"]))
        assert vecs.missing == {1}

    def test_duplicate_keeps_first_and_warns(self, tmp_path):
        p = tmp_path / "w.vec"
        p.write_text("3 2\na 1 0\na 9 9\nb 0 1\n")
        with pytest.warns(RuntimeWarning, match="duplicate"):
            vecs = load_word_vectors(str(p), Vocabulary(["a", "b"]))
        np.testing.assert_array_equal(vecs.row(0), [1, 0])

    def test_count_mismatch_warns(self, tmp_path):
        p = tmp_path / "w.vec"
        p.write_text("5 2\na 1 0\n")
        with pytest.warns(RuntimeWarning, match="declares 5"):
            load_word_vectors(str(p), Vocabulary(["a"]))

    def test_marker_fallback_lookup(self, tmp_path):
        p = tmp_path / "w.vec"
        p.write_text("1 2\nthe 1 0\n")
        target = Vocabulary(["Ġthe"])
        assert load_word_vectors(str(p), target).missing == {0}
        retried = load_word_vectors(str(p), target, marker_fallback=True)
        assert retried.missing == set()

    def test_fasttext_trailing_space(self, tmp_path):
        # fastText writes a space after every value, the last one included.
        p = tmp_path / "t.vec"
        p.write_text("2 3\nfoo 0.1 0.2 0.3 \nbar 1 2 3\n")
        vecs = load_word_vectors(str(p), Vocabulary(["foo", "bar"]))
        np.testing.assert_array_equal(vecs.row(0), np.float32([0.1, 0.2, 0.3]))
        np.testing.assert_array_equal(vecs.row(1), [1, 2, 3])

    def test_token_with_unicode_line_separator(self, tmp_path):
        # fastText splits tokens on ASCII whitespace only, so U+2028 and
        # U+0085 can sit inside a token.
        p = tmp_path / "t.vec"
        p.write_bytes("2 2\nx\u2028y 0.5 1\nz\x85 2 3\n".encode("utf-8"))
        vecs = load_word_vectors(str(p), Vocabulary(["x\u2028y", "z\x85"]))
        assert not vecs.missing
        np.testing.assert_array_equal(vecs.row(0), [0.5, 1])
        np.testing.assert_array_equal(vecs.row(1), [2, 3])

    @pytest.mark.parametrize(
        "line,values",
        [("foo 0.1 0.2 0.3  ", 4), ("foo 0.1 0.2 ", 2), ("foo 0.1 0.2 0.3 0.4 ", 4), ("foo ", 0)],
    )
    def test_other_value_counts_still_fail(self, tmp_path, line, values):
        p = tmp_path / "t.vec"
        p.write_text(f"1 3\n{line}\n")
        with pytest.raises(FormatError, match=rf"t\.vec:2: {values} values, header declares dim 3"):
            load_word_vectors(str(p), Vocabulary(["foo"]))

    def test_unshapeable_dimension(self, tmp_path):
        p = tmp_path / "w.vec"
        p.write_text("1 99999999999999999999\n")
        with pytest.raises(FormatError, match=r"w\.vec:1: dimension \d+ is too large"):
            load_word_vectors(str(p), Vocabulary(["a"]))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "w.vec"
        p.write_text("hello\n")
        with pytest.raises(FormatError):
            load_word_vectors(str(p), Vocabulary(["a"]))

    def test_alignment_independent_of_file_order(self, tmp_path):
        target = Vocabulary(["a", "b", "c"])
        fwd = tmp_path / "fwd.vec"
        fwd.write_text("3 2\na 1 2\nb 3 4\nc 5 6\n")
        rev = tmp_path / "rev.vec"
        rev.write_text("3 2\nc 5 6\nb 3 4\na 1 2\n")
        one = load_word_vectors(str(fwd), target)
        two = load_word_vectors(str(rev), target)
        assert one.missing == two.missing
        for tid in range(len(target)):
            np.testing.assert_array_equal(one.row(tid), two.row(tid))


class TestAuxRow:
    def test_aligned_and_missing(self, tmp_path):
        p = tmp_path / "w.vec"
        p.write_text("1 2\na 3 4\n")
        vecs = load_word_vectors(str(p), Vocabulary(["a", "b"]))
        np.testing.assert_array_equal(aux_row(vecs, 0), [3, 4])
        assert aux_row(vecs, 1) is None

    def test_out_of_range(self, tmp_path):
        p = tmp_path / "w.vec"
        p.write_text("1 2\na 3 4\n")
        vecs = load_word_vectors(str(p), Vocabulary(["a"]))
        with pytest.raises(IndexError):
            aux_row(vecs, 5)
        for target_id in (99, -1):
            with pytest.raises(IndexError):
                vecs.row(target_id)
