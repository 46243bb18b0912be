import json

import numpy as np
import pytest
from conftest import (
    bpe_oracle_encode,
    make_bpe_spec,
    make_unigram_spec,
    unigram_oracle,
    unigram_score,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from vocabport.errors import FormatError, MalformedSpecError
from vocabport.tokenizers import (
    BpeSpec,
    bpe_decode,
    bpe_encode,
    byte_level_pretokenize,
    count_tokens,
    load_bpe_spec,
    load_unigram_spec,
    map_bytes,
    split_pretokens,
    unigram_encode,
)
from vocabport.embedding_store import Vocabulary, load_vocab


class TestPretokenize:
    def test_space_folds_into_word(self):
        assert split_pretokens("hi there") == ["hi", " there"]
        assert byte_level_pretokenize("hi there") == ["hi", "Ġthere"]

    def test_empty(self):
        assert byte_level_pretokenize("") == []

    def test_category_splits(self):
        # Hand application of the boundary rule: letter / numeric / other runs.
        assert split_pretokens("a1!") == ["a", "1", "!"]

    def test_double_space(self):
        assert split_pretokens("a  b") == ["a", " ", " b"]

    def test_newline_separated(self):
        assert split_pretokens("a\nb") == ["a", "\n", "b"]
        assert split_pretokens("a \nb") == ["a", " ", "\n", "b"]

    def test_trailing_whitespace_is_one_pretoken(self):
        assert split_pretokens("a  ") == ["a", "  "]

    def test_leading_space_only_folds_once(self):
        assert split_pretokens("  a") == [" ", " a"]

    @given(st.text(max_size=40))
    def test_lossless_split(self, text):
        assert "".join(split_pretokens(text)) == text


class TestBpe:
    def test_full_merge(self, toy_bpe):
        ids = bpe_encode(toy_bpe, "abc")
        assert [toy_bpe.vocab.tokens[i] for i in ids] == ["abc"]
        assert ids == bpe_oracle_encode(toy_bpe, "abc")

    def test_no_applicable_merge(self, toy_bpe):
        ids = bpe_encode(toy_bpe, "ba")
        assert [toy_bpe.vocab.tokens[i] for i in ids] == ["b", "a"]
        assert ids == bpe_oracle_encode(toy_bpe, "ba")

    def test_empty_input(self, toy_bpe):
        assert bpe_encode(toy_bpe, "") == []

    def test_merge_result_must_exist(self):
        with pytest.raises(MalformedSpecError, match="merge #0"):
            BpeSpec(vocab=Vocabulary(["a", "b"]), merges=[("a", "b")])

    def test_missing_byte_symbol_is_malformed(self):
        spec = BpeSpec(vocab=Vocabulary(["a"]), merges=[])
        with pytest.raises(MalformedSpecError, match="no id"):
            bpe_encode(spec, "ab")

    def test_matches_oracle_on_random_strings(self):
        spec = make_bpe_spec(
            ["ab", "cd", "abcd", "de", "ea", "bc"],
            [("a", "b"), ("c", "d"), ("ab", "cd"), ("d", "e"), ("e", "a"), ("b", "c")],
        )
        rng = np.random.default_rng(17)
        alphabet = "abcde "
        for _ in range(120):
            n = int(rng.integers(0, 13))
            s = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), n))
            assert bpe_encode(spec, s) == bpe_oracle_encode(spec, s), repr(s)

    def test_round_trip_ascii(self):
        spec = make_bpe_spec(["ab"], [("a", "b")], full_byte_vocab=True)
        for text in ["abc ab", " leading", "trailing  ", "mixed\tws\nnl", ""]:
            assert bpe_decode(spec, bpe_encode(spec, text)) == text

    @settings(max_examples=120, deadline=None)
    @given(st.text(max_size=24))
    def test_round_trip_arbitrary_text(self, text):
        spec = make_bpe_spec(["ab"], [("a", "b")], full_byte_vocab=True)
        assert bpe_decode(spec, bpe_encode(spec, text)) == text

    def test_determinism(self, toy_bpe):
        assert bpe_encode(toy_bpe, "abc ba ab") == bpe_encode(toy_bpe, "abc ba ab")


class TestUnigram:
    def test_single_token_beats_split(self):
        spec = make_unigram_spec({"a": -1.0, "b": -1.0, "ab": -1.5})
        ids = unigram_encode(spec, "ab")
        assert [spec.vocab.tokens[i] for i in ids] == ["ab"]

    def test_split_beats_expensive_token(self):
        spec = make_unigram_spec({"a": -1.0, "b": -1.0, "ab": -2.5})
        ids = unigram_encode(spec, "ab")
        assert [spec.vocab.tokens[i] for i in ids] == ["a", "b"]

    def test_uncovered_char_emits_unk(self):
        spec = make_unigram_spec({"a": -1.0})
        ids = unigram_encode(spec, "z")
        assert ids == [spec.unk_id]

    def test_tie_prefers_fewer_tokens(self):
        spec = make_unigram_spec({"a": -1.0, "b": -1.5, "ba": -2.5})
        ids = unigram_encode(spec, "ba")
        assert [spec.vocab.tokens[i] for i in ids] == ["ba"]

    def test_tie_prefers_leftmost_longest(self):
        spec = make_unigram_spec({"a": -1.0, "b": -1.5, "ab": -2.25, "ba": -2.25})
        ids = unigram_encode(spec, "bab")
        assert [spec.vocab.tokens[i] for i in ids] == ["ba", "b"]

    def test_space_marker_rewrite(self):
        spec = make_unigram_spec(
            {"▁foo": -1.0, "x": -1.0}, space_marker="▁"
        )
        ids = unigram_encode(spec, "x foo")
        assert [spec.vocab.tokens[i] for i in ids] == ["x", "▁foo"]

    def test_matches_exhaustive_oracle(self):
        spec = make_unigram_spec(
            {"a": -1.0, "b": -1.5, "ab": -2.25, "ba": -2.25, "aab": -2.5}
        )
        rng = np.random.default_rng(23)
        for _ in range(150):
            n = int(rng.integers(0, 9))
            s = "".join("ab"[i] for i in rng.integers(0, 2, n))
            ids = unigram_encode(spec, s)
            oracle_ids, oracle_score = unigram_oracle(spec, s)
            assert ids == oracle_ids, repr(s)
            assert unigram_score(spec, ids) == pytest.approx(oracle_score, abs=1e-12)

    def test_determinism(self):
        spec = make_unigram_spec({"a": -1.0, "b": -1.5, "ab": -2.25})
        assert unigram_encode(spec, "abab") == unigram_encode(spec, "abab")


class TestCountTokens:
    def test_empty(self, toy_bpe):
        assert count_tokens(toy_bpe, "") == 0

    def test_bpe_example(self, toy_bpe):
        assert count_tokens(toy_bpe, "abc") == 1

    def test_unigram_example(self):
        spec = make_unigram_spec({"a": -1.0, "b": -1.0, "ab": -1.5})
        assert count_tokens(spec, "ab") == 1


class TestSpecLoading:
    def test_bpe_files(self, tmp_path):
        vocab = {c: i for i, c in enumerate("abc")}
        vocab["ab"] = 3
        (tmp_path / "v.json").write_text(json.dumps(vocab))
        (tmp_path / "m.txt").write_text("#version: toy\na b\n")
        spec = load_bpe_spec(str(tmp_path / "v.json"), str(tmp_path / "m.txt"))
        assert spec.merges == [("a", "b")]
        assert [spec.vocab.tokens[i] for i in bpe_encode(spec, "ab")] == ["ab"]

    def test_bpe_bad_merge_line(self, tmp_path):
        (tmp_path / "v.json").write_text('{"a": 0}')
        (tmp_path / "m.txt").write_text("a b c\n")
        with pytest.raises(FormatError, match=":1"):
            load_bpe_spec(str(tmp_path / "v.json"), str(tmp_path / "m.txt"))

    def test_unigram_tsv(self, tmp_path):
        (tmp_path / "u.tsv").write_text("a\t-1.0\nb\t-2.0\n<unk>\t-9.0\n")
        spec = load_unigram_spec(str(tmp_path / "u.tsv"))
        assert spec.unk_token == "<unk>"
        assert spec.unk_penalty == -19.0  # lowest score (-9) minus 10
        assert count_tokens(spec, "ab") == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            ("a\t-1\n<unk>\t-2\na\t-3\n", r"u\.tsv:3: duplicate token 'a' \(first at line 1\)"),
            ("a\t-1\nb\tlow\n", r"u\.tsv:2: score 'low' is not a number"),
            ("a\t-1\nb\n", r"u\.tsv:2: expected 'token<TAB>score', got 1 fields"),
        ],
    )
    def test_unigram_tsv_errors_match_scored_vocab(self, tmp_path, text, message):
        # One parser serves Unigram specs and tsv-scored vocabularies.
        (tmp_path / "u.tsv").write_text(text)
        with pytest.raises(FormatError, match=message):
            load_unigram_spec(str(tmp_path / "u.tsv"))
        with pytest.raises(FormatError, match=message):
            load_vocab(str(tmp_path / "u.tsv"), "tsv-scored")

    def test_unigram_missing_unk(self, tmp_path):
        (tmp_path / "u.tsv").write_text("a\t-1.0\n")
        with pytest.raises(MalformedSpecError, match="unk"):
            load_unigram_spec(str(tmp_path / "u.tsv"))
