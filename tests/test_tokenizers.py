import json
import math
from array import array
from collections import Counter

import numpy as np
import pytest
from conftest import (
    bpe_merge_oracle,
    bpe_oracle_encode,
    make_bpe_spec,
    make_unigram_spec,
    map_bytes_oracle,
    pretokenize_oracle,
    unigram_oracle,
    unigram_score,
    unmap_bytes_oracle,
    viterbi_full_window_oracle,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from vocabport import tokenizers
from vocabport.errors import FormatError, MalformedSpecError, ValidationError
from vocabport.tokenizers import (
    BYTE_ALPHABET,
    BYTE_TO_UNICODE,
    BpeSpec,
    UnigramSpec,
    _merge_symbols,
    _viterbi,
    bpe_decode,
    bpe_encode,
    byte_level_pretokenize,
    count_tokens,
    encode,
    load_bpe_spec,
    load_unigram_spec,
    map_bytes,
    split_pretokens,
    unigram_encode,
    unmap_bytes,
)
from vocabport.embedding_store import Vocabulary, load_vocab


FULL_BYTE_BPE = make_bpe_spec(["ab", "Ġab"], [("a", "b"), ("Ġ", "ab")], full_byte_vocab=True)
MARKER_UNIGRAM = make_unigram_spec({"a": -1.0, "▁": -2.0, "▁a": -1.5, "一語": -2.0, "ب": -3.0})


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

    # Each whitespace kind, "_", numerics that are not decimal, a character
    # both alpha and numeric, Arabic letters, and an astral letter and
    # digit, whose classes are looked up but never cached.
    @settings(max_examples=600, deadline=None)
    @given(st.text(alphabet=" \t\r\n\x85\u3000_²½Ⅷ一aZ7!بتا\U00010400\U0001D7CE", max_size=30))
    def test_matches_state_machine_oracle(self, text):
        assert split_pretokens(text) == pretokenize_oracle(text)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=" \t\naZ7!.بتا一語", max_size=40))
    def test_each_pretoken_splits_to_itself(self, text):
        # Whitespace runs of each kind, letters, digits, punctuation, Arabic
        # and CJK. Encoding a text pretoken by pretoken rests on this, and
        # so do the tables that count a pretoken once.
        pretokens = split_pretokens(text)
        for pre in pretokens:
            assert split_pretokens(pre) == [pre]
        for spec in (FULL_BYTE_BPE, MARKER_UNIGRAM):
            assert encode(spec, text) == [i for pre in pretokens for i in encode(spec, pre)]

    def test_class_table_caches_only_the_bmp(self):
        text = "".join(map(chr, range(0xFF00, 0x30000)))
        assert "".join(split_pretokens(text)) == text
        assert len(tokenizers._CHAR_CLASSES) <= 0x10000


class TestByteMap:
    def test_single_bytes_match_oracle(self):
        for b in range(256):
            assert map_bytes(chr(b)) == map_bytes_oracle(chr(b))
            symbol = BYTE_TO_UNICODE[b]
            if b < 0x80:
                assert unmap_bytes(symbol) == unmap_bytes_oracle(symbol) == chr(b)
            else:  # a lone byte of a multi-byte sequence
                with pytest.raises(UnicodeDecodeError):
                    unmap_bytes(symbol)
                with pytest.raises(UnicodeDecodeError):
                    unmap_bytes_oracle(symbol)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=24))
    def test_text_matches_oracle(self, text):
        mapped = map_bytes(text)
        assert mapped == map_bytes_oracle(text)
        assert BYTE_ALPHABET.issuperset(mapped)
        assert unmap_bytes(mapped) == text

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from(sorted(BYTE_ALPHABET) + [" ", "\n", "語"]),
                   max_size=8))
    def test_unmap_outcome_matches_oracle(self, symbols):
        def outcome(fn):
            try:
                return fn(symbols)
            except (ValidationError, UnicodeDecodeError) as e:
                return type(e), str(e)

        assert outcome(unmap_bytes) == outcome(unmap_bytes_oracle)

    def test_symbol_outside_alphabet_message(self):
        with pytest.raises(ValidationError) as e:
            unmap_bytes("ab cd")
        assert str(e.value) == "symbol ' ' is not in the byte alphabet"


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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_merge_symbols_matches_oracle(self, data):
        # Small alphabets make pairs repeat and overlap ("aaaa"); the rank
        # table is built like BpeSpec's, so a repeated pair keeps its first rank.
        alphabet = "abcd"[: data.draw(st.integers(2, 4))]
        symbol = st.text(alphabet, min_size=1, max_size=3)
        merges = data.draw(st.lists(st.tuples(symbol, symbol), min_size=1, max_size=40))
        merges += data.draw(st.lists(st.sampled_from(merges), max_size=5))
        ranks = {}
        for i, pair in enumerate(merges):
            ranks.setdefault(pair, i)
        symbols = list(data.draw(st.text(alphabet, max_size=300)))
        assert _merge_symbols(list(symbols), ranks) == bpe_merge_oracle(symbols, ranks)

    def test_long_cjk_pretoken_matches_oracle(self):
        # A CJK clause has no spaces, so 2,000 characters are one pretoken of
        # 6,000 byte symbols. The merges are learnt from those symbols, most
        # frequent pair first; only the encoding is checked against the oracle.
        rng = np.random.default_rng(5)
        text = "".join(rng.choice(list("的一是不了人我在"), 2000))
        symbols, merges = list(map_bytes(text)), []
        for _ in range(80):
            pairs = Counter(zip(symbols, symbols[1:]))
            pair = max(pairs, key=lambda p: (pairs[p], p))
            merges.append(pair)
            symbols = _merge_symbols(symbols, {pair: 0})
        spec = make_bpe_spec([a + b for a, b in merges], merges)
        assert split_pretokens(text) == [text]
        ids = bpe_encode(spec, text)
        assert ids == bpe_oracle_encode(spec, text)
        assert len(ids) < 0.6 * len(text)

    def test_merge_lookups_grow_as_n_log_n(self):
        # The rescanning loop makes about n^2/2 lookups on this pretoken.
        class CountingRanks(dict):
            gets = 0

            def get(self, key, default=None):
                self.gets += 1
                return super().get(key, default)

        tokens = ["a" * 2**k for k in range(1, 12)]
        spec = make_bpe_spec(tokens, [(t[: len(t) // 2], t[: len(t) // 2]) for t in tokens])
        spec.ranks = CountingRanks(spec.ranks)
        n = 4000
        ids = bpe_encode(spec, "a" * n)
        assert "".join(spec.vocab.tokens[i] for i in ids) == "a" * n
        assert 0 < spec.ranks.gets <= 8 * n * math.log2(n)


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
        spec = make_unigram_spec({"▁foo": -1.0, "x": -1.0})
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

    @settings(max_examples=300, deadline=None)
    @given(st.text("abcxyz\u4e00", max_size=200))
    def test_viterbi_matches_full_window_oracle(self, s):
        # Several tokens share a first character; y and 一 start no token
        # (y is in none, 一 only ends one), and the longest token starts
        # with c, so the full window is longer than the per-character one.
        spec = make_unigram_spec(
            {"a": -1.0, "ab": -2.0, "abc": -2.5, "abcab": -4.0, "ax": -2.75, "b": -1.5,
             "bc": -2.2, "bx": -3.0, "c": -2.0, "ca": -3.0, "cabcabcab": -6.0, "z": -4.0,
             "x一": -5.0}
        )
        assert _viterbi(spec, s) == viterbi_full_window_oracle(spec, s)

    def test_scores_are_read_once_at_construction(self):
        spec = make_unigram_spec({"a": -1.0, "b": -1.0, "ab": -1.5})
        spec.log_probs[spec.vocab.index["ab"]] = -9.0
        assert spec._log_probs == [-1.0, -1.0, -1.5, -99.0]
        assert [spec.vocab.tokens[i] for i in unigram_encode(spec, "ab")] == ["ab"]

    @pytest.mark.parametrize(
        "log_probs,message",
        [(np.full((3, 1), -1.0), "flat sequence of real numbers"),
         (np.full((3, 2), -1.0), "flat sequence of real numbers"),
         ([[-1.0], [-1.0], [-1.0]], "flat sequence of real numbers"),
         ([[-1.0], -1.0, -1.0], "flat sequence of real numbers"),
         ([-1.0, -2.0], "2 log-probs for 3 tokens"),
         (np.zeros(4), "4 log-probs for 3 tokens"),
         (["-1", "-1", "-1"], "flat sequence of real numbers"),
         ([None, -1.0, -1.0], "flat sequence of real numbers"),
         ([object(), -1.0, -1.0], "flat sequence of real numbers"),
         ([1j, -1.0, -1.0], "flat sequence of real numbers"),
         ([-1.0, 2**1100, -1.0], "flat sequence of real numbers"),
         (-1.0, "flat sequence of real numbers"),
         ([-1.0, -1.0, float("nan")], "log-probs must be finite")],
        ids=["2d-column", "2d", "nested-list", "ragged", "short", "long", "str", "none",
             "object", "complex", "huge-int", "scalar", "nan"],
    )
    def test_malformed_log_probs_rejected(self, log_probs, message):
        with pytest.raises(MalformedSpecError, match=message):
            UnigramSpec(vocab=Vocabulary(["a", "b", "<unk>"]), log_probs=log_probs,
                        unk_token="<unk>", unk_penalty=-16.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_numpy_log_probs_read_as_floats(self, dtype):
        given = np.array([-1.5, -2.0, -9.0]).astype(dtype)
        spec = UnigramSpec(vocab=Vocabulary(["a", "b", "<unk>"]), log_probs=given,
                           unk_token="<unk>", unk_penalty=-16.0)
        assert spec._log_probs == given.astype(np.float64).tolist()
        assert all(type(lp) is float for lp in spec._log_probs)
        assert spec.log_probs == array("d", spec._log_probs)

    def test_determinism(self):
        spec = make_unigram_spec({"a": -1.0, "b": -1.5, "ab": -2.25})
        assert unigram_encode(spec, "abab") == unigram_encode(spec, "abab")


class TestCountTokens:
    def test_empty(self, toy_bpe):
        assert count_tokens(toy_bpe, "") == 0

    def test_encode_dispatches_on_spec_kind(self, toy_bpe):
        uni = make_unigram_spec({"a": -1.0, "b": -1.0, "ab": -1.5})
        assert encode(toy_bpe, "abc ab") == bpe_encode(toy_bpe, "abc ab")
        assert encode(uni, "ab ba") == unigram_encode(uni, "ab ba")
        with pytest.raises(ValidationError, match="unknown tokenizer spec type"):
            encode(object(), "ab")

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

    def test_bad_merge_names_its_file_line(self, tmp_path):
        vocab = {c: i for i, c in enumerate("abc")}
        vocab["ab"] = 3
        (tmp_path / "v.json").write_text(json.dumps(vocab))
        merges = tmp_path / "m.txt"
        merges.write_text("#version: toy\n\na b\nb c\n")
        with pytest.raises(MalformedSpecError) as err:
            load_bpe_spec(str(tmp_path / "v.json"), str(merges))
        assert str(err.value) == f"{merges}:4: merge #1 result 'bc' is not in the vocabulary"

    @pytest.mark.parametrize(
        "text,where,message",
        [
            ("a\t-1.0\n", "", "unk token '<unk>' is not in the vocabulary"),
            ("a\t-1\nb\tnan\n<unk>\t-5\nc\t-inf\n", ":2", "log-probs must be finite"),
            ("a\t-1\n<unk>\t-5\nc\t-inf\n", ":3", "log-probs must be finite"),
        ],
        ids=["missing-unk", "nan", "minus-inf"],
    )
    def test_unigram_spec_errors_name_the_file(self, tmp_path, text, where, message):
        path = tmp_path / "u.tsv"
        path.write_text(text)
        with pytest.raises(MalformedSpecError) as err:
            load_unigram_spec(str(path))
        assert str(err.value) == f"{path}{where}: {message}"
