from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import member_statistics_oracle

from vocabport import embedding_store, script_groups
from vocabport.embedding_store import EmbeddingMatrix, Vocabulary
from vocabport.errors import ValidationError
from vocabport.kernels import mean_std
from vocabport.script_groups import ScriptGroup, classify_token, group_members, group_statistics
from vocabport.tokenizers import UNICODE_TO_BYTE, map_bytes


@pytest.mark.parametrize(
    "token,expected",
    [
        ("Ġthe", ScriptGroup("Latin", "word-initial")),
        ("schaft", ScriptGroup("Latin", "word-internal")),
        ("▁日本", ScriptGroup("Han", "word-initial")),  # "▁日本"
        ("Ġ", ScriptGroup("Unknown", "word-initial")),
        ("123", ScriptGroup("Unknown", "word-internal")),
        ("?!", ScriptGroup("Unknown", "word-internal")),
        ("▁سلام", ScriptGroup("Arabic", "word-initial")),
        ("αβ", ScriptGroup("Greek", "word-internal")),
        ("да", ScriptGroup("Cyrillic", "word-internal")),
        ("שלום", ScriptGroup("Hebrew", "word-internal")),
        ("の", ScriptGroup("Hiragana", "word-internal")),
        ("カタ", ScriptGroup("Katakana", "word-internal")),
        ("한글", ScriptGroup("Hangul", "word-internal")),
        ("का", ScriptGroup("Devanagari", "word-internal")),
    ],
)
def test_classification_table(token, expected):
    assert classify_token(token) == expected


def test_byte_level_tokens_are_decoded():
    # "の" stored as its byte-level surrogate string
    assert classify_token(map_bytes("の")) == ScriptGroup("Hiragana", "word-internal")
    assert classify_token(map_bytes(" day")) == ScriptGroup("Latin", "word-initial")


def test_undecodable_byte_token_is_unknown():
    # A lone continuation byte is not valid UTF-8.
    token = map_bytes("é")[1:]  # second byte of a two-byte sequence
    assert classify_token(token).script == "Unknown"


def test_mixed_script_tie_is_unknown():
    assert classify_token("aд").script == "Unknown"  # one Latin, one Cyrillic


def test_majority_vote():
    assert classify_token("abд").script == "Latin"


@given(st.text(max_size=8))
def test_total_and_deterministic(token):
    first = classify_token(token)
    assert classify_token(token) == first
    assert first.script is not None and first.position in ("word-initial", "word-internal")


def classify_token_oracle(token):
    """The Counter-based classifier: byte-level tokens decoded through a
    bytes() of their symbols, votes ranked by Counter.most_common."""
    position = "word-internal"
    if token[:1] in ("Ġ", "▁"):
        position = "word-initial"
        token = token[1:]
    if all(c in UNICODE_TO_BYTE for c in token):
        try:
            token = bytes(UNICODE_TO_BYTE[c] for c in token).decode("utf-8")
        except UnicodeDecodeError:
            return ScriptGroup("Unknown", position)
    votes = Counter(script_groups._script_of(ord(c)) for c in token if c.isalpha())
    if not votes:
        return ScriptGroup("Unknown", position)
    ranked = votes.most_common()
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        return ScriptGroup("Unknown", position)
    return ScriptGroup(ranked[0][0], position)


# Letters of several scripts (one outside every range), digits, punctuation,
# a combining mark, astral Han, the word markers and some byte-alphabet
# symbols that are not printable bytes.
_MIXED = "abzÀдЖαλبيשא日本𠀀ひカ한कሀ019١?!.,\u0301 \t" + "ĠĊ▁" + "ĀġŃ"
_BYTE_SYMBOLS = sorted(UNICODE_TO_BYTE)
_TOKENS = st.one_of(
    st.text(alphabet=_MIXED, max_size=10),
    # Byte-level tokens, most of them invalid UTF-8.
    st.text(alphabet=st.sampled_from(_BYTE_SYMBOLS), max_size=8),
    # Valid byte-level encodings of mixed-script text.
    st.text(alphabet=_MIXED, max_size=6).map(map_bytes),
    # Two or three scripts with equal or nearly equal vote counts.
    st.tuples(
        st.lists(st.sampled_from("aдبα日ሀ"), min_size=2, max_size=3, unique=True),
        st.integers(1, 3),
        st.integers(0, 1),
    ).map(lambda t: "".join(c * t[1] for c in t[0]) + t[0][0] * t[2]),
)


@settings(max_examples=2000)
@given(marker=st.sampled_from(["", "Ġ", "▁"]), token=_TOKENS, byte_level=st.booleans())
def test_classifier_matches_counter_oracle(marker, token, byte_level):
    if byte_level:
        token = map_bytes(token)
    token = marker + token
    assert classify_token(token) == classify_token_oracle(token)


def test_classifier_oracle_cases():
    # Exact ties, a tie under a majority, a decoded tie, invalid UTF-8.
    for token in ["aд", "aдд", "aaдд", "aдα", "aaдα", "Ġ" + map_bytes("aд"),
                  map_bytes("日本")[:-1], "ĠĠ", "", "▁", "ሀa", "ሀሀa", "a\u0301д"]:
        assert classify_token(token) == classify_token_oracle(token), token


class TestGroupStatistics:
    def test_hand_mean_std(self):
        vocab = Vocabulary(["aa", "bb"])
        emb = EmbeddingMatrix(np.array([[0.0, 2.0], [2.0, 0.0]], dtype=np.float32))
        stats = group_statistics(vocab, emb)
        st_ = stats[ScriptGroup("Latin", "word-internal")]
        assert st_.count == 2
        np.testing.assert_allclose(st_.mean, [1.0, 1.0])
        np.testing.assert_allclose(st_.std, [1.0, 1.0])

    def test_single_member_group_has_zero_std(self):
        vocab = Vocabulary(["Ġword"])
        emb = EmbeddingMatrix(np.array([[3.0, -1.0]], dtype=np.float32))
        stats = group_statistics(vocab, emb)
        st_ = stats[ScriptGroup("Latin", "word-initial")]
        np.testing.assert_array_equal(st_.std, [0.0, 0.0])

    def test_empty_vocabulary(self):
        stats = group_statistics(
            Vocabulary([]), EmbeddingMatrix(np.empty((0, 4), dtype=np.float32))
        )
        assert stats == {}

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            group_statistics(
                Vocabulary(["a"]), EmbeddingMatrix(np.zeros((2, 3), dtype=np.float32))
            )

    def test_mean_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(11)
        tokens = [f"tok{i}" for i in range(40)] + [f"Ġtok{i}" for i in range(40)]
        emb = EmbeddingMatrix(rng.normal(size=(80, 6)).astype(np.float32))
        stats = group_statistics(Vocabulary(tokens), emb)
        for group, st_ in stats.items():
            members = [
                i for i, t in enumerate(tokens) if classify_token(t) == group
            ]
            assert st_.count == len(members)
            manual = np.zeros(6, dtype=np.float64)
            for i in members:
                manual += emb.data[i].astype(np.float64)
            manual /= len(members)
            np.testing.assert_allclose(st_.mean, manual, atol=1e-6)

    def test_members_then_stats_equal_group_statistics(self):
        rng = np.random.default_rng(12)
        tokens = ["Ġthe", "the", "Ġкот", "кот", "日本", "123", "Ġx", "y", "Ġαβ", "Ġz"]
        emb = EmbeddingMatrix(rng.normal(size=(len(tokens), 5)).astype(np.float32))
        vocab = Vocabulary(tokens)
        members = group_members(vocab)
        assert list(members[ScriptGroup("Latin", "word-initial")]) == [0, 6, 9]
        assert sorted(i for ids in members.values() for i in ids) == list(range(len(tokens)))
        whole = group_statistics(vocab, emb)
        assert list(members) == list(whole)
        for group, st_ in whole.items():
            mean, std = mean_std(emb.data, members[group], axis=0)
            assert len(members[group]) == st_.count
            assert mean.tobytes() == st_.mean.tobytes()
            assert std.tobytes() == st_.std.tobytes()


def test_member_statistics_match_per_group_oracle(monkeypatch):
    # A group holding most rows, one holding a few, a one-row group and an
    # empty one (nan statistics), summed over 16-row blocks; the oracle
    # upcasts each group in one piece.
    monkeypatch.setattr(embedding_store, "_BLOCK_ROWS", 16)
    rng = np.random.default_rng(13)
    emb = EmbeddingMatrix(rng.normal(0.2, 1.1, (300, 9)).astype(np.float32))
    order = rng.permutation(300)
    members = {
        ScriptGroup("Latin", "word-initial"): np.sort(order[:250]),
        ScriptGroup("Han", "word-internal"): order[250:299],
        ScriptGroup("Greek", "word-internal"): order[299:],
        ScriptGroup("Han", "word-initial"): order[:0],
    }
    with pytest.warns(RuntimeWarning):
        got = {group: mean_std(emb.data, ids, axis=0) for group, ids in members.items()}
    with pytest.warns(RuntimeWarning):
        want = member_statistics_oracle(emb, members)
    for group, st_ in want.items():
        mean, std = got[group]
        np.testing.assert_allclose(mean, st_.mean, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(std, st_.std, rtol=1e-12, atol=1e-15)
