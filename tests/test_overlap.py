import pytest
from hypothesis import given
from hypothesis import strategies as st

from vocabport.embedding_store import Vocabulary
from vocabport.overlap import compute_overlap, overlap_stats


def test_basic_overlap():
    m = compute_overlap(Vocabulary(["a", "b"]), Vocabulary(["b", "c"]))
    assert m.pairs == {0: 1}
    assert m.non_overlap == [1]


def test_identical_vocabularies():
    v = Vocabulary(["a", "b", "c"])
    m = compute_overlap(v, v)
    assert m.pairs == {0: 0, 1: 1, 2: 2}
    assert m.non_overlap == []


def test_marker_normalized_vs_exact():
    source = Vocabulary(["▁the"])
    target = Vocabulary(["Ġthe"])
    normalized = compute_overlap(source, target, "marker-normalized")
    assert normalized.pairs == {0: 0} and normalized.non_overlap == []
    exact = compute_overlap(source, target, "exact")
    assert exact.pairs == {} and exact.non_overlap == [0]


def test_normalized_prefers_exact_match():
    source = Vocabulary(["▁the", "Ġthe"])
    target = Vocabulary(["Ġthe"])
    m = compute_overlap(source, target, "marker-normalized")
    assert m.pairs == {0: 1}  # the exact string, not the lowest id


def test_normalized_match_gives_one_candidate_per_target_and_no_warning():
    source = Vocabulary(["▁the", "Ġthe"])
    target = Vocabulary(["the2"])  # no match at all
    m = compute_overlap(source, target, "marker-normalized")
    assert m.non_overlap == [0]

    target = Vocabulary(["▁the2", "Ġthe"])
    source = Vocabulary(["Ġthe2", "▁the"])
    m = compute_overlap(source, target, "marker-normalized")
    assert m.pairs == {0: 0, 1: 1}
    assert not m.warnings  # one candidate each, no ambiguity


def test_collapsing_targets_warn():
    source = Vocabulary(["▁the"])
    target = Vocabulary(["▁the", "Ġthe"])
    m = compute_overlap(source, target, "marker-normalized")
    assert m.pairs == {0: 0, 1: 0}
    assert any("both map" in w for w in m.warnings)


def test_collisions_give_one_warning_with_five_examples():
    words = [f"w{i:02d}" for i in range(20)]
    source = Vocabulary(["▁" + w for w in words])
    target = Vocabulary(["▁" + w for w in words] + ["Ġ" + w for w in words])
    m = compute_overlap(source, target, "marker-normalized")
    assert m.pairs == {t: t % 20 for t in range(40)}
    assert len(m.warnings) == 1
    (warning,) = m.warnings
    assert warning.startswith("20 target tokens ") and warning.endswith("; ...)")
    assert warning.count("both map") == 5
    assert "'▁w04' and 'Ġw04' both map to '▁w04'" in warning
    assert "w05" not in warning


def test_unknown_mode_rejected():
    v = Vocabulary(["a"])
    with pytest.raises(ValueError):
        compute_overlap(v, v, "fuzzy")


def test_stats():
    m = compute_overlap(Vocabulary(["a", "b", "c"]), Vocabulary(["a", "b", "c", "d"]))
    s = overlap_stats(m)
    assert s == {"overlap_count": 3, "non_overlap_count": 1, "overlap_fraction": 0.75}


def test_stats_empty_overlap():
    m = compute_overlap(Vocabulary(["x"]), Vocabulary(["a", "b"]))
    assert overlap_stats(m)["overlap_fraction"] == 0.0


def test_stats_full_overlap_large():
    tokens = [f"t{i}" for i in range(32000)]
    v = Vocabulary(tokens)
    s = overlap_stats(compute_overlap(v, v))
    assert s["overlap_fraction"] == 1.0
    assert s["overlap_count"] == 32000


_token = st.text(alphabet="abĠ▁", min_size=1, max_size=3)


@given(
    source=st.lists(_token, unique=True, max_size=12),
    target=st.lists(_token, unique=True, max_size=12),
    canon=st.sampled_from(["exact", "marker-normalized"]),
)
def test_partition_property(source, target, canon):
    m = compute_overlap(Vocabulary(source), Vocabulary(target), canon)
    seen = sorted(m.pairs) + sorted(m.non_overlap)
    assert sorted(seen) == list(range(len(target)))
    assert len(set(m.pairs) & set(m.non_overlap)) == 0


@given(
    source=st.lists(_token, unique=True, max_size=12),
    target=st.lists(_token, unique=True, max_size=12),
)
def test_mapped_pairs_string_equal_after_canon(source, target):
    def canon(s):
        return "▁" + s[1:] if s[:1] in ("Ġ", "▁") else s

    sv, tv = Vocabulary(source), Vocabulary(target)
    for t, s in compute_overlap(sv, tv, "exact").pairs.items():
        assert tv.tokens[t] == sv.tokens[s]
    for t, s in compute_overlap(sv, tv, "marker-normalized").pairs.items():
        assert canon(tv.tokens[t]) == canon(sv.tokens[s])
