import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from conftest import make_bpe_spec, make_unigram_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from vocabport import efficiency, tokenizers
from vocabport.efficiency import (
    CorpusSample,
    analyze_corpus,
    avg_tokens,
    kendall_tau,
    load_corpus,
    speedup_ratio,
)
from vocabport.errors import FormatError, MalformedSpecError, ValidationError
from vocabport.tokenizers import _merge_symbols, count_tokens, map_bytes, split_pretokens


def kendall_oracle(x, y):
    """O(n^2) pair-count definition, classified pair by pair."""
    concordant = discordant = ties_x = ties_y = 0
    for (xi, yi), (xj, yj) in itertools.combinations(zip(x, y), 2):
        prod = (xi - xj) * (yi - yj)
        if xi == xj and yi == yj:
            continue
        if xi == xj:
            ties_x += 1
        elif yi == yj:
            ties_y += 1
        elif prod > 0:
            concordant += 1
        else:
            discordant += 1
    return (concordant - discordant) / math.sqrt(
        (concordant + discordant + ties_x) * (concordant + discordant + ties_y)
    )


def kendall_pair_loop(x, y):
    """kendall_tau as it was before Knight's method: every pair compared in
    a Python loop, the same float formula on the counts."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    n = len(xs)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    denom_x = concordant + discordant + ties_x
    denom_y = concordant + discordant + ties_y
    if denom_x == 0 or denom_y == 0:
        raise ValidationError("kendall tau is undefined for a constant sequence")
    return (concordant - discordant) / math.sqrt(denom_x * denom_y)


def kendall_counts_numpy(x, y, block=256):
    """(C, D, Tx, Ty) from every ordered pair, compared a block of rows at a
    time with numpy: C counts pairs with x and y both greater, D x greater
    and y less, Tx x equal and y greater, Ty x greater and y equal."""
    x, y = np.asarray(x), np.asarray(y)
    counts = np.zeros(4, dtype=np.int64)
    for start in range(0, len(x), block):
        gx = x[start : start + block, None] > x[None, :]
        ex = x[start : start + block, None] == x[None, :]
        gy = y[start : start + block, None] > y[None, :]
        ly = y[start : start + block, None] < y[None, :]
        ey = y[start : start + block, None] == y[None, :]
        counts += [np.count_nonzero(gx & gy), np.count_nonzero(gx & ly),
                   np.count_nonzero(ex & gy), np.count_nonzero(gx & ey)]
    return [int(c) for c in counts]


def char_level_spec():
    # No merges: every mapped byte is one token.
    return make_bpe_spec([], [], full_byte_vocab=True)


def word_level_spec():
    return make_bpe_spec(
        ["ab", "Ġab"], [("a", "b"), ("Ġ", "ab")]
    )


class TestAvgTokens:
    def test_arithmetic_mean(self, toy_bpe):
        corpus = [CorpusSample("0", "abc abc"), CorpusSample("1", "abc ba abc")]
        # "abc abc" -> [abc, Ġabc?]: Ġabc not in vocab so Ġ,a,b,c... count by engine
        value = avg_tokens(toy_bpe, corpus)
        assert value == pytest.approx(
            (len(_ids(toy_bpe, corpus[0].text)) + len(_ids(toy_bpe, corpus[1].text))) / 2
        )

    def test_two_known_counts(self):
        spec = char_level_spec()
        corpus = [CorpusSample("0", "abcd"), CorpusSample("1", "abcdef")]
        assert avg_tokens(spec, corpus) == 5.0

    def test_empty_text_sample(self):
        assert avg_tokens(char_level_spec(), [CorpusSample("0", "")]) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            avg_tokens(char_level_spec(), [])


def _ids(spec, text):
    from vocabport.tokenizers import bpe_encode

    return bpe_encode(spec, text)


class TestSpeedupRatio:
    def test_halving_tokens_is_plus_100(self):
        assert speedup_ratio(20.0, 10.0) == 100.0

    def test_identity_is_zero(self):
        assert speedup_ratio(10.0, 10.0) == 0.0

    def test_slowdown_sign_convention(self):
        assert speedup_ratio(9.237, 10.0) == pytest.approx(-7.63, abs=0.005)

    def test_zero_target_rejected(self):
        with pytest.raises(ValidationError):
            speedup_ratio(5.0, 0.0)

    @given(st.floats(0.01, 1e6), st.floats(0.01, 1e6))
    def test_monotone_in_target(self, a, t):
        assert speedup_ratio(a, a) == 0.0
        assert speedup_ratio(a, t * 2) < speedup_ratio(a, t)


class TestAnalyzeCorpus:
    def test_char_vs_word_level(self):
        corpus = [CorpusSample("0", "ab ab")]
        report = analyze_corpus(char_level_spec(), word_level_spec(), corpus)
        assert report.avg_tokens_source == 5.0
        assert report.avg_tokens_target == 2.0
        assert report.speedup_pct == 150.0

    def test_identical_specs_zero_speedup(self):
        spec = char_level_spec()
        corpus = [CorpusSample("0", "hello"), CorpusSample("1", "yo")]
        assert analyze_corpus(spec, spec, corpus).speedup_pct == 0.0

    def test_more_fragmented_target_is_negative(self):
        corpus = [CorpusSample("0", "ab ab")]
        report = analyze_corpus(word_level_spec(), char_level_spec(), corpus)
        assert report.speedup_pct < 0.0

    def test_order_invariant(self):
        corpus = [CorpusSample(str(i), t) for i, t in enumerate(["ab", "a b", "abab"])]
        fwd = analyze_corpus(char_level_spec(), word_level_spec(), corpus)
        rev = analyze_corpus(char_level_spec(), word_level_spec(), corpus[::-1])
        assert fwd.avg_tokens_source == rev.avg_tokens_source
        assert fwd.speedup_pct == rev.speedup_pct

    def test_per_sample_counts(self):
        corpus = [CorpusSample("s0", "ab")]
        report = analyze_corpus(
            char_level_spec(), word_level_spec(), corpus, include_per_sample=True
        )
        assert report.per_sample == [{"id": "s0", "tokens_source": 2, "tokens_target": 1}]

    def test_unigram_side(self):
        corpus = [CorpusSample("0", "ab")]
        spec = make_unigram_spec({"a": -1.0, "b": -1.0, "ab": -1.5})
        report = analyze_corpus(char_level_spec(), spec, corpus)
        assert report.avg_tokens_target == 1.0


def _mixed_corpus(seed=3, n=60):
    # Repeated Latin, Arabic and numeric words, long CJK clauses (one
    # pretoken each, mostly distinct) and whitespace runs of each kind.
    rng = random.Random(seed)
    words = ["the", "cat", "sat", "on", "mat", "كتاب", "مرحبا", "42", "3.14", "!?"]
    runs = [" ", "  ", "   ", "\t", "\n", " \t ", "\n\n", "  \n"]
    samples = []
    for i in range(n):
        parts = []
        for _ in range(rng.randint(0, 14)):
            r = rng.random()
            if r < 0.12:
                parts.append("".join(rng.choice("的一是不了人我在") for _ in range(rng.randint(40, 300))))
            elif r < 0.3:
                parts.append(rng.choice(runs))
            else:
                parts.append(" " + rng.choice(words))
        samples.append(CorpusSample(f"s{i}", "".join(parts)))
    return samples


def _mixed_specs(corpus, n_merges=60):
    # BPE: merges learnt from the corpus's byte symbols, most frequent pair
    # first. Unigram: characters, a few words and CJK pairs; tabs, newlines
    # and some letters are unk.
    words = [list(map_bytes(p)) for s in corpus for p in split_pretokens(s.text)]
    merges = []
    for _ in range(n_merges):
        pairs = Counter(pair for w in words for pair in zip(w, w[1:]))
        pair = max(pairs, key=lambda p: (pairs[p], p))
        merges.append(pair)
        words = [_merge_symbols(w, {pair: 0}) for w in words]
    bpe = make_bpe_spec([a + b for a, b in merges], merges, full_byte_vocab=True)
    scored = {c: -3.0 for c in "thecasmon的一是不了人我在كتا0123456789.!?"}
    scored.update({"▁": -2.0, "▁the": -2.5, "▁cat": -3.5, "▁mat": -3.5, "的一": -4.0,
                   "是不": -4.5, "▁كتاب": -5.0, "▁42": -4.0})
    return {"bpe": bpe, "unigram": make_unigram_spec(scored)}


MIXED = _mixed_corpus()
MIXED_SPECS = _mixed_specs(MIXED)
SIDES = ["bpe-unigram", "unigram-bpe", "bpe-bpe", "unigram-unigram"]


@pytest.fixture
def encode_calls(monkeypatch):
    """(engine, pretoken) -> times a per-pretoken encoder ran."""
    calls = Counter()
    for name in ("_bpe_pretoken", "_unigram_pretoken"):
        def spy(spec, pre, real=getattr(tokenizers, name), name=name):
            calls[name, pre] += 1
            return real(spec, pre)

        monkeypatch.setattr(tokenizers, name, spy)
    return calls


class TestOnePass:
    @pytest.mark.parametrize("budget", [None, 32, 400])
    @pytest.mark.parametrize("sides", SIDES)
    def test_equals_per_sample_count_tokens(self, monkeypatch, encode_calls, sides, budget):
        # A budget of 32 characters keeps one short pretoken at a time and
        # no CJK clause; 400 keeps a few words or one clause, then clears.
        if budget is not None:
            monkeypatch.setattr(efficiency, "_TABLE_CHARS", budget)
        source, target = (MIXED_SPECS[side] for side in sides.split("-"))
        report = analyze_corpus(source, target, MIXED, "mixed", include_per_sample=True)
        expected = [
            {"id": s.id, "tokens_source": count_tokens(source, s.text),
             "tokens_target": count_tokens(target, s.text)}
            for s in MIXED
        ]
        assert report.per_sample == expected
        n = len(MIXED)
        assert report.avg_tokens_source == sum(e["tokens_source"] for e in expected) / n
        assert report.avg_tokens_target == sum(e["tokens_target"] for e in expected) / n
        assert avg_tokens(source, MIXED) == report.avg_tokens_source
        assert avg_tokens(target, MIXED) == report.avg_tokens_target
        if budget is not None:  # the table was cleared mid-corpus
            encode_calls.clear()
            avg_tokens(source, MIXED)
            assert max(encode_calls.values()) > 1

    @pytest.mark.parametrize("sides", SIDES)
    def test_each_sample_split_once_each_pretoken_encoded_once(
        self, monkeypatch, encode_calls, sides
    ):
        splits = []

        def counting_split(text):
            splits.append(text)
            return split_pretokens(text)

        monkeypatch.setattr(efficiency, "split_pretokens", counting_split)
        source, target = sides.split("-")
        analyze_corpus(MIXED_SPECS[source], MIXED_SPECS[target], MIXED)
        assert splits == [s.text for s in MIXED]
        distinct = {p for s in MIXED for p in split_pretokens(s.text)}
        # Identical engines on both sides are two specs with two tables.
        expected = Counter()
        for side in (source, target):
            expected.update((f"_{side}_pretoken", p) for p in distinct)
        assert encode_calls == expected
        splits.clear()
        encode_calls.clear()
        avg_tokens(MIXED_SPECS[source], MIXED)
        assert splits == [s.text for s in MIXED]
        assert encode_calls == Counter((f"_{source}_pretoken", p) for p in distinct)

    def test_first_failing_sample_wins_source_first_within_it(self):
        no_z = make_bpe_spec(["a", "b", "q"], [])
        no_q = make_bpe_spec(["a", "b", "z"], [])
        # The target fails at sample 1, before the source's fault at sample 2.
        corpus = [CorpusSample("0", "ab"), CorpusSample("1", "aq"), CorpusSample("2", "az")]
        with pytest.raises(MalformedSpecError, match="symbol 'q' has no id"):
            analyze_corpus(no_z, no_q, corpus)
        # Both fail at one sample: the source's fault is reported.
        with pytest.raises(MalformedSpecError, match="symbol 'z' has no id"):
            analyze_corpus(no_z, no_q, [CorpusSample("0", "ab"), CorpusSample("1", "q z")])

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(ValidationError, match="unknown tokenizer spec type"):
            analyze_corpus(char_level_spec(), object(), [CorpusSample("0", "ab")])
        with pytest.raises(ValidationError, match="unknown tokenizer spec type"):
            avg_tokens(object(), [CorpusSample("0", "ab")])


class TestKendallTau:
    def test_perfect_concordance(self):
        assert kendall_tau([1, 2, 3], [10, 20, 30]) == 1.0

    def test_perfect_discordance(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_tied_example_matches_oracle(self):
        x, y = [1, 2, 2, 3], [1, 3, 2, 4]
        value = kendall_tau(x, y)
        assert value == kendall_oracle(x, y)
        assert value == pytest.approx(0.9128709291752769, abs=1e-15)

    def test_matches_oracle_on_random_sequences(self):
        rnd = random.Random(99)
        for _ in range(60):
            n = rnd.randint(2, 50)
            x = [rnd.randint(0, 8) for _ in range(n)]
            y = [rnd.randint(0, 8) for _ in range(n)]
            try:
                expected = kendall_oracle(x, y)
            except ZeroDivisionError:
                with pytest.raises(ValidationError):
                    kendall_tau(x, y)
                continue
            assert kendall_tau(x, y) == expected

    def test_symmetry(self):
        rnd = random.Random(5)
        for _ in range(20):
            n = rnd.randint(2, 30)
            x = [rnd.random() for _ in range(n)]
            y = [rnd.random() for _ in range(n)]
            assert kendall_tau(x, y) == kendall_tau(y, x)

    @settings(max_examples=300)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.floats(-1e3, 1e3)),
            min_size=2, max_size=40,
        ),
        x_kind=st.sampled_from(["tied", "distinct", "signed-zero"]),
        y_kind=st.sampled_from(["tied", "distinct", "signed-zero"]),
    )
    def test_matches_pair_loop(self, pairs, x_kind, y_kind):
        # Small integers give ties in x, in y and in both; floats are mostly
        # distinct; -0.0 and 0.0 are the same rank.
        def column(k, kind):
            if kind == "tied":
                return [p[k] for p in pairs]
            if kind == "distinct":
                return [p[2] + i * 1e-3 for i, p in enumerate(pairs)]
            return [[-0.0, 0.0, 1.0][p[k] % 3] for p in pairs]

        x, y = column(0, x_kind), column(1, y_kind)
        try:
            expected = kendall_pair_loop(x, y)
        except ValidationError:
            with pytest.raises(ValidationError, match="undefined"):
                kendall_tau(x, y)
            return
        assert kendall_tau(x, y) == expected

    def test_twenty_thousand_observations(self):
        # About 2e8 pairs: hours for the pair loop. The counts come from a
        # numpy pair comparison instead; ties in x (200 values), in y (59
        # values) and in both.
        rnd = np.random.default_rng(20_000)
        x = rnd.integers(0, 200, 20_000)
        y = x // 4 + rnd.integers(0, 10, 20_000)
        c, d, tx, ty = kendall_counts_numpy(x, y)
        expected = (c - d) / math.sqrt((c + d + tx) * (c + d + ty))
        assert kendall_tau(x.tolist(), y.tolist()) == expected
        assert 0.1 < expected < 0.9

    def test_all_tied_undefined(self):
        with pytest.raises(ValidationError, match="undefined"):
            kendall_tau([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValidationError, match="undefined"):
            kendall_tau([1, 2, 3], [7, 7, 7])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            kendall_tau([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            kendall_tau([1], [1])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match=r"x\[1\] is nan"):
            kendall_tau([1, float("nan"), 3], [1, 2, 3])
        with pytest.raises(ValidationError, match=r"y\[0\] is inf"):
            kendall_tau([1, 2, 3], [float("inf"), 2, 3])


class TestLoadCorpus:
    def test_txt(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("first\nsecond line\n")
        corpus = load_corpus(str(p), "txt")
        assert [s.text for s in corpus] == ["first", "second line"]
        assert [s.id for s in corpus] == ["0", "1"]

    def test_jsonl(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "hello", "id": "a"}\n{"text": "world"}\n')
        corpus = load_corpus(str(p), "jsonl")
        assert [s.text for s in corpus] == ["hello", "world"]
        assert corpus[0].id == "a"

    def test_jsonl_missing_text(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"no": 1}\n')
        with pytest.raises(FormatError, match=":1"):
            load_corpus(str(p), "jsonl")

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("x\n")
        with pytest.raises(ValidationError):
            load_corpus(str(p), "csv")

    @pytest.mark.parametrize(
        "line", ['{"text": "x", "id": ' + "1" * 5000 + "}", "[" * 100_000]
    )
    def test_jsonl_beyond_parser_limits(self, tmp_path, line):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "ok"}\n' + line + "\n")
        with pytest.raises(FormatError, match=r"c\.jsonl:2: invalid JSON \((Exceeds|maximum recursion)"):
            load_corpus(str(p), "jsonl")
