import os
import re
import threading
import warnings
from decimal import Decimal
from functools import partial
from unittest import mock

import numpy as np
import pytest
from conftest import load_word_vectors_oracle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vocabport import aux_vectors, embedding_store
from vocabport.aux_vectors import (
    AUX_MODEL, AuxEmbeddings, _plain_decimals, aux_row, load_aux_model, load_word_vectors,
)
from vocabport.embedding_store import EmbeddingMatrix, Vocabulary, save_matrix
from vocabport.errors import FormatError, ValidationError, VocabportError


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

    def test_lone_empty_value_is_non_numeric(self, tmp_path):
        # numpy's reader skips an empty line with a warning; the loader
        # must not hand it one.
        p = tmp_path / "t.vec"
        p.write_text("1 1\nfoo  \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=r"t\.vec:2: non-numeric vector value"):
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

    @pytest.mark.parametrize("value", ["nan", "inf", "1e39", "4" + "0" * 38])
    @pytest.mark.parametrize(
        "target", [["a", "b"], ["a", "c"], ["c"]], ids=["aligned", "unaligned", "sparse"]
    )
    def test_non_finite_value_is_located(self, tmp_path, value, target):
        # 1e39 is finite as a float64 but overflows float32, and so does
        # 4e38 written as plain decimal digits. Only the aligned target keeps
        # line 3, whose values are then converted; for the others it fails
        # the check of the lines not kept, which are then converted too.
        p = tmp_path / "w.vec"
        p.write_text(f"3 2\na 1 2\nb 0 {value}\nc 3 4\n")
        with pytest.raises(FormatError, match=r"^.*w\.vec:3: non-finite vector value$"):
            load_word_vectors(str(p), Vocabulary(target))

    @pytest.mark.parametrize("value", ["1.2.3", "1..5", "-", "1-2", "--1", "1.-2"])
    @pytest.mark.parametrize(
        "target", [["a", "b"], ["a", "c"], ["c"]], ids=["aligned", "unaligned", "sparse"]
    )
    def test_malformed_value_is_located(self, tmp_path, value, target):
        # Text a step from a plain decimal, which float() refuses, fails on
        # its line whether the target keeps that line, which is converted,
        # or not, when it fails the check of the lines not kept.
        p = tmp_path / "w.vec"
        p.write_text(f"3 2\na 1 2\nb 0 {value}\nc 3 4\n")
        with pytest.raises(FormatError, match=r"^.*w\.vec:3: non-numeric vector value$"):
            load_word_vectors(str(p), Vocabulary(target))

    def test_first_fault_in_file_order_wins(self, tmp_path):
        # A bad value count on line 2 is reported before the invalid UTF-8
        # on line 3; the whole-file loader decoded first and reported the
        # bytes.
        p = tmp_path / "w.vec"
        p.write_bytes(b"2 2\na 1\nb\xff 1 2\n")
        with pytest.raises(FormatError, match=r"w\.vec:2: 1 values, header declares dim 2"):
            load_word_vectors(str(p), Vocabulary(["a"]))
        with pytest.raises(FormatError, match=r"w\.vec: invalid UTF-8 at byte offset 9"):
            load_word_vectors_oracle(str(p), Vocabulary(["a"]))
        p.write_bytes(b"2 2\na 1 1\nb\xff 1 2\nc 1\n")
        with pytest.raises(FormatError, match=r"w\.vec: invalid UTF-8 at byte offset 11"):
            load_word_vectors(str(p), Vocabulary(["a"]))

    def test_keeps_only_usable_rows(self, tmp_path):
        p = tmp_path / "w.vec"
        p.write_text("4 1\nthe 1\nxyz 2\nĠof 3\nof 4\n")
        target = Vocabulary(["Ġthe", "Ġof", "and"])
        exact = load_word_vectors(str(p), target)
        assert exact.matrix.rows == 1 and exact.missing == {0, 2}
        assert aux_row(exact, 1).tolist() == [3]

    def test_header_dimension_allocates_no_rows_the_file_cannot_hold(self, tmp_path):
        # 3 usable tokens x 7e8 values would be 7.8 GiB; a 12-byte file
        # holds no line of that many values.
        p = tmp_path / "w.vec"
        p.write_text("0 701638247\n")
        vecs = load_word_vectors(str(p), Vocabulary(["a", "Ġa", "1"]))
        assert vecs.matrix.data.shape == (0, 701638247)
        assert vecs.missing == {0, 1, 2}

    def test_pipe_grows_the_kept_rows(self, tmp_path, monkeypatch):
        # A pipe's size is unknown, so the kept rows start with no room and
        # grow as the target's tokens arrive, here one line per block.
        monkeypatch.setattr(embedding_store, "_READ_BYTES", 1)
        text = "6 2\n" + "".join(f"w{i} {i} {-i}\n" for i in range(6))
        (tmp_path / "file.vec").write_text(text)
        fifo = tmp_path / "pipe.vec"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        target = Vocabulary(["w5", "w0", "w3", "absent"])
        piped = load_word_vectors(str(fifo), target)
        writer.join()
        whole = load_word_vectors(str(tmp_path / "file.vec"), target)
        assert piped.vocab_alignment == whole.vocab_alignment
        np.testing.assert_array_equal(piped.matrix.data, whole.matrix.data)
        assert piped.matrix.data.tolist() == [[0, 0], [3, -3], [5, -5]]

    @staticmethod
    def _record(monkeypatch):
        """The calls the loader makes to _plain_decimals, as ("check",
        values, result), and to _convert_lines, as ("convert", values)."""
        calls = []
        check, convert = aux_vectors._plain_decimals, aux_vectors._convert_lines

        def record_check(values):
            ok = check(values)
            calls.append(("check", list(values), ok))
            return ok

        def record_convert(lines, dim, path):
            calls.append(("convert", [v for _, _, v in lines]))
            return convert(lines, dim, path)

        monkeypatch.setattr(aux_vectors, "_plain_decimals", record_check)
        monkeypatch.setattr(aux_vectors, "_convert_lines", record_convert)
        return calls

    @staticmethod
    def _values_file(tmp_path, rows, formats=None):
        formats = formats or {}
        values = [
            " ".join(format(v, formats.get(i, ".4f")) for v in row) for i, row in enumerate(rows)
        ]
        p = tmp_path / "w.vec"
        p.write_text(f"{len(rows)} {rows.shape[1]}\n" + "".join(f"w{i} {v}\n" for i, v in enumerate(values)))
        return str(p), values

    @pytest.mark.parametrize("read_bytes", [200, embedding_store._READ_BYTES])
    @pytest.mark.parametrize("step", [10, 2, 1])
    def test_converts_only_the_lines_the_target_keeps(
        self, tmp_path, monkeypatch, read_bytes, step
    ):
        # Only the kept lines' values reach the converter; the others' are
        # checked as plain decimals, which cannot fail to convert. When every
        # line is kept, nothing is checked.
        monkeypatch.setattr(embedding_store, "_READ_BYTES", read_bytes)
        rows = np.random.default_rng(3).standard_normal((300, 4))
        path, values = self._values_file(tmp_path, rows)
        target = Vocabulary(["absent"] + [f"w{i}" for i in range(0, 300, step)])
        calls = self._record(monkeypatch)
        vecs = load_word_vectors(path, target)
        checked = [v for kind, vs, *ok in calls if kind == "check" for v in vs]
        converted = [v for kind, vs, *_ in calls if kind == "convert" for v in vs]
        assert all(ok == [True] for kind, _, *ok in calls if kind == "check")
        assert checked == [v for i, v in enumerate(values) if i % step]
        assert converted == values[::step]
        assert vecs.missing == {0}
        want = [[float(v) for v in line.split(" ")] for line in values[::step]]
        np.testing.assert_array_equal(vecs.matrix.data, np.float32(want))

    @pytest.mark.parametrize("read_bytes", [200, embedding_store._READ_BYTES])
    def test_lines_not_kept_are_converted_when_the_check_fails(
        self, tmp_path, monkeypatch, read_bytes
    ):
        # Exponent text on a line the target does not keep fails the check
        # of its block's lines not kept, which are then converted as well;
        # the kept rows are those of converting their lines alone.
        monkeypatch.setattr(embedding_store, "_READ_BYTES", read_bytes)
        rows = np.random.default_rng(5).standard_normal((300, 4))
        path, values = self._values_file(tmp_path, rows, {15: "e"})
        target = Vocabulary([f"w{i}" for i in range(0, 300, 10)])
        calls = self._record(monkeypatch)
        vecs = load_word_vectors(path, target)
        failed = [i for i, call in enumerate(calls) if call[0] == "check" and not call[2]]
        assert len(failed) == 1 and values[15] in calls[failed[0]][1]
        assert calls[failed[0] + 1] == ("convert", calls[failed[0]][1])
        del calls[failed[0] + 1]
        converted = [v for kind, vs, *_ in calls if kind == "convert" for v in vs]
        assert converted == values[::10]
        want = np.float32([[float(v) for v in line.split(" ")] for line in values[::10]])
        np.testing.assert_array_equal(vecs.matrix.data.view(np.uint32), want.view(np.uint32))


# Word-vector files: mostly well-formed lines, whose tokens hold the
# separators a .vec file may contain, with now and then a bad header, a
# wrong value count, a bad value or one or two trailing spaces.
_TOKENS = ["a", "b", "Ġa", "ab", "x\u2028y", "c\x85", "d\re", "é"]
# Also values on which numpy's loadtxt and float() disagree, or which only
# one path parses: "\x1c" loadtxt strips, "\r" it breaks lines at, and
# non-ASCII digits and "1_0" only float() accepts.
_VALUES = ["0", "1.5", "-2e-3", "7", "1_0"] * 8 + ["x", "", "1\x1c", "١", "1\r2", "+.5"] + [
    "nan", "1e39"
]
_BAD_HEADERS = ["", "3", "3 x", "3  2", "2 0", "1 99999999999999999999"]


@st.composite
def _vec_lines(draw):
    dim = draw(st.integers(1, 3))
    lines = [draw(st.sampled_from([f"{n} {dim}" for n in range(6)] * 5 + _BAD_HEADERS))]
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.sampled_from([dim] * 16 + [dim - 1, dim + 1, -1, -1]))
        if n < 0:
            lines.append("")
            continue
        values = [draw(st.sampled_from(_VALUES)) for _ in range(n)]
        tail = draw(st.sampled_from(["", "", "", "", " ", " ", "  "]))
        lines.append(" ".join([draw(st.sampled_from(_TOKENS))] + values) + tail)
    return lines


_BAD_UTF8 = [b"\xff", b"\xe2\x80", b"\xed\xa0\x80", b"\x80"]


def _outcome(load, path, target):
    """(per-target-id rows, or the error's type and text; warning texts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            aux = load(path, target)
            result = [None if (r := aux.row(t)) is None else r.tolist() for t in range(len(target))]
        except VocabportError as e:
            result = (type(e), str(e))
    return result, [str(w.message) for w in caught]


_FUZZ = dict(
    text=_vec_lines(),
    crlf=st.lists(st.booleans(), min_size=9, max_size=9),
    final_newline=st.booleans(),
    target=st.lists(
        st.sampled_from(_TOKENS + ["Ġb", "Ġab", "zz"]), unique=True, min_size=1, max_size=8
    ),
    # Invalid UTF-8 in one file in four: (line index, byte offset, bytes).
    bad=st.one_of(
        st.none(), st.none(), st.none(),
        st.tuples(st.integers(0, 8), st.integers(0, 40), st.sampled_from(_BAD_UTF8)),
    ),
)
_FUZZ_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestMatchesWholeFileLoader:
    @_FUZZ_SETTINGS
    @given(**_FUZZ)
    def test_same_rows_warnings_and_errors(
        self, tmp_path, text, crlf, final_newline, target, bad
    ):
        self._check(tmp_path, text, crlf, final_newline, target, bad)

    @_FUZZ_SETTINGS
    @given(block_chars=st.sampled_from([1, 8]), **_FUZZ)
    def test_same_outcome_with_smallest_blocks(
        self, tmp_path, block_chars, text, crlf, final_newline, target, bad
    ):
        # One line per block, or a few: faults and duplicates fall in
        # blocks after the ones that converted the lines before them.
        with mock.patch.object(embedding_store, "_READ_BYTES", block_chars):
            self._check(tmp_path, text, crlf, final_newline, target, bad)

    @staticmethod
    def _check(tmp_path, text, crlf, final_newline, target, bad):
        lines = [(line + ("\r\n" if cr else "\n")).encode("utf-8") for line, cr in zip(text, crlf)]
        if not final_newline:
            lines[-1] = lines[-1].rstrip(b"\r\n")
        bad_line = None
        if bad is not None and bad[0] < len(lines):
            bad_line, at, junk = bad
            raw = lines[bad_line]
            at = min(at, len(raw.rstrip(b"\r\n")))
            lines[bad_line] = raw[:at] + junk + raw[at:]
        path = str(tmp_path / "w.vec")
        vocab = Vocabulary(target)
        with open(path, "wb") as f:
            f.write(b"".join(lines))
        got = _outcome(load_word_vectors, path, vocab)
        want = _outcome(load_word_vectors_oracle, path, vocab)
        if bad_line:
            # The stream meets the bad bytes only after the lines before
            # them: a fault there comes first, otherwise the same UTF-8
            # error, after the duplicate warnings those lines gave.
            assert re.search(r"invalid UTF-8 at byte offset \d+$", want[0][1])
            with open(path, "wb") as f:
                f.write(b"".join(lines[:bad_line]))
            before = _outcome(load_word_vectors_oracle, path, vocab)
            if isinstance(before[0], tuple):
                want = before
            else:
                want = (want[0], [w for w in before[1] if "duplicate" in w])
        assert got == want


class TestFaultOrderInOneBlock:
    # Forty lines in one default-size block, of which the target keeps every
    # fourth: the kept lines are converted and the others checked apart, yet
    # the first faulty line in file order is the one raised, after the
    # duplicate warnings of the lines before it and of no later line.
    TARGET = Vocabulary([f"w{i}" for i in range(0, 40, 4)])

    def _load(self, tmp_path, changed):
        lines = [f"w{i} {i}.5 -{i}" for i in range(40)]
        for i, line in changed.items():
            lines[i] = line
        path = str(tmp_path / "w.vec")
        with open(path, "w") as f:
            f.write("40 2\n" + "".join(line + "\n" for line in lines))
        got = _outcome(load_word_vectors, path, self.TARGET)
        assert got == _outcome(load_word_vectors_oracle, path, self.TARGET)
        return got

    def test_fault_on_a_line_not_kept_before_one_on_a_kept_line(self, tmp_path):
        (error, message), _ = self._load(tmp_path, {10: "w10 1..5 0", 20: "w20 0 nan"})
        assert error is FormatError and message.endswith("w.vec:12: non-numeric vector value")

    def test_fault_on_a_kept_line_before_one_on_a_line_not_kept(self, tmp_path):
        (error, message), _ = self._load(tmp_path, {8: "w8 0 nan", 21: "w21 1..5 0"})
        assert error is FormatError and message.endswith("w.vec:10: non-finite vector value")

    def test_only_repeats_before_the_fault_warn(self, tmp_path):
        changed = {6: "w4 1 2", 7: "w3 1 2", 20: "w20 0 inf", 25: "w0 1 2", 26: "w1 1 2"}
        (_, message), warned = self._load(tmp_path, changed)
        assert message.endswith("w.vec:22: non-finite vector value")
        assert [re.sub(r"^.*w\.vec:", "", w) for w in warned] == [
            "8: duplicate token 'w4'; keeping the first",
            "9: duplicate token 'w3'; keeping the first",
        ]


_F32 = np.finfo(np.float32)


def _midpoint(x):
    """The float64 halfway between float32 x and the next float32 up."""
    lo = np.float32(x)
    with np.errstate(over="ignore"):
        hi = np.nextafter(lo, np.float32(np.inf))
    return (float(lo) + float(hi)) / 2 if np.isfinite(hi) else float(lo)


# Finite values as writers print them; a float32 subnormal, a float64 value
# (which rounds to float32 after parsing) and float32 rounding midpoints,
# also one float64 step either side of them.
_FINITE = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(float),
    st.floats(width=32, min_value=-float(_F32.smallest_normal),
              max_value=float(_F32.smallest_normal)).map(float),
    st.floats(min_value=-float(_F32.max), max_value=float(_F32.max)),
    st.tuples(
        st.floats(width=32, allow_nan=False, allow_infinity=False).map(_midpoint),
        st.sampled_from([0, 0, -1, 1]),
    ).map(lambda m: float(np.nextafter(m[0], np.inf * m[1])) if m[1] else m[0]),
)
_FORMATS = [
    repr,
    lambda x: str(np.float32(x)),  # shortest float32 text
    "%.4f".__mod__,
    "%.9g".__mod__,
    "%.17g".__mod__,
    "%e".__mod__,
    lambda x: str(Decimal(x)),  # the exact binary value in decimal
]
_NON_FINITE = ["inf", "-Infinity", "NaN", "1e39"]
_MALFORMED = ["1..5", "1.2.3", "-", "1-2", "--1", "1.-2", ".", "x"]


@st.composite
def _value_text(draw):
    text = draw(st.sampled_from(_FORMATS))(draw(_FINITE))
    sign = "-" if text.startswith("-") else draw(st.sampled_from(["", "+"]))
    zeros = draw(st.sampled_from(["", "", "0", "00"]))
    return sign + zeros + text.lstrip("-")


def _bits_or_error(load, path, target):
    """Each target id's row as float32 bits (None if it has none), or the
    error text."""
    try:
        aux = load(path, target)
    except FormatError as e:
        return str(e)
    rows = (aux.row(t) for t in range(len(target)))
    return [None if r is None else r.view(np.uint32).tolist() for r in rows]


class TestExactness:
    @_FUZZ_SETTINGS
    @given(
        dim=st.integers(1, 6),
        data=st.data(),
        block_chars=st.sampled_from([1, 40, embedding_store._READ_BYTES]),
    )
    def test_rows_bit_equal_to_float_parsing(self, tmp_path, dim, data, block_chars):
        n = data.draw(st.integers(1, 12))
        rows = [[data.draw(_value_text()) for _ in range(dim)] for _ in range(n)]
        # Now and then a value that is not finite as float32, or not a number.
        injected = data.draw(st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, dim - 1),
                st.sampled_from(_NON_FINITE + _MALFORMED),
            ),
            max_size=2,
        ))
        for line, col, value in injected:
            rows[line][col] = value
        tail = data.draw(st.sampled_from(["", " "]))
        path = str(tmp_path / "w.vec")
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{n} {dim}\n")
            f.writelines(f"t{i} " + " ".join(row) + tail + "\n" for i, row in enumerate(rows))
        # The target may leave lines out; a fault on such a line is still found.
        used = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        target = Vocabulary([f"t{i}" for i in range(n) if used[i]])
        with mock.patch.object(embedding_store, "_READ_BYTES", block_chars):
            got = _bits_or_error(load_word_vectors, path, target)
        assert got == _bits_or_error(load_word_vectors_oracle, path, target)
        if injected:
            first = min(line for line, _, _ in injected)
            fault = "non-numeric" if set(rows[first]) & set(_MALFORMED) else "non-finite"
            assert got == f"{path}:{first + 2}: {fault} vector value"


# Text near the plain-decimal grammar: its characters, the signs, exponents,
# underscores and line breaks float() or the reader also meets, non-ASCII
# digits float() accepts (and a superscript it does not), and digit runs
# either side of the 39-digit limit.
_NEAR_DECIMAL = st.lists(
    st.sampled_from(list("0123456789-.+eE_ \n") + ["١", "５", "²", "9" * 38]),
    max_size=24,
).map("".join)
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?")


class TestPlainDecimals:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_NEAR_DECIMAL, min_size=1, max_size=4))
    def test_accepts_exactly_the_grammar_and_each_field_converts(self, values):
        fields = " ".join(values).split(" ")
        grammar = all(_DECIMAL.fullmatch(f) and not re.search("[0-9]{39}", f) for f in fields)
        accepted = _plain_decimals(values)
        assert accepted == grammar
        if accepted:
            for f in fields:
                assert np.isfinite(np.float32(float(f)))

    @pytest.mark.parametrize("text", ["1.5 -2.25", "-0.0", "1" * 38, "9" * 38 + ".5 0"])
    def test_accepts(self, text):
        assert _plain_decimals([text])

    @pytest.mark.parametrize(
        "text",
        ["1..5", "1.2.3", "-", "1-2", ".5", "5.", "1  2", "1e5", "+1", "1_0", "1" * 39,
         "", " 1", "1 ", "--1", "-.5", "1\r", "١"],
    )
    def test_rejects(self, text):
        assert not _plain_decimals([text])

    def test_a_block_passes_only_whole(self):
        assert _plain_decimals(["1 2", "-3.5 4"])
        assert not _plain_decimals(["1 2", "3 nan"])
        assert not _plain_decimals(["1 2", ""])


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

    def test_bool_row_is_a_row_id(self):
        # True is row 1; as an index it would be a new axis over the matrix.
        matrix = EmbeddingMatrix(np.eye(2, dtype=np.float32))
        aux = AuxEmbeddings(AUX_MODEL, {0: True}, matrix, {1})
        row = aux_row(aux, 0)
        assert row.shape == (2,)
        np.testing.assert_array_equal(row, [0, 1])

    @pytest.mark.parametrize("row", [-1, -3, 3, 2**40])
    def test_aligned_row_outside_the_matrix(self, row):
        # A negative row would count from the end: {0: -1} read row 2.
        matrix = EmbeddingMatrix(np.arange(6, dtype=np.float32).reshape(3, 2))
        aux = AuxEmbeddings(AUX_MODEL, {0: row, 1: 2}, matrix, set())
        want = f"target id 0 with row {row}, outside the 3 auxiliary rows"
        for read in (aux.row, partial(aux_row, aux)):
            with pytest.raises(IndexError, match=want):
                read(0)
        np.testing.assert_array_equal(aux_row(aux, True), [4, 5])

    def test_range_is_the_aligned_and_missing_ids(self):
        # An alignment key that is no target id does not shift the ids the
        # row accepts: every aligned id has its row, every missing id none.
        matrix = EmbeddingMatrix(np.eye(2, dtype=np.float32))
        aux = AuxEmbeddings(AUX_MODEL, {0: 0, 7: 1}, matrix, set())
        np.testing.assert_array_equal(aux_row(aux, 7), [0, 1])
        for target_id in (1, 2, -1):
            with pytest.raises(IndexError):
                aux_row(aux, target_id)
        aux.missing = {1}
        assert aux_row(aux, 1) is None
        np.testing.assert_array_equal(aux_row(aux, np.int64(0)), [1, 0])
