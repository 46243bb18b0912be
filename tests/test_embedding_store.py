import dataclasses
import json
import os
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vocabport import embedding_store
from vocabport.aux_vectors import load_word_vectors
from vocabport.cli import _read_numbers
from vocabport.efficiency import load_corpus
from vocabport.embedding_store import (
    EmbeddingMatrix,
    ModelBundle,
    Vocabulary,
    load_matrix,
    load_scored_tsv,
    load_vocab,
    save_matrix,
    sniff_vocab_format,
    validate_bundle,
)
from vocabport.errors import FormatError, MalformedSpecError, ValidationError
from vocabport.tokenizers import load_bpe_spec, load_unigram_spec


class TestVocabularyLoading:
    def test_json_map_direct(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text('{"a": 0, "b": 1}')
        v = load_vocab(str(p), "json-map")
        assert v.tokens == ("a", "b")
        assert v.index == {"a": 0, "b": 1}

    def test_json_map_ids_honored(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text('{"b": 0, "a": 1}')
        assert load_vocab(str(p), "json-map").tokens == ("b", "a")

    def test_line_order(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("x\ny\n")
        v = load_vocab(str(p), "line-per-token")
        assert v.index == {"x": 0, "y": 1}

    def test_non_dense_ids_rejected(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text('{"a": 0, "b": 2}')
        with pytest.raises(FormatError, match="non-dense"):
            load_vocab(str(p), "json-map")

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text('{"a": 0, "b": 0}')
        with pytest.raises(FormatError, match="non-dense"):
            load_vocab(str(p), "json-map")

    def test_duplicate_json_key_rejected(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text('{"a": 0, "a": 1}')
        with pytest.raises(FormatError, match="duplicate"):
            load_vocab(str(p), "json-map")

    def test_duplicate_line_token_has_position(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("x\ny\nx\n")
        with pytest.raises(FormatError, match=r":3"):
            load_vocab(str(p), "line-per-token")

    def test_bad_encoding_has_position(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"ok\n\xff\xfe\n")
        with pytest.raises(FormatError, match="byte offset 3"):
            load_vocab(str(p), "line-per-token")

    def test_tsv_scored_ignores_scores(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text("foo\t-1.5\nbar\t-2.0\n")
        assert load_vocab(str(p), "tsv-scored").tokens == ("foo", "bar")

    def test_tsv_bad_score(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text("foo\tok\n")
        with pytest.raises(FormatError, match=r":1"):
            load_vocab(str(p), "tsv-scored")

    def test_scored_tsv_keeps_scores_in_line_order(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text("foo\t-1.5\nbar\t2\n")
        vocab, scores = load_scored_tsv(str(p))
        assert vocab.tokens == ("foo", "bar")
        assert scores == [-1.5, 2.0]

    @pytest.mark.parametrize(
        "text", ["[1]", '["a"]', '[["a", 0], ["b", 1]]', '"a"', "0", "null"]
    )
    def test_json_map_rejects_non_objects(self, tmp_path, text):
        p = tmp_path / "v.json"
        p.write_text(text)
        with pytest.raises(FormatError, match="expected a JSON object mapping token -> id"):
            load_vocab(str(p), "json-map")

    @pytest.mark.parametrize("text", ['{"a": ' + "1" * 5000 + "}", "[" * 100_000])
    def test_json_map_beyond_parser_limits(self, tmp_path, text):
        p = tmp_path / "v.json"
        p.write_text(text)
        with pytest.raises(FormatError, match="v.json: unreadable JSON"):
            load_vocab(str(p), "json-map")

    def test_load_is_deterministic(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("a\nb\nc\n")
        assert load_vocab(str(p), "line-per-token") == load_vocab(str(p), "line-per-token")

    def test_sniff(self, tmp_path):
        j = tmp_path / "a.json"
        j.write_text("{}")
        t = tmp_path / "b.vocab"
        t.write_text("x\n")
        s = tmp_path / "c.vocab"
        s.write_text("x\t-1.0\n")
        assert sniff_vocab_format(str(j)) == "json-map"
        assert sniff_vocab_format(str(t)) == "line-per-token"
        assert sniff_vocab_format(str(s)) == "tsv-scored"


# (format, file text, exact message after "<path>"): one fault per file.
VOCAB_FAULTS = [
    ("json-map", '{"a": 0, "a": 1}', ": duplicate token 'a'"),
    ("json-map", '{"a": {"x": 1, "x": 2}, "b": 1}', ": duplicate token 'x'"),
    ("json-map", '{"a": 0, "b": 0}', ": non-dense ids: id 0 assigned to both 'a' and 'b'"),
    ("json-map", '{"a": 0, "b": 1, "c": -1}', ": non-dense ids: expected 0..2, missing id 2"),
    ("json-map", '{"a": 0, "b": 7}', ": non-dense ids: expected 0..1, missing id 1"),
    ("json-map", '{"a": 0, "b": 2, "c": 3}', ": non-dense ids: expected 0..2, missing id 1"),
    ("json-map", '{"a": 0, "b": "1"}', ": id for token 'b' is not an integer"),
    ("json-map", '{"a": 0, "b": 1.0}', ": id for token 'b' is not an integer"),
    ("json-map", '{"a": 0, "b": true}', ": id for token 'b' is not an integer"),
    ("json-map", '{"a": 0, "b": null}', ": id for token 'b' is not an integer"),
    ("line-per-token", "x\n\ny\nx\n", ":4: duplicate token 'x' (first at line 1)"),
    ("line-per-token", "a\n\nb\n\n", ":4: duplicate token '' (first at line 2)"),
    ("tsv-scored", "a\t1\nb\t2\na\t3\n", ":3: duplicate token 'a' (first at line 1)"),
]


class TestVocabularyIndex:
    @pytest.mark.parametrize("fmt,text,message", VOCAB_FAULTS)
    def test_single_fault_message(self, tmp_path, fmt, text, message):
        p = tmp_path / "v.txt"
        p.write_text(text)
        with pytest.raises(FormatError) as e:
            load_vocab(str(p), fmt)
        assert str(e.value) == f"{p}{message}"

    @pytest.mark.parametrize(
        "text,message",
        [
            # A non-integer id or an in-range id given twice is reported at
            # its entry, before any out-of-range id.
            ('{"a": 0, "b": 5, "c": 0}', "id 0 assigned to both 'a' and 'c'"),
            ('{"a": 5, "b": "x"}', "id for token 'b' is not an integer"),
            # Ids out of range are never compared with each other: a repeated
            # one shows as the lowest id no token has.
            ('{"a": 5, "b": 5, "c": 0}', "non-dense ids: expected 0..2, missing id 1"),
            # A repeated key is reported when its object closes, before any
            # later syntax error or id check.
            ('{"a": {"x": 1, "x": 2}, "b": }', "duplicate token 'x'"),
        ],
    )
    def test_multi_fault_json_map_order(self, tmp_path, text, message):
        p = tmp_path / "v.json"
        p.write_text(text)
        with pytest.raises(FormatError) as e:
            load_vocab(str(p), "json-map")
        assert str(e.value).endswith(message)

    def test_valid_files_never_scan_for_repeats(self, tmp_path, monkeypatch):
        def scan(items):
            raise AssertionError("duplicate scan ran on valid input")

        monkeypatch.setattr(embedding_store, "_first_repeat", scan)
        files = {
            "v.json": '{"b": 1, "a": 0, "ab": 2}',
            "v.txt": "a\n\nb\n",
            "v.tsv": "a\t-1\n<unk>\t-2\nab\t-3\n",
            "m.txt": "#version: 0.2\na b\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        path = {name: str(tmp_path / name) for name in files}
        assert load_vocab(path["v.json"], "json-map").tokens == ("a", "b", "ab")
        assert load_vocab(path["v.txt"], "line-per-token").tokens == ("a", "", "b")
        assert load_vocab(path["v.tsv"], "tsv-scored").tokens == ("a", "<unk>", "ab")
        assert load_bpe_spec(path["v.json"], path["m.txt"]).ranks == {("a", "b"): 0}
        assert load_unigram_spec(path["v.tsv"]).unk_id == 1
        assert Vocabulary(["x", "y"]).index == {"x": 0, "y": 1}

    def test_vocabulary_names_both_ids(self):
        with pytest.raises(ValidationError) as e:
            Vocabulary(["a", "b", "c", "b"])
        assert str(e.value) == "duplicate token 'b' (ids 1 and 3)"

    def test_merge_result_outside_vocabulary(self, tmp_path):
        (tmp_path / "v.json").write_text('{"a": 0, "b": 1, "ab": 2}')
        (tmp_path / "m.txt").write_text("a b\nb a\n")
        with pytest.raises(MalformedSpecError) as e:
            load_bpe_spec(str(tmp_path / "v.json"), str(tmp_path / "m.txt"))
        merges = tmp_path / "m.txt"
        assert str(e.value) == f"{merges}:2: merge #1 result 'ba' is not in the vocabulary"


# Separators str.splitlines() breaks at besides "\n" and "\r".
UNICODE_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _bpe_merges(path):
    vocab = os.path.join(os.path.dirname(path), "bpe_vocab.json")
    with open(vocab, "w", encoding="utf-8") as f:
        json.dump({"a": 0, "b": 1, "ab": 2, "c": 3, "abc": 4}, f)
    return load_bpe_spec(vocab, path).merges


# (file text with "\n" line ends, loader -> comparable result)
LINE_LOADERS = {
    "line-per-token": ("a\nb\n", lambda p: load_vocab(p, "line-per-token").tokens),
    "tsv-scored": ("a\t-1.5\nb\t-2\n", load_scored_tsv),
    "merges": ("#version: 0.2\na b\nab c\n", _bpe_merges),
    "word-vectors": (
        "2 2\na 0.5 1\nb 2 3 \n",
        lambda p: load_word_vectors(p, Vocabulary(["a", "b"])).matrix.data.tolist(),
    ),
    "corpus-txt": ("one\n\nthree\n", lambda p: load_corpus(p, "txt")),
    "corpus-jsonl": ('{"text": "x"}\n\n{"text": "y", "id": 7}\n', lambda p: load_corpus(p, "jsonl")),
    "numbers": ("1\n2.5\n\n-3\n", _read_numbers),
}


# A bad first line, then bytes that are not UTF-8: (file bytes, loader, the
# first line's fault).
FILE_ORDER_CASES = {
    "tsv-scored": (b"a\tx\n\xff\n", load_scored_tsv, "score 'x' is not a number"),
    "merges": (b"a b c\n\xff\n", _bpe_merges, "expected 'left right', got 3 fields"),
    "corpus-jsonl": (
        b"[]\n\xff\n", lambda p: load_corpus(p, "jsonl"), "expected an object with a string 'text'"
    ),
    "numbers": (b"x\n\xff\n", _read_numbers, "'x' is not a number"),
}


class TestLineSplitting:
    @pytest.mark.parametrize("sep", UNICODE_SEPARATORS)
    def test_unicode_separator_stays_in_token(self, tmp_path, sep):
        p = tmp_path / "v.txt"
        p.write_bytes(f"x{sep}y\nz\n".encode("utf-8"))
        assert load_vocab(str(p), "line-per-token").tokens == (f"x{sep}y", "z")

    @pytest.mark.parametrize("sep", UNICODE_SEPARATORS)
    def test_unicode_separator_stays_in_corpus_sample(self, tmp_path, sep):
        p = tmp_path / "c.txt"
        p.write_bytes(f"a{sep}b\nc\n".encode("utf-8"))
        assert [s.text for s in load_corpus(str(p), "txt")] == [f"a{sep}b", "c"]

    @pytest.mark.parametrize("name", list(LINE_LOADERS))
    def test_crlf_file_loads_like_lf(self, tmp_path, name):
        text, load = LINE_LOADERS[name]
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(text.encode("utf-8"))
        crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        assert load(str(crlf)) == load(str(lf))

    @pytest.mark.parametrize(
        "text,lines",
        [
            ("", []),
            ("\n", [""]),
            ("a", ["a"]),
            ("a\n", ["a"]),
            ("a\n\n", ["a", ""]),
            ("a\r\nb", ["a", "b"]),
            ("a\r\r\n", ["a\r"]),
            ("a\rb\n", ["a\rb"]),
        ],
    )
    def test_split_rule(self, text, lines):
        # Only "\n" breaks a line; one "\r" before it is dropped; a final
        # newline ends the last line.
        assert embedding_store._split_lines(text) == lines

    @pytest.mark.parametrize("name", list(FILE_ORDER_CASES))
    def test_faults_are_reported_in_file_order(self, tmp_path, name):
        # A line is parsed as the reader reaches it, so its fault comes
        # before invalid UTF-8 further down.
        data, load, fault = FILE_ORDER_CASES[name]
        p = tmp_path / "bad.txt"
        p.write_bytes(data)
        with pytest.raises(ValidationError) as e:
            load(str(p))
        assert str(e.value) == f"{p}:1: {fault}"


# Line breaks, separators that stay inside a line, multi-byte characters (a
# small read cuts them) and invalid sequences: a stray continuation byte,
# lone and truncated lead bytes, an encoded surrogate, a code point past
# U+10FFFF.
_TEXT_PIECES = [b"a", b"bc ", b"\n", b"\r\n", b"\r", "\x85".encode(), "\u2028".encode(),
                "é".encode(), "語".encode(), "𝄞".encode()]
_INVALID_PIECES = [b"\x80", b"\xff", b"\xc3", b"\xe2\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


class TestBlockReader:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        pieces=st.lists(st.sampled_from(_TEXT_PIECES * 4 + _INVALID_PIECES), max_size=40),
        final_newline=st.booleans(),
        read_bytes=st.sampled_from([1, 2, 3, 7, 64]),
    )
    def test_matches_whole_file_split(self, tmp_path, pieces, final_newline, read_bytes):
        data = b"".join(pieces).rstrip(b"\n") + (b"\n" if final_newline else b"")
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        try:
            want, error = embedding_store._split_lines(embedding_store._read_utf8(str(path))), None
        except FormatError as e:
            # The lines that end before the first invalid byte.
            error = str(e)
            bad = int(error.rsplit(" ", 1)[1])
            want = embedding_store._split_lines(data[: data.rfind(b"\n", 0, bad) + 1].decode())
        with mock.patch.object(embedding_store, "_READ_BYTES", read_bytes):
            got, got_error = [], None
            with open(path, "rb") as f:
                try:
                    for block in embedding_store._line_blocks(f, str(path)):
                        got += block
                except FormatError as e:
                    got_error = str(e)
            assert (got, got_error) == (want, error)
            # The numbered reader yields the same lines, numbered from 1,
            # then raises the same error.
            got, got_error = [], None
            try:
                for numbered in embedding_store._numbered_lines(str(path)):
                    got.append(numbered)
            except FormatError as e:
                got_error = str(e)
            assert (got, got_error) == (list(enumerate(want, start=1)), error)


class TestVembRoundTrip:
    def test_small_matrix(self, tmp_path):
        p = tmp_path / "m.vemb"
        m = EmbeddingMatrix(np.array([[0.5]], dtype=np.float32))
        save_matrix(m, str(p))
        assert load_matrix(str(p)) == m

    def test_seeded_matrix_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        m = EmbeddingMatrix(rng.normal(size=(100, 8)).astype(np.float32))
        p = tmp_path / "m.vemb"
        save_matrix(m, str(p))
        back = load_matrix(str(p))
        assert back.data.tobytes() == m.data.tobytes()
        # Saving again reproduces identical file bytes.
        p2 = tmp_path / "m2.vemb"
        save_matrix(back, str(p2))
        assert p.read_bytes() == p2.read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(0, 7),
        cols=st.integers(1, 9),
        seed=st.integers(0, 2**31),
    )
    def test_round_trip_property(self, tmp_path_factory, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = EmbeddingMatrix(rng.normal(size=(rows, cols)).astype(np.float32))
        p = tmp_path_factory.mktemp("rt") / "m.vemb"
        save_matrix(m, str(p))
        assert load_matrix(str(p)).data.tobytes() == m.data.tobytes()

    def test_save_makes_no_payload_copy(self, tmp_path):
        # numpy reports its allocations to tracemalloc; a 4 MB payload
        # written from the array's own buffer allocates far less than that.
        m = EmbeddingMatrix(np.ones((1000, 1000), dtype=np.float32))
        tracemalloc.start()
        try:
            save_matrix(m, str(tmp_path / "m.vemb"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert load_matrix(str(tmp_path / "m.vemb")) == m

    def test_unwritable_path(self, tmp_path):
        m = EmbeddingMatrix(np.zeros((1, 1), dtype=np.float32))
        with pytest.raises(OSError):
            save_matrix(m, str(tmp_path / "nope" / "m.vemb"))


class TestVembValidation:
    def _header(self, rows, cols, magic=b"VEMB", version=1, dtype=0):
        return struct.pack("<4sIQQI", magic, version, rows, cols, dtype)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.vemb"
        p.write_bytes(self._header(1, 1, magic=b"NOPE") + b"\x00" * 4)
        with pytest.raises(FormatError, match="magic"):
            load_matrix(str(p))

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "m.vemb"
        p.write_bytes(self._header(2, 3) + b"\x00" * (6 * 4 - 1))
        with pytest.raises(FormatError, match="truncated"):
            load_matrix(str(p))

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "m.vemb"
        p.write_bytes(self._header(1, 1) + b"\x00" * 5)
        with pytest.raises(FormatError, match="trailing"):
            load_matrix(str(p))

    def test_nan_payload_reports_position(self, tmp_path):
        data = np.zeros((2, 3), dtype="<f4")
        data[1, 2] = np.nan
        p = tmp_path / "m.vemb"
        p.write_bytes(self._header(2, 3) + data.tobytes())
        with pytest.raises(FormatError, match=r"row 1, col 2"):
            load_matrix(str(p))

    @pytest.mark.parametrize("rows,cols", [(2**63, 0), (0, 2**63), (2**64 - 1, 0), (2**61, 0)])
    def test_unshapeable_header(self, tmp_path, rows, cols):
        # Zero payload bytes pass the size check; the shape itself is refused.
        p = tmp_path / "m.vemb"
        p.write_bytes(self._header(rows, cols))
        with pytest.raises(FormatError, match=r"m\.vemb: dimension \d+ is too large"):
            load_matrix(str(p))

    def test_large_empty_shape_loads(self, tmp_path):
        p = tmp_path / "m.vemb"
        p.write_bytes(self._header(2**61 - 1, 0))
        assert load_matrix(str(p)).data.shape == (2**61 - 1, 0)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "m.vemb"
        p.write_bytes(self._header(1, 1)[:27])
        with pytest.raises(FormatError, match=r"truncated header \(27 bytes\)"):
            load_matrix(str(p))

    def test_payload_scanned_once(self, tmp_path, monkeypatch):
        scans = []
        scan = embedding_store._first_nonfinite

        def counting(arr):
            scans.append(arr.shape)
            return scan(arr)

        monkeypatch.setattr(embedding_store, "_first_nonfinite", counting)
        data = np.arange(12, dtype="<f4").reshape(4, 3)
        p = tmp_path / "m.vemb"
        p.write_bytes(self._header(4, 3) + data.tobytes())
        m = load_matrix(str(p))
        assert scans == [(4, 3)]
        np.testing.assert_array_equal(m.data, data)
        assert m.data.flags.c_contiguous and m.data.dtype == np.float32

    def test_good_payload(self, tmp_path):
        data = np.arange(6, dtype="<f4").reshape(2, 3)
        p = tmp_path / "m.vemb"
        p.write_bytes(self._header(2, 3) + data.tobytes())
        m = load_matrix(str(p))
        assert (m.rows, m.cols) == (2, 3)
        np.testing.assert_array_equal(m.data, data)


def _rss_file_kb():
    with open("/proc/self/status", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("RssFile:"))


class TestMappedPayload:
    """load_matrix maps the payload read-only; _drop_pages releases it."""

    def _write(self, path, rows, cols, payload=b""):
        path.write_bytes(embedding_store._VEMB_HEADER.pack(b"VEMB", 1, rows, cols, 0) + payload)
        return str(path)

    def test_data_is_a_read_only_view_of_the_file(self, tmp_path):
        data = np.random.default_rng(8).normal(size=(300, 7)).astype("<f4")
        path = self._write(tmp_path / "m.vemb", 300, 7, data.tobytes())
        m = load_matrix(path)
        copied = np.fromfile(path, dtype="<f4", offset=28).reshape(300, 7)
        assert m.data.tobytes() == copied.tobytes() == data.tobytes()
        assert m.data.dtype == np.float32 and m.data.flags.c_contiguous
        assert not m.data.flags.writeable and not m.data.flags.owndata

    def test_writes_are_refused(self, tmp_path):
        path = self._write(tmp_path / "m.vemb", 2, 3, np.ones(6, dtype="<f4").tobytes())
        m = load_matrix(path)
        with pytest.raises(ValueError, match="read-only"):
            m.data[1, 2] = 0.0
        with pytest.raises(ValueError):
            m.data.setflags(write=True)
        np.testing.assert_array_equal(m.data, np.ones((2, 3)))

    @pytest.mark.parametrize("keep", [0, 28, 28 + 4 * 5])
    def test_file_shrunk_before_mapping(self, tmp_path, monkeypatch, keep):
        # The file passes the size check, then loses its tail (or all of
        # its bytes) before it is mapped.
        path = self._write(tmp_path / "m.vemb", 2, 3, np.ones(6, dtype="<f4").tobytes())
        real_fstat = os.fstat
        calls = []

        def fstat_then_shrink(fd):
            st = real_fstat(fd)
            if not calls:
                calls.append(fd)
                os.truncate(path, keep)
            return st

        monkeypatch.setattr(os, "fstat", fstat_then_shrink)
        with pytest.raises(FormatError, match=r"m\.vemb: truncated payload \(file shrank while reading\)"):
            load_matrix(path)
        assert calls

    @pytest.mark.parametrize("rows,cols", [(0, 5), (5, 0), (0, 0)])
    def test_empty_shapes_load(self, tmp_path, rows, cols):
        # A 28-byte file: the payload is empty at the mapping's end.
        # TestVembValidation.test_large_empty_shape_loads maps (2**61 - 1, 0).
        m = load_matrix(self._write(tmp_path / "m.vemb", rows, cols))
        assert m.data.shape == (rows, cols) and m.data.dtype == np.float32

    def test_drop_pages_leaves_other_arrays_alone(self, tmp_path):
        # MADV_DONTNEED would zero anonymous memory and drop the writes to a
        # private file mapping; neither may reach it.
        data = np.random.default_rng(9).normal(size=(2048, 64)).astype(np.float32)
        m = EmbeddingMatrix(data.copy())
        embedding_store._drop_pages(m.data)
        embedding_store._drop_pages(m.data[5:])
        assert m.data.tobytes() == data.tobytes()
        path = self._write(tmp_path / "m.vemb", 2048, 64, data.tobytes())
        private = np.memmap(path, dtype="<f4", mode="c", offset=28, shape=(2048, 64))
        private[:] += 1.0
        embedding_store._drop_pages(private)
        assert private.tobytes() == (data + 1.0).tobytes()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads RssFile")
    def test_drop_pages_releases_a_loaded_matrix(self, tmp_path):
        data = np.random.default_rng(10).normal(size=(4096, 512)).astype(np.float32)  # 8 MB
        m = load_matrix(self._write(tmp_path / "m.vemb", 4096, 512, data.tobytes()))
        assert m.data.tobytes() == data.tobytes()  # maps every page
        mapped = _rss_file_kb()
        embedding_store._drop_pages(m.data[100:200])
        assert _rss_file_kb() < mapped - 7 * 1024
        # The pages fault back in from the file.
        assert m.data.tobytes() == data.tobytes()

    def test_gather_by_ids_is_a_copy(self, tmp_path):
        data = np.random.default_rng(11).normal(size=(50, 6)).astype(np.float32)
        m = load_matrix(self._write(tmp_path / "m.vemb", 50, 6, data.tobytes()))
        ids = np.array([7, 0, 49, 7])
        got = embedding_store._gather(m.data, ids)
        assert got.tobytes() == data[ids].tobytes() and got.dtype == np.float32
        assert got.flags.writeable and not np.shares_memory(got, m.data)
        got[:] = 0.0
        assert m.data.tobytes() == data.tobytes()

    def test_gather_casts_a_slice_into_out(self, tmp_path):
        data = np.random.default_rng(12).normal(size=(50, 6)).astype(np.float32)
        m = load_matrix(self._write(tmp_path / "m.vemb", 50, 6, data.tobytes()))
        out = np.full((8, 6), np.nan)
        assert embedding_store._gather(m.data, slice(40, 48), out) is out
        assert out.dtype == np.float64 and out.tobytes() == data[40:48].astype(np.float64).tobytes()
        ids = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        embedding_store._gather(m.data, ids, out)
        np.testing.assert_array_equal(out, data[ids])

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads RssFile")
    def test_gather_releases_a_loaded_matrix(self, tmp_path):
        data = np.random.default_rng(13).normal(size=(4096, 512)).astype(np.float32)  # 8 MB
        m = load_matrix(self._write(tmp_path / "m.vemb", 4096, 512, data.tobytes()))
        assert m.data.tobytes() == data.tobytes()  # maps every page
        mapped = _rss_file_kb()
        got = embedding_store._gather(m.data, np.arange(100, 200))
        assert _rss_file_kb() < mapped - 7 * 1024
        assert got.tobytes() == data[100:200].tobytes()

    def test_gather_leaves_other_arrays_alone(self, tmp_path):
        data = np.random.default_rng(14).normal(size=(2048, 64)).astype(np.float32)
        m = EmbeddingMatrix(data.copy())
        ids = np.arange(0, 2048, 3)
        assert embedding_store._gather(m.data, ids).tobytes() == data[ids].tobytes()
        assert m.data.tobytes() == data.tobytes()
        path = self._write(tmp_path / "m.vemb", 2048, 64, data.tobytes())
        private = np.memmap(path, dtype="<f4", mode="c", offset=28, shape=(2048, 64))
        private[:] += 1.0
        out = np.empty((1024, 64))
        embedding_store._gather(private, slice(0, 1024), out)
        np.testing.assert_array_equal(out, data[:1024] + 1.0)
        assert private.tobytes() == (data + 1.0).tobytes()


class TestTypesAndBundle:
    def test_vocabulary_rejects_duplicates(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Vocabulary(["a", "b", "a"])

    def test_matrix_rejects_nonfinite(self):
        with pytest.raises(ValidationError, match="row 0, col 1"):
            EmbeddingMatrix(np.array([[1.0, np.inf]], dtype=np.float32))

    def test_tied_bundle_valid(self):
        v = Vocabulary(["a", "b"])
        m = EmbeddingMatrix(np.zeros((2, 4), dtype=np.float32))
        assert validate_bundle(ModelBundle(v, m)) == []

    def test_row_count_mismatch(self):
        v = Vocabulary(["a", "b", "c"])
        m = EmbeddingMatrix(np.zeros((2, 4), dtype=np.float32))
        report = validate_bundle(ModelBundle(v, m))
        assert len(report) == 1 and "3 tokens" in report[0]

    def test_untied_shape_mismatch(self):
        v = Vocabulary(["a", "b"])
        m = EmbeddingMatrix(np.zeros((2, 4), dtype=np.float32))
        out = EmbeddingMatrix(np.zeros((3, 4), dtype=np.float32))
        report = validate_bundle(ModelBundle(v, m, out))
        assert len(report) == 1

    def test_tied_is_the_absence_of_an_output_matrix(self):
        # No tied flag to disagree with the matrices: a bundle is tied
        # exactly when it has no output matrix.
        v = Vocabulary(["a", "b"])
        m = EmbeddingMatrix(np.zeros((2, 4), dtype=np.float32))
        assert ModelBundle(v, m).tied and not ModelBundle(v, m, m).tied
        assert "tied" not in {f.name for f in dataclasses.fields(ModelBundle)}
