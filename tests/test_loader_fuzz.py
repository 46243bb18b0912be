"""Every file loader, fed arbitrary bytes, raises only the package's errors.

The CLI maps VocabportError to exit 1 and OSError to exit 2; any other
exception escaping a loader would break that contract. Inputs are raw
bytes, text over an alphabet that reaches the parsers' structure (digits,
separators, brackets), JSON documents, `count dim` headers up to 2**70, and
VEMB headers with rows and cols drawn from the whole u64 range.
"""

import json
import struct
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vocabport.aux_vectors import load_word_vectors
from vocabport.efficiency import load_corpus
from vocabport.embedding_store import VOCAB_FORMATS, Vocabulary, load_matrix, load_vocab
from vocabport.errors import VocabportError
from vocabport.tokenizers import load_bpe_spec, load_unigram_spec

FUZZ = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_STRUCTURED = st.text(alphabet=' \t\n\r0123456789.-+eEinfa<>unk[]{}":,#ĠĀ\x85', max_size=120)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
).map(json.dumps)
_COUNT = st.one_of(st.integers(-1, 4), st.integers(0, 2**70), st.sampled_from([2**61, 2**63, 10**20]))
_VEC = st.builds("{} {}\n{}".format, _COUNT, _COUNT, st.just("") | _STRUCTURED)
CONTENTS = st.one_of(
    st.binary(max_size=200),
    st.one_of(_STRUCTURED, _JSON, _VEC).map(lambda s: s.encode("utf-8", "surrogatepass")),
)


def _load_only_package_errors(tmp_path, data: bytes, load) -> None:
    path = tmp_path / "input"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            load(str(path))
        except (VocabportError, OSError):
            pass


@pytest.fixture(scope="module")
def bpe_vocab(tmp_path_factory):
    p = tmp_path_factory.mktemp("bpe") / "vocab.json"
    p.write_text(json.dumps({"a": 0, "b": 1, "ab": 2, "Ġ": 3}))
    return str(p)


@FUZZ
@given(data=CONTENTS)
def test_load_matrix_bytes(tmp_path, data):
    _load_only_package_errors(tmp_path, data, load_matrix)


_U64 = st.one_of(st.integers(0, 6), st.integers(0, 2**64 - 1), st.sampled_from([2**61, 2**63]))


@FUZZ
@given(
    rows=_U64,
    cols=_U64,
    version=st.sampled_from([1, 1, 1, 2]),
    dtype=st.sampled_from([0, 0, 0, 7]),
    exact=st.booleans(),
    payload=st.binary(max_size=96),
)
def test_load_matrix_headers(tmp_path, rows, cols, version, dtype, exact, payload):
    # `exact` pads or cuts the payload to the declared size when that is small.
    size = rows * cols * 4
    if exact and size <= 96:
        payload = (payload * (size // max(len(payload), 1) + 1))[:size].ljust(size, b"\0")
    header = struct.pack("<4sIQQI", b"VEMB", version, rows, cols, dtype)
    _load_only_package_errors(tmp_path, header + payload, load_matrix)


@FUZZ
@given(data=CONTENTS, fmt=st.sampled_from(VOCAB_FORMATS))
def test_load_vocab(tmp_path, data, fmt):
    _load_only_package_errors(tmp_path, data, lambda p: load_vocab(p, fmt))


@FUZZ
@given(data=CONTENTS)
def test_load_bpe_spec_merges(tmp_path, bpe_vocab, data):
    _load_only_package_errors(tmp_path, data, lambda p: load_bpe_spec(bpe_vocab, p))


@FUZZ
@given(data=CONTENTS)
def test_load_unigram_spec(tmp_path, data):
    _load_only_package_errors(tmp_path, data, load_unigram_spec)


@FUZZ
@given(data=CONTENTS)
def test_load_word_vectors(tmp_path, data):
    target = Vocabulary(["a", "Ġa", "1"])
    _load_only_package_errors(tmp_path, data, lambda p: load_word_vectors(p, target))


@FUZZ
@given(data=CONTENTS, fmt=st.sampled_from(["txt", "jsonl"]))
def test_load_corpus(tmp_path, data, fmt):
    _load_only_package_errors(tmp_path, data, lambda p: load_corpus(p, fmt))
