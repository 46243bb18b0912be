"""group_members(vocab, groups): the letter filter admits every member."""

from itertools import chain, combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from vocabport.embedding_store import Vocabulary
from vocabport.script_groups import _RANGES, ScriptGroup, group_members
from vocabport.tokenizers import map_bytes

# Characters of every _RANGES script: each range's ends and middle.
_IN_RANGES = "".join(chr(lo) + chr((lo + hi) // 2) + chr(hi) for lo, hi, _ in _RANGES)
# Letters outside every range (Ethiopic, Thai, Gothic), digits,
# punctuation, a combining mark, astral Han and an emoji.
_OTHERS = "ሀก𐌰019١?!.́𠀀😀"
_CHARS = _IN_RANGES + _OTHERS + "ĠĊ▁ ĀġŃ"


def _byte_pieces(text):
    # GPT-2 byte-level spellings: each character whole, or its lone lead
    # or continuation bytes.
    pieces = []
    for c in text:
        spelled = map_bytes(c)
        pieces += [spelled, spelled[:1], spelled[1:]]
    return [p for p in pieces if p]


_BODIES = st.one_of(
    st.text(alphabet=_CHARS, max_size=6),
    st.text(alphabet=_CHARS, max_size=5).map(map_bytes),
    st.lists(st.sampled_from(_byte_pieces(_IN_RANGES + _OTHERS)), max_size=4).map("".join),
)
_TOKENS = st.builds(lambda m, body: m + body, st.sampled_from(["", "Ġ", "▁"]), _BODIES)


def _as_lists(members):
    return [(group, ids.tolist()) for group, ids in members.items()]


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(_TOKENS, max_size=6, unique=True))
def test_members_of_any_groups_equal_the_whole_pass_restricted(tokens):
    vocab = Vocabulary(tokens)
    whole = group_members(vocab)
    present = list(whole)
    subsets = chain.from_iterable(combinations(present, k) for k in range(len(present) + 1))
    for subset in subsets:
        want = [(group, ids) for group, ids in _as_lists(whole) if group in subset]
        assert _as_lists(group_members(vocab, subset)) == want, subset


def test_an_absent_group_gets_no_entry():
    vocab = Vocabulary(["Ġthe", "12", map_bytes("日")])
    got = group_members(vocab, [ScriptGroup("Arabic", "word-initial"),
                                ScriptGroup("Han", "word-internal")])
    assert _as_lists(got) == [(ScriptGroup("Han", "word-internal"), [2])]
