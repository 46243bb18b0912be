"""Peak memory bounds, measured with tracemalloc instead of timers.

numpy reports its array allocations to tracemalloc, so the traced peak of
a call is the most it held at once beyond what existed before the call.
The row-block size is set small, so a bound of a few blocks is far below
one whole-matrix temporary.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import build_instance, make_bpe_spec, make_unigram_spec

from vocabport import cli, efficiency, embedding_store, initializers, kernels
from vocabport.aux_vectors import (
    AUX_MODEL,
    WORD_VECTORS,
    AuxEmbeddings,
    load_aux_model,
    load_word_vectors,
)
from vocabport.efficiency import CorpusSample, avg_tokens, load_corpus
from vocabport.embedding_store import (
    EmbeddingMatrix,
    ModelBundle,
    Vocabulary,
    _first_nonfinite,
    load_scored_tsv,
    load_vocab,
)
from vocabport.initializers import InitConfig, _element_stats, _TargetRows
from vocabport.kernels import SupportCosines, mean_std
from vocabport.overlap import compute_overlap
from vocabport.tokenizers import BYTE_TO_UNICODE, load_bpe_spec, load_unigram_spec, split_pretokens

BLOCK = 64
ROWS, COLS = 4000, 256  # 4 MB of float32; one float64 block is 128 KB


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(embedding_store, "_BLOCK_ROWS", BLOCK)


@pytest.fixture
def matrix():
    rng = np.random.default_rng(3)
    return EmbeddingMatrix(rng.normal(0.1, 0.7, (ROWS, COLS)).astype(np.float32))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_element_stats_hold_one_block(small_blocks, matrix):
    _, peak = _traced_peak(_element_stats, matrix)
    assert peak < 4 * BLOCK * COLS * 8


def test_group_of_every_row_is_gathered_by_blocks(small_blocks, matrix):
    ids = np.arange(ROWS)[::-1].copy()
    (mean, std), peak = _traced_peak(mean_std, matrix.data, ids, 0)
    assert mean.shape == std.shape == (COLS,)
    assert peak < 4 * BLOCK * COLS * 8


def test_finiteness_scan_holds_one_block(small_blocks, matrix):
    data = matrix.data.copy()
    data[ROWS - 2, 7] = np.nan
    bad, peak = _traced_peak(_first_nonfinite, data)
    assert bad == (ROWS - 2, 7)
    assert peak < 4 * BLOCK * COLS


def test_support_is_split_by_blocks_and_not_kept(small_blocks, monkeypatch, matrix):
    # A clp call and a sparsemax call whose rows all lose their certificate,
    # so both take a whole-support product. Each gathers and splits the
    # support one row block at a time and keeps none of it: beyond the
    # caller's matrix, the kernel holds at most one value a support row.
    monkeypatch.setattr(kernels, "_certified", lambda rest, err, tau: False)
    ids = np.arange(ROWS)[::-1].copy()
    queries = matrix.data[:2]

    def build_and_call(data, ids):
        cosines = SupportCosines(data, ids)
        cosines(queries)
        cosines.sparsemax(queries, 1.0)
        return cosines

    cosines, peak = _traced_peak(build_and_call, matrix.data, ids)
    assert cosines.data is matrix.data
    kept = [v for v in vars(cosines).values() if isinstance(v, np.ndarray) and v is not cosines.data]
    assert len(kept) == 3 and all(v.size <= ROWS for v in kept)
    # A few float64 row blocks (the gather, the slices, the screen's block)
    # and a few float64 arrays of one value per (query, support row) pair:
    # 1 MB, where the support's two slices kept as int32 would take 8 MB.
    assert peak < 4 * BLOCK * COLS * 8 + 8 * len(queries) * ROWS * 8


def test_overlap_rows_are_copied_by_blocks(small_blocks, matrix):
    # Every target token overlaps, in reverse order; the only whole-size
    # allocation is the target matrix itself.
    tokens = [f"t{i}" for i in range(ROWS)]
    source = ModelBundle(Vocabulary(tokens), matrix)
    target = Vocabulary(tokens[::-1])
    overlap = compute_overlap(source.vocab, target)
    cfg = InitConfig(method="heuristics", seed=1)
    rows, peak = _traced_peak(_TargetRows, "heuristics", source, target, cfg, overlap)
    np.testing.assert_array_equal(rows.outs[0], matrix.data[::-1])
    assert peak < 4 * ROWS * COLS + 4 * BLOCK * COLS * 8


@pytest.mark.parametrize("block_rows", [1, 3, 64])
def test_sampling_holds_one_draw_block(monkeypatch, matrix, block_rows):
    # An untied source: each draw row spans both matrices, 2 x COLS values.
    source = ModelBundle(Vocabulary([f"s{i}" for i in range(ROWS)]), matrix, matrix)
    block = block_rows * 8 * 2 * COLS
    monkeypatch.setattr(initializers, "_DRAW_BYTES", block)
    rows = _TargetRows("random", source, Vocabulary([f"t{i}" for i in range(ROWS)]),
                       InitConfig(method="random", seed=1))
    ids = list(range(ROWS))[::-1]
    params = [(np.full(COLS, 0.1), np.full(COLS, 2.0)), (0.3, 0.5)]
    state = initializers._stream_states(0, [0])[0]
    initializers._token_rng(state).standard_normal()  # numpy's one-time RNG set-up
    _, peak = _traced_peak(rows.sample, ids, params)
    # The draw block, one ufunc buffer (np.getbufsize() float64 values) and
    # small per-call objects; nothing that grows with the number of rows.
    assert peak < block + 8 * np.getbufsize() + (32 << 10)


def test_word_vectors_keep_only_aligned_rows(tmp_path):
    # 1,000 vectors of dimension 100; the target uses every tenth token.
    rng = np.random.default_rng(4)
    tokens = [f"w{i:05d}" for i in range(1000)]
    values = rng.normal(0.0, 1.0, (1000, 100)).astype(np.float32)
    path = tmp_path / "w.vec"
    with open(path, "w") as f:
        f.write(f"{len(tokens)} 100\n")
        for tok, row in zip(tokens, values):
            f.write(tok + " " + " ".join(repr(float(v)) for v in row) + "\n")
    target = Vocabulary(tokens[::10] + ["absent"])
    vecs, peak = _traced_peak(load_word_vectors, str(path), target)
    assert vecs.matrix.rows == len(vecs.vocab_alignment) == 100
    np.testing.assert_array_equal(vecs.row(3), values[30])
    assert peak < os.path.getsize(path) / 4


def test_word_vector_blocks_are_bounded_in_bytes(tmp_path):
    # 120 vectors of dimension 2,000, about 39k characters a line; the
    # target uses every tenth token. A block of 16 lines would hold 630k
    # characters of value text.
    rng = np.random.default_rng(5)
    tokens = [f"w{i:03d}" for i in range(120)]
    values = rng.normal(0.0, 1.0, (120, 2000)).astype(np.float32)
    path = tmp_path / "w.vec"
    with open(path, "w") as f:
        f.write(f"{len(tokens)} 2000\n")
        for tok, row in zip(tokens, values):
            f.write(tok + " " + " ".join(repr(float(v)) for v in row) + "\n")
    vecs, peak = _traced_peak(load_word_vectors, str(path), Vocabulary(tokens[::10]))
    np.testing.assert_array_equal(vecs.row(5), values[50])
    kept = vecs.matrix.data.nbytes
    line = os.path.getsize(path) // len(tokens)
    # The kept rows once (they are written into one array, trimmed in
    # place), a few copies of the line in flight (numpy's reader holds one
    # as UCS-4) and of a block's value text.
    assert peak < kept + 8 * line + 2 * embedding_store._READ_BYTES


def _text_line(i):
    # 200 to 1,400 characters, one line in three CJK.
    return f"{i} " + ("語" if i % 3 == 0 else "x") * (200 + i * 37 % 1200)


def _scored_line(i):
    return "<unk>\t-20" if i == 0 else f"{_text_line(i)}\t-{i % 50 + 1}.5"


def _number_line(i):
    return str(i / 7).ljust(200 + i * 37 % 1200, "0")


# One result token, 600 Latin and 600 CJK characters; merge i splits it
# after character 1 + i % 1199, so every merge line is 1,201 characters.
_MERGED = "x" * 600 + "語" * 600


def _merge_line(i):
    k = 1 + i % 1199
    return f"{_MERGED[:k]} {_MERGED[k:]}"


def _load_bpe(path):
    vocab = os.path.join(os.path.dirname(path), "v.json")
    with open(vocab, "w", encoding="utf-8") as f:
        json.dump({_MERGED: 0}, f)
    return load_bpe_spec(vocab, path)


# loader -> (line i of its file, load, the lines its result holds, bytes a
# line it may hold beyond its result and the reads in flight). Two bytes a
# line is the growth of the token tuple a vocabulary reads from a stream of
# tokens (a list of them beside it would be 9); 33 more is a list of float
# scores that it drops. load_bpe_spec keeps no line numbers beside its
# merges: it reads them again only to place a merge the spec rejects.
_LINE_FILES = {
    "load_corpus": (_text_line, lambda path: load_corpus(path, "txt"), len, 0),
    "load_vocab": (_text_line, lambda path: load_vocab(path, "line-per-token"), len, 2),
    "load_corpus-jsonl": (
        lambda i: json.dumps({"text": _text_line(i)}, ensure_ascii=False),
        lambda path: load_corpus(path, "jsonl"),
        len,
        0,
    ),
    "load_vocab-tsv-scored": (
        _scored_line, lambda path: load_vocab(path, "tsv-scored"), len, 2 + 33
    ),
    "load_scored_tsv": (_scored_line, load_scored_tsv, lambda vs: len(vs[1]), 2),
    "load_unigram_spec": (
        _scored_line, load_unigram_spec, lambda spec: len(spec.log_probs), 2 + 33
    ),
    "load_bpe_spec": (_merge_line, _load_bpe, lambda spec: len(spec.merges), 0),
    "read_numbers": (_number_line, cli._read_numbers, len, 0),
}


@pytest.mark.parametrize("name", list(_LINE_FILES))
def test_line_files_are_read_by_blocks(tmp_path, name):
    # 4,000 lines of about 200 to 1,400 characters: 3 to 10 MB of UTF-8
    # that whole would be held again as bytes and as text.
    line, load, lines_held, per_line = _LINE_FILES[name]
    n = 4000
    path = tmp_path / "lines.txt"
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(line(i) + "\n" for i in range(n))
    tracemalloc.start()
    try:
        result = load(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lines_held(result) == n
    # What the result keeps, what the loader drops on the way (per_line) and
    # a few reads in flight.
    assert peak < kept + per_line * n + 4 * embedding_store._READ_BYTES


def test_short_vocab_lines_cost_little_beyond_their_tokens(tmp_path):
    # 200,000 tokens of 2 to 7 characters. test_line_files_are_read_by_blocks
    # allows 4 reads in flight, about 65 bytes a line of its 4,000 lines;
    # here they come to 1.3 bytes a line, so a waste of a few bytes a line
    # shows. The loader drops about 15 bytes a line beyond what it keeps.
    n = 200_000
    path = tmp_path / "vocab.txt"
    path.write_text("".join(f"t{i}\n" for i in range(n)), encoding="utf-8")
    tracemalloc.start()
    try:
        vocab = load_vocab(str(path), "line-per-token")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(vocab) == n and vocab.tokens[-1] == f"t{n - 1}"
    assert peak - kept < 20 * n


def test_corpus_sample_overhead(tmp_path):
    n = 20000
    path = tmp_path / "corpus.txt"
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"sample {i:06d} " + "x" * (i % 50) + "\n" for i in range(n))
    tracemalloc.start()
    try:
        samples = load_corpus(str(path), "txt")
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    strings = sum(sys.getsizeof(s.text) + sys.getsizeof(s.id) for s in samples)
    # Beyond its two strings a sample keeps its list reference (8 bytes)
    # and a slotted instance (48); an instance __dict__ would add 40 more.
    assert kept - strings < 64 * n


def _analyze_argv(tmp_path):
    """analyze's flags but --corpus: a byte-level BPE source without merges
    and a Unigram target of a few characters."""
    vocab, merges, scores = tmp_path / "v.json", tmp_path / "m.txt", tmp_path / "u.tsv"
    vocab.write_text(json.dumps({BYTE_TO_UNICODE[b]: b for b in range(256)}), encoding="utf-8")
    merges.write_text("#version: none\n", encoding="utf-8")
    scores.write_text("<unk>\t-20\n" + "".join(f"{c}\t-3\n" for c in "\u2581abcdefs"),
                      encoding="utf-8")
    return ["analyze", "--source-vocab", str(vocab), "--source-merges", str(merges),
            "--target-scores", str(scores), "--out", str(tmp_path / "r.json")]


def _corpus_line(i):
    # 10 distinct lines of 36 characters, so the count tables stay small.
    return f"sample {i % 10} " + "abc defs " * 3


def test_analyze_streams_its_corpus(tmp_path):
    # A held sample costs about 200 bytes here (its text, its id, its slotted
    # object and a list slot): 6 MB over the 30,000 lines the long corpus
    # adds. Streamed, the peak does not grow with the lines.
    argv = _analyze_argv(tmp_path)
    peaks = {}
    for n in (2_000, 2_000, 32_000):  # the first run fills the lazy caches
        corpus = tmp_path / f"c{n}.txt"
        corpus.write_text("".join(_corpus_line(i) + "\n" for i in range(n)), encoding="utf-8")
        code, peaks[n] = _traced_peak(cli.run, [*argv, "--corpus", str(corpus)])
        assert code == 0
        assert json.loads((tmp_path / "r.json").read_text())["n_samples"] == n
    assert peaks[32_000] - peaks[2_000] < 4 * (32_000 - 2_000)


def test_streamed_jsonl_corpus_fails_at_its_bad_last_line(tmp_path, capsys):
    n = 2_000
    corpus = tmp_path / "c.jsonl"
    lines = [json.dumps({"text": _corpus_line(i)}) for i in range(n - 1)] + ['{"text": 1}']
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.run([*_analyze_argv(tmp_path), "--corpus", str(corpus), "--format", "jsonl"]) == 1
    assert capsys.readouterr().err == (
        f"vocabport: error: {corpus}:{n}: expected an object with a string 'text'\n"
    )
    assert not (tmp_path / "r.json").exists()


# Traced peak over the VEMB inputs (source, and the aux model for clp and
# clp-plus) plus outputs. The inputs are mapped, which tracemalloc does not
# see, so the peak is the outputs (0.44 of the sum for heuristics and random,
# 0.36 with the aux model) plus blocks. clp and clp-plus keep at most one
# float64 value per support row; clp splits the support one row block at a
# time for each query block, clp-plus only each query's candidates.
# Measured: 0.646, 0.643, 0.471 and 0.475.
_INIT_PEAK_BOUNDS = {"heuristics": 0.67, "random": 0.67, "clp": 0.51, "clp-plus": 0.51}


@pytest.mark.parametrize("method", list(_INIT_PEAK_BOUNDS))
def test_init_peak_close_to_inputs_plus_outputs(small_blocks, monkeypatch, tmp_path, method):
    monkeypatch.setattr(initializers, "_BLOCK_BYTES", 1 << 16)
    inst = build_instance(tmp_path, n_source=2000, n_target=1600, n_overlap=1200, dim=512,
                          aux_dim=512)
    files = inst.source_files
    ins = [files["emb"], files["out_emb"]]
    outs = [str(tmp_path / "out_in.vemb"), str(tmp_path / "out_out.vemb")]
    argv = ["init", "--method", method, "--source-vocab", files["vocab"],
            "--source-emb", files["emb"], "--source-out-emb", files["out_emb"],
            "--target-vocab", inst.target_vocab_file, "--seed", "7",
            "--out-emb", outs[0], "--out-out-emb", outs[1],
            "--report", str(tmp_path / "report.json")]
    if method in ("clp", "clp-plus"):
        argv += ["--aux-vocab", inst.aux_model_files[0], "--aux-emb", inst.aux_model_files[1]]
        ins.append(inst.aux_model_files[1])
    code, peak = _traced_peak(cli.run, argv)
    assert code == 0
    io_bytes = sum(os.path.getsize(p) for p in [*ins, *outs])
    assert peak <= _INIT_PEAK_BOUNDS[method] * io_bytes


_HWM_CHILD = """
import sys
# init imports these (and numpy) on its first run; loaded here, they count
# in the interpreter's own peak, not in the run's.
from vocabport import aux_vectors, cli, initializers

def hwm_kb():
    with open("/proc/self/status", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

before = hwm_kb()
code = cli.run(sys.argv[1:])
print(code, before, hwm_kb())
"""


def _write_random_vemb(path, rows, dim, rng):
    """A VEMB of standard normal rows, written one row block at a time."""
    with open(path, "wb") as f:
        f.write(embedding_store._VEMB_HEADER.pack(b"VEMB", 1, rows, dim, 0))
        for part in embedding_store._row_blocks(rows):
            f.write(rng.standard_normal((len(range(rows)[part]), dim), dtype=np.float32).tobytes())


def _hwm_growth(argv):
    """The bytes by which `cli.run(argv)` raises a fresh child's VmHWM."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _HWM_CHILD, *argv], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    code, before, after = map(int, done.stdout.split())
    assert code == 0
    return (after - before) * 1024


# 16,384 source tokens, every 16th of them a target token; the sizes of the
# mapped-source runs below.
_MAPPED_SOURCE, _MAPPED_DIM = 16384, 1024


def _mapped_source(tmp_path, n_target):
    """Untied source files of _MAPPED_SOURCE x _MAPPED_DIM, 64 MB each, and
    a target vocabulary of every 16th source token plus new ones; returns
    the source matrix paths, the target tokens and the init argv so far."""
    source = [f"\u2581w{i:05d}" for i in range(_MAPPED_SOURCE)]
    target = source[::16] + [f"\u2581n{i:05d}" for i in range(n_target - _MAPPED_SOURCE // 16)]
    for name, tokens in (("src.json", source), ("tgt.json", target)):
        (tmp_path / name).write_text(json.dumps({t: i for i, t in enumerate(tokens)}))
    rng = np.random.default_rng(12)
    ins = [tmp_path / "src_in.vemb", tmp_path / "src_out.vemb"]
    for path in ins:
        _write_random_vemb(path, _MAPPED_SOURCE, _MAPPED_DIM, rng)
    argv = ["--source-vocab", str(tmp_path / "src.json"),
            "--source-emb", str(ins[0]), "--source-out-emb", str(ins[1]),
            "--target-vocab", str(tmp_path / "tgt.json"), "--seed", "3"]
    return ins, target, argv


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_mapped_sources_stay_out_of_peak_rss(tmp_path):
    # tracemalloc cannot see mapped pages, and a child's ru_maxrss carries
    # the RSS its parent had at fork, so the child reads its own VmHWM. The
    # untied source is 2 x 64 MB; every pass releases its pages after each
    # block, so the peak above the interpreter's is the two 8 MB outputs,
    # the token strings and a few blocks, far below inputs plus outputs.
    ins, _, argv = _mapped_source(tmp_path, 2048)
    outs = [tmp_path / "out_in.vemb", tmp_path / "out_out.vemb"]
    grown = _hwm_growth(["init", "--method", "heuristics", *argv,
                         "--out-emb", str(outs[0]), "--out-out-emb", str(outs[1])])
    outputs = sum(os.path.getsize(p) for p in outs)
    inputs = sum(os.path.getsize(p) for p in ins)
    block = embedding_store._BLOCK_ROWS * _MAPPED_DIM * 8  # one float64 block, 8 MB
    assert grown < outputs + 4 * block
    assert grown < (inputs + outputs) / 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_mapped_clp_plus_inputs_stay_out_of_peak_rss(tmp_path):
    # clp-plus reads mapped rows in every pass: the support's norms and
    # screen, each query's candidates, the query gather and the row combine
    # over the source. The aux model's 16,384 x 1,024 VEMB (64 MB) spreads
    # the target tokens over its whole span, every 12th row. The peak above
    # the interpreter's is the outputs, a few row blocks, the engine's
    # cosine and weight blocks of at most _BLOCK_BYTES each and, until
    # scattered gathers stop mapping the span between their rows, the span
    # one gather of a block of rows 16 apart covers. A fault maps far more
    # than 16-page fault-around: of a 250 MiB VEMB, one gather of 100 random
    # rows mapped 150 MiB (ROADMAP item 3). The 1,024-row support norm pass
    # alone raised the peak by 56 MB. Inputs are never held whole.
    ins, target, argv = _mapped_source(tmp_path, 1280)
    aux = [f"\u2581x{i:05d}" for i in range(_MAPPED_SOURCE)]
    aux[::12] = target + aux[12 * len(target) :: 12]
    (tmp_path / "aux.json").write_text(json.dumps({t: i for i, t in enumerate(aux)}))
    ins.append(tmp_path / "aux.vemb")
    _write_random_vemb(ins[-1], _MAPPED_SOURCE, _MAPPED_DIM, np.random.default_rng(13))
    outs = [tmp_path / "out_in.vemb", tmp_path / "out_out.vemb"]
    report = tmp_path / "report.json"
    grown = _hwm_growth(["init", "--method", "clp-plus", *argv,
                         "--aux-vocab", str(tmp_path / "aux.json"), "--aux-emb", str(ins[-1]),
                         "--out-emb", str(outs[0]), "--out-out-emb", str(outs[1]),
                         "--report", str(report)])
    counts = json.loads(report.read_text())
    assert counts["support_size"] == 1024 and counts["similarity_initialized"] == 256
    outputs = sum(os.path.getsize(p) for p in outs)
    inputs = sum(os.path.getsize(p) for p in ins)
    block = embedding_store._BLOCK_ROWS * _MAPPED_DIM * 8
    span = embedding_store._BLOCK_ROWS * 16 * _MAPPED_DIM * 4
    assert grown < outputs + 4 * block + 2 * initializers._BLOCK_BYTES + span
    assert grown < (inputs + outputs) / 2


@pytest.mark.parametrize("certified", [True, False])
@pytest.mark.parametrize("method", ["focus", "clp-plus"])
def test_sparsemax_methods_split_no_whole_support(small_blocks, monkeypatch, recorded_supports,
                                                  tmp_path, method, certified):
    monkeypatch.setattr(initializers, "_BLOCK_BYTES", 1 << 16)
    if not certified:
        monkeypatch.setattr(kernels, "_certified", lambda rest, err, tau: False)
    inst = build_instance(tmp_path, n_source=2000, n_target=1600, n_overlap=1200, dim=64,
                          aux_dim=512)
    model = load_aux_model(*inst.aux_model_files, inst.target_vocab)
    kind = WORD_VECTORS if method == "focus" else AUX_MODEL
    aux = AuxEmbeddings(kind, model.vocab_alignment, model.matrix, model.missing)
    overlap = compute_overlap(inst.source.vocab, inst.target_vocab)
    cfg = InitConfig(method=method, seed=1)
    args = (method, inst.source, inst.target_vocab, overlap, aux, cfg)
    (bundle, report), peak = _traced_peak(initializers._similarity_init, *args)
    support = report.support_size * aux.matrix.cols
    assert report.support_size > 1000 and report.similarity_initialized > 300
    outputs = bundle.input_emb.data.nbytes + bundle.output_emb.data.nbytes
    # One float64 norm a support row, blocks of a few rows and each query's
    # candidates, or one whole-support product per query block: no copy of
    # the whole support.
    if certified:
        assert max(recorded_supports) < report.support_size // 4
    else:
        block_rows = max(1, initializers._BLOCK_BYTES // (8 * report.support_size))
        blocks = -(-report.similarity_initialized // block_rows)
        assert recorded_supports.count(report.support_size) == blocks
    assert peak - outputs < 4 * support


def _letters(i, width):
    # `width` letters, distinct for each i below 26**4.
    return "".join(chr(97 + i // 26**k % 26) for k in range(4)) + "x" * (width - 4)


# corpus -> samples, each one distinct pretoken and a "." that every
# sample repeats; the pretoken is a new string, not the sample itself.
_DISTINCT_CORPORA = {
    "1-char": [CorpusSample(str(i), chr(0x4E00 + i) + ".") for i in range(20_000)],
    "10k-char": [CorpusSample(str(i), _letters(i, 10_000) + ".") for i in range(60)],
}
_COUNT_SPECS = {
    "bpe": make_bpe_spec([], [], full_byte_vocab=True),
    "unigram": make_unigram_spec({".": -1.0}),
}
# Bytes an entry of the pretoken -> count table may take beyond 4 per
# character of its pretoken: a string header (at most 80), an int count
# (32) and its dict slot with its share of a resize (168).
_ENTRY_BYTES = 280


@pytest.mark.parametrize("corpus,engine", [("1-char", "bpe"), ("1-char", "unigram"),
                                           ("10k-char", "bpe")])
def test_count_table_holds_its_budget(monkeypatch, corpus, engine):
    # Every pretoken but "." is new, so a table without a bound would hold
    # the whole corpus: 20,000 entries, or 60 strings of 10,000 characters.
    # The budget keeps at most 512 entries or one long pretoken.
    monkeypatch.setattr(efficiency, "_TABLE_CHARS", 1 << 14)
    samples, spec = _DISTINCT_CORPORA[corpus], _COUNT_SPECS[engine]
    for s in samples:  # fill the pretokenizer's character-class cache
        split_pretokens(s.text)
    _, one = _traced_peak(avg_tokens, spec, samples[:1])  # one sample in flight
    _, peak = _traced_peak(avg_tokens, spec, samples)
    chars = efficiency._TABLE_CHARS
    table = 4 * chars + _ENTRY_BYTES * (chars // efficiency._ENTRY_CHARS)
    assert peak < one + table
