import json
import os
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import G, build_instance

from vocabport import cli, embedding_store
from vocabport.aux_vectors import AUX_MODEL, WORD_VECTORS, load_aux_model, load_word_vectors
from vocabport.cli import emit_report, run
from vocabport.efficiency import EfficiencyReport
from vocabport.embedding_store import (
    EmbeddingMatrix, ModelBundle, Vocabulary, load_matrix, save_matrix,
)
from vocabport.initializers import (
    METHOD_SPECS, METHODS, MISSING_AUX_POLICIES, InitConfig, InitReport, init_target_bundle,
)


def _write_tiny_bpe(tmp_path):
    vocab = {c: i for i, c in enumerate("abc")}
    vocab.update({"ab": 3, "abc": 4, G: 5})
    vocab_path = tmp_path / "bpe_vocab.json"
    vocab_path.write_text(json.dumps(vocab, ensure_ascii=False))
    merges_path = tmp_path / "merges.txt"
    merges_path.write_text("a b\nab c\n")
    return str(vocab_path), str(merges_path)


def _write_char_bpe(tmp_path, name="char"):
    from vocabport.tokenizers import BYTE_TO_UNICODE

    vocab = {BYTE_TO_UNICODE[b]: b for b in range(256)}
    vocab_path = tmp_path / f"{name}_vocab.json"
    vocab_path.write_text(json.dumps(vocab, ensure_ascii=False))
    merges_path = tmp_path / f"{name}_merges.txt"
    merges_path.write_text("#version: none\n")
    return str(vocab_path), str(merges_path)


class TestTokenizeCommand:
    def test_count_only_prints_count(self, tmp_path, capsys):
        vocab, merges = _write_tiny_bpe(tmp_path)
        code = run(
            ["tokenize", "--spec-kind", "bpe", "--vocab", vocab, "--merges", merges,
             "--text", "abc", "--count-only"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_ids_output(self, tmp_path, capsys):
        vocab, merges = _write_tiny_bpe(tmp_path)
        code = run(
            ["tokenize", "--spec-kind", "bpe", "--vocab", vocab, "--merges", merges,
             "--text", "ba"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == [1, 0]

    def test_file_input(self, tmp_path, capsys):
        vocab, merges = _write_tiny_bpe(tmp_path)
        doc = tmp_path / "doc.txt"
        doc.write_text("abc")
        code = run(
            ["tokenize", "--spec-kind", "bpe", "--vocab", vocab, "--merges", merges,
             "--file", str(doc), "--count-only"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_unigram_spec(self, tmp_path, capsys):
        tsv = tmp_path / "u.tsv"
        tsv.write_text("a\t-1.0\nb\t-1.0\nab\t-1.5\n<unk>\t-9.0\n")
        code = run(
            ["tokenize", "--spec-kind", "unigram", "--vocab", str(tsv),
             "--text", "ab", "--count-only"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_bpe_without_merges_rejected_before_the_vocab_loads(self, tmp_path, capsys):
        # Loading the missing vocab first would exit 2 with an i/o error.
        vocab = str(tmp_path / "absent.json")
        code = run(["tokenize", "--spec-kind", "bpe", "--vocab", vocab, "--text", "ab"])
        assert code == 1
        assert "--merges is required for --spec-kind bpe" in capsys.readouterr().err

    def test_merges_with_a_unigram_spec_is_exit_1(self, tmp_path, capsys):
        # A Unigram spec reads no merges file, so the flag is an error rather
        # than ignored, whatever it names.
        tsv = tmp_path / "u.tsv"
        tsv.write_text("a\t-1.0\nb\t-1.0\n<unk>\t-9.0\n")
        code = run(["tokenize", "--spec-kind", "unigram", "--vocab", str(tsv),
                    "--merges", str(tmp_path / "nonexistent"), "--text", "ab ba"])
        assert code == 1
        assert capsys.readouterr().err == (
            "vocabport: error: --merges is not read by a unigram spec\n"
        )

    def test_missing_text_and_file(self, tmp_path, capsys):
        vocab, merges = _write_tiny_bpe(tmp_path)
        code = run(["tokenize", "--spec-kind", "bpe", "--vocab", vocab, "--merges", merges])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestInitCommand:
    @pytest.mark.parametrize(
        "method,missing",
        [("clp", "--aux-vocab"), ("clp-plus", "--aux-emb"), ("focus", "--word-vecs")],
        ids=["clp", "clp-plus", "focus"],
    )
    def test_missing_aux_flag_is_exit_1(self, tmp_path, capsys, method, missing):
        inst = build_instance(tmp_path, n_source=30, n_target=20, n_overlap=10, dim=4)
        aux = {
            "--aux-vocab": inst.aux_model_files[0],
            "--aux-emb": inst.aux_model_files[1],
            "--word-vecs": inst.word_vec_file,
        }
        del aux[missing]
        argv = ["init", "--method", method,
                "--source-vocab", inst.source_files["vocab"],
                "--source-emb", inst.source_files["emb"],
                "--source-out-emb", inst.source_files["out_emb"],
                "--target-vocab", inst.target_vocab_file,
                "--seed", "42",
                "--out-emb", str(tmp_path / "o.vemb"),
                "--out-out-emb", str(tmp_path / "oo.vemb")]
        for flag, path in aux.items():
            argv += [flag, path]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"vocabport: error: {missing} is required for --method {method}\n"

    @pytest.mark.parametrize(
        "method,unread",
        [("clp-plus", "--word-vecs"), ("focus", "--aux-emb"), ("clp", "--word-vecs"),
         ("random", "--aux-vocab"), ("heuristics", "--aux-emb"), ("heuristics", "--word-vecs")],
    )
    @pytest.mark.parametrize("exists", [True, False])
    def test_unread_aux_flag_is_exit_1(self, tmp_path, capsys, method, unread, exists):
        # Only the method's own aux flags are path-checked; a flag it does not
        # read is refused whether or not its file exists, never silently dropped.
        inst = build_instance(tmp_path, n_source=30, n_target=20, n_overlap=10, dim=4)
        paths = {"--aux-vocab": inst.aux_model_files[0], "--aux-emb": inst.aux_model_files[1],
                 "--word-vecs": inst.word_vec_file}
        own = {"clp": ["--aux-vocab", "--aux-emb"], "clp-plus": ["--aux-vocab", "--aux-emb"],
               "focus": ["--word-vecs"]}.get(method, [])
        out = tmp_path / "o.vemb"
        argv = ["init", "--method", method,
                "--source-vocab", inst.source_files["vocab"],
                "--source-emb", inst.source_files["emb"],
                "--target-vocab", inst.target_vocab_file,
                "--seed", "1", "--out-emb", str(out),
                unread, paths[unread] if exists else str(tmp_path / "nonexistent")]
        for flag in own:
            argv += [flag, paths[flag]]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"vocabport: error: {unread} is not read by --method {method}\n"
        assert not out.exists()

    def test_non_finite_word_vector_is_exit_1(self, tmp_path, capsys):
        # The token on the bad line is not in the target vocabulary.
        inst = build_instance(tmp_path, n_source=30, n_target=20, n_overlap=10, dim=4)
        vec = Path(inst.word_vec_file)
        lines = vec.read_text().splitlines()
        lines.append("unused " + " ".join(["1e39"] + ["0"] * 11))
        vec.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.vemb"
        code = run(
            ["init", "--method", "focus",
             "--source-vocab", inst.source_files["vocab"],
             "--source-emb", inst.source_files["emb"],
             "--source-out-emb", inst.source_files["out_emb"],
             "--target-vocab", inst.target_vocab_file,
             "--word-vecs", str(vec),
             "--seed", "42",
             "--out-emb", str(out),
             "--out-out-emb", str(tmp_path / "oo.vemb")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{vec}:{len(lines)}: non-finite vector value" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,message",
        [(["--seed", "-1"], "seed must be an unsigned 64-bit integer"),
         (["--temperature", "0"], "sparsemax temperature must be > 0"),
         (["--temperature", "1e-300"], "sparsemax temperature must be >= 2**-53"),
         (["--min-group-size", "0"], "min group size must be >= 1"),
         (["--method", "bogus"], f"unknown method 'bogus'; expected one of {METHODS}"),
         (["--missing-aux-policy", "bogus"],
          f"unknown missing-aux policy 'bogus'; expected one of {MISSING_AUX_POLICIES}")],
        ids=["seed", "temperature", "temperature-floor", "min-group-size", "method",
             "missing-aux-policy"],
    )
    def test_options_checked_before_inputs_load(self, tmp_path, capsys, option, message):
        inst = build_instance(tmp_path, n_source=10, n_target=8, n_overlap=4, dim=4, untied=False)
        bad_emb = tmp_path / "bad.vemb"
        bad_emb.write_bytes(b"NOPE" + bytes(24))
        out = tmp_path / "o.vemb"
        code = run(
            ["init", "--method", "heuristics",
             "--source-vocab", inst.source_files["vocab"],
             "--source-emb", str(bad_emb),
             "--target-vocab", inst.target_vocab_file,
             "--seed", "1",
             "--out-emb", str(out)] + option
        )
        assert code == 1
        assert capsys.readouterr().err == f"vocabport: error: {message}\n"
        assert not out.exists()

    def test_init_options_left_out_keep_init_config_defaults(self):
        # An option not given is absent from the namespace, so InitConfig's
        # own default applies; a given one lands on its field name.
        parser = cli._build_parser()
        argv = ["init", "--method", "random", "--source-vocab", "v", "--source-emb", "e",
                "--target-vocab", "t", "--seed", "1", "--out-emb", "o"]
        optional = [f.name for f in fields(InitConfig) if f.default is not MISSING]
        args = parser.parse_args(argv)
        assert [name for name in optional if hasattr(args, name)] == []
        args = parser.parse_args(argv + [
            "--temperature", "0.5", "--min-group-size", "3", "--missing-aux-policy", "error",
            "--clp-raw-weights", "--canon", "marker-normalized",
        ])
        assert {name: getattr(args, name) for name in optional} == {
            "sparsemax_temperature": 0.5,
            "min_group_size": 3,
            "missing_aux_policy": "error",
            "clp_raw_weights": True,
            "overlap_canon": "marker-normalized",
        }

    def test_full_run_writes_outputs(self, tmp_path):
        inst = build_instance(tmp_path, n_source=40, n_target=30, n_overlap=15, dim=4)
        out = tmp_path / "out.vemb"
        out_out = tmp_path / "out_out.vemb"
        report = tmp_path / "report.json"
        code = run(
            ["init", "--method", "clp-plus",
             "--source-vocab", inst.source_files["vocab"],
             "--source-emb", inst.source_files["emb"],
             "--source-out-emb", inst.source_files["out_emb"],
             "--target-vocab", inst.target_vocab_file,
             "--aux-vocab", inst.aux_model_files[0],
             "--aux-emb", inst.aux_model_files[1],
             "--seed", "42",
             "--out-emb", str(out), "--out-out-emb", str(out_out),
             "--report", str(report)]
        )
        assert code == 0
        m = load_matrix(str(out))
        assert (m.rows, m.cols) == (30, 4)
        payload = json.loads(report.read_text())
        assert set(payload) == {f.name for f in fields(InitReport)}
        assert payload["copied"] == 15
        counters = (
            payload["copied"] + payload["similarity_initialized"]
            + payload["group_sampled"] + payload["random_fallback"]
        )
        assert counters == 30

    def test_seed_required(self, tmp_path, capsys):
        inst = build_instance(tmp_path, n_source=10, n_target=8, n_overlap=4, dim=4)
        code = run(
            ["init", "--method", "random",
             "--source-vocab", inst.source_files["vocab"],
             "--source-emb", inst.source_files["emb"],
             "--target-vocab", inst.target_vocab_file,
             "--out-emb", str(tmp_path / "o.vemb")]
        )
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_untied_needs_out_out_emb(self, tmp_path, capsys):
        inst = build_instance(tmp_path, n_source=10, n_target=8, n_overlap=4, dim=4)
        code = run(
            ["init", "--method", "random",
             "--source-vocab", inst.source_files["vocab"],
             "--source-emb", inst.source_files["emb"],
             "--source-out-emb", inst.source_files["out_emb"],
             "--target-vocab", inst.target_vocab_file,
             "--seed", "7",
             "--out-emb", str(tmp_path / "o.vemb")]
        )
        assert code == 1
        assert "--out-out-emb" in capsys.readouterr().err

    def test_paths_validated_before_any_output_is_written(self, tmp_path, capsys):
        inst = build_instance(tmp_path, n_source=10, n_target=8, n_overlap=4, dim=4)
        out = tmp_path / "o.vemb"
        code = run(
            ["init", "--method", "random",
             "--source-vocab", inst.source_files["vocab"],
             "--source-emb", inst.source_files["emb"],
             "--target-vocab", inst.target_vocab_file,
             "--seed", "1",
             "--out-emb", str(out),
             "--report", str(tmp_path / "missing_dir" / "r.json")]
        )
        assert code == 2
        assert not out.exists()  # nothing was written before the failure

    def test_missing_input_file_is_exit_2(self, tmp_path, capsys):
        code = run(
            ["init", "--method", "random",
             "--source-vocab", str(tmp_path / "nope.json"),
             "--source-emb", str(tmp_path / "nope.vemb"),
             "--target-vocab", str(tmp_path / "nope2.json"),
             "--seed", "1",
             "--out-emb", str(tmp_path / "o.vemb")]
        )
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_invalid_source_bundle_fails_before_aux_files_load(self, tmp_path, capsys):
        inst = build_instance(tmp_path, n_source=10, n_target=8, n_overlap=4, dim=4, untied=False)
        save_matrix(EmbeddingMatrix(np.zeros((9, 4), dtype=np.float32)), inst.source_files["emb"])
        bad_aux = tmp_path / "bad_aux.vemb"
        bad_aux.write_bytes(b"not a matrix")
        out = tmp_path / "o.vemb"
        code = run(
            ["init", "--method", "clp",
             "--source-vocab", inst.source_files["vocab"],
             "--source-emb", inst.source_files["emb"],
             "--target-vocab", inst.target_vocab_file,
             "--aux-vocab", inst.aux_model_files[0],
             "--aux-emb", str(bad_aux),
             "--seed", "1",
             "--out-emb", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid source bundle: input matrix has 9 rows for 10 tokens" in err
        assert "bad_aux" not in err
        assert not out.exists()


class TestOutputCollisions:
    """An output may name neither an input nor another output of the same run."""

    @pytest.mark.parametrize(
        "first,second",
        [("--out-emb", "--out-out-emb"), ("--out-emb", "--report"),
         ("--source-emb", "--out-emb"), ("--source-out-emb", "--out-out-emb")],
    )
    def test_init(self, tmp_path, capsys, first, second):
        inst = build_instance(tmp_path, n_source=10, n_target=8, n_overlap=4, dim=4)
        paths = {
            "--source-vocab": inst.source_files["vocab"],
            "--source-emb": inst.source_files["emb"],
            "--source-out-emb": inst.source_files["out_emb"],
            "--target-vocab": inst.target_vocab_file,
            "--out-emb": str(tmp_path / "a.vemb"),
            "--out-out-emb": str(tmp_path / "b.vemb"),
            "--report": str(tmp_path / "r.json"),
        }
        shared = paths[second] = paths[first]
        if not os.path.exists(shared):
            Path(shared).write_bytes(b"existing output")
        before = Path(shared).read_bytes()
        argv = ["init", "--method", "heuristics", "--seed", "901"]
        for flag, path in paths.items():
            argv += [flag, path]
        assert run(argv) == 1
        assert f"{first} and {second} name the same file: {shared}" in capsys.readouterr().err
        assert Path(shared).read_bytes() == before
        for flag in ("--out-emb", "--out-out-emb", "--report"):
            assert paths[flag] == shared or not os.path.exists(paths[flag])

    def test_analyze_out_is_corpus(self, tmp_path, capsys):
        vocab, merges = _write_char_bpe(tmp_path)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("abc\n")
        code = run(
            ["analyze", "--source-vocab", vocab, "--source-merges", merges,
             "--target-vocab", vocab, "--target-merges", merges,
             "--corpus", str(corpus), "--out", str(corpus)]
        )
        assert code == 1
        assert "--corpus and --out name the same file" in capsys.readouterr().err
        assert corpus.read_bytes() == b"abc\n"

    @pytest.mark.parametrize("via_symlink", [False, True])
    def test_overlap_out_is_source_vocab(self, tmp_path, capsys, via_symlink):
        src = tmp_path / "s.txt"
        src.write_text("a\nb\n")
        tgt = tmp_path / "t.txt"
        tgt.write_text("b\nc\n")
        out = src
        if via_symlink:
            out = tmp_path / "link.json"
            out.symlink_to(src)
        code = run(["overlap", "--source-vocab", str(src), "--target-vocab", str(tgt),
                    "--out", str(out)])
        assert code == 1
        assert f"--source-vocab and --out name the same file: {out}" in capsys.readouterr().err
        assert src.read_bytes() == b"a\nb\n"

    def test_overlap_paths_checked_before_loading(self, tmp_path, capsys):
        src = tmp_path / "s.txt"
        src.write_text("a\n")
        code = run(["overlap", "--source-vocab", str(src),
                    "--target-vocab", str(tmp_path / "missing.txt"),
                    "--out", str(tmp_path / "no_dir" / "o.json")])
        assert code == 2
        assert "input file not found" in capsys.readouterr().err


def _half_written(obj, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("{")
    raise OSError("No space left on device")


class TestOutputSets:
    """Outputs go to temp files beside their targets and replace them only
    once every output of the run has been written."""

    @staticmethod
    def _init_argv(inst, tmp_path):
        return ["init", "--method", "heuristics",
                "--source-vocab", inst.source_files["vocab"],
                "--source-emb", inst.source_files["emb"],
                "--source-out-emb", inst.source_files["out_emb"],
                "--target-vocab", inst.target_vocab_file,
                "--seed", "901",
                "--out-emb", str(tmp_path / "o.vemb"),
                "--out-out-emb", str(tmp_path / "oo.vemb"),
                "--report", str(tmp_path / "r.json")]

    @pytest.mark.parametrize("earlier_exists", [False, True])
    def test_failed_report_write_leaves_no_partial_set(
        self, tmp_path, capsys, monkeypatch, earlier_exists
    ):
        inst = build_instance(tmp_path, n_source=10, n_target=8, n_overlap=4, dim=4)
        out = tmp_path / "o.vemb"
        if earlier_exists:
            out.write_bytes(b"previous run")
        before = sorted(os.listdir(tmp_path))
        monkeypatch.setattr(cli, "_write_json", _half_written)
        assert run(self._init_argv(inst, tmp_path)) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before  # no temp file, no new output
        if earlier_exists:
            assert out.read_bytes() == b"previous run"

    def test_failed_overlap_write_keeps_the_old_report(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "s.txt"
        src.write_text("a\nb\n")
        out = tmp_path / "o.json"
        out.write_text("{}\n")
        monkeypatch.setattr(cli, "_write_json", _half_written)
        assert run(["overlap", "--source-vocab", str(src), "--target-vocab", str(src),
                    "--out", str(out)]) == 2
        assert sorted(os.listdir(tmp_path)) == ["o.json", "s.txt"]
        assert out.read_text() == "{}\n"

    def test_symlinked_output_updates_its_target(self, tmp_path):
        inst = build_instance(tmp_path, n_source=10, n_target=8, n_overlap=4, dim=4)
        argv = self._init_argv(inst, tmp_path)
        assert run(argv) == 0
        expected = (tmp_path / "o.vemb").read_bytes()
        store = tmp_path / "store"
        store.mkdir()
        (store / "o.vemb").write_bytes(b"stale")
        (tmp_path / "o.vemb").unlink()
        (tmp_path / "o.vemb").symlink_to(store / "o.vemb")
        assert run(argv) == 0
        assert (tmp_path / "o.vemb").is_symlink()
        assert (store / "o.vemb").read_bytes() == expected
        assert sorted(os.listdir(store)) == ["o.vemb"]

    def test_new_output_has_the_default_file_mode(self, tmp_path):
        inst = build_instance(tmp_path, n_source=10, n_target=8, n_overlap=4, dim=4)
        assert run(self._init_argv(inst, tmp_path)) == 0
        umask = os.umask(0)
        os.umask(umask)
        for name in ("o.vemb", "oo.vemb", "r.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask


_COSINE_DIGEST = """
import hashlib, sys
from vocabport.embedding_store import EmbeddingMatrix, load_matrix, save_matrix
from vocabport.kernels import SupportCosines
rows = load_matrix(sys.argv[1]).data
cos, _ = SupportCosines(rows[:300])(rows[300:])
print(hashlib.sha256(cos.tobytes()).hexdigest())
"""


# init's InitConfig options: the arguments of a value other than the
# default, that value as an InitConfig field, and for an option that takes
# a value, the default spelled out.
_OPTION_VALUES = {
    "--temperature": (["2"], 2.0, ["1.0"]),
    "--min-group-size": (["1000"], 1000, ["10"]),
    "--missing-aux-policy": (["error"], "error", ["random-fallback"]),
    "--clp-raw-weights": ([], True, None),
    "--canon": (["marker-normalized"], "marker-normalized", ["exact"]),
}
_FIELD_OF = {flag: name for name, (flag, _) in cli._CONFIG_OPTIONS.items()}


def _write_option_instance(tmp_path):
    """A tied source of 30 Latin word-initial tokens and a target vocabulary
    on which every option a method reads can change the outcome: 10 exact
    matches; "▁w10", which matches the source's "Ġw10" only
    under marker normalization; 8 target-only tokens, which group-sample
    for heuristics unless the group minimum exceeds 30; and "Ġnovec",
    the one target token with no aux vector. Aux vectors are random, so
    queries have negative cosines. Returns the init argv without --method,
    the aux flags by kind, and the inputs as library objects."""
    rng = np.random.default_rng(26)
    words = [f"w{i:02d}" for i in range(30)]
    source = Vocabulary([G + w for w in words])
    target = Vocabulary([G + w for w in words[:10]] + ["▁" + words[10]]
                        + [f"{G}new{i}" for i in range(8)] + [G + "novec"])
    with_vecs = target.tokens[:-1]
    vecs = rng.normal(size=(len(with_vecs), 4)).astype(np.float32)
    paths = {name: str(tmp_path / name) for name in
             ("src.json", "src.vemb", "tgt.json", "aux.json", "aux.vemb", "w.vec")}
    for name, vocab in (("src.json", source), ("tgt.json", target)):
        Path(paths[name]).write_text(json.dumps({t: i for i, t in enumerate(vocab.tokens)}))
    Path(paths["aux.json"]).write_text(json.dumps({t: i for i, t in enumerate(with_vecs)}))
    src_emb = EmbeddingMatrix(rng.normal(size=(30, 6)).astype(np.float32))
    save_matrix(src_emb, paths["src.vemb"])
    save_matrix(EmbeddingMatrix(vecs), paths["aux.vemb"])
    Path(paths["w.vec"]).write_text(f"{len(with_vecs)} 4\n" + "".join(
        t + " " + " ".join(repr(float(v)) for v in row) + "\n" for t, row in zip(with_vecs, vecs)))
    argv = ["--source-vocab", paths["src.json"], "--source-emb", paths["src.vemb"],
            "--target-vocab", paths["tgt.json"], "--seed", "5"]
    aux_flags = {
        AUX_MODEL: ["--aux-vocab", paths["aux.json"], "--aux-emb", paths["aux.vemb"]],
        WORD_VECTORS: ["--word-vecs", paths["w.vec"]],
        None: [],
    }
    aux = {
        AUX_MODEL: load_aux_model(paths["aux.json"], paths["aux.vemb"], target),
        WORD_VECTORS: load_word_vectors(paths["w.vec"], target),
        None: None,
    }
    return argv, aux_flags, ModelBundle(vocab=source, input_emb=src_emb), target, aux


class TestMethodOptions:
    """Each method accepts exactly the InitConfig options it reads:
    METHOD_SPECS' `reads`, the table the CLI checks options against."""

    def _init(self, tmp_path, capsys, argv, name):
        out, report = tmp_path / f"{name}.vemb", tmp_path / f"{name}.json"
        code = run(["init", *argv, "--out-emb", str(out), "--report", str(report)])
        err = capsys.readouterr().err
        if code:
            assert not out.exists() and not report.exists()
            return code, err
        return code, out.read_bytes(), report.read_bytes()

    @pytest.mark.parametrize("option", list(_OPTION_VALUES))
    @pytest.mark.parametrize("method", METHODS)
    def test_an_option_changes_the_outcome_or_is_exit_1(self, tmp_path, capsys, method, option):
        argv, aux_flags, source, target, aux = _write_option_instance(tmp_path)
        spec = METHOD_SPECS[method]
        argv += ["--method", method, *aux_flags[spec.aux]]
        name = _FIELD_OF[option]
        given = self._init(tmp_path, capsys, argv + [option, *_OPTION_VALUES[option][0]], "given")
        default = self._init(tmp_path, capsys, argv, "default")
        assert default[0] == 0
        if name in spec.reads:
            if option == "--missing-aux-policy":
                assert given == (1, "vocabport: error: token 'Ġnovec' (id 19) has no "
                                    "auxiliary vector\n")
            else:
                assert given[0] == 0 and given[1:] != default[1:]
        else:
            assert given == (1, f"vocabport: error: {option} is not read by --method {method}\n")
            # The method really does not read it: the library, which does
            # not check, gives the same bytes with the option set.
            cfg = InitConfig(method, 5)
            changed = replace(cfg, **{name: _OPTION_VALUES[option][1]})
            (a, a_report), (b, b_report) = (
                init_target_bundle(source, target, c, aux=aux[spec.aux]) for c in (cfg, changed))
            assert a.input_emb.data.tobytes() == b.input_emb.data.tobytes()
            assert a_report.to_dict() == b_report.to_dict()

    @pytest.mark.parametrize("method,option", [
        (method, option) for method in METHODS for option, (*_, default) in _OPTION_VALUES.items()
        if default is not None and _FIELD_OF[option] not in METHOD_SPECS[method].reads
    ])
    def test_an_unread_option_at_its_default_is_exit_1(self, tmp_path, capsys, method, option):
        argv, aux_flags, *_ = _write_option_instance(tmp_path)
        argv += ["--method", method, *aux_flags[METHOD_SPECS[method].aux],
                 option, *_OPTION_VALUES[option][2]]
        assert self._init(tmp_path, capsys, argv, "o") == (
            1, f"vocabport: error: {option} is not read by --method {method}\n")

    def test_every_option_is_covered(self):
        assert set(_OPTION_VALUES) == set(_FIELD_OF)
        pairs = sum(len(spec.reads) for spec in METHOD_SPECS.values())
        assert pairs == 11


def test_init_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 400 queries x 300 support rows: enough for OpenBLAS to split the
    # similarity products, the float32 screen of focus and clp-plus among
    # them, over two threads. The screen's candidates may differ between 1
    # and 2 threads; the bytes may not. The cosine digest is checked too,
    # because float32 output rows hide most last-bit differences.
    inst = build_instance(tmp_path, n_source=600, n_target=700, n_overlap=300, dim=16)
    src = str(Path(__file__).resolve().parents[1] / "src")
    # Target-only tokens without a word vector are sampled, not weighted.
    sampled = [t for t in inst.missing_word_vec_ids if "tgt" in inst.target_vocab.tokens[t]]
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs["digest", threads] = subprocess.run(
            [sys.executable, "-c", _COSINE_DIGEST, inst.aux_model_files[1]],
            env=env, check=True, capture_output=True, text=True, timeout=60,
        ).stdout
        for method in ("clp", "focus", "clp-plus"):
            aux = (["--word-vecs", inst.word_vec_file] if method == "focus" else
                   ["--aux-vocab", inst.aux_model_files[0], "--aux-emb", inst.aux_model_files[1]])
            paths = [tmp_path / f"{method}_{name}_{threads}"
                     for name in ("in.vemb", "out.vemb", "r.json")]
            subprocess.run(
                [sys.executable, "-m", "vocabport", "init", "--method", method,
                 "--source-vocab", inst.source_files["vocab"],
                 "--source-emb", inst.source_files["emb"],
                 "--source-out-emb", inst.source_files["out_emb"],
                 "--target-vocab", inst.target_vocab_file, *aux,
                 "--seed", "42",
                 "--out-emb", str(paths[0]), "--out-out-emb", str(paths[1]),
                 "--report", str(paths[2])],
                env=env, check=True, capture_output=True, timeout=60,
            )
            outputs[method, threads] = [p.read_bytes() for p in paths]
    for method in ("clp", "focus", "clp-plus"):
        queries = 400 - len(sampled) if method == "focus" else 400
        assert json.loads(outputs[method, "1"][2])["similarity_initialized"] == queries
        assert outputs[method, "1"] == outputs[method, "2"], method
    assert outputs["digest", "1"] == outputs["digest", "2"]


# Runs each argv list of argv[2] (JSON) through cli.run, in order, stopping
# at the first non-zero exit; with argv[1] == "blocked", importing numpy fails.
_CLI_CHILD = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from vocabport.cli import run
for argv in json.loads(sys.argv[2]):
    code = run(argv)
    if code:
        sys.exit(code)
"""


def test_commands_without_numpy_match_a_normal_run(tmp_path):
    # analyze, tokenize, overlap and stats never touch a matrix, so they
    # run where numpy cannot be imported, and print the same bytes.
    vocab, merges = _write_tiny_bpe(tmp_path)
    char_vocab, char_merges = _write_char_bpe(tmp_path)
    tsv = tmp_path / "u.tsv"
    tsv.write_text("a\t-1.0\nb\t-1.0\nab\t-1.5\n\u2581ab\t-2.0\n<unk>\t-9.0\n")
    corpus = tmp_path / "c.txt"
    corpus.write_text("abc ab\nabz\n")
    words = tmp_path / "w.txt"
    words.write_text("a\nab\nz\n")
    x, y = tmp_path / "x.txt", tmp_path / "y.txt"
    x.write_text("1\n2\n3\n4\n")
    y.write_text("1\n3\n2\n5\n")
    commands = [
        ["analyze", "--source-vocab", char_vocab, "--source-merges", char_merges,
         "--target-scores", str(tsv), "--corpus", str(corpus), "--per-sample"],
        ["tokenize", "--spec-kind", "bpe", "--vocab", vocab, "--merges", merges,
         "--text", "abc abc"],
        ["tokenize", "--spec-kind", "unigram", "--vocab", str(tsv), "--text", "ab abz"],
        ["overlap", "--source-vocab", str(tsv), "--target-vocab", str(words)],
        ["stats", "kendall", "--x", str(x), "--y", str(y)],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = {}
    for mode in ("normal", "blocked"):
        done = subprocess.run(
            [sys.executable, "-c", _CLI_CHILD, mode, json.dumps(commands)],
            env=env, capture_output=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b""), done.stderr.decode()
        out[mode] = done.stdout
    assert out["blocked"] == out["normal"]
    # One JSON report each from analyze and overlap, among the other lines.
    assert out["normal"].count(b'"corpus_id": "c.txt"') == 1
    assert b'"overlap_count": 2' in out["normal"]


# Runs init with argv[3:] after cutting the VEMB at argv[1] to argv[2]
# bytes, once the run has loaded it and starts to fill the target rows.
_TRUNCATING_CHILD = """
import resource, sys
from vocabport import cli, initializers
resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
path, size = sys.argv[1], int(sys.argv[2])
fill = initializers._TargetRows.__init__

def truncated_then_fill(self, *args, **kwargs):
    with open(path, "r+b") as f:
        f.truncate(size)
    fill(self, *args, **kwargs)

initializers._TargetRows.__init__ = truncated_then_fill
sys.exit(cli.run(sys.argv[3:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="SIGBUS on a cut mapping")
@pytest.mark.xfail(strict=True, reason="a mapped input cut during a run raises SIGBUS until "
                   "VEMB rows are read by positioned reads, not through a mapping")
def test_source_truncated_during_init_is_a_located_error(tmp_path):
    # Another process cuts the source to its header and one row after load.
    # The run should fail as any bad input does: exit 1, the path named,
    # no output left.
    inst = build_instance(tmp_path, n_source=400, n_target=300, n_overlap=200, dim=64)
    files = inst.source_files
    outs = [tmp_path / "out_in.vemb", tmp_path / "out_out.vemb"]
    argv = ["init", "--method", "heuristics", "--source-vocab", files["vocab"],
            "--source-emb", files["emb"], "--source-out-emb", files["out_emb"],
            "--target-vocab", inst.target_vocab_file, "--seed", "1",
            "--out-emb", str(outs[0]), "--out-out-emb", str(outs[1])]
    size = embedding_store._VEMB_HEADER.size + 64 * 4
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _TRUNCATING_CHILD, files["emb"], str(size), *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.returncode
    assert files["emb"] in done.stderr
    assert not any(p.exists() for p in outs)


class TestOverlapCommand:
    def test_report_fields(self, tmp_path, capsys):
        src = tmp_path / "s.txt"
        src.write_text("a\nb\n")
        tgt = tmp_path / "t.txt"
        tgt.write_text("b\nc\n")
        code = run(["overlap", "--source-vocab", str(src), "--target-vocab", str(tgt)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overlap_count"] == 1
        assert payload["non_overlap_count"] == 1
        assert payload["overlap_fraction"] == 0.5
        assert payload["sample_pairs"] == [["b", "b"]]


class TestAnalyzeCommand:
    def test_report_file_parses(self, tmp_path):
        src_vocab, src_merges = _write_char_bpe(tmp_path, "src")
        tgt_vocab, tgt_merges = _write_tiny_bpe(tmp_path)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("abc\nabc abc\n")
        out = tmp_path / "report.json"
        code = run(
            ["analyze",
             "--source-vocab", src_vocab, "--source-merges", src_merges,
             "--target-vocab", tgt_vocab, "--target-merges", tgt_merges,
             "--corpus", str(corpus), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {f.name for f in fields(EfficiencyReport)} - {"per_sample"}
        assert payload["n_samples"] == 2
        assert payload["avg_tokens_source"] == 5.0  # 3 and 7 chars
        assert payload["avg_tokens_target"] == 2.0  # [abc] and [abc][Ġ, abc]
        assert payload["speedup_pct"] == pytest.approx(
            100 * (payload["avg_tokens_source"] - payload["avg_tokens_target"])
            / payload["avg_tokens_target"]
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        src_vocab, src_merges = _write_char_bpe(tmp_path, "src")
        tgt_vocab, tgt_merges = _write_tiny_bpe(tmp_path)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("abc\n")
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        argv = [
            "analyze",
            "--source-vocab", src_vocab, "--source-merges", src_merges,
            "--target-vocab", tgt_vocab, "--target-merges", tgt_merges,
            "--corpus", str(corpus),
        ]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_does_not_depend_on_corpus_directory(self, tmp_path):
        src_vocab, src_merges = _write_char_bpe(tmp_path, "src")
        tgt_vocab, tgt_merges = _write_tiny_bpe(tmp_path)
        reports = []
        for where in ("a", "b/c"):
            corpus = tmp_path / where / "corpus.txt"
            corpus.parent.mkdir(parents=True)
            corpus.write_text("abc\nabc abc\n")
            out = tmp_path / where / "r.json"
            assert run(
                ["analyze",
                 "--source-vocab", src_vocab, "--source-merges", src_merges,
                 "--target-vocab", tgt_vocab, "--target-merges", tgt_merges,
                 "--corpus", str(corpus), "--out", str(out)]
            ) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["corpus_id"] == "corpus.txt"

    def test_jsonl_corpus(self, tmp_path):
        src_vocab, src_merges = _write_char_bpe(tmp_path, "src")
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"text": "ab", "id": "s1"}\n{"text": "abcd"}\n')
        out = tmp_path / "r.json"
        code = run(
            ["analyze",
             "--source-vocab", src_vocab, "--source-merges", src_merges,
             "--target-vocab", src_vocab, "--target-merges", src_merges,
             "--corpus", str(corpus), "--format", "jsonl",
             "--per-sample", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {f.name for f in fields(EfficiencyReport)}
        assert payload["speedup_pct"] == 0.0
        assert payload["per_sample"][0] == {"id": "s1", "tokens_source": 2, "tokens_target": 2}

    def test_both_merges_and_scores_rejected(self, tmp_path, capsys):
        src_vocab, src_merges = _write_char_bpe(tmp_path, "src")
        corpus = tmp_path / "c.txt"
        corpus.write_text("x\n")
        code = run(
            ["analyze",
             "--source-vocab", src_vocab, "--source-merges", src_merges,
             "--source-scores", "also.tsv",
             "--target-vocab", src_vocab, "--target-merges", src_merges,
             "--corpus", str(corpus)]
        )
        assert code == 1

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_vocab_with_a_unigram_spec_is_exit_1(self, tmp_path, capsys, side):
        # The same rule as tokenize's: a Unigram side reads only its scores.
        vocab, merges = _write_char_bpe(tmp_path)
        scores = tmp_path / "u.tsv"
        scores.write_text("a\t-1.0\n<unk>\t-9.0\n")
        corpus = tmp_path / "c.txt"
        corpus.write_text("a\n")
        other = "target" if side == "source" else "source"
        code = run(["analyze", f"--{side}-scores", str(scores), f"--{side}-vocab", vocab,
                    f"--{other}-vocab", vocab, f"--{other}-merges", merges,
                    "--corpus", str(corpus)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"vocabport: error: --{side}-vocab is not read by a unigram spec\n"
        )

    @pytest.mark.parametrize("source", ["merges", "scores"])
    def test_bpe_side_without_vocab_rejected_before_any_spec_loads(
        self, tmp_path, capsys, monkeypatch, source
    ):
        from vocabport import tokenizers

        loads = []
        for name in ("load_bpe_spec", "load_unigram_spec"):
            monkeypatch.setattr(tokenizers, name, lambda *a, name=name: loads.append(name))
        src_vocab, src_merges = _write_char_bpe(tmp_path, "src")
        scores = tmp_path / "u.tsv"
        scores.write_text("a\t-1.0\n")
        corpus = tmp_path / "c.txt"
        corpus.write_text("x\n")
        source_flags = (["--source-vocab", src_vocab, "--source-merges", src_merges]
                        if source == "merges" else ["--source-scores", str(scores)])
        code = run(["analyze", *source_flags, "--target-merges", src_merges,
                    "--corpus", str(corpus)])
        assert code == 1
        assert "--target-vocab and --target-merges are required for a BPE spec" in (
            capsys.readouterr().err
        )
        assert loads == []

    def test_spec_fault_is_reported_before_a_later_bad_line(self, tmp_path, capsys):
        # The corpus is counted as it is read, so the pass stops at the first
        # sample the target cannot encode and never reaches the bad line.
        src_vocab, src_merges = _write_char_bpe(tmp_path, "src")
        tgt_vocab, tgt_merges = _write_tiny_bpe(tmp_path)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"text": "abc"}\n{"text": "a~"}\n[]\n')
        code = run(
            ["analyze",
             "--source-vocab", src_vocab, "--source-merges", src_merges,
             "--target-vocab", tgt_vocab, "--target-merges", tgt_merges,
             "--corpus", str(corpus), "--format", "jsonl"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "symbol '~' has no id" in err and "c.jsonl:3" not in err


@pytest.mark.parametrize("bad", ["missing", "directory"])
@pytest.mark.parametrize("command,flag", [
    ("tokenize", "--vocab"), ("tokenize", "--merges"), ("tokenize", "--file"),
    ("kendall", "--x"), ("kendall", "--y"),
])
def test_tokenize_and_kendall_inputs_checked_before_loading(tmp_path, capsys, command, flag,
                                                            bad):
    # As init, overlap and analyze do: the path is named, not an errno.
    vocab, merges = _write_tiny_bpe(tmp_path)
    numbers = tmp_path / "x.txt"
    numbers.write_text("1\n2\n")
    if command == "tokenize":
        argv = ["tokenize", "--spec-kind", "bpe", "--count-only"]
        paths = {"--vocab": vocab, "--merges": merges, "--file": str(numbers)}
    else:
        argv = ["stats", "kendall"]
        paths = {"--x": str(numbers), "--y": str(numbers)}
    paths[flag] = str(tmp_path / "absent") if bad == "missing" else str(tmp_path)
    for name, path in paths.items():
        argv += [name, path]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"vocabport: i/o error: input file not found: {paths[flag]}\n"


def _path_flag_argvs(tmp_path):
    """Argvs that succeed and, between them, give every path flag of every
    command a value."""
    inst = build_instance(tmp_path, n_source=10, n_target=8, n_overlap=4, dim=4)
    vocab, merges = _write_char_bpe(tmp_path)
    scores = tmp_path / "u.tsv"
    scores.write_text("a\t-1.0\nb\t-1.0\n<unk>\t-9.0\n")
    text = tmp_path / "t.txt"
    text.write_text("ab\n")
    numbers = tmp_path / "n.txt"
    numbers.write_text("1\n2\n3\n")
    out = str(tmp_path / "out.json")
    init = ["init", "--source-vocab", inst.source_files["vocab"],
            "--source-emb", inst.source_files["emb"],
            "--source-out-emb", inst.source_files["out_emb"],
            "--target-vocab", inst.target_vocab_file, "--seed", "1",
            "--out-emb", str(tmp_path / "o.vemb"), "--out-out-emb", str(tmp_path / "oo.vemb"),
            "--report", out]
    return [
        [*init, "--method", "heuristics"],
        [*init, "--method", "clp", "--aux-vocab", inst.aux_model_files[0],
         "--aux-emb", inst.aux_model_files[1]],
        [*init, "--method", "focus", "--word-vecs", inst.word_vec_file],
        ["overlap", "--source-vocab", inst.source_files["vocab"],
         "--target-vocab", inst.target_vocab_file, "--out", out],
        ["tokenize", "--spec-kind", "bpe", "--vocab", vocab, "--merges", merges,
         "--file", str(text), "--count-only"],
        ["analyze", "--source-vocab", vocab, "--source-merges", merges,
         "--target-scores", str(scores), "--corpus", str(text), "--out", out],
        ["analyze", "--source-scores", str(scores), "--target-vocab", vocab,
         "--target-merges", merges, "--corpus", str(text), "--out", out],
        ["stats", "kendall", "--x", str(numbers), "--y", str(numbers)],
    ]


_OUTPUT_FLAGS = ("--out-emb", "--out-out-emb", "--report", "--out")


@pytest.mark.parametrize("command,flag", [
    *(("init", flag) for flag in ("--source-vocab", "--source-emb", "--source-out-emb",
                                  "--target-vocab", "--aux-vocab", "--aux-emb", "--word-vecs",
                                  "--out-emb", "--out-out-emb", "--report")),
    ("overlap", "--source-vocab"), ("overlap", "--target-vocab"), ("overlap", "--out"),
    ("tokenize", "--vocab"), ("tokenize", "--merges"), ("tokenize", "--file"),
    *(("analyze", flag) for flag in ("--source-vocab", "--source-merges", "--source-scores",
                                     "--target-vocab", "--target-merges", "--target-scores",
                                     "--corpus", "--out")),
    ("stats", "--x"), ("stats", "--y"),
])
def test_an_empty_path_is_refused(tmp_path, capsys, command, flag):
    # An empty input is not found (exit 2); an empty output is refused by
    # name (exit 1). Either way the run writes nothing.
    argv = next(a for a in _path_flag_argvs(tmp_path) if a[0] == command and flag in a)
    assert run(argv) == 0
    for path in tmp_path.iterdir():
        if path.name in ("o.vemb", "oo.vemb", "out.json"):
            path.unlink()
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    argv[argv.index(flag) + 1] = ""
    if flag in _OUTPUT_FLAGS:
        assert run(argv) == 1
        assert capsys.readouterr().err == f"vocabport: error: {flag} is an empty path\n"
    else:
        assert run(argv) == 2
        assert capsys.readouterr().err == "vocabport: i/o error: input file not found: \n"
    assert sorted(tmp_path.iterdir()) == before


class TestStatsCommand:
    def test_kendall(self, tmp_path, capsys):
        x = tmp_path / "x.txt"
        x.write_text("1\n2\n3\n")
        y = tmp_path / "y.txt"
        y.write_text("3\n2\n1\n")
        code = run(["stats", "kendall", "--x", str(x), "--y", str(y)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "-1.0"

    def test_undefined_is_exit_1(self, tmp_path, capsys):
        x = tmp_path / "x.txt"
        x.write_text("1\n1\n")
        y = tmp_path / "y.txt"
        y.write_text("1\n2\n")
        assert run(["stats", "kendall", "--x", str(x), "--y", str(y)]) == 1

    def test_nan_is_exit_1(self, tmp_path, capsys):
        x = tmp_path / "x.txt"
        x.write_text("1\nnan\n3\n")
        y = tmp_path / "y.txt"
        y.write_text("1\n2\n3\n")
        assert run(["stats", "kendall", "--x", str(x), "--y", str(y)]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "-inf", "1e999"])
    def test_non_finite_value_names_its_file_and_line(self, tmp_path, capsys, bad):
        # The blank line 2 is skipped, so the value is y[1] but on line 3.
        x = tmp_path / "x.txt"
        x.write_text("1\n2\n3\n")
        y = tmp_path / "y.txt"
        y.write_text(f"1\n\n{bad}\n4\n")
        assert run(["stats", "kendall", "--x", str(x), "--y", str(y)]) == 1
        assert capsys.readouterr().err == (
            f"vocabport: error: {y}:3: {bad!r} is not a finite number\n"
        )

    def test_invalid_utf8_names_the_file(self, tmp_path, capsys):
        x = tmp_path / "bad.txt"
        x.write_bytes(b"1\n\xff\n")
        y = tmp_path / "y.txt"
        y.write_text("1\n2\n")
        assert run(["stats", "kendall", "--x", str(x), "--y", str(y)]) == 1
        assert "bad.txt: invalid UTF-8 at byte offset 2" in capsys.readouterr().err

    def test_flags_go_after_kendall(self, tmp_path, capsys):
        # `stats` takes no flags of its own, so none given before `kendall`
        # can be dropped in favour of kendall's defaults.
        x = tmp_path / "x.txt"
        x.write_text("1\n2\n")
        files = ["--x", str(x), "--y", str(x)]
        assert run(["stats", "--threads", "0", "kendall", *files]) == 1
        assert run(["stats", "--verbose", "kendall", *files]) == 1
        assert run(["stats", "kendall", "--threads", "0", *files]) == 1
        assert "--threads must be >= 1" in capsys.readouterr().err
        assert run(["stats", "kendall", "--threads", "2", "--verbose", *files]) == 0


class TestEmitReport:
    def test_init_report_totals(self, tmp_path):
        report = InitReport(
            method="clp", copied=5, similarity_initialized=3,
            group_sampled=1, random_fallback=1,
        )
        path = tmp_path / "r.json"
        emit_report(report, str(path))
        payload = json.loads(path.read_text())
        total = (
            payload["copied"] + payload["similarity_initialized"]
            + payload["group_sampled"] + payload["random_fallback"]
        )
        assert total == 10
        assert list(payload) == sorted(payload)

    def test_efficiency_report_round_trip(self, tmp_path):
        report = EfficiencyReport(
            corpus_id="c", n_samples=2, avg_tokens_source=5.0,
            avg_tokens_target=2.0, speedup_pct=150.0,
        )
        path = tmp_path / "r.json"
        emit_report(report, str(path))
        emit_report(report, str(path))  # idempotent rewrite
        assert json.loads(path.read_text())["speedup_pct"] == 150.0

    def test_write_to_directory_is_io_error(self, tmp_path):
        report = InitReport(method="random")
        with pytest.raises(OSError):
            emit_report(report, str(tmp_path))


class TestGlobalFlags:
    def test_bad_threads(self, tmp_path, capsys):
        src = tmp_path / "s.txt"
        src.write_text("a\n")
        code = run(
            ["overlap", "--threads", "0", "--source-vocab", str(src),
             "--target-vocab", str(src)]
        )
        assert code == 1
        code = run(
            ["init", "--threads", "0", "--method", "random", "--source-vocab", str(src),
             "--source-emb", str(src), "--target-vocab", str(src), "--seed", "1",
             "--out-emb", str(tmp_path / "out.vemb")]
        )
        assert code == 1
        assert "--threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out.vemb").exists()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "vocabport" in capsys.readouterr().out
        assert run(["init", "--help"]) == 0
        assert "--missing-aux-policy" in capsys.readouterr().out

    def test_unknown_command_is_exit_1(self, capsys):
        assert run(["frobnicate"]) == 1
