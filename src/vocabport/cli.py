"""Command-line front end.

Exit codes: 0 success, 1 validation error (bad flags, malformed inputs,
configuration), 2 I/O error. Diagnostics go to stderr; machine-readable
output (JSON reports, VEMB matrices, token counts) goes to the declared
paths or stdout only. Reports are emitted with sorted keys so identical
commands reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from dataclasses import fields
from functools import partial

from . import efficiency, tokenizers
from .embedding_store import (
    ModelBundle,
    _numbered_lines,
    _read_utf8,
    load_matrix,
    load_vocab,
    save_matrix,
    sniff_vocab_format,
)
from .errors import ValidationError, VocabportError
from .overlap import CANON_MODES, compute_overlap, overlap_stats


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; flag problems are
    # validation errors here, so re-route them to exit code 1.
    def error(self, message):
        raise ValidationError(message)


# init's InitConfig options by field name: the flag and its argparse
# keywords. InitConfig holds their defaults, so an option not given is
# absent from the namespace; one given that the method does not read is an
# error.
_CONFIG_OPTIONS = {
    "sparsemax_temperature": ("--temperature", {"type": float, "metavar": "TEMPERATURE"}),
    "min_group_size": ("--min-group-size", {"type": int}),
    "missing_aux_policy": ("--missing-aux-policy", {}),
    "clp_raw_weights": ("--clp-raw-weights", {"action": "store_true"}),
    "overlap_canon": ("--canon", {"choices": CANON_MODES}),
}


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads", type=int, default=1,
        help="parallelism hint (>= 1); work runs serially and results never depend on it",
    )
    common.add_argument("--verbose", action="store_true", help="chatty diagnostics on stderr")

    parser = _Parser(prog="vocabport", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", parents=[common], help="initialize target embeddings")
    # InitConfig checks --method and --missing-aux-policy and names the
    # known values; only init imports initializers, and with it numpy.
    p_init.add_argument("--method", required=True)
    p_init.add_argument("--source-vocab", required=True)
    p_init.add_argument("--source-emb", required=True)
    p_init.add_argument("--source-out-emb", help="source output matrix (untied models)")
    p_init.add_argument("--target-vocab", required=True)
    p_init.add_argument("--aux-vocab", help="auxiliary model vocabulary (clp, clp-plus)")
    p_init.add_argument("--aux-emb", help="auxiliary model VEMB matrix (clp, clp-plus)")
    p_init.add_argument("--word-vecs", help="static word-vector text file (focus)")
    p_init.add_argument("--seed", type=int, required=True)
    for dest, (flag, kwargs) in _CONFIG_OPTIONS.items():
        p_init.add_argument(flag, dest=dest, default=argparse.SUPPRESS, **kwargs)
    p_init.add_argument("--out-emb", required=True)
    p_init.add_argument("--out-out-emb", help="target output matrix path (untied models)")
    p_init.add_argument("--report", help="write the init report JSON here")

    p_overlap = sub.add_parser("overlap", parents=[common], help="report vocabulary overlap")
    p_overlap.add_argument("--source-vocab", required=True)
    p_overlap.add_argument("--target-vocab", required=True)
    p_overlap.add_argument("--canon", choices=CANON_MODES, default="exact")
    p_overlap.add_argument("--out", help="report path (default: stdout)")

    p_tok = sub.add_parser("tokenize", parents=[common], help="encode text with a spec")
    p_tok.add_argument("--spec-kind", required=True, choices=("bpe", "unigram"))
    p_tok.add_argument("--vocab", required=True, help="JSON map (bpe) or TSV scores (unigram)")
    p_tok.add_argument("--merges", help="merges file (bpe only)")
    p_tok.add_argument("--text")
    p_tok.add_argument("--file", help="read the text from this file")
    p_tok.add_argument("--count-only", action="store_true")

    p_an = sub.add_parser("analyze", parents=[common], help="compare two tokenizers on a corpus")
    p_an.add_argument("--source-vocab", help="BPE vocab JSON for the source tokenizer")
    p_an.add_argument("--source-merges", help="BPE merges for the source tokenizer")
    p_an.add_argument("--source-scores", help="Unigram TSV for the source tokenizer")
    p_an.add_argument("--target-vocab", help="BPE vocab JSON for the target tokenizer")
    p_an.add_argument("--target-merges", help="BPE merges for the target tokenizer")
    p_an.add_argument("--target-scores", help="Unigram TSV for the target tokenizer")
    p_an.add_argument("--corpus", required=True)
    p_an.add_argument("--format", choices=efficiency.CORPUS_FORMATS, default="txt")
    p_an.add_argument("--per-sample", action="store_true", help="include per-sample counts")
    p_an.add_argument("--out", help="report path (default: stdout)")

    p_stats = sub.add_parser("stats", help="analysis statistics")
    stats_sub = p_stats.add_subparsers(dest="stat", required=True)
    p_kendall = stats_sub.add_parser("kendall", parents=[common])
    p_kendall.add_argument("--x", required=True, help="file with one number per line")
    p_kendall.add_argument("--y", required=True, help="file with one number per line")

    return parser


def emit_report(report, path: str | None) -> None:
    """Write a report as stable-key-ordered JSON (byte-identical reruns);
    to stdout when `path` is None."""
    _print_json(report.to_dict(), path)


def _write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _print_json(obj, path: str | None) -> None:
    if path is None:
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    else:
        _write_all([(path, partial(_write_json, obj))])


def _write_all(outputs) -> None:
    """Write an output set all-or-nothing: for each (path, write) pair,
    write(temp) fills a temp file beside the path's real target (so a link
    keeps pointing at the updated file); the temps replace their targets
    only after every write has succeeded, and are deleted if one failed."""
    temps: list[tuple[str, str]] = []
    try:
        for path, write in outputs:
            real = os.path.realpath(path)
            temp = _reserve_temp(real)
            temps.append((temp, real))
            write(temp)
        for temp, real in temps:
            os.replace(temp, real)
    except BaseException:
        for temp, _ in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)
        raise


def _reserve_temp(real: str) -> str:
    # Mode "x" creates the file with the permissions a direct write would
    # give it, and never takes over an existing file.
    for n in itertools.count():
        temp = f"{real}.{os.getpid()}-{n}.tmp"
        try:
            open(temp, "xb").close()
            return temp
        except FileExistsError:
            continue


def _load_any_vocab(path: str):
    return load_vocab(path, sniff_vocab_format(path))


def _flag_value(args, flag: str):
    return getattr(args, flag[2:].replace("-", "_"))


def _check_paths(args, inputs: tuple[str, ...], outputs: tuple[str, ...]) -> None:
    # Validate every path flag before any work starts, so a bad output
    # location cannot leave partial results behind and no output can
    # overwrite an input or another output. An empty value is a path too:
    # an empty input is not found, and an empty output is refused by name.
    def given(flags):
        values = [(flag, _flag_value(args, flag)) for flag in flags]
        return [(flag, path) for flag, path in values if path is not None]

    for flag, path in given(outputs):
        if not path:
            raise ValidationError(f"{flag} is an empty path")
    for _, path in given(inputs):
        if not os.path.isfile(path):
            raise FileNotFoundError(f"input file not found: {path}")
    claimed = {os.path.realpath(path): flag for flag, path in given(inputs)}
    for flag, path in given(outputs):
        parent = os.path.dirname(os.path.abspath(path)) or "."
        if not os.path.isdir(parent):
            raise FileNotFoundError(f"output directory does not exist: {parent}")
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path is a directory: {path}")
        real = os.path.realpath(path)
        if real in claimed:
            raise ValidationError(f"{claimed[real]} and {flag} name the same file: {path}")
        claimed[real] = flag


def _cmd_init(args) -> int:
    from . import aux_vectors, initializers

    # Aux vectors by kind (`initializers.METHOD_SPECS` names each method's):
    # the flags locating them and a loader of (paths..., target vocab).
    aux_inputs = {
        aux_vectors.AUX_MODEL: (("--aux-vocab", "--aux-emb"), aux_vectors.load_aux_model),
        aux_vectors.WORD_VECTORS: (("--word-vecs",), aux_vectors.load_word_vectors),
    }
    # Option values first, then which options and flags the method reads,
    # then paths; files load last.
    cfg = initializers.InitConfig(
        **{f.name: getattr(args, f.name) for f in fields(initializers.InitConfig)
           if hasattr(args, f.name)}
    )
    spec = initializers.METHOD_SPECS[cfg.method]
    for name, (flag, _) in _CONFIG_OPTIONS.items():
        if hasattr(args, name) and name not in spec.reads:
            raise ValidationError(f"{flag} is not read by --method {cfg.method}")
    aux_flags, load_aux = aux_inputs.get(spec.aux, ((), None))
    for flag in aux_flags:
        if _flag_value(args, flag) is None:
            raise ValidationError(f"{flag} is required for --method {cfg.method}")
    for flag in (f for flags, _ in aux_inputs.values() for f in flags if f not in aux_flags):
        if _flag_value(args, flag) is not None:
            raise ValidationError(f"{flag} is not read by --method {cfg.method}")
    if args.source_out_emb is not None and args.out_out_emb is None:
        raise ValidationError("--out-out-emb is required when --source-out-emb is given")
    if args.out_out_emb is not None and args.source_out_emb is None:
        raise ValidationError("--out-out-emb given but the source model is tied")
    _check_paths(
        args,
        ("--source-vocab", "--source-emb", "--source-out-emb", "--target-vocab", *aux_flags),
        ("--out-emb", "--out-out-emb", "--report"),
    )

    source = ModelBundle(
        vocab=_load_any_vocab(args.source_vocab),
        input_emb=load_matrix(args.source_emb),
        output_emb=load_matrix(args.source_out_emb) if args.source_out_emb is not None else None,
    )
    # Checked again inside init_target_bundle; this copy fails before the
    # target vocabulary and the aux files load.
    initializers._check_source(source)
    target_vocab = _load_any_vocab(args.target_vocab)
    aux = None
    if load_aux is not None:
        aux = load_aux(*(_flag_value(args, flag) for flag in aux_flags), target_vocab)

    bundle, report = initializers.init_target_bundle(source, target_vocab, cfg, aux=aux)
    outputs = [(args.out_emb, partial(save_matrix, bundle.input_emb))]
    if bundle.output_emb is not None:
        outputs.append((args.out_out_emb, partial(save_matrix, bundle.output_emb)))
    if args.report is not None:
        outputs.append((args.report, partial(_write_json, report.to_dict())))
    _write_all(outputs)
    if args.verbose:
        print(
            f"initialized {len(target_vocab)} rows: {report.copied} copied, "
            f"{report.similarity_initialized} similarity, "
            f"{report.group_sampled} group-sampled, "
            f"{report.random_fallback} random",
            file=sys.stderr,
        )
    return 0


def _cmd_overlap(args) -> int:
    _check_paths(args, ("--source-vocab", "--target-vocab"), ("--out",))
    source = _load_any_vocab(args.source_vocab)
    target = _load_any_vocab(args.target_vocab)
    m = compute_overlap(source, target, args.canon)
    stats = overlap_stats(m)
    stats["sample_pairs"] = [
        [target.tokens[t], source.tokens[s]] for t, s in sorted(m.pairs.items())[:10]
    ]
    _print_json(stats, args.out)
    return 0


def _build_spec(kind: str, vocab: str | None, merges: str | None, scores: str | None):
    if kind == "bpe":
        return tokenizers.load_bpe_spec(vocab, merges)
    return tokenizers.load_unigram_spec(scores)


def _spec_kind(args, vocab: str, merges: str, scores: str) -> str:
    """The kind of spec the given flags choose: Unigram if `scores` is
    given, else BPE if `merges` is. A BPE spec reads `vocab` and `merges`, a
    Unigram spec `scores`; a flag the kind does not read is an error, not
    ignored."""
    given = {flag for flag in (vocab, merges, scores) if _flag_value(args, flag) is not None}
    if scores in given:
        kind = "unigram"
    elif merges in given:
        kind = "bpe"
    else:
        raise ValidationError(f"{merges} (bpe) or {scores} (unigram) is required")
    reads = (vocab, merges) if kind == "bpe" else (scores,)
    for flag in (vocab, merges, scores):
        if flag in given and flag not in reads:
            raise ValidationError(f"{flag} is not read by a {kind} spec")
    if kind == "bpe" and vocab not in given:
        raise ValidationError(f"{vocab} and {merges} are required for a BPE spec")
    return kind


def _cmd_tokenize(args) -> int:
    if (args.text is None) == (args.file is None):
        raise ValidationError("exactly one of --text or --file is required")
    if args.spec_kind == "bpe" and args.merges is None:
        raise ValidationError("--merges is required for --spec-kind bpe")
    if args.spec_kind == "unigram" and args.merges is not None:
        raise ValidationError("--merges is not read by a unigram spec")
    _check_paths(args, ("--vocab", "--merges", "--file"), ())
    # --vocab names the JSON map of a BPE spec or the TSV of a Unigram one.
    spec = _build_spec(args.spec_kind, args.vocab, args.merges, args.vocab)
    if args.text is not None:
        text = args.text
    else:
        text = _read_utf8(args.file)
    ids = tokenizers.encode(spec, text)
    print(len(ids) if args.count_only else json.dumps(ids))
    return 0


def _cmd_analyze(args) -> int:
    source_kind = _spec_kind(args, "--source-vocab", "--source-merges", "--source-scores")
    target_kind = _spec_kind(args, "--target-vocab", "--target-merges", "--target-scores")
    _check_paths(
        args,
        ("--source-vocab", "--source-merges", "--source-scores", "--target-vocab",
         "--target-merges", "--target-scores", "--corpus"),
        ("--out",),
    )
    source_spec = _build_spec(
        source_kind, args.source_vocab, args.source_merges, args.source_scores
    )
    target_spec = _build_spec(
        target_kind, args.target_vocab, args.target_merges, args.target_scores
    )
    # The samples are counted as they are read; the corpus is never held.
    report = efficiency.analyze_corpus(
        source_spec,
        target_spec,
        efficiency._corpus_samples(args.corpus, args.format),
        corpus_id=os.path.basename(args.corpus),
        include_per_sample=args.per_sample,
    )
    emit_report(report, args.out)
    if args.verbose:
        print(
            f"{report.n_samples} samples: {report.avg_tokens_source:.3f} -> "
            f"{report.avg_tokens_target:.3f} tokens ({report.speedup_pct:+.2f}%)",
            file=sys.stderr,
        )
    return 0


def _read_numbers(path: str) -> list[float]:
    values = []
    for lineno, line in _numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: {line!r} is not a number") from None
        if not math.isfinite(value):
            raise ValidationError(f"{path}:{lineno}: {line!r} is not a finite number")
        values.append(value)
    return values


def _cmd_stats(args) -> int:
    _check_paths(args, ("--x", "--y"), ())
    tau = efficiency.kendall_tau(_read_numbers(args.x), _read_numbers(args.y))
    print(repr(tau))
    return 0


_COMMANDS = {
    "init": _cmd_init,
    "overlap": _cmd_overlap,
    "tokenize": _cmd_tokenize,
    "analyze": _cmd_analyze,
    "stats": _cmd_stats,
}


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise ValidationError("--threads must be >= 1")
        return _COMMANDS[args.command](args)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except (VocabportError, ValueError) as e:
        print(f"vocabport: error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"vocabport: i/o error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
