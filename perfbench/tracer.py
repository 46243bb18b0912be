"""Traced run: the CLI command with timers around vocabport's public functions.

    python perfbench/tracer.py SPANS.json RUN_ID -- <vocabport CLI args>

Each listed function is wrapped once, and every vocabport module attribute
that refers to it is replaced by the wrapper, so the wrapper runs wherever
the package looks the name up (`initializers.convex_combine`,
`script_groups.classify_token`, `tokenizers.split_pretokens`,
`cli.load_matrix`, ...). Spans stay in memory and are written when the run
ends. The program's own files are not changed.

`per_layer_metrics` turns a spans file into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import threading
import time

# Functions to time, by defining module. Layers are the package modules.
TRACED = {
    "cli": ["run"],
    "embedding_store": ["load_vocab", "sniff_vocab_format", "load_matrix", "save_matrix",
                        "validate_bundle"],
    "aux_vectors": ["load_aux_model", "load_word_vectors"],
    "overlap": ["compute_overlap"],
    "script_groups": ["classify_token", "group_statistics"],
    "kernels": ["convex_combine", "sparsemax"],
    "initializers": ["init_target_bundle", "init_random", "init_clp", "init_focus",
                     "init_clp_plus", "init_heuristics"],
    "tokenizers": ["split_pretokens", "byte_level_pretokenize", "bpe_encode", "unigram_encode",
                   "count_tokens", "load_bpe_spec", "load_unigram_spec"],
    "efficiency": ["load_corpus", "analyze_corpus"],
}
# Spans that also record the rise in peak RSS across the call.
RSS_SPANS = {"embedding_store.load_matrix", "aux_vectors.load_word_vectors",
             "aux_vectors.load_aux_model", "script_groups.group_statistics"}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _save_bytes(args, kwargs):
    m = args[0]
    return {"bytes": m.rows * m.cols * 4}


def _combine_attrs(args, kwargs):
    w, rows = args[0], args[1]
    n = int(w.ids.size)
    return {"rows": n, "nonzero": int((w.weights != 0.0).sum()), "bytes": n * rows.cols * 4}


def _text_bytes(args, kwargs):
    return {"bytes": len(args[0].encode("utf-8"))}


# Attributes computed from the arguments, outside the timed interval.
ARG_ATTRS = {
    "embedding_store.load_matrix": _file_bytes,
    "aux_vectors.load_word_vectors": _file_bytes,
    "embedding_store.save_matrix": _save_bytes,
    "kernels.convex_combine": _combine_attrs,
    "tokenizers.split_pretokens": _text_bytes,
}


def _aux_attrs(result):
    return {"aligned": len(result.vocab_alignment), "materialized": int(result.matrix.rows)}


RESULT_ATTRS = {"aux_vectors.load_word_vectors": _aux_attrs,
                "aux_vectors.load_aux_model": _aux_attrs}


class Recorder:
    """Collects spans [id, parent, name, start, end, rss_gain_kb, attrs]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        arg_attrs = ARG_ATTRS.get(name)
        result_attrs = RESULT_ATTRS.get(name)
        track_rss = name in RSS_SPANS
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            attrs = arg_attrs(args, kwargs) if arg_attrs else None
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [None]
            span = [len(spans), stack[-1], name, 0.0, 0.0, None, attrs]
            spans.append(span)
            stack.append(span[0])
            rss0 = _maxrss_kb() if track_rss else 0
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if track_rss:
                span[5] = _maxrss_kb() - rss0
            if result_attrs:
                span[6] = dict(attrs or {}, **result_attrs(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"vocabport.{m}") for m in TRACED}
        originals = {}
        for mod, names in TRACED.items():
            for fn_name in names:
                fn = getattr(modules[mod], fn_name)
                originals[id(fn)] = self.wrap(f"{mod}.{fn_name}", fn)
        import vocabport

        every = [vocabport] + [m for m in sys.modules.values()
                               if getattr(m, "__name__", "").startswith("vocabport.")]
        for m in every:
            for attr, value in list(vars(m).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(m, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id,
                       "fields": ["id", "parent", "name", "start", "end", "rss_gain_kb", "attrs"],
                       "spans": self.spans}, f)


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json RUN_ID -- <vocabport args>")
    rec = Recorder(run_id)
    rec.install()
    from vocabport import cli

    try:
        return cli.run(cli_args)
    finally:
        rec.dump(spans_path)


# ---------------------------------------------------------------- analysis


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += s[4] - s[3]
    return [s[4] - s[3] - c for s, c in zip(spans, child)]


def per_layer_metrics(path: str, untraced_wall_s: float, traced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from a spans file, plus a summary for the detail block.

    A span's self time is its duration minus its direct children's (one
    thread, so children never overlap). A layer's self time sums its spans'.
    Metrics of layers that did not run are 0.
    """
    with open(path, encoding="utf-8") as f:
        spans = json.load(f)["spans"]
    self_s = _self_times(spans)
    by_name: dict[str, dict] = {}
    layer_self: dict[str, float] = {}
    for s, own in zip(spans, self_s):
        d = by_name.setdefault(s[2], {"calls": 0, "s": 0.0, "self_s": 0.0, "rss_gain_kb": 0,
                                      "attrs": {}})
        d["calls"] += 1
        d["s"] += s[4] - s[3]
        d["self_s"] += own
        d["rss_gain_kb"] += s[5] or 0
        for k, v in (s[6] or {}).items():
            d["attrs"][k] = d["attrs"].get(k, 0) + v
        layer = s[2].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    def attr(name, key):
        return by_name.get(name, {}).get("attrs", {}).get(key, 0)

    def rate_mb(name):
        s = get(name, "s")
        return attr(name, "bytes") / s / 1e6 if s else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    aux = "aux_vectors.load_word_vectors" if "aux_vectors.load_word_vectors" in by_name \
        else "aux_vectors.load_aux_model"
    m = {
        "kernels.convex_combine.calls": get("kernels.convex_combine", "calls"),
        "kernels.convex_combine.s": get("kernels.convex_combine", "s"),
        "kernels.convex_combine.gathered_mb": attr("kernels.convex_combine", "bytes") / 1e6,
        "kernels.convex_combine.nonzero_ratio": ratio(attr("kernels.convex_combine", "nonzero"),
                                                      attr("kernels.convex_combine", "rows")),
        "kernels.sparsemax.calls": get("kernels.sparsemax", "calls"),
        "kernels.sparsemax.s": get("kernels.sparsemax", "s"),
        "initializers.init_target_bundle.s": get("initializers.init_target_bundle", "s"),
        "initializers.self_s": layer_self.get("initializers", 0.0),
        "aux_vectors.load_word_vectors.s": get("aux_vectors.load_word_vectors", "s"),
        "aux_vectors.load_word_vectors.mb_per_s": rate_mb("aux_vectors.load_word_vectors"),
        "aux_vectors.load_word_vectors.rss_gain_mb":
            get("aux_vectors.load_word_vectors", "rss_gain_kb") / 1024,
        "aux_vectors.rows_used_ratio": ratio(attr(aux, "aligned"), attr(aux, "materialized")),
        "aux_vectors.load_aux_model.s": get("aux_vectors.load_aux_model", "s"),
        "embedding_store.load_matrix.s": get("embedding_store.load_matrix", "s"),
        "embedding_store.load_matrix.mb_per_s": rate_mb("embedding_store.load_matrix"),
        "embedding_store.load_matrix.rss_gain_mb":
            get("embedding_store.load_matrix", "rss_gain_kb") / 1024,
        "embedding_store.save_matrix.s": get("embedding_store.save_matrix", "s"),
        "embedding_store.save_matrix.mb_per_s": rate_mb("embedding_store.save_matrix"),
        "embedding_store.load_vocab.s": get("embedding_store.load_vocab", "s"),
        "script_groups.group_statistics.s": get("script_groups.group_statistics", "s"),
        "script_groups.group_statistics.rss_gain_mb":
            get("script_groups.group_statistics", "rss_gain_kb") / 1024,
        "script_groups.classify_token.calls": get("script_groups.classify_token", "calls"),
        "script_groups.classify_token.s": get("script_groups.classify_token", "s"),
        "overlap.compute_overlap.s": get("overlap.compute_overlap", "s"),
        "tokenizers.split_pretokens.calls": get("tokenizers.split_pretokens", "calls"),
        "tokenizers.split_pretokens.s": get("tokenizers.split_pretokens", "s"),
        "tokenizers.split_pretokens.mb_per_s": rate_mb("tokenizers.split_pretokens"),
        "tokenizers.bpe_encode.self_s": get("tokenizers.bpe_encode", "self_s"),
        "tokenizers.unigram_encode.self_s": get("tokenizers.unigram_encode", "self_s"),
        "tokenizers.load_bpe_spec.s": get("tokenizers.load_bpe_spec", "s"),
        "tokenizers.load_unigram_spec.s": get("tokenizers.load_unigram_spec", "s"),
        "efficiency.load_corpus.s": get("efficiency.load_corpus", "s"),
        "efficiency.analyze_corpus.self_s": get("efficiency.analyze_corpus", "self_s"),
        "cli.run.s": get("cli.run", "s"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.overhead_pct": 100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s,
    }
    run_s = get("cli.run", "s")
    summary = {
        "spans": len(spans),
        "layer_self_s": layer_self,
        "layer_share_of_cli_run": {k: ratio(v, run_s) for k, v in layer_self.items()},
        "top_self_s": sorted(((n, d["self_s"]) for n, d in by_name.items()),
                             key=lambda x: -x[1])[:6],
    }
    return m, summary


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
