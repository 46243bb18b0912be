"""Output checks run after every timed command.

They are property checks, not digests: a batched similarity engine may
change output bytes, but never these properties.

init:    report counters sum to |target| and equal the generator's split;
         overlap rows are bit-equal to their source rows; every row is
         finite; every similarity row lies coordinatewise within the
         min/max of the support rows (plus a float32 rounding tolerance).
analyze: n_samples and both token totals equal the independently counted
         totals.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from workloads import Workload, read_vemb

COUNTERS = ("copied", "similarity_initialized", "group_sampled", "random_fallback")


def check(w: Workload) -> list[str]:
    """Return the failed properties (empty when the outputs are correct)."""
    try:
        return _check_init(w) if w.expect["kind"] == "init" else _check_analyze(w)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {e!r}"]


def _report(w: Workload) -> dict:
    with open(w.outputs[-1], encoding="utf-8") as f:
        return json.load(f)


def _check_init(w: Workload) -> list[str]:
    e = w.expect
    rep = _report(w)
    bad = []
    if sum(rep[k] for k in COUNTERS) != e["target"]:
        bad.append("report counters do not sum to the target size")
    for k in COUNTERS:
        if rep[k] != e[k]:
            bad.append(f"report {k}={rep[k]}, expected {e[k]}")
    t_ids = np.fromiter(e["pairs"].keys(), dtype=np.int64, count=len(e["pairs"]))
    s_ids = np.fromiter(e["pairs"].values(), dtype=np.int64, count=len(e["pairs"]))
    source_paths = [w.argv[w.argv.index("--source-emb") + 1]]
    if "--source-out-emb" in w.argv:
        source_paths.append(w.argv[w.argv.index("--source-out-emb") + 1])
    for k, (out_path, src_path) in enumerate(zip(w.outputs[:-1], source_paths)):
        out = read_vemb(out_path)
        if out.shape != (e["target"], read_vemb(src_path).shape[1]):
            bad.append(f"{out_path}: shape {out.shape}")
            continue
        if not np.isfinite(out).all():
            bad.append(f"{out_path}: non-finite values")
        src = read_vemb(src_path)
        if not np.array_equal(out[t_ids].view(np.uint32), src[s_ids].view(np.uint32)):
            bad.append(f"{out_path}: overlap rows are not bit-equal to the source rows")
        if "hull" in e:
            lo, hi = e["hull"][k]
            rows = np.asarray(out[e["similarity_ids"]], dtype=np.float64)
            tol = 1e-6 + 1e-5 * np.maximum(np.abs(lo), np.abs(hi))
            if (rows < lo - tol).any() or (rows > hi + tol).any():
                bad.append(f"{out_path}: a similarity row leaves the support hull")
    return bad


def _check_analyze(w: Workload) -> list[str]:
    e = w.expect
    rep = _report(w)
    n = e["n_samples"]
    bad = []
    if rep["n_samples"] != n:
        bad.append(f"n_samples={rep['n_samples']}, expected {n}")
    # The program averages an integer total over n; the same division
    # reproduces the float exactly.
    if rep["avg_tokens_source"] != e["tokens_source"] / n:
        bad.append(f"source tokens={rep['avg_tokens_source'] * n}, expected {e['tokens_source']}")
    if rep["avg_tokens_target"] != e["tokens_target"] / n:
        bad.append(f"target tokens={rep['avg_tokens_target'] * n}, expected {e['tokens_target']}")
    return bad


def digest(paths: list[str]) -> str:
    """One hash over all output files, for byte-identity across runs."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            while chunk := f.read(1 << 22):
                h.update(chunk)
    return h.hexdigest()
