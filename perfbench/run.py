"""vocabport benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It generates the workload's inputs
from --seed (untimed), then runs the real CLI, `python -m vocabport ...`,
in fresh child processes, one at a time, at the CLI default --threads 1,
each pinned to one core while a thread here times a fixed chunk of Python
on that same core; times are scaled to a reference core speed (CoreSpeed).

--trace 0  prints the end-to-end metrics, measured from outside with
           tracing off: the median over repeated commands run for about S
           seconds, and the set-up time from separate load-only children.
--trace 1  prints the per-layer metrics of one traced command, plus the
           tracing overhead against untraced commands run for about S
           seconds.

Every command's outputs are checked (checks.py); a non-zero exit, a timeout
or a failed check counts as a failed run. The last stdout line is the
result JSON; the line before it is a detail block with the machine, the
input shapes and every sample.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
RESULTS = ROOT / ".perfbench" / "results"

SETUP_REPS = 3  # set-up children per run; setup_s is their median
MIN_REPS = 3  # timed commands per run, at least; also the byte-identity sample
CHILD_TIMEOUT_S = 60.0
# One BLAS thread, like the CLI's default --threads 1. On a 2-core host a
# second BLAS thread saved ~7% wall on init-clp-plus but tripled the
# run-to-run spread (IQR/median 0.156 vs 0.052, interleaved commands).
BLAS_THREADS = 1
# Core-speed scaling. On a shared host the core a command runs on switches
# between two speeds about 1.8x apart, every second or so, and whole minutes
# run slow (README, "Run-to-run noise"). A thread in this process, pinned to
# the child's core, times a fixed chunk of Python every SPEED_EVERY_S; on
# workloads whose time follows the core's speed (Workload.core_bound) each
# command's times are multiplied by SPEED_REF_S / (mean chunk time during the
# command). On interleaved commands this cut the spread (CV) of analyze-mixed
# from 0.119 to 0.041 and of init-focus-vec from 0.110 to 0.034.
SPEED_EVERY_S = 0.05
# About the median chunk time on the 2-vCPU Xeon VM the bounds were set on
# (120-250 us seen), so scaled times stay close to raw ones there.
SPEED_REF_S = 170e-6


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _speed_chunk() -> None:
    d: dict[str, int] = {}
    for i in range(400):
        k = "ab" + str(i % 97)
        d[k] = d.get(k, 0) + 1


class CoreSpeed:
    """Pins the calling thread, and so the children it starts, to one core and
    times _speed_chunk on that core until exit.

    Each sample is the thread CPU time of a second, warm pass, so neither
    waiting for the core nor caches the child evicted count.
    """

    def __enter__(self) -> "CoreSpeed":
        self.saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.saved)})
        self.samples: list[float] = []
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._sample)
        self.thread.start()
        return self

    def _sample(self) -> None:
        while True:
            _speed_chunk()
            t = time.thread_time()
            _speed_chunk()
            self.samples.append(time.thread_time() - t)
            if self.stop.wait(SPEED_EVERY_S):
                return

    def __exit__(self, *exc) -> None:
        self.stop.set()
        self.thread.join()
        os.sched_setaffinity(0, self.saved)

    def scale(self) -> float:
        return SPEED_REF_S / statistics.mean(self.samples)


def run_child(cmd: list[str], log: Path, pin: bool = True, scaled: bool = True) -> dict:
    """Run one child to completion; wall from spawn to reap, CPU and peak RSS from wait4.

    With `pin`, the child runs under CoreSpeed and core_scale is its factor;
    with `scaled` too, wall_s/cpu_s are scaled by it. raw_wall_s/raw_cpu_s
    are as measured.
    """
    with open(log, "wb") as err, (CoreSpeed() if pin else contextlib.nullcontext()) as speed:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                             stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = rc = os.waitstatus_to_exitcode(status)
    cpu = ru.ru_utime + ru.ru_stime
    scale = speed.scale() if pin else 1.0
    k = scale if scaled else 1.0
    return {"rc": rc, "wall_s": wall * k, "cpu_s": cpu * k, "raw_wall_s": wall,
            "raw_cpu_s": cpu, "core_scale": scale, "peak_rss_mb": ru.ru_maxrss / 1024,
            "timed_out": wall >= CHILD_TIMEOUT_S}


def machine_block() -> dict:
    with open("/proc/meminfo", encoding="ascii") as f:
        mem_available = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("MemAvailable:")), None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "speed_ref_s": SPEED_REF_S,
        "mem_available": mem_available,
        "loadavg_at_start": os.getloadavg(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


class Bench:
    def __init__(self, w: workloads.Workload, work: Path, seconds: float, run_id: str):
        self.w = w
        self.run_id = run_id
        self.work = work
        self.seconds = seconds
        self.cli = [sys.executable, "-m", "vocabport"] + w.argv
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def _log(self, tag: str) -> Path:
        return self.work / f"{tag}.stderr"

    def command(self, cmd: list[str], tag: str) -> dict:
        """One timed command plus its output check; counts toward attempted/failed."""
        res = run_child(cmd, self._log(tag), scaled=self.w.core_bound)
        self.attempted += 1
        problems = []
        if res["timed_out"]:
            problems.append("timeout")
        elif res["rc"] != 0:
            problems.append(f"exit code {res['rc']}: "
                            + self._log(tag).read_text(errors="replace")[-500:])
        else:
            problems = checks.check(self.w)
            self.digests.append(checks.digest(self.w.outputs))
        if problems:
            self.failed += 1
            self.failures.append(f"{tag}: " + "; ".join(problems))
        return res

    def setup(self) -> list[dict]:
        plan = self.work / "probe_plan.json"
        plan.write_text(json.dumps(self.w.loaders), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "probe.py"), str(plan)]
        runs = []
        for k in range(SETUP_REPS):
            res = run_child(cmd, self._log(f"setup{k}"), scaled=self.w.core_bound)
            if res["rc"] != 0 or res["timed_out"]:
                raise RuntimeError("set-up probe failed: "
                                   + self._log(f"setup{k}").read_text(errors="replace")[-500:])
            runs.append(res)
        return runs

    def timed_loop(self) -> list[dict]:
        runs: list[dict] = []
        start = time.perf_counter()
        while len(runs) < MIN_REPS or sum(r["raw_wall_s"] for r in runs) < self.seconds:
            runs.append(self.command(self.cli, f"run{len(runs)}"))
            if time.perf_counter() - start > 2 * self.seconds + 30:  # slow host: stay in time
                break
        return runs

    def identity_checks(self) -> dict:
        """Untimed: repeated runs and --threads 2 must give byte-identical outputs."""
        out = {"repeat_identical": len(set(self.digests)) == 1}
        if self.w.name == "init-clp-plus":
            res = run_child(self.cli + ["--threads", "2"], self._log("threads2"), pin=False)
            same = (res["rc"] == 0 and bool(self.digests) and not checks.check(self.w)
                    and checks.digest(self.w.outputs) == self.digests[0])
            out["threads_2_identical"] = same
        return out


def end_to_end(b: Bench) -> tuple[dict, dict]:
    setup = b.setup()
    runs = b.timed_loop()
    identity = b.identity_checks()
    walls = [r["wall_s"] for r in runs]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(r["wall_s"] for r in setup),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "rows_per_s": b.w.work_rows / wall,
    }
    detail = {
        "samples": {"wall_s": walls, "setup_s": [r["wall_s"] for r in setup],
                    "cpu_s": [r["cpu_s"] for r in runs],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
                    "raw_wall_s": [r["raw_wall_s"] for r in runs],
                    "raw_cpu_s": [r["raw_cpu_s"] for r in runs],
                    "core_scale": [r["core_scale"] for r in runs],
                    "raw_setup_s": [r["raw_wall_s"] for r in setup]},
        "raw_wall_s_median": statistics.median(r["raw_wall_s"] for r in runs),
        "wall_s_quartiles": statistics.quantiles(walls, n=4),
        "work_rows": b.w.work_rows,
        "core_bound": b.w.core_bound,
        "failed_ratio": b.failed / b.attempted,
        "identity": identity,
    }
    if b.w.expect["kind"] == "analyze":
        detail["corpus_mb_per_s"] = b.w.shapes["corpus_bytes"] / 1e6 / wall
    return metrics, detail


def traced(b: Bench) -> tuple[dict, dict]:
    runs = b.timed_loop()
    spans_path = RESULTS / f"{b.run_id}-spans.json"
    res = b.command([sys.executable, str(HERE / "tracer.py"), str(spans_path), b.run_id, "--"]
                    + b.w.argv, "traced")
    untraced = statistics.median(r["wall_s"] for r in runs)
    metrics, summary = tracer.per_layer_metrics(str(spans_path), untraced, res["wall_s"])
    detail = {"untraced_wall_s": [r["wall_s"] for r in runs], "traced_wall_s": res["wall_s"],
              "layers": summary, "failed_ratio": b.failed / b.attempted,
              "identity": {"repeat_identical": len(set(b.digests)) == 1}}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                    help="input sizes; 'tiny' is for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vocabport" / "__init__.py").is_file():
        print(f"vocabport sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    machine = machine_block()
    RESULTS.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        w = workloads.generate(args.workload, str(work), args.seed, args.scale)
        gen_s = time.perf_counter() - t0
        b = Bench(w, work, args.seconds, f"{args.workload}-seed{args.seed}")
        metrics, detail = traced(b) if args.trace else end_to_end(b)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = PER_LAYER if args.trace else END_TO_END
    correct = b.failed == 0 and all(detail["identity"].values())
    detail.update(workload=args.workload, seed=args.seed, scale=args.scale, trace=args.trace,
                  machine=machine, inputs=w.shapes, generate_s=gen_s, failures=b.failures)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(detail, metrics=metrics), indent=1), encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
