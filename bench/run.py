"""scrollbin benchmark: end-to-end CLI workloads and a traced per-layer run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: page-binarize, train-warm, classical-eval (see BENCHMARK.json
for why each was chosen). The inputs are generated from --seed. With
--trace 0 the workload's rounds run for S seconds of measured time and the
last stdout line carries the end-to-end metrics named in BENCHMARK.json;
the line before it carries the workload's own named figures and the
environment. With --trace 1 one untraced and one traced round of every
workload run (whatever --workload names, since the per-layer metrics span
all three) and the last line carries the per-layer metrics. Full results
and spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
THREADS2 = min(2, len(os.sched_getaffinity(0)))  # the second binarize thread count
SETUP_SAMPLES = 3  # set-ups timed per run, each in a fresh interpreter; setup_s is their median
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "SCROLLBIN_THREADS")


def _child(script: str, *args, cwd: Path) -> str:
    """Run a bench script in a fresh interpreter; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / script), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def sgemm_peak_gflops(n: int = 2048, repeats: int = 3) -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((n, n), dtype=np.float32)
    b = rng.random((n, n), dtype=np.float32)
    a @ b
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        a @ b
        best = min(best, perf_counter() - start)
    return 2 * n**3 / best / 1e9


def environment(sgemm: float) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "scrollbin").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "sgemm_peak_gflops": sgemm,
    }


class _Phases:
    """Wall time of each phase of a run, for budgeting the benchmark itself."""

    def __init__(self):
        self.laps: dict[str, float] = {}
        self._last = perf_counter()

    def lap(self, name: str) -> None:
        now = perf_counter()
        self.laps[name] = now - self._last
        self._last = now


def _summary(ops, probes=()) -> dict:
    failed = [(op.label, op.reason) for op in ops if not op.ok]
    failed += [("setup-probe", "a warm-up call failed") for p in probes if not p["ok"]]
    attempted = len(ops) + len(probes)
    return {
        "attempted": attempted,
        "failed": len(failed),
        "ops_failed_frac": len(failed) / attempted,
        "failures": [{"op": label, "reason": reason} for label, reason in failed[:20]],
    }


def run_workload(name: str, seed: int, seconds: float, work: Path, spec: dict) -> tuple[dict, dict]:
    clock = _Phases()
    _child("inputs.py", "--workload", name, "--seed", seed, "--dir", work, cwd=ROOT)
    clock.lap("inputs")
    probes = [json.loads(_child("probe.py", "--workload", name, "--seed", seed, "--dir", work, cwd=ROOT))
              for _ in range(SETUP_SAMPLES - 1)]
    clock.lap("setup_probes")

    # This process is the last set-up sample: until here it has imported
    # only the standard library, as a fresh interpreter would have.
    start = perf_counter()
    import scrollbin.cli

    setup = perf_counter() - start
    import workloads

    workload = workloads.make(name, work, seed, THREADS2)
    runner = workloads.Runner(scrollbin.cli)
    start = perf_counter()
    ops = workload.warmup(runner)
    probes.append({"seconds": setup + perf_counter() - start, "ok": all(op.ok for op in ops)})
    clock.lap("warmup")

    timed, round_s, measured = [], [], 0.0
    while measured < seconds or not round_s:
        round_ops = workload.round(runner)
        if not round_s:
            # after a fixed amount of work, so that a faster program running
            # more rounds is not charged for allocator growth across them
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.check(round_ops)
        timed += round_ops
        round_s.append(sum(op.seconds for op in round_ops))
        measured += round_s[-1]
    clock.lap("rounds")
    ops += timed + workload.extra_ops(runner)
    clock.lap("extra_ops")

    summary = _summary(ops, probes[:-1])
    values = {
        "setup_s": statistics.median(p["seconds"] for p in probes),
        "peak_rss_mb": peak_rss_mb,
        "round_s": statistics.median(round_s),
    }
    detail = {
        "workload": name,
        "seed": seed,
        "rounds": len(round_s),
        "round_s_all": round_s,
        "setup_s_all": [p["seconds"] for p in probes],
        "phase_wall_s": clock.laps,
        **workload.details(timed),
        **summary,
    }
    return _metrics(spec["end_to_end"], values), detail


def run_traced(seed: int, work: Path, spec: dict):
    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        _child("inputs.py", "--workload", name, "--seed", seed, "--dir", work / name, cwd=ROOT)

    import scrollbin.cli
    from scrollbin import binet, classical, imagecore, metrics, tiling

    import spans
    import workloads

    plain = workloads.Runner(scrollbin.cli)
    loads = {name: workloads.make(name, work / name, seed, THREADS2) for name in names}
    ops = [op for w in loads.values() for op in w.warmup(plain)]

    tracer = spans.Tracer()
    traced = workloads.Runner(scrollbin.cli, tracer)
    modules = (scrollbin.cli, imagecore, tiling, binet, classical, metrics)
    values = {}
    for name, workload in loads.items():
        untraced_ops = workload.round(plain)
        workload.check(untraced_ops)
        tracer.run = name
        with spans.patched(tracer, modules):
            traced_ops = workload.round(traced)
        workload.check(traced_ops)
        ops += untraced_ops + traced_ops
        values[f"trace.{name}.overhead_s"] = sum(op.seconds for op in traced_ops) - sum(
            op.seconds for op in untraced_ops)
        ops += workload.extra_ops(plain)

    label = {"binarize": "binarize-t1", "train": "train"}
    values.update(spans.layer_metrics(tracer.spans, label))
    sgemm = sgemm_peak_gflops()
    detail = {
        "seed": seed,
        "stages": spans.stage_table(tracer.spans, label, sgemm),
        "spans": len(tracer.spans),
        **_summary(ops),
    }
    return _metrics(spec["per_layer"], values), detail, tracer, sgemm


def _metrics(declared: list, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    for needed in (SRC / "scrollbin" / "cli.py", ROOT / "tests" / "oracles.py", SPEC):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a full scrollbin checkout", file=sys.stderr)
            return 2
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, detail, tracer, sgemm = run_traced(args.seed, work, spec)
        else:
            metrics, detail = run_workload(args.workload, args.seed, args.seconds, work, spec)
            sgemm = sgemm_peak_gflops()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail["env"] = environment(sgemm)
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        tracer.write(out_dir / f"{tag}-spans.jsonl")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps({"detail": detail, **result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
