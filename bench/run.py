"""Benchmark of xlda-kit: end-to-end metrics, or a traced per-layer profile.

    python3 bench/run.py --workload data-4k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The benchmark generates the seeded
inputs of the workload outside every timed region, then runs iterations of
the workload, each in a fresh interpreter with the BLAS thread count pinned,
until ``--seconds`` are used up (at least two iterations). It checks every
output, prints each metric with its unit, sample count and quartiles, and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, from untraced iterations. Their times are converted to the
reference speed of the host-speed yardstick (``yardstick.py``), which the
worker ticks between the operations it times; each metric's value as
measured is printed beside it and kept in the record. With ``--trace 1``
untraced and traced iterations alternate; the metrics are the per-layer
ones, from the traced iterations, as measured, plus the tracing overhead.
The exit status is 0 only if
every operation succeeded and every output check passed. Full results go
to ``.bench_out/``; scratch files live in ``.bench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import inputs
import tracing
import yardstick

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("data-4k", "transfer-128", "train-512-intra")
MIN_ITERATIONS = 2
# extra spawns that stop when the timed region would start: set-up time is
# short and noisy, so an untraced run takes its median over these as well
SETUP_PROBES = 5
RUN_LIMIT_S = 165  # the whole run, generation and checks included
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment(args, env: dict) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {name: env[name] for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
    }


def prepare(workload: str, seed: int, work: Path, env: dict, root: Path) -> dict:
    """Generate the workload's input files; nothing here is timed."""
    if workload == "data-4k":
        corpus = work / "corpus.jsonl"
        return {"corpus": str(corpus), "manifest": inputs.write_data_corpus(corpus, seed)}
    if workload == "train-512-intra":
        corpus, packed = work / "short.jsonl", work / "short.xlda"
        inputs.write_short_corpus(corpus, seed)
        subprocess.run(
            [sys.executable, "-m", "xlda_kit.cli", "pack", "--input", str(corpus),
             "--output", str(packed), "--seq-len", "512", "--rho", "0.5",
             "--seed", str(seed)],
            env=env, cwd=root, check=True, stdout=subprocess.DEVNULL, timeout=120)
        return {"packed": str(packed)}
    return {}


def run_iteration(job: dict, env: dict, root: Path, timeout: float) -> dict:
    job_path = Path(job["work"]) / f"job-{job['iteration']}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    # set-up is mostly process start and imports: it is converted with the
    # time of a bare interpreter start just before and just after
    spawn_before = yardstick.spawn_s()
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                              env=env, cwd=root, capture_output=True, text=True,
                              timeout=timeout)
        status = f"exit code {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        status = f"timed out after {timeout:.0f} s"
    elapsed = time.monotonic() - spawned
    result_path = Path(job["result"])
    if not result_path.exists():
        return {"attempted": 1, "failed": ["worker"], "failures": [f"worker: {status}"],
                "elapsed": elapsed, "trace": None}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["elapsed"] = elapsed
    if result["ready"] is not None:
        result["setup_s"] = result["ready"] - spawned
        spawn_s = (spawn_before + yardstick.spawn_s()) / 2
        result["setup_ref_s"] = result["setup_s"] * yardstick.REFERENCE_SPAWN_S / spawn_s
    return result


def cross_check(results: list[dict]) -> None:
    """Outputs of one seed must be identical across iterations."""
    reference: dict[str, str] = {}
    for result in results:
        for key, digest in result.get("digests", {}).items():
            reference.setdefault(key, digest)
            op = key.split(":")[0]
            if digest != reference[key] and op not in result["failed"]:
                result["failed"].append(op)
                result["failures"].append(f"{key}: output differs from the first iteration")


def end_to_end(results: list[dict], probes: list[dict], raw: bool = False
               ) -> dict[str, list[float]]:
    """Samples of each end-to-end metric over the untraced iterations.

    Times are at the yardstick's reference speed, or as measured with ``raw``.
    """
    suffix = "" if raw else "ref_"
    op_ms = [ms for r in results for ms in r[f"op_{suffix}ms"]]
    return {
        "setup_s": [r[f"setup_{suffix}s"] for r in probes + results],
        "tok_per_s": [r["tok"] / r[f"tok_{suffix}s"] for r in results if r["tok_s"] > 0],
        "wall_s": [r[f"wall_{suffix}s"] for r in results],
        "op_ms_p50": op_ms,
        "op_ms_p90": op_ms,
        "peak_rss_mb": [r["peak_rss_mib"] for r in results],
    }


def summarize(samples: dict[str, list[float]]) -> dict[str, dict]:
    out = {}
    for name, values in samples.items():
        if not values:
            continue
        if name.startswith("op_ms_"):  # a percentile of the pooled latencies
            q = int(name[len("op_ms_p"):])
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            out[name] = {"value": cuts[q - 1], "n": len(values)}
        else:  # the median over iterations, with its quartiles
            q1, value, q3 = _quartiles(values)
            out[name] = {"value": value, "n": len(values), "q1": q1, "q3": q3}
    return out


def per_layer(workload: str, results: list[dict]) -> dict[str, dict]:
    traced = [r for r in results if r.get("trace") and "wall_s" in r]
    plain = [r for r in results if not r.get("trace") and "wall_s" in r]
    if not traced or not plain:
        return {}
    # from times at reference speed: traced and untraced iterations alternate,
    # but the host's speed changes between them
    overhead = (statistics.median(r["wall_ref_s"] for r in traced)
                / statistics.median(r["wall_ref_s"] for r in plain) - 1.0)
    timed = tracing.merge([r["trace"]["timed"] for r in traced])
    # the traced job without a timed region is the gradient check
    check = tracing.merge([r["trace"]["check"] for r in results
                           if r.get("trace") and "wall_s" not in r])
    # op_ms holds optimizer step times on the training workloads
    step_ms = [] if workload == "data-4k" else [ms for r in traced for ms in r["op_ms"]]
    outputs = traced[0]["outputs"]
    values = tracing.per_layer_metrics(timed, check, step_ms, outputs, overhead)
    return {name: {"value": v, "n": len(traced)} for name, v in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="value pinned in every BLAS/OpenMP thread variable")
    args = parser.parse_args()
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "xlda_kit" / "__init__.py").is_file():
        print(f"error: {root} holds no xlda-kit source tree (src/xlda_kit)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = declared["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({name: str(args.blas_threads) for name in THREAD_VARIABLES})
    env["PYTHONHASHSEED"] = "0"  # one dict and set layout for every worker
    env_record = environment(args, env)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".bench_work" / f"{tag}-{os.getpid()}"
    out_dir = root / ".bench_out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    results: list[dict] = []
    probes: list[dict] = []
    try:
        job_inputs = prepare(args.workload, args.seed, work, env, root)
        deadline = time.monotonic() + args.seconds

        def job(i, kind: str, trace: bool = False) -> dict:
            return {
                "workload": args.workload, "seed": args.seed, "iteration": i, "kind": kind,
                "trace": trace, "trace_run": bool(args.trace), "inputs": job_inputs,
                "work": str(work),
                "result": str(work / f"result-{i}.json"),
                "spans": str(out_dir / f"spans-{tag}-{i}.jsonl"),
            }

        def limit() -> float:
            return max(RUN_LIMIT_S - (time.monotonic() - started), 1.0)

        for k in range(0 if args.trace else SETUP_PROBES):
            probe = run_iteration(job(f"setup{k}", "setup"), env, root, limit())
            if "setup_s" not in probe:
                results.append(probe)
                break
            probes.append(probe)
        while not results or "wall_s" in results[-1]:
            i = len(results)
            traced = bool(args.trace) and i % 2 == 1
            results.append(run_iteration(job(i, "iteration", traced), env, root, limit()))
            # the next iteration is assumed to take as long as the last one
            ends = time.monotonic() + results[-1]["elapsed"]
            done = len(results) >= MIN_ITERATIONS and len(results) % (1 + args.trace) == 0
            if (done and ends > deadline) or ends > started + RUN_LIMIT_S:
                break
        if args.workload != "data-4k":
            # outside the measured window: it takes seconds and times nothing
            results.append(run_iteration(job("grad", "grad-check", bool(args.trace)),
                                         env, root, limit()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cross_check(results)
    raw: dict[str, dict] = {}
    if args.trace:
        metrics = per_layer(args.workload, results)
    else:
        timed = [r for r in results if "wall_s" in r]
        metrics = summarize(end_to_end(timed, probes))
        raw = summarize(end_to_end(timed, probes, raw=True))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failed"]) for r in results)
    missing = [m["name"] for m in metric_specs if m["name"] not in metrics]
    correct = failed == 0 and not missing

    timed_runs = sum("wall_s" in r for r in results)
    print(f"# {tag}: {timed_runs} timed iterations, {attempted} operations, {failed} failed")
    print(f"# env {json.dumps(env_record, sort_keys=True)}")
    for spec in metric_specs:
        m = metrics.get(spec["name"])
        if m is None:
            print(f"{spec['name']}: missing", file=sys.stderr)
            continue
        spread = f" q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
        as_measured = f"; as measured {raw[spec['name']]['value']:.6g}" if raw else ""
        print(f"{spec['name']} = {m['value']:.6g} {spec['unit']} (n={m['n']}{spread}"
              f"{as_measured})")
    for r in results:
        for failure in r["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_record, "correct": correct,
        "attempted": attempted, "failed": failed,
        "metrics": {s["name"]: {**metrics[s["name"]], "unit": s["unit"]}
                    for s in metric_specs if s["name"] in metrics},
        "as_measured": raw,
        "iterations": [{k: r.get(k) for k in (
            "setup_s", "setup_ref_s", "wall_s", "wall_ref_s", "tok", "tok_s", "tok_ref_s",
            "op_ms", "op_ref_ms", "chunk_s", "peak_rss_mib", "attempted", "failed",
            "outputs")} for r in probes + results],
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]]["value"], "unit": s["unit"]}
                    for s in metric_specs if s["name"] in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
