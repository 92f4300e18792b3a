"""One iteration of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py JOB.json

``run.py`` writes the job (workload, seed, input files, whether to trace)
and spawns this script with the BLAS thread variables pinned. The worker
imports the package, loads its inputs, runs the timed region, reads its
peak RSS, checks the outputs and writes a result JSON. The time from the
spawn to the start of the timed region is the iteration's set-up time.

The worker ticks the host-speed yardstick (``yardstick.py``) when it is
ready and after the timed region. Untraced runs also tick after every CLI
command, between optimizer steps, before each evaluation forward pass and
every so many schedule rows, ingested documents, packed windows or
``pack_stream`` calls, so every operation lies between two nearby ticks.
Where the ticks fall depends on counts, never on a clock, so each iteration
of a seed allocates the same objects in the same order. Every interval is
reported both raw and converted to the reference speed, tick time left out
of both.

Each workload is a closed loop with one client: the next call is issued
only after the previous one returned.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import yardstick
from xlda_kit import cli, corpus, masks, model, packing, schedule, training

# inspections per iteration, a multiple of len(POLICIES). Every iteration of
# a seed inspects the same seeded indices; with 24 of them the p90 rested on
# two or three inspections and moved by 10-20% between seeds. With 48, a run
# of four iterations leaves about 20 samples past the p90.
INSPECTIONS = 48
POLICIES = ("xlda", "intra", "bridge")
SCHEDULE_ARGS = ("--peak", "2e-4", "--warmup", "2000", "--total", "3000000")
TRANSFER_STEPS = 60
TRAIN_STEPS = 52
# one sequence per step keeps a step near 0.15 s, so the three iterations of
# a run collect about 150 step times, 15 of them past the p90; the L x L
# score tensors still dominate a step
TRAIN_BATCH = 1
TRAIN_VOCAB = 64  # the reference model's default vocabulary
GRAD_CHECK_TOLERANCE = 1e-6
# data-4k ticks once per this many ingested documents, packed windows and
# schedule table rows (2 to 3 ticks in `filter`, 5 in `pack`, 12 in `schedule`)
TICK_EVERY_DOCS = 4000
TICK_EVERY_WINDOWS = 32
TICK_EVERY_ROWS = 2
# transfer-128 builds its episodes with about 600 pack_stream calls
TICK_EVERY_PACK_CALLS = 64


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _params_digest(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode())
        h.update(params.tensors[name].tobytes())
    return h.hexdigest()


class Iteration:
    """Operations attempted, the ones that failed, and what was measured."""

    def __init__(self, kernel: str, ticks: bool):
        self.ticks = ticks
        self.attempted = 0
        self.failed: set[str] = set()
        self.failures: list[str] = []
        self.op_spans: list[tuple[float, float]] = []  # (start, end) of each operation
        self.tok_span = (0.0, 0.0)  # the window that tok_per_s divides by
        self.digests: dict[str, str] = {}
        self.outputs: dict[str, float] = {}
        self.tok = 0
        self.ys = yardstick.Yardstick(kernel)

    def tick(self) -> None:
        if self.ticks:
            self.ys.tick()

    def fail(self, op: str, message: str) -> None:
        self.failed.add(op)
        self.failures.append(f"{op}: {message}")

    def check(self, op: str, ok: bool, message: str) -> None:
        if not ok:
            self.fail(op, message)

    def command(self, op: str, argv: list[str]) -> tuple[dict | None, tuple[float, float]]:
        """Run one CLI command in-process and tick after it.

        Returns its JSON payload, or None on failure, and its (start, end).
        """
        self.attempted += 1
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.dispatch(argv)
        except Exception:
            code = None
            self.fail(op, traceback.format_exc(limit=3))
        span = (start, perf_counter())
        self.tick()
        if code is None:
            return None, span
        if code != 0:
            self.fail(op, f"exit code {code}")
            return None, span
        try:
            return json.loads(out.getvalue()), span
        except json.JSONDecodeError as exc:
            self.fail(op, f"unparseable JSON output: {exc}")
            return None, span


class Data4k:
    """filter -> pack -> mask inspections -> schedule on a 1M-token corpus."""

    kernel = "python"

    def __init__(self, job: dict, it: Iteration):
        self.job, self.it = job, it
        work = Path(job["work"])
        self.corpus = job["inputs"]["corpus"]
        self.manifest = job["inputs"]["manifest"]
        self.kept = str(work / "kept.jsonl")
        self.packed = str(work / "packed.xlda")
        self.written: list = []
        self.filter: dict | None = None
        self.report: dict | None = None
        self.inspections: list[tuple[int, str, dict | None]] = []
        self.schedule: dict | None = None

    def install(self) -> None:
        # keep what the packer hands to the writer, to check the read-back
        pack_stream, ingest = packing.pack_stream, corpus.ingest

        def captured(*args, **kwargs):
            for k, seq in enumerate(pack_stream(*args, **kwargs), 1):
                self.written.append(seq)
                if k % TICK_EVERY_WINDOWS == 0:
                    self.it.tick()
                yield seq
        packing.pack_stream = captured

        def ticked_ingest(*args, **kwargs):
            for k, doc in enumerate(ingest(*args, **kwargs), 1):
                if k % TICK_EVERY_DOCS == 0:
                    self.it.tick()
                yield doc
        corpus.ingest = ticked_ingest

        # `schedule` walks its 3M steps in one loop that reads the learning
        # rate only at its ~24 evenly spaced table rows: ticks there spread
        # across the command
        lr_at = schedule.lr_at
        rows = itertools.count(1)

        def ticked_lr_at(*args, **kwargs):
            if next(rows) % TICK_EVERY_ROWS == 0:
                self.it.tick()
            return lr_at(*args, **kwargs)
        schedule.lr_at = ticked_lr_at

    def timed(self) -> None:
        it, seed = self.it, str(self.job["seed"])
        kept, (start, _) = it.command("filter", [
            "filter", "--input", self.corpus, "--output", self.kept,
            "--stage", "pretrain", "--class", "multilingual", "--json"])
        self.filter = kept and kept["result"]
        if kept is None:
            return
        packed, (_, end) = it.command("pack", [
            "pack", "--input", self.kept, "--output", self.packed,
            "--seq-len", "4096", "--rho", "0.5", "--seed", seed, "--json"])
        it.tok_span = (start, end)
        if packed is None:
            return
        self.report = packed["result"]["report"]
        it.tok = self.report["tokens_packed"]
        gen = np.random.default_rng([self.job["seed"], 3])
        for j, index in enumerate(gen.integers(0, self.report["sequences"], INSPECTIONS)):
            policy = POLICIES[j % len(POLICIES)]
            payload, span = it.command(f"mask:{j}", [
                "mask", "--policy", policy, "--from", self.packed,
                "--index", str(int(index)), "--json"])
            it.op_spans.append(span)
            self.inspections.append((int(index), policy, payload and payload["result"]))
        payload, _ = it.command("schedule", ["schedule", *SCHEDULE_ARGS, "--json"])
        self.schedule = payload and payload["result"]

    def check(self) -> None:
        it, want = self.it, self.manifest
        if self.filter is not None:
            got = (self.filter["input_documents"], self.filter["malformed_lines"],
                   self.filter["kept_documents"])
            expected = (want["documents"], want["malformed_lines"], want["kept_documents"])
            it.check("filter", got == expected,
                     f"documents/malformed/kept {got}, expected {expected}")
        if self.report is None:
            return
        r = self.report
        accounted = r["tokens_packed"] + r["tokens_dropped"] + r["tokens_unconsumed"]
        it.check("pack", accounted == want["kept_tokens"],
                 f"packed+dropped+unconsumed {accounted} != kept {want['kept_tokens']}")
        it.check("pack", r["sequences"] == len(self.written) > 0,
                 f"{r['sequences']} sequences reported, {len(self.written)} packed")
        with open(self.packed, "rb") as fh:
            it.digests["pack"] = _sha256(fh.read())
        read, _ = packing.read_packed(self.packed)
        it.check("pack", len(read) == len(self.written) and all(
            np.array_equal(a.tokens, b.tokens) and a.pad_start == b.pad_start
            and _span_rows(a.spans) == _span_rows(b.spans)
            for a, b in zip(read, self.written)), "read-back differs from what was packed")
        # the dense-mask oracle on one inspection per policy per iteration
        first = 3 * self.job["iteration"] % INSPECTIONS
        oracle = range(first, first + len(POLICIES))
        for j, (index, policy, result) in enumerate(self.inspections):
            if result is None:
                continue
            seq = self.written[index]
            spec = masks.MaskSpec.for_sequence(seq, masks.MaskPolicy.parse(policy))
            allowed = masks.allowed_pair_count(spec)
            spans = [(s["start"], s["end"], s["lang"]) for s in result["spans"]]
            same = (result["allowed_pairs"] == allowed and result["pad_start"] == seq.pad_start
                    and spans == _span_rows(seq.spans))
            it.check(f"mask:{j}", same, f"inspection of sequence {index} under {policy} differs")
            if j in oracle:
                dense = int(masks.materialize_dense(spec, spec.seq_len).sum())
                it.check(f"mask:{j}", dense == allowed,
                         f"allowed_pair_count {allowed} != dense mask sum {dense}")
        it.digests["mask"] = _sha256(json.dumps(self.inspections, sort_keys=True).encode())
        if self.schedule is not None:
            rows = self.schedule["rows"]
            peak = float(SCHEDULE_ARGS[1])
            ordered = all(a["tokens_seen"] <= b["tokens_seen"] for a, b in zip(rows, rows[1:]))
            it.check("schedule", rows[-1]["step"] == int(SCHEDULE_ARGS[-1]) and ordered
                     and all(0.0 <= row["lr"] <= peak for row in rows),
                     "schedule table rows out of range or out of order")
            it.digests["schedule"] = _sha256(
                json.dumps(self.schedule, sort_keys=True).encode())


def _span_rows(spans) -> list[tuple]:
    return [(s.start, s.end, s.lang.code) for s in spans]


class _Training:
    """Shared by the training workloads: step clock and train() capture."""

    kernel = "numpy"

    def __init__(self, job: dict, it: Iteration):
        self.job, self.it = job, it
        self.runs: list[tuple] = []  # (params, log) per train() call

    def install(self) -> None:
        # one clock read per batch handed to the optimizer loop: the interval
        # between two consecutive batches of one loop is one optimizer step;
        # the yardstick ticks between steps, outside the interval
        cycle_batches, train = training.cycle_batches, training.train
        forward, pack_stream = model.forward, training.pack_stream
        pack_calls = itertools.count(1)

        def clocked(*args, **kwargs):
            last = None
            for k, batch in enumerate(cycle_batches(*args, **kwargs)):
                now = perf_counter()
                if last is not None:
                    self.it.op_spans.append((last, now))
                if k % self.tick_every_steps == 0:
                    self.it.tick()
                last = perf_counter()
                yield batch

        def ticked_forward(*args, **kwargs):
            self.it.tick()
            return forward(*args, **kwargs)

        def ticked_pack_stream(*args, **kwargs):
            if next(pack_calls) % TICK_EVERY_PACK_CALLS == 0:
                self.it.tick()
            return pack_stream(*args, **kwargs)

        def captured(params, *args, **kwargs):
            log = train(params, *args, **kwargs)
            self.runs.append((params, log))
            return log
        training.cycle_batches = clocked
        training.train = captured
        model.forward = ticked_forward
        training.pack_stream = ticked_pack_stream

    def check_runs(self, op: str, expected_runs: int, steps: int) -> None:
        it = self.it
        it.check(op, len(self.runs) == expected_runs,
                 f"{len(self.runs)} training runs, expected {expected_runs}")
        for k, (params, log) in enumerate(self.runs):
            it.check(op, len(log) == steps, f"run {k} logged {len(log)} of {steps} steps")
            for row in log:
                it.check(f"step:{k}:{row.step}", math.isfinite(row.loss_total),
                         f"non-finite loss {row.loss_total}")
            csv = "\n".join([training.StepMetrics.CSV_HEADER] + [r.csv_row() for r in log])
            it.digests[f"{op}:{k}:params"] = _params_digest(params)
            it.digests[f"{op}:{k}:metrics"] = _sha256(csv.encode())
        if self.runs and self.runs[0][1]:
            it.outputs["loss_final"] = self.runs[0][1][-1].loss_total


class Transfer128(_Training):
    """training.transfer_experiment at B=4, L=128, d=32, V=64, float64."""

    tick_every_steps = 4  # a tick about every 0.15 s, every 0.3 s on train-512-intra

    def timed(self) -> None:
        it = self.it
        self.spec = training.TransferSpec(steps=TRANSFER_STEPS, seed=self.job["seed"])
        it.attempted += 1 + len(self.spec.policies) * self.spec.steps
        start = perf_counter()
        try:
            self.report = training.transfer_experiment(self.spec)
        except Exception:
            self.report = None
            it.fail("transfer", traceback.format_exc(limit=3))
        it.tok_span = (start, perf_counter())
        spec = self.spec
        it.tok = len(spec.policies) * spec.steps * spec.batch_sequences * spec.seq_len

    def check(self) -> None:
        it, spec = self.it, self.spec
        if self.report is None:
            it.failed.update(f"step:{k}:{s}" for k in range(len(spec.policies))
                             for s in range(spec.steps))
            return
        self.check_runs("transfer", len(spec.policies), spec.steps)
        report = self.report.to_json()
        losses = [v for part in ("packed", "single_doc") for per in report[part].values()
                  for v in per.values()]
        it.check("transfer", all(math.isfinite(v) for v in losses), "non-finite held-out loss")
        it.digests["transfer"] = _sha256(json.dumps(report, sort_keys=True).encode())
        it.outputs["heldout_loss_lo"] = report["single_doc"][
            masks.MaskPolicy.XLDA_FULL_CAUSAL.value][spec.low_lang]


class Train512Intra(_Training):
    """train-toy --policy intra on a packed file of 512-token windows."""

    tick_every_steps = 2

    def __init__(self, job: dict, it: Iteration):
        super().__init__(job, it)
        self.packed = job["inputs"]["packed"]
        self.metrics = str(Path(job["work"]) / "metrics.csv")
        # loading the inputs is set-up: validate the file the command will read
        seqs, config = packing.read_packed(self.packed)
        if config.seq_len != 512 or len(seqs) < TRAIN_BATCH:
            raise ValueError(f"unexpected input: {len(seqs)} x {config.seq_len}")
        if max(int(s.tokens.max()) for s in seqs) >= TRAIN_VOCAB:
            raise ValueError("input token ids exceed the model vocabulary")

    def timed(self) -> None:
        it = self.it
        it.attempted += TRAIN_STEPS
        self.payload, it.tok_span = it.command("train-toy", [
            "train-toy", "--packed", self.packed, "--policy", "intra",
            "--steps", str(TRAIN_STEPS), "--batch-seqs", str(TRAIN_BATCH),
            "--seed", str(self.job["seed"]), "--metrics", self.metrics, "--json"])

    def check(self) -> None:
        it = self.it
        if self.payload is None:
            it.failed.update(f"step:0:{s}" for s in range(TRAIN_STEPS))
            return
        self.check_runs("train-toy", 1, TRAIN_STEPS)
        result = self.payload["result"]
        with open(self.metrics, encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        it.check("train-toy", len(rows) == TRAIN_STEPS == result["steps"],
                 f"{len(rows)} metrics rows for {result['steps']} steps")
        it.check("train-toy", all(math.isfinite(float(r["loss_total"])) for r in rows),
                 "non-finite loss in the metrics file")
        it.check("train-toy", rows and float(rows[-1]["loss_total"]) == result["final_loss"],
                 "final loss differs between the metrics file and the JSON output")
        it.tok = sum(int(r["batch_tokens"]) for r in rows)
        it.digests["train-toy"] = result["params_sha256"]
        it.digests["train-toy:csv"] = _sha256(text.encode())
        it.outputs["loss_final"] = result["final_loss"]


WORKLOADS = {"data-4k": Data4k, "transfer-128": Transfer128,
             "train-512-intra": Train512Intra}


def grad_check(it: Iteration, seed: int) -> None:
    payload, _ = it.command("grad-check", ["grad-check", "--json", "--seed", str(seed)])
    if payload is not None:
        worst = payload["result"]["max_rel_error"]
        it.check("grad-check", worst < GRAD_CHECK_TOLERANCE,
                 f"max relative error {worst} >= {GRAD_CHECK_TOLERANCE}")


def main() -> int:
    """Run one job: a set-up probe, a timed iteration or the gradient check."""
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    kind = WORKLOADS[job["workload"]]
    # traced runs tick only at the ends of the timed region: their layer
    # times are raw and must not carry the yardstick's time
    it = Iteration(kind.kernel, ticks=not job["trace_run"])
    result: dict = {"ready": None, "trace": None}
    tracer = None
    try:
        workload = kind(job, it)
        if job["trace"]:
            tracer = tracing.Tracer()
            tracer.install()
        workload.install()
        # Commands run in one long-lived interpreter here, where a user runs
        # each in a fresh one. Full collections then walk every object made
        # by the imports, about once per 20 `mask` commands, and cost 15 ms
        # each: keep those objects out of the collector.
        gc.freeze()
        result["ready"] = time.monotonic()
        it.ys.tick()
        if job["kind"] == "iteration":
            if tracer:
                tracer.run = "timed"
            start = perf_counter()
            workload.timed()
            end = perf_counter()
            it.ys.tick()
            raw, ref = it.ys.raw, it.ys.at_reference
            result.update(wall_s=raw(start, end), tok_s=raw(*it.tok_span),
                          op_ms=[raw(a, b) * 1e3 for a, b in it.op_spans],
                          wall_ref_s=ref(start, end), tok_ref_s=ref(*it.tok_span),
                          op_ref_ms=[ref(a, b) * 1e3 for a, b in it.op_spans])
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer:
                tracer.run = "check"
            workload.check()
        elif job["kind"] == "grad-check":
            if tracer:
                tracer.run = "check"
            grad_check(it, job["seed"])
    except Exception:
        it.fail("worker", traceback.format_exc())
    if tracer:
        result["trace"] = {run: tracer.summary(run) for run in ("timed", "check")}
        tracer.write_spans(job["spans"])
    result.update(
        attempted=it.attempted, failed=sorted(it.failed), failures=it.failures,
        digests=it.digests, outputs=it.outputs, tok=it.tok, chunk_s=it.ys.chunk_s(),
    )
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
