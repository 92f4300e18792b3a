"""Outside-in tracing of the package's layers.

``Tracer.install`` replaces the public functions of each layer module with
timing wrappers, from outside: nothing under ``src/`` is edited. A function
is wrapped once and every module attribute that refers to it (re-exports
such as ``training.pack_stream`` or ``model.materialize_dense``) gets the
same wrapper, named after the module that defines it.

Each call becomes a span (name, start, end, parent, run id) kept in memory.
A generator's span accumulates only the time spent inside ``next``, so a
consumer's work between items is not charged to it. Two trivial functions
called once per record or per schedule step are left unwrapped; their time
stays with their caller. Counts are taken at the same boundaries, from
arguments and results, and the time spent taking them is charged to no
layer.

Self time is a span's busy time minus the busy time of its direct children;
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("corpus", "quality", "sampling", "packing", "masks", "schedule", "model",
          "training", "cli")
# called once per record or per schedule step (3M times by `schedule`):
# wrapping them would more than double the time of the commands calling them
UNWRAPPED = {"corpus.default_language_class", "schedule.batch_size_at"}
# the only cli function wrapped; its span is named after the subcommand, so
# cli self time is argument parsing, settings echo and output formatting
CLI_ENTRY = "dispatch"
# private helpers that bound the held-out evaluation of the transfer probe
EVAL_HELPERS = ("_language_ce", "_probe_ce")
METHODS = (("masks", "MaskSpec", "for_sequence"), ("training", "AdamW", "step"))
# spans whose per-call durations are kept for percentiles
PER_CALL = ("model.loss_and_grads", "model.forward", "training.AdamW.step", "cli.mask")
CLI_COMMANDS = ("filter", "pack", "mask", "schedule", "train-toy")


class _Span:
    __slots__ = ("id", "parent", "name", "run", "start", "end", "busy", "own")

    def __init__(self, span_id, parent, name, run, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.run = run
        self.start = start
        self.end = start
        self.busy = 0.0
        self.own = 0.0


def _read_rchar() -> int:
    """Bytes this process has read through read syscalls so far."""
    try:
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


# --- counters taken at layer boundaries --------------------------------------
# Each entry: (before(args, kwargs) -> state, item(counts, state, item),
# after(counts, state, args, kwargs, result)); any may be None.


def _ingest_item(c, state, doc):
    c["corpus.docs"] += 1
    c["corpus.ingest_tokens"] += len(doc.tokens)


def _ingest_after(c, state, args, kwargs, result):
    report = kwargs.get("report")
    if report is not None:
        c["corpus.lines_rejected"] += report.skipped


def _filter_after(c, state, args, kwargs, result):
    c["quality.input_docs"] += len(args[0])
    c["quality.kept_docs"] += len(result)


def _pack_before(args, kwargs):
    docs = args[0] if args else kwargs.get("docs")
    sized = isinstance(docs, (list, tuple))
    return {"input": sum(len(d.tokens) for d in docs) if sized else None, "packed": 0}


def _pack_item(c, state, seq):
    c["packing.sequences"] += 1
    c["packing.tokens_packed"] += seq.pad_start
    c["packing.slots"] += len(seq.tokens)
    if len({span.lang.code for span in seq.spans}) >= 2:
        c["packing.cross_lingual"] += 1
    state["packed"] += seq.pad_start


def _pack_after(c, state, args, kwargs, result):
    if state["input"] is not None:
        c["packing.input_tokens"] += state["input"]
        c["packing.input_tokens_packed"] += state["packed"]


def _write_after(c, state, args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    c["packing.write_bytes"] += os.path.getsize(args[0])
    c["packing.write_slots"] += result * config.seq_len


def _read_after(c, state, args, kwargs, result):
    after = _read_rchar()
    c["packing.read_bytes"] += after - state if state >= 0 and after >= 0 else 0


def _dense_after(c, state, args, kwargs, result):
    n = result.shape[-1]
    c["masks.dense_cells"] += result.size
    c["masks.allowed"] += int(result.sum())
    c["masks.causal"] += n * (n + 1) // 2


def _pair_count_after(c, state, args, kwargs, result):
    n = args[0].seq_len
    c["masks.allowed"] += result
    c["masks.causal"] += n * (n + 1) // 2


def _loss_after(c, state, args, kwargs, result):
    params, tokens = args[0], args[1]
    cfg = params.config
    b, length = tokens.shape if tokens.ndim == 2 else (1, tokens.shape[-1])
    c["model.score_cells"] += b * cfg.n_heads * length * length * (cfg.n_layers + 1)


def _grad_check_after(c, state, args, kwargs, result):
    c["model.grad_check_max_rel_err"] = max(
        c["model.grad_check_max_rel_err"], result.max_rel_error
    )


def _batch_item(c, state, batch):
    c["training.real_tokens"] += batch.real_tokens
    c["training.batch_slots"] += batch.tokens.size


def _train_after(c, state, args, kwargs, result):
    c["training.steps"] += len(result)


OBSERVERS = {
    "corpus.ingest": (None, _ingest_item, _ingest_after),
    "quality.quantile_filter": (None, None, _filter_after),
    "packing.pack_stream": (_pack_before, _pack_item, _pack_after),
    "packing.write_packed": (None, None, _write_after),
    "packing.read_packed": (lambda args, kwargs: _read_rchar(), None, _read_after),
    "masks.materialize_dense": (None, None, _dense_after),
    "masks.allowed_pair_count": (None, None, _pair_count_after),
    "model.loss_and_grads": (None, None, _loss_after),
    "model.grad_check": (None, None, _grad_check_after),
    "training.cycle_batches": (None, _batch_item, None),
    "training.train": (None, None, _train_after),
}
MAX_COUNTS = ("model.grad_check_max_rel_err",)


class Tracer:
    """Spans and boundary counts for one process, grouped by run id."""

    def __init__(self):
        self.run = "setup"
        self.spans: list[_Span] = []
        self._stack: list[list] = []  # [span, child busy seconds, entry time]
        self._counts: dict[str, dict] = defaultdict(lambda: defaultdict(float))

    # -- span bookkeeping --

    def _open(self, name: str) -> _Span:
        parent = self._stack[-1][0].id if self._stack else -1
        span = _Span(len(self.spans), parent, name, self.run, perf_counter())
        self.spans.append(span)
        return span

    def _enter(self, span: _Span) -> None:
        self._stack.append([span, 0.0, perf_counter()])

    def _leave(self) -> None:
        now = perf_counter()
        span, child, entered = self._stack.pop()
        elapsed = now - entered
        span.busy += elapsed
        span.own += elapsed - child
        span.end = now
        if self._stack:
            self._stack[-1][1] += elapsed

    def _exclude(self, since: float) -> None:
        """Charge the time since ``since`` to no layer."""
        elapsed = perf_counter() - since
        if self._stack:
            self._stack[-1][1] += elapsed
        self._counts[self.run]["trace.observe_s"] += elapsed

    # -- wrappers --

    def _wrap_function(self, fn, name, observer):
        before, _, after = observer
        per_command = name == "cli." + CLI_ENTRY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if per_command:
                argv = args[0] if args else kwargs["argv"]
                span_name = "cli." + (argv[0] if argv else "")
            state = None
            if before:
                since = perf_counter()
                state = before(args, kwargs)
                self._exclude(since)
            span = self._open(span_name)
            self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave()
            if after:
                since = perf_counter()
                after(self._counts[self.run], state, args, kwargs, result)
                self._exclude(since)
            return result
        return wrapper

    def _wrap_generator(self, fn, name, observer):
        before, on_item, after = observer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before:
                since = perf_counter()
                state = before(args, kwargs)
                self._exclude(since)
            inner = fn(*args, **kwargs)
            span = self._open(name)

            def proxy():
                try:
                    while True:
                        self._enter(span)
                        try:
                            item = next(inner)
                        except StopIteration:
                            break
                        finally:
                            self._leave()
                        if on_item:
                            since = perf_counter()
                            on_item(self._counts[self.run], state, item)
                            self._exclude(since)
                        yield item
                    if after:
                        since = perf_counter()
                        after(self._counts[self.run], state, args, kwargs, None)
                        self._exclude(since)
                finally:
                    inner.close()
            return proxy()
        return wrapper

    def _wrap(self, fn, name):
        observer = OBSERVERS.get(name, (None, None, None))
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, observer)
        return self._wrap_function(fn, name, observer)

    def install(self) -> None:
        """Wrap every public function of every layer module, and aliases."""
        modules = {layer: importlib.import_module(f"xlda_kit.{layer}") for layer in LAYERS}
        wrapped: dict = {}

        def wrapper_for(fn, name):
            if fn not in wrapped:
                wrapped[fn] = self._wrap(fn, name)
            return wrapped[fn]

        for layer, module in modules.items():
            names = [CLI_ENTRY] if layer == "cli" else [
                n for n in vars(module) if not n.startswith("_")
            ]
            if layer == "training":
                names += [n for n in EVAL_HELPERS if hasattr(module, n)]
            for attr in names:
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rpartition(".")[2]
                name = f"{home}.{fn.__name__}"
                if (not fn.__module__.startswith("xlda_kit.") or home not in LAYERS
                        or name in UNWRAPPED):
                    continue
                setattr(module, attr, wrapper_for(fn, name))
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            raw = cls.__dict__.get(method) if cls is not None else None
            if isinstance(raw, classmethod):
                name = f"{layer}.{cls_name}.{method}"
                setattr(cls, method, classmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                setattr(cls, method, self._wrap(raw, f"{layer}.{cls_name}.{method}"))

    # -- results --

    def summary(self, run: str) -> dict:
        """Additive totals for one run id; merge runs with ``merge``."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        per_call: dict[str, list] = defaultdict(list)
        for span in self.spans:
            if span.run != run:
                continue
            busy[span.name] += span.busy
            calls[span.name] += 1
            self_s[span.name] += span.own
            if span.name in PER_CALL:
                per_call[span.name].append(span.busy * 1e3)
        return {
            "busy": dict(busy),
            "calls": dict(calls),
            "self": dict(self_s),
            "counts": dict(self._counts[run]),
            "ms": dict(per_call),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.run, s.start, s.end,
                                     s.busy, s.own]) + "\n")


def merge(summaries: list[dict]) -> dict:
    """Per-process means of the summaries of several processes (maxima where
    a maximum is kept); per-call durations are pooled."""
    total: dict = {"busy": {}, "calls": {}, "self": {}, "counts": {}, "ms": {}}
    for summary in summaries:
        for section in ("busy", "calls", "self", "counts"):
            target = total[section]
            for key, value in summary[section].items():
                if key in MAX_COUNTS:
                    target[key] = max(target.get(key, 0.0), value)
                else:
                    target[key] = target.get(key, 0) + value / len(summaries)
        for key, values in summary["ms"].items():
            total["ms"].setdefault(key, []).extend(values)
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(s: dict, check: dict, step_ms: list[float], outputs: dict,
                      overhead_frac: float) -> dict[str, float]:
    """The per-layer metric values of BENCHMARK.json.

    ``s`` sums the timed regions of the traced processes, ``check`` their
    output checks, which hold the gradient check.
    """
    busy, calls, c = s["busy"], s["calls"], s["counts"]
    layer_self: dict[str, float] = defaultdict(float)
    for name, seconds in s["self"].items():
        layer_self[name.partition(".")[0]] += seconds
    b = lambda name: busy.get(name, 0.0)  # noqa: E731
    n = lambda name: c.get(name, 0)  # noqa: E731
    m = {
        "corpus.ingest_s": b("corpus.ingest"),
        "corpus.ingest_tok_per_s": _ratio(n("corpus.ingest_tokens"), b("corpus.ingest")),
        "corpus.docs": n("corpus.docs"),
        "corpus.lines_rejected": n("corpus.lines_rejected"),
        "corpus.write_records_s": b("corpus.write_records"),
        "quality.filter_s": b("quality.quantile_filter"),
        "quality.kept_frac": _ratio(n("quality.kept_docs"), n("quality.input_docs")),
        "sampling.distribution_s": b("sampling.language_distribution"),
        "sampling.flag_calls": calls.get("sampling.constraint_flag", 0),
        "sampling.flag_s": b("sampling.constraint_flag"),
        "packing.pack_s": b("packing.pack_stream"),
        "packing.pack_calls": calls.get("packing.pack_stream", 0),
        "packing.sequences": n("packing.sequences"),
        "packing.fill_frac": _ratio(n("packing.tokens_packed"), n("packing.slots")),
        "packing.cross_lingual_frac": _ratio(n("packing.cross_lingual"),
                                             n("packing.sequences")),
        "packing.unconsumed_frac": _ratio(
            n("packing.input_tokens") - n("packing.input_tokens_packed"),
            n("packing.input_tokens")),
        "packing.write_s": b("packing.write_packed"),
        "packing.write_bytes": n("packing.write_bytes"),
        "packing.bytes_per_token": _ratio(n("packing.write_bytes"),
                                          n("packing.write_slots")),
        "packing.read_s": b("packing.read_packed"),
        "packing.read_calls": calls.get("packing.read_packed", 0),
        "packing.read_bytes": n("packing.read_bytes"),
        "masks.spec_s": b("masks.MaskSpec.for_sequence"),
        "masks.pair_count_s": b("masks.allowed_pair_count"),
        "masks.dense_s": b("masks.materialize_dense"),
        "masks.dense_calls": calls.get("masks.materialize_dense", 0),
        "masks.dense_cells": n("masks.dense_cells"),
        "masks.allowed_frac": _ratio(n("masks.allowed"), n("masks.causal")),
        # the table is walked in cli._cmd_schedule, calling the unwrapped
        # schedule.batch_size_at once per step
        "schedule.table_s": s["self"].get("cli.schedule", 0.0),
        "schedule.lr_at_calls": calls.get("schedule.lr_at", 0),
        "model.loss_and_grads_ms_p50": _quantile(s["ms"].get("model.loss_and_grads", []), 50),
        "model.loss_and_grads_ms_p90": _quantile(s["ms"].get("model.loss_and_grads", []), 90),
        "model.forward_ms_p50": _quantile(s["ms"].get("model.forward", []), 50),
        "model.score_cells_per_step": _ratio(n("model.score_cells"),
                                             calls.get("model.loss_and_grads", 0)),
        "model.grad_check_s": check["busy"].get("model.grad_check", 0.0),
        "model.grad_check_max_rel_err": check["counts"].get("model.grad_check_max_rel_err",
                                                            0.0),
        "training.step_ms_p50": _quantile(step_ms, 50),
        "training.step_ms_p90": _quantile(step_ms, 90),
        "training.adamw_ms_p50": _quantile(s["ms"].get("training.AdamW.step", []), 50),
        "training.batch_s": b("training.cycle_batches") + b("training.batch_from_sequences"),
        "training.eval_s": sum(b(f"training.{h}") for h in EVAL_HELPERS),
        "training.pad_frac": 1.0 - _ratio(n("training.real_tokens"),
                                          n("training.batch_slots"))
        if n("training.batch_slots") else 0.0,
        "training.steps": n("training.steps"),
        "training.loss_final": outputs.get("loss_final", 0.0),
        "training.heldout_loss_lo": outputs.get("heldout_loss_lo", 0.0),
        "cli.mask_ms_p50": _quantile(s["ms"].get("cli.mask", []), 50),
        "cli.mask_ms_p90": _quantile(s["ms"].get("cli.mask", []), 90),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = b(f"cli.{command}")
        m[f"cli.{command}_self_s"] = s["self"].get(f"cli.{command}", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    m["trace.observe_s"] = n("trace.observe_s")
    m["trace.overhead_frac"] = overhead_frac
    return m
