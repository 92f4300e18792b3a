"""The ``xlda-kit`` command: one entry point dispatching to all modules.

Exit codes: 0 success, 1 usage error, 2 data error. Every setting is one row of
``SETTINGS``: a ``[section] key`` with a type, a default and, for some, the
flag that overrides it. Values merge in three layers: the defaults, then an
INI-style config file (flat sections of ``key = value``), then flags. A config
file may name only the table's sections and keys, plus the ignored ``RETIRED``
keys; any other section or key, any key under ``[DEFAULT]`` and any value its
key's type rejects is a config error (exit 2). A bad number given to a flag, an
integer below its bound included, is a usage error (exit 1) naming the flag.
Every command echoes the settings it used, as the strings it was given, and
``--emit-config`` writes them out as a config file. The file holds settings
only: a flag that is not one (the paths, and ``train-toy``'s ``--policy``,
``--batch-seqs`` and ``--weight-decay``) must be given again to repeat a run.
"""

from __future__ import annotations

import argparse
import codecs
import configparser
import hashlib
import json
import math
import os
import sys
from bisect import bisect_left
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, consistency, corpus, masks, model as toy, packing
from . import quality, sampling, schedule as sched, training
from .errors import ConfigError, DataError, XldaKitError


class _Type(NamedTuple):
    """How a setting's string parses, and the argparse keywords of its flag."""

    what: str  # completes "must be ..." in the error for a bad string
    parse: Callable[[str], object]  # raises ValueError or KeyError for a bad string
    flag: dict


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _integer(low: int | None = None) -> _Type:
    """An integer, at least ``low`` if given; as a flag type, a bad value is a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if low is not None and value < low:
            raise ValueError(text)
        return value
    what = "an integer" if low is None else f"an integer >= {low}"
    return _Type(what, parse, {"type": _argument(what, parse)})


def _argument(what: str, parse: Callable[[str], object]):
    """Argument type from a setting parser: a bad value is a usage error."""
    def checked(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
    return checked


def _checked_text(what: str, parse: Callable[[str], object]):
    """Argument type that checks a string with ``parse`` and passes it on as
    given, for a setting whose parsed value is not a string."""
    def check(text: str) -> str:
        parse(text)
        return text
    return _argument(what, check)


_finite_float = _argument("a finite number", _finite)


def _choice(names: dict[str, str]) -> _Type:
    """One of ``names``; a config file may also give the value a name stands for."""
    accepted = {**{value: value for value in names.values()}, **names}
    return _Type("one of " + "|".join(names), accepted.__getitem__, {"choices": list(names)})


def _code_values(text: str) -> dict[str, float]:
    """Parse ``en=0.85,ko=0.10,...`` into finite numbers by language code;
    ``ValueError`` for an entry that is not code=finite value."""
    values: dict[str, float] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        code, _, value = part.partition("=")
        values[code.strip()] = _finite(value)
    return values


def _beta(text: str) -> dict[str, float] | None:
    """``[sampler] beta``; empty means a uniform share per corpus language.

    Float dust in the sum is absorbed into the largest share.
    """
    if not text.strip():
        return None
    beta = _code_values(text)
    if not beta or abs(sum(beta.values()) - 1.0) > 1e-6:
        raise ValueError(text)
    largest = max(beta, key=lambda c: beta[c])
    beta[largest] += 1.0 - sum(beta.values())
    return beta


_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}
_BOOL = _Type("a boolean (true|false)", lambda text: _BOOLEANS[text.strip().lower()], {})
_FLOAT = _Type("a finite number", _finite, {"type": _finite_float})
_BETA_WHAT = "code=value pairs summing to 1"
_BETA = _Type(_BETA_WHAT, _beta, {"type": _checked_text(_BETA_WHAT, _beta)})


class Setting(NamedTuple):
    type: _Type
    default: str
    flag: str | None = None  # overrides the key in the commands that bind it


SETTINGS: dict[tuple[str, str], Setting] = {
    ("global", "seed"): Setting(_integer(), "0", "--seed"),
    ("sampler", "alpha"): Setting(_FLOAT, "1.0", "--alpha"),
    ("sampler", "rho"): Setting(_FLOAT, "0.0", "--rho"),
    ("sampler", "beta"): Setting(_BETA, "", "--beta"),
    ("packer", "seq_len"): Setting(_integer(packing.MIN_SEQ_LEN), "4096", "--seq-len"),
    ("packer", "split"): Setting(_choice({"split": packing.SPLIT_ACROSS_SEQUENCES,
                                          "drop": packing.DROP_TAIL_DOC}), "split", "--split"),
    ("packer", "cross_doc_labels"): Setting(_BOOL, "false"),
    ("schedule", "peak_lr"): Setting(_FLOAT, "2e-4", "--peak"),
    ("schedule", "warmup_steps"): Setting(_integer(0), "2000", "--warmup"),
    ("schedule", "total_steps"): Setting(_integer(1), "100000", "--total"),
    ("schedule", "decay_fraction"): Setting(_FLOAT, "0.1", "--decay-frac"),
    ("schedule", "final_ratio"): Setting(_FLOAT, "0.1", "--final-ratio"),
    ("schedule", "batch_start_tokens"): Setting(_integer(1), "1000000"),
    ("schedule", "batch_end_tokens"): Setting(_integer(1), "2000000"),
    ("schedule", "batch_ramp_tokens"): Setting(_integer(1), "1000000000000"),
    ("schedule", "seq_len"): Setting(_integer(1), "4096"),
    ("model", "n_layers"): Setting(_integer(1), "2"),
    ("model", "d_model"): Setting(_integer(1), "32"),
    ("model", "d_ff"): Setting(_integer(1), "64"),
    ("model", "n_heads"): Setting(_integer(1), "4"),
    ("model", "vocab_size"): Setting(_integer(1), "64"),
    ("model", "rope_theta"): Setting(_FLOAT, "100000"),
    ("model", "mtp_alpha"): Setting(_FLOAT, "0.2"),
    ("model", "dtype"): Setting(_choice({name: name for name in toy.DTYPES}), "float32"),
    ("filter", "stage"): Setting(_choice({s: s for s in quality.STAGES}), "pretrain", "--stage"),
    ("filter", "class"): Setting(_choice({c: c for c in corpus.LANGUAGE_CLASSES}),
                                 "english", "--class"),
    **{("transfer", key): Setting(_integer(training.TransferSpec.least[key][0]),
                                  str(getattr(training.TransferSpec, key)), flag)
       for key, flag in (("steps", "--steps"), ("seq_len", "--seq-len"),
                         ("train_windows", "--train-windows"),
                         ("eval_windows", "--eval-windows"), ("n_probe_docs", "--probe-docs"))},
}
# keys older config files may hold: accepted, ignored and not echoed
RETIRED = {("global", "threads"), ("filter", "binarize_threshold"), ("packer", "pad_token")}


def _parse(section: str, key: str, raw: str):
    kind = SETTINGS[section, key].type
    try:
        return kind.parse(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"[{section}] {key} must be {kind.what}, got {raw!r}") from None


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


class RunConfig:
    """``SETTINGS`` defaults, then a config file; ``dispatch`` applies the flags."""

    def __init__(self, config_path: str | None):
        self.raw = {name: setting.default for name, setting in SETTINGS.items()}
        self.file: dict[tuple[str, str], str] = {}  # what the config file set
        self.used: dict[str, dict[str, str]] = {}
        if config_path:
            self._read(Path(config_path))

    def _read(self, path: Path) -> None:
        if not path.exists():
            raise XldaKitError(f"no such config file: {path}")
        if path.is_dir():
            raise ConfigError(f"config file is a directory, not a file: {path}")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is skipped
                parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
        if parser.defaults():
            raise ConfigError(f"config file {path}: keys under [DEFAULT] are not settings; "
                              f"put each of {', '.join(parser.defaults())} under its section")
        for section in parser.sections():
            keys = [k for s, k in SETTINGS if s == section]
            if not keys:
                raise ConfigError(f"config file {path}: unknown section [{section}]; sections "
                                  f"are {', '.join(dict.fromkeys(s for s, _ in SETTINGS))}")
            for key, value in parser.items(section):
                if key in keys:
                    _parse(section, key, value)
                    self.raw[section, key] = self.file[section, key] = value
                elif (section, key) not in RETIRED:
                    raise ConfigError(f"config file {path}: unknown key {key!r} in "
                                      f"[{section}]; keys are {', '.join(keys)}")

    def get(self, section: str, key: str, given: tuple[object, str] | None = None):
        """The typed value of ``[section] key``.

        ``given`` is ``(value, source)`` for a value the command derives
        itself from ``source``; it replaces the default and the flags and is
        echoed like them. A config file that sets the key to another value is
        a ``ConfigError``.
        """
        raw = self.raw[section, key]
        if given is not None:
            value, source = given
            in_file = self.file.get((section, key))
            if in_file is not None and _parse(section, key, in_file) != value:
                raise ConfigError(f"[{section}] {key} = {in_file} in the config file "
                                  f"conflicts with {value}, set by {source}")
            raw = str(value)
        self.used.setdefault(section, {})[key] = raw
        return _parse(section, key, raw)

    def section(self, section: str, **given) -> dict:
        """Every key of ``section`` by name, typed; see ``get`` for ``given``."""
        return {key: self.get(section, key, given.get(key)) for s, key in SETTINGS if s == section}

    def echo_lines(self) -> list[str]:
        lines = []
        for section in sorted(self.used):
            lines.append(f"# [{section}]")
            for key in sorted(self.used[section]):
                lines.append(f"# {key} = {self.used[section][key]}")
        return lines

    def emit(self, path: str) -> None:
        parser = configparser.ConfigParser(interpolation=None)
        for section in sorted(self.used):
            parser[section] = dict(sorted(self.used[section].items()))
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)

    def as_json(self) -> dict:
        return {s: dict(sorted(kv.items())) for s, kv in sorted(self.used.items())}


def _finish(args, run: RunConfig, payload: dict, text_lines: list[str]) -> int:
    if args.emit_config:
        run.emit(args.emit_config)
    if args.json:
        # one line: `indent` would take json's pure-Python encoder
        print(json.dumps({"config": run.as_json(), **payload}, sort_keys=True))
    else:
        for line in run.echo_lines():
            print(line)
        for line in text_lines:
            print(line)
    return 0


def _sampler_from(run: RunConfig) -> sampling.SamplerConfig:
    """The sampler of the settings; with no beta given, the sampler's own
    uniform one over the corpus languages."""
    return sampling.SamplerConfig(
        alpha_temp=run.get("sampler", "alpha"),
        beta=run.get("sampler", "beta"),
        rho=run.get("sampler", "rho"),
        seed=run.get("global", "seed"),
    )


# --- subcommands -------------------------------------------------------------


def _cmd_filter(args, run: RunConfig) -> int:
    stage = run.get("filter", "stage")
    lang_class = run.get("filter", "class")
    keep = args.keep if args.keep is not None else quality.stage_preset(stage, lang_class)
    report = corpus.IngestReport()
    docs = list(corpus.ingest(args.input, report=report))
    kept = quality.quantile_filter(docs, keep)
    corpus.write_records(kept, args.output)
    payload = {
        "keep_fraction": keep,
        "input_documents": len(docs),
        "kept_documents": len(kept),
        "dropped_documents": len(docs) - len(kept),
        "malformed_lines": report.skipped,
    }
    text = [
        f"keep fraction: {keep}",
        f"documents: {len(docs)} in, {len(kept)} kept, {len(docs) - len(kept)} dropped",
        f"malformed lines skipped: {report.skipped}",
        f"wrote {args.output}",
    ]
    return _finish(args, run, {"result": payload}, text)


def _cmd_plan(args, run: RunConfig) -> int:
    report = None
    if args.stats:
        # a leading BOM is skipped, at the start only
        raw = corpus.input_file(args.stats).read_bytes().removeprefix(codecs.BOM_UTF8)
        stats = corpus.CorpusStats.from_json(corpus.parse_json_object(raw))
    else:
        report = corpus.IngestReport()
        stats = corpus.stats(corpus.ingest(args.corpus, report=report))
    if not stats.languages():
        raise DataError(f"the stats in {args.stats} name no language" if args.stats
                        else f"the corpus {args.corpus} has no document")
    config = _sampler_from(run)
    dist = shares = sampling.language_distribution(config, stats)
    if args.upsample:
        for code in args.upsample:
            if code not in dist:
                raise ConfigError(f"unknown language in upsample factors: {code!r}")
        shares = sampling.normalized({code: p * args.upsample.get(code, 1.0)
                                      for code, p in dist.items()})
    payload = {
        "distribution": dist,
        "token_shares": shares,
        "rho": config.rho,
        "corpus": stats.to_json(),
    }
    text = [f"languages: {', '.join(stats.languages())}"]
    for code in stats.languages():
        text.append(
            f"  {code}: P={dist[code]:.6f} share={shares[code]:.6f} "
            f"tokens={stats.per_language[code].tokens}"
        )
    text.append(f"rho: {config.rho}")
    if report is not None:
        payload["malformed_lines"] = report.skipped
        text.append(f"malformed lines skipped: {report.skipped}")
    return _finish(args, run, {"result": payload}, text)


def _cmd_pack(args, run: RunConfig) -> int:
    ingest_report = corpus.IngestReport()
    docs = list(corpus.ingest(args.input, report=ingest_report))
    if not docs:
        raise DataError(f"the corpus {args.input} has no document")
    sampler = _sampler_from(run)
    config = packing.PackerConfig(
        seq_len=run.get("packer", "seq_len"),
        split_policy=run.get("packer", "split"),
        cross_doc_labels=run.get("packer", "cross_doc_labels"),
    )
    _check_memory(packing.working_set_bytes(docs, config.seq_len),
                  "shrink --seq-len or split the corpus", "packing")
    report = packing.PackReport()
    sequences = list(packing.pack_stream(docs, sampler, config, report))
    packing.write_packed(args.output, sequences, config)
    payload = {"report": report.to_json(), "output": str(args.output),
               "malformed_lines": ingest_report.skipped}
    text = [
        f"sequences: {report.sequences}",
        f"tokens packed: {report.tokens_packed}",
        f"tokens dropped: {report.tokens_dropped}",
        f"tokens unconsumed: {report.tokens_unconsumed}",
        f"cross-lingual sequences: {report.cross_lingual_sequences}",
        f"malformed lines skipped: {ingest_report.skipped}",
        f"wrote {args.output}",
    ]
    if report.stopped_early:
        text.append(f"stopped early: {report.stop_reason}")
    return _finish(args, run, {"result": payload}, text)


def _cmd_mask(args, run: RunConfig) -> int:
    policy = masks.MaskPolicy.parse(args.policy)
    [seq], config = packing.read_packed(args.packed, index=args.index)
    spec = masks.MaskSpec.for_sequence(seq, policy)
    payload = {
        "policy": policy.value,
        "pad_start": seq.pad_start,
        "seq_len": config.seq_len,
        "allowed_pairs": masks.allowed_pair_count(spec),
        "spans": [
            {
                "start": s.start,
                "end": s.end,
                "lang": s.lang.code,
                "doc": s.doc_id,
            }
            for s in seq.spans
        ],
    }
    text = [
        f"policy: {policy.value}",
        f"pad_start: {seq.pad_start}  allowed pairs: {payload['allowed_pairs']}",
    ]
    for s in seq.spans:
        text.append(f"  span [{s.start}, {s.end}) lang={s.lang.code} doc={s.doc_id}")
    if args.dense:
        dense = masks.materialize_dense(spec, config.seq_len)
        payload["dense_true_cells"] = int(dense.sum())
        if not args.json:  # the grid is O(L²) text: build it only to print it
            text += ["P1", f"{config.seq_len} {config.seq_len}", _grid_text(dense)]
    return _finish(args, run, {"result": payload}, text)


def _grid_text(grid: np.ndarray) -> str:
    """A boolean grid as rows of space-separated 0/1 cells, one row a line."""
    cells = np.full((grid.shape[0], 2 * grid.shape[1]), ord(" "), dtype=np.uint8)
    cells[:, 0::2] = grid.view(np.uint8) + ord("0")
    cells[:, -1] = ord("\n")
    return cells.tobytes()[:-1].decode("ascii")


def _cmd_schedule(args, run: RunConfig) -> int:
    config = sched.ScheduleConfig(**run.section("schedule"))
    every = args.every or max(1, config.total_steps // 20)
    marks = sorted(
        set(range(0, config.total_steps + 1, every))
        | {0, config.warmup_steps, config.decay_start, config.total_steps}
    )
    # each step trains on batch_size_at(tokens seen) tokens; that never
    # shrinks, so advance by whole runs of one batch size, bisecting for
    # each run's end, instead of step by step
    rows = []
    step = tokens_seen = 0
    for mark in marks:
        while step < mark:
            batch = sched.batch_size_at(config, tokens_seen)
            n = bisect_left(range(mark - step), True, key=lambda j: (
                sched.batch_size_at(config, tokens_seen + j * batch) > batch))
            step, tokens_seen = step + n, tokens_seen + n * batch
        batch = sched.batch_size_at(config, tokens_seen)
        rows.append((step, sched.lr_at(config, step), batch, tokens_seen))
    payload = {
        "rows": [
            {"step": s, "lr": lr, "batch_tokens": b, "tokens_seen": t}
            for s, lr, b, t in rows
        ],
        "decay_start": config.decay_start,
    }
    if args.csv:
        text = ["step,lr,batch_tokens,tokens_seen"]
        text += [f"{s},{lr!r},{b},{t}" for s, lr, b, t in rows]
    else:
        text = [f"{'step':>10} {'lr':>14} {'batch':>12} {'tokens_seen':>16}"]
        text += [f"{s:>10} {lr:>14.6e} {b:>12} {t:>16}" for s, lr, b, t in rows]
    return _finish(args, run, {"result": payload}, text)


def _cmd_advise(args, run: RunConfig) -> int:
    ratio = sched.compute_ratio(
        args.params_from, args.tokens_from, args.params_to, args.tokens_to
    )
    lr_factor = sched.lr_scale_factor(ratio)
    vocab_factor = sched.vocab_scale_factor(ratio)
    payload = {
        "compute_ratio": ratio,
        "lr_scale_factor": lr_factor,
        "vocab_scale_factor": vocab_factor,
    }
    text = [
        f"compute ratio: {ratio:.6g}",
        f"lr scale factor: {lr_factor:.6g}",
        f"vocab scale factor: {vocab_factor:.6g}",
    ]
    return _finish(args, run, {"result": payload}, text)


def _model_from(run: RunConfig, vocab_floor: int = 0) -> toy.ModelConfig:
    shape = run.section("model")
    if vocab_floor > shape["vocab_size"]:
        raise XldaKitError(
            f"model vocab_size {shape['vocab_size']} too small for packed token ids "
            f"(max id {vocab_floor - 1}); raise [model] vocab_size"
        )
    return toy.ModelConfig(**shape, seed=run.get("global", "seed"))


def _available_memory(meminfo: str = "/proc/meminfo") -> int:
    """Bytes a new allocation can get: ``MemAvailable`` from ``meminfo``, or
    the physical memory where that cannot be read."""
    try:
        with open(meminfo, encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, ValueError, KeyError, IndexError):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(need: int, advice: str, work: str = "training") -> None:
    """Refuse a run the machine cannot hold before its large allocations;
    ``work`` names what needs the memory in the message."""
    available = _available_memory()
    if need > available:
        raise ConfigError(f"{work} needs about {need / 2**30:.1f} GiB, more than the "
                          f"{available / 2**30:.1f} GiB of available memory; {advice}")


def _params_digest(params: toy.Parameters) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode())
        h.update(params.tensors[name].tobytes())
    return h.hexdigest()


def _cmd_train_toy(args, run: RunConfig) -> int:
    policy = masks.MaskPolicy.parse(args.policy)
    sequences, pack_cfg = packing.read_packed(args.packed)
    if not sequences:
        raise XldaKitError(f"no sequences in {args.packed}")
    max_id = max(int(s.tokens.max()) for s in sequences)
    config = _model_from(run, vocab_floor=max_id + 1)
    schedule_cfg = sched.ScheduleConfig(**run.section(
        "schedule",
        total_steps=(max(args.steps, 2), "--steps"),
        warmup_steps=(args.warmup, "--warmup") if args.warmup is not None
        else (args.steps // 20, "--steps"),
        seq_len=(pack_cfg.seq_len, "the packed file"),
    ))
    _check_memory(toy.working_set_bytes(config, args.batch_seqs, pack_cfg.seq_len),
                  "shrink [model] or --batch-seqs")
    params = toy.init(config)
    batches = training.cycle_batches(sequences, policy, args.batch_seqs)
    log = training.train(params, batches, schedule_cfg, args.weight_decay, args.steps)
    if args.metrics:
        training.write_metrics_csv(args.metrics, log)
    digest = _params_digest(params)
    payload = {
        "steps": len(log),
        "final_loss": log[-1].loss_total if log else None,
        "params_sha256": digest,
        "metrics_file": args.metrics,
    }
    text = [
        f"policy: {policy.value}",
        f"steps: {len(log)}",
        f"final loss: {log[-1].loss_total!r}" if log else "final loss: n/a",
        f"params sha256: {digest}",
    ]
    if args.metrics:
        text.append(f"wrote {args.metrics}")
    else:
        text.append(training.StepMetrics.CSV_HEADER)
        text.extend(row.csv_row() for row in log)
    return _finish(args, run, {"result": payload}, text)


def _cmd_grad_check(args, run: RunConfig) -> int:
    config = toy.ModelConfig(
        n_layers=1,
        d_model=8,
        d_ff=16,
        n_heads=2,
        vocab_size=11,
        seed=run.get("global", "seed"),
    )
    reports = {alpha: toy.grad_check(replace(config, mtp_alpha=alpha), tolerance=args.tolerance)
               for alpha in (0.0, 0.2)}
    worst = max(r.max_rel_error for r in reports.values())
    passed = all(r.passed for r in reports.values())
    payload = {
        "max_rel_error": worst,
        "tolerance": args.tolerance,
        "passed": passed,
        "per_alpha": {
            str(alpha): {
                "max_rel_error": r.max_rel_error,
                "coords_checked": r.coords_checked,
            }
            for alpha, r in reports.items()
        },
    }
    text = [
        f"coords checked: {sum(r.coords_checked for r in reports.values())}",
        f"max relative error: {worst:.3e} (tolerance {args.tolerance:.1e})",
        "PASS" if passed else "FAIL",
    ]
    code = _finish(args, run, {"result": payload}, text)
    return code if passed else 2


def _cmd_transfer(args, run: RunConfig) -> int:
    spec = training.TransferSpec(**run.section("transfer"), seed=run.get("global", "seed"),
                                 dtype=run.get("model", "dtype"))
    _check_memory(spec.working_set_bytes(), "shrink --seq-len")
    report = training.transfer_experiment(spec)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    hi, lo = report.languages
    text = [f"steps: {report.steps}  token budget: {report.token_budget}"]
    for name, table in (("packed holdout", report.packed),
                        ("single-doc probe", report.single_doc)):
        for policy, losses in table.items():
            text.append(f"{name} {policy}: {hi}={losses[hi]:.4f} {lo}={losses[lo]:.4f}")
    if args.report:
        text.append(f"wrote {args.report}")
    return _finish(args, run, {"result": report.to_json()}, text)


def _cmd_eval_consistency(args, run: RunConfig) -> int:
    pairs = consistency.read_pairs(args.pairs)
    report = consistency.consistency_metrics(pairs)
    text = consistency.format_report(report).splitlines()
    return _finish(args, run, {"result": report.to_json()}, text)


# --- parser ------------------------------------------------------------------


def _bind(p: _Parser, section: str, *flags: str) -> None:
    """Add the flags of ``section``'s ``SETTINGS`` rows, only those named if
    any are; ``dispatch`` applies what they are given."""
    for (s, key), setting in SETTINGS.items():
        if s == section and setting.flag and (not flags or setting.flag in flags):
            p.add_argument(setting.flag, dest=f"{section}.{key}", default=None,
                           help=setting.type.what, **setting.type.flag)


COMMANDS: dict[str, tuple[str, Callable[..., int]]] = {
    "filter": ("quantile quality filtering", _cmd_filter),
    "plan": ("language sampling distribution and mixture", _cmd_plan),
    "pack": ("pack documents into fixed-length sequences", _cmd_pack),
    "mask": ("inspect the attention mask of a packed sequence", _cmd_mask),
    "schedule": ("emit the lr/batch schedule table", _cmd_schedule),
    "advise": ("scaling-law lr and vocab factors", _cmd_advise),
    "train-toy": ("train the reference model on a packed file", _cmd_train_toy),
    "grad-check": ("finite-difference gradient verification", _cmd_grad_check),
    "transfer": ("cross-lingual transfer smoke experiment", _cmd_transfer),
    "eval-consistency": ("cross-lingual consistency metrics", _cmd_eval_consistency),
}


def _add_arguments(name: str, p: _Parser) -> None:
    """The arguments of command ``name`` beyond the common ones."""
    match name:
        case "filter":
            p.add_argument("--input", required=True)
            p.add_argument("--output", required=True)
            _bind(p, "filter")
            p.add_argument("--keep", type=_finite_float, default=None,
                           help="explicit keep fraction (overrides the stage preset)")
        case "plan":
            _bind(p, "sampler")
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--stats", default=None, help="corpus stats JSON")
            group.add_argument("--corpus", default=None, help="corpus record file")
            p.add_argument("--upsample", type=_argument("code=factor pairs", _code_values),
                           default=None, help="code=factor,... share rescale")
        case "pack":
            p.add_argument("--input", required=True)
            p.add_argument("--output", required=True)
            _bind(p, "sampler")
            _bind(p, "packer")
        case "mask":
            p.add_argument("--policy", required=True, help="xlda|intra|bridge")
            p.add_argument("--from", dest="packed", required=True, help="packed batch file")
            p.add_argument("--index", default=0, **_integer(0).flag)
            p.add_argument("--dense", action="store_true", help="emit the 0/1 grid")
        case "schedule":
            _bind(p, "schedule")
            p.add_argument("--every", default=None, help="row spacing in steps",
                           **_integer(1).flag)
            p.add_argument("--csv", action="store_true")
        case "advise":
            for flag in ("--params-from", "--tokens-from", "--params-to", "--tokens-to"):
                p.add_argument(flag, type=_finite_float, required=True)
        case "train-toy":
            p.add_argument("--packed", required=True)
            p.add_argument("--policy", required=True, help="xlda|intra|bridge")
            p.add_argument("--steps", required=True, **_integer(0).flag)
            p.add_argument("--batch-seqs", default=4, **_integer(1).flag)
            _bind(p, "schedule", "--peak")
            p.add_argument("--warmup", default=None,
                           help="[schedule] warmup_steps (default: steps // 20)",
                           **_integer(0).flag)
            p.add_argument("--weight-decay", type=_finite_float, default=0.1)
            p.add_argument("--metrics", default=None, help="metrics CSV output path")
        case "grad-check":
            p.add_argument("--tolerance", type=_finite_float, default=1e-6)
        case "transfer":
            _bind(p, "transfer")
            p.add_argument("--report", default=None, help="JSON report output path")
        case "eval-consistency":
            p.add_argument("--pairs", required=True,
                           help="line-delimited {item_id, src_correct, tgt_correct}")


def build_parser() -> _Parser:
    """The parser holding every command; ``dispatch`` builds it once per process."""
    parser = _Parser(prog="xlda-kit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (summary, func) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        _bind(p, "global")
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--emit-config", default=None,
                       help="write the effective config to this file")
        _add_arguments(name, p)
        p.set_defaults(func=func)
    return parser


# parsing leaves nothing on a parser, so every call in a process shares one
_parser = cache(build_parser)


# the flags naming a file that a command writes once its work is done
_OUTPUT_FLAGS = ("--output", "--metrics", "--report", "--emit-config")


def _check_outputs(args) -> None:
    """Refuse an output path that cannot take a file before any work starts:
    one that is a directory, or one whose directory does not exist. Nothing
    is created or truncated."""
    for flag in _OUTPUT_FLAGS:
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path is None:
            continue
        target = Path(path)
        if target.is_dir():
            raise ConfigError(f"{flag} {path} is a directory, not a file")
        if not target.parent.is_dir():
            raise ConfigError(f"{flag} {path}: no such directory {target.parent}")


def dispatch(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit status.

    Every call parses ``argv`` with the process's one parser of every
    command (``build_parser``).
    """
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version paths
        return int(exc.code or 0)
    try:
        run = RunConfig(args.config)
        for section, key in SETTINGS:  # the flags _bind added
            value = getattr(args, f"{section}.{key}", None)
            if value is not None:
                run.raw[section, key] = str(value)
        _check_outputs(args)
        return args.func(args, run)
    except (XldaKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
