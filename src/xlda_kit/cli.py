"""The ``xlda-kit`` command: one entry point dispatching to all modules.

Exit codes: 0 success, 1 usage error, 2 data error. Settings merge in three
layers: built-in defaults, then an INI-style config file (flat sections of
``key = value``), then command-line flags. Every command echoes the settings
it actually used, and ``--emit-config`` writes them back out as a config
file that reproduces the run.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from bisect import bisect_left
from pathlib import Path

from . import __version__, consistency, corpus, masks, model as toy, packing
from . import quality, sampling, schedule as sched, training
from .errors import ConfigError, XldaKitError

_SECTION_DEFAULTS: dict[str, dict[str, str]] = {
    "global": {"seed": "0"},
    "sampler": {"alpha": "1.0", "rho": "0.0", "beta": ""},
    "packer": {
        "seq_len": "4096",
        "split": "split",
        "pad_token": "0",
        "cross_doc_labels": "false",
    },
    "schedule": {
        "peak_lr": "2e-4",
        "warmup_steps": "2000",
        "total_steps": "100000",
        "decay_fraction": "0.1",
        "final_ratio": "0.1",
        "batch_start_tokens": "1000000",
        "batch_end_tokens": "2000000",
        "batch_ramp_tokens": "1000000000000",
        "seq_len": "4096",
    },
    "model": {
        "n_layers": "2",
        "d_model": "32",
        "d_ff": "64",
        "n_heads": "4",
        "vocab_size": "64",
        "rope_theta": "100000",
        "mtp_alpha": "0.2",
    },
    "filter": {"stage": "pretrain", "class": "english"},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


class RunConfig:
    """Defaults merged with a config file and then with flag overrides."""

    def __init__(self, config_path: str | None):
        self.values = {s: dict(kv) for s, kv in _SECTION_DEFAULTS.items()}
        self.used: dict[str, dict[str, str]] = {}
        if config_path:
            path = Path(config_path)
            if not path.exists():
                raise XldaKitError(f"no such config file: {path}")
            parser = configparser.ConfigParser()
            try:
                parser.read(path, encoding="utf-8")
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise ConfigError(f"malformed config file {path}: {exc}") from None
            for section in parser.sections():
                store = self.values.setdefault(section, {})
                for key, value in parser.items(section):
                    store[key] = value

    def override(self, section: str, key: str, value) -> None:
        if value is not None:
            self.values.setdefault(section, {})[key] = str(value)

    def get(self, section: str, key: str) -> str:
        value = self.values[section][key]
        self.used.setdefault(section, {})[key] = value
        return value

    def get_int(self, section: str, key: str) -> int:
        raw = self.get(section, key)
        try:
            return int(raw)
        except ValueError:
            raise XldaKitError(f"[{section}] {key} must be an integer, got {raw!r}") from None

    def get_float(self, section: str, key: str) -> float:
        raw = self.get(section, key)
        try:
            return float(raw)
        except ValueError:
            raise XldaKitError(f"[{section}] {key} must be a number, got {raw!r}") from None

    def get_bool(self, section: str, key: str) -> bool:
        raw = self.get(section, key).strip().lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise XldaKitError(f"[{section}] {key} must be a boolean, got {raw!r}")

    def echo_lines(self) -> list[str]:
        lines = []
        for section in sorted(self.used):
            lines.append(f"# [{section}]")
            for key in sorted(self.used[section]):
                lines.append(f"# {key} = {self.used[section][key]}")
        return lines

    def emit(self, path: str) -> None:
        parser = configparser.ConfigParser()
        for section in sorted(self.used):
            parser[section] = dict(sorted(self.used[section].items()))
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)

    def as_json(self) -> dict:
        return {s: dict(sorted(kv.items())) for s, kv in sorted(self.used.items())}


def _parse_beta(raw: str) -> dict[str, float]:
    """Parse ``en=0.85,ko=0.10,...`` and absorb float dust into the largest."""
    beta: dict[str, float] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise XldaKitError(f"bad beta entry {part!r}; expected code=value")
        code, _, value = part.partition("=")
        try:
            beta[code.strip()] = float(value)
        except ValueError:
            raise XldaKitError(f"bad beta value in {part!r}") from None
    if not beta:
        raise XldaKitError("beta is empty")
    total = sum(beta.values())
    if abs(total - 1.0) > 1e-6:
        raise XldaKitError(f"beta must sum to 1, got {total!r}")
    largest = max(beta, key=lambda c: beta[c])
    beta[largest] += 1.0 - sum(beta.values())
    return beta


def _uniform_beta(codes: list[str]) -> dict[str, float]:
    n = len(codes)
    beta = {code: 1.0 / n for code in codes}
    largest = codes[0]
    beta[largest] += 1.0 - sum(beta.values())
    return beta


def _finish(args, run: RunConfig, payload: dict, text_lines: list[str]) -> int:
    if args.emit_config:
        run.emit(args.emit_config)
    if args.json:
        print(json.dumps({"config": run.as_json(), **payload}, sort_keys=True, indent=2))
    else:
        for line in run.echo_lines():
            print(line)
        for line in text_lines:
            print(line)
    return 0


def _sampler_from(run: RunConfig, fallback_langs: list[str] | None = None
                  ) -> sampling.SamplerConfig:
    raw_beta = run.get("sampler", "beta")
    if raw_beta.strip():
        beta = _parse_beta(raw_beta)
    elif fallback_langs:
        beta = _uniform_beta(sorted(fallback_langs))
    else:
        raise XldaKitError("no beta given and no corpus to infer languages from")
    return sampling.SamplerConfig(
        alpha_temp=run.get_float("sampler", "alpha"),
        beta=beta,
        rho=run.get_float("sampler", "rho"),
        seed=run.get_int("global", "seed"),
    )


# --- subcommands -------------------------------------------------------------


def _cmd_filter(args, run: RunConfig) -> int:
    run.override("filter", "stage", args.stage)
    run.override("filter", "class", args.lang_class)
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
    run.override("sampler", "alpha", args.alpha)
    run.override("sampler", "beta", args.beta)
    run.override("sampler", "rho", args.rho)
    if args.stats:
        with open(args.stats, "r", encoding="utf-8") as fh:
            stats = corpus.CorpusStats.from_json(json.load(fh))
    else:
        stats = corpus.stats(corpus.ingest(args.corpus))
    config = _sampler_from(run, fallback_langs=stats.languages())
    dist = sampling.language_distribution(config, stats)
    plan = sampling.MixturePlan(shares=dist)
    if args.upsample:
        factors = {}
        for part in args.upsample.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise XldaKitError(f"bad upsample entry {part!r}; expected code=factor")
            code, _, value = part.partition("=")
            try:
                factors[code.strip()] = float(value)
            except ValueError:
                raise XldaKitError(f"bad upsample factor in {part!r}") from None
        plan = plan.upsample(factors)
    payload = {
        "distribution": dist,
        "token_shares": dict(plan.shares),
        "rho": config.rho,
        "corpus": stats.to_json(),
    }
    text = [f"languages: {', '.join(stats.languages())}"]
    for code in stats.languages():
        text.append(
            f"  {code}: P={dist[code]:.6f} share={plan.shares[code]:.6f} "
            f"tokens={stats.per_language[code].tokens}"
        )
    text.append(f"rho: {config.rho}")
    return _finish(args, run, {"result": payload}, text)


def _cmd_pack(args, run: RunConfig) -> int:
    run.override("global", "seed", args.seed)
    run.override("sampler", "alpha", args.alpha)
    run.override("sampler", "beta", args.beta)
    run.override("sampler", "rho", args.rho)
    run.override("packer", "seq_len", args.seq_len)
    run.override("packer", "split", args.split)
    docs = list(corpus.ingest(args.input))
    langs = sorted({d.lang.code for d in docs})
    sampler = _sampler_from(run, fallback_langs=langs)
    split = run.get("packer", "split")
    policy = {
        "split": packing.SPLIT_ACROSS_SEQUENCES,
        "drop": packing.DROP_TAIL_DOC,
        packing.SPLIT_ACROSS_SEQUENCES: packing.SPLIT_ACROSS_SEQUENCES,
        packing.DROP_TAIL_DOC: packing.DROP_TAIL_DOC,
    }.get(split)
    if policy is None:
        raise XldaKitError(f"unknown split policy {split!r}; use split|drop")
    config = packing.PackerConfig(
        seq_len=run.get_int("packer", "seq_len"),
        split_policy=policy,
        pad_token=run.get_int("packer", "pad_token"),
        cross_doc_labels=run.get_bool("packer", "cross_doc_labels"),
    )
    report = packing.PackReport()
    sequences = list(packing.pack_stream(docs, sampler, config, report=report))
    packing.write_packed(args.output, sequences, config)
    payload = {"report": report.to_json(), "output": str(args.output)}
    text = [
        f"sequences: {report.sequences}",
        f"tokens packed: {report.tokens_packed}",
        f"tokens dropped: {report.tokens_dropped}",
        f"tokens unconsumed: {report.tokens_unconsumed}",
        f"cross-lingual sequences: {report.cross_lingual_sequences}",
        f"wrote {args.output}",
    ]
    if report.stopped_early:
        text.append(f"stopped early: {report.stop_reason}")
    return _finish(args, run, {"result": payload}, text)


def _cmd_mask(args, run: RunConfig) -> int:
    policy = masks.MaskPolicy.parse(args.policy)
    sequences, config = packing.read_packed(args.packed)
    if not (0 <= args.index < len(sequences)):
        raise XldaKitError(
            f"sequence index {args.index} outside [0, {len(sequences)})"
        )
    seq = sequences[args.index]
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
        text.append("P1")
        text.append(f"{config.seq_len} {config.seq_len}")
        for row in dense:
            text.append(" ".join("1" if cell else "0" for cell in row))
        payload["dense_true_cells"] = int(dense.sum())
    return _finish(args, run, {"result": payload}, text)


def _schedule_from(run: RunConfig) -> sched.ScheduleConfig:
    return sched.ScheduleConfig(
        peak_lr=run.get_float("schedule", "peak_lr"),
        warmup_steps=run.get_int("schedule", "warmup_steps"),
        total_steps=run.get_int("schedule", "total_steps"),
        decay_fraction=run.get_float("schedule", "decay_fraction"),
        final_ratio=run.get_float("schedule", "final_ratio"),
        batch_start_tokens=run.get_int("schedule", "batch_start_tokens"),
        batch_end_tokens=run.get_int("schedule", "batch_end_tokens"),
        batch_ramp_tokens=run.get_int("schedule", "batch_ramp_tokens"),
        seq_len=run.get_int("schedule", "seq_len"),
    )


def _cmd_schedule(args, run: RunConfig) -> int:
    run.override("schedule", "peak_lr", args.peak)
    run.override("schedule", "warmup_steps", args.warmup)
    run.override("schedule", "total_steps", args.total)
    run.override("schedule", "decay_fraction", args.decay_frac)
    run.override("schedule", "final_ratio", args.final_ratio)
    config = _schedule_from(run)
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
    vocab = run.get_int("model", "vocab_size")
    if vocab_floor > vocab:
        raise XldaKitError(
            f"model vocab_size {vocab} too small for packed token ids "
            f"(max id {vocab_floor - 1}); raise [model] vocab_size"
        )
    return toy.ModelConfig(
        n_layers=run.get_int("model", "n_layers"),
        d_model=run.get_int("model", "d_model"),
        d_ff=run.get_int("model", "d_ff"),
        n_heads=run.get_int("model", "n_heads"),
        vocab_size=vocab,
        rope_theta=run.get_float("model", "rope_theta"),
        mtp_alpha=run.get_float("model", "mtp_alpha"),
        seed=run.get_int("global", "seed"),
    )


def _params_digest(params: toy.Parameters) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode())
        h.update(params.tensors[name].tobytes())
    return h.hexdigest()


def _cmd_train_toy(args, run: RunConfig) -> int:
    run.override("global", "seed", args.seed)
    run.override("schedule", "peak_lr", args.peak)
    run.override("schedule", "total_steps", max(args.steps, 2))
    run.override(
        "schedule",
        "warmup_steps",
        args.warmup if args.warmup is not None else args.steps // 20,
    )
    policy = masks.MaskPolicy.parse(args.policy)
    sequences, pack_cfg = packing.read_packed(args.packed)
    if not sequences:
        raise XldaKitError(f"no sequences in {args.packed}")
    run.override("schedule", "seq_len", pack_cfg.seq_len)
    max_id = max(int(s.tokens.max()) for s in sequences)
    config = _model_from(run, vocab_floor=max_id + 1)
    schedule_cfg = _schedule_from(run)
    params = toy.init(config)
    batches = training.cycle_batches(sequences, policy, args.batch_seqs)
    opt = training.OptimizerConfig(weight_decay=args.weight_decay)
    log = training.train(
        params, batches, schedule_cfg, opt, args.steps, mtp_alpha=config.mtp_alpha
    )
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
    run.override("global", "seed", args.seed)
    config = toy.ModelConfig(
        n_layers=1,
        d_model=8,
        d_ff=16,
        n_heads=2,
        vocab_size=11,
        mtp_alpha=0.2,
        seed=run.get_int("global", "seed"),
    )
    reports = {}
    worst = 0.0
    for alpha in (0.0, 0.2):
        report = toy.grad_check(config, tolerance=args.tolerance, mtp_alpha=alpha)
        reports[alpha] = report
        worst = max(worst, report.max_rel_error)
    passed = worst < args.tolerance
    payload = {
        "max_rel_error": worst,
        "tolerance": args.tolerance,
        "passed": passed,
        "per_alpha": {
            str(alpha): {
                "max_rel_error": r.max_rel_error,
                "coords_checked": r.coords_checked,
                "skipped": r.skipped,
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
    run.override("global", "seed", args.seed)
    overrides = {
        key: value
        for key, value in (
            ("seq_len", args.seq_len),
            ("train_windows", args.train_windows),
            ("eval_windows", args.eval_windows),
            ("n_probe_docs", args.probe_docs),
        )
        if value is not None
    }
    spec = training.TransferSpec(
        steps=args.steps,
        seed=run.get_int("global", "seed"),
        **overrides,
    )
    report = training.transfer_experiment(spec)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    hi, lo = report.languages
    text = [f"steps: {report.steps}  token budget: {report.token_budget}"]
    for policy, losses in report.packed.items():
        text.append(
            f"packed holdout {policy}: {hi}={losses[hi]:.4f} {lo}={losses[lo]:.4f}"
        )
    for policy, losses in report.single_doc.items():
        text.append(
            f"single-doc probe {policy}: {hi}={losses[hi]:.4f} {lo}={losses[lo]:.4f}"
        )
    if args.report:
        text.append(f"wrote {args.report}")
    return _finish(args, run, {"result": report.to_json()}, text)


def _cmd_eval_consistency(args, run: RunConfig) -> int:
    pairs = consistency.read_pairs(args.pairs)
    report = consistency.consistency_metrics(pairs)
    text = consistency.format_report(report).splitlines()
    return _finish(args, run, {"result": report.to_json()}, text)


# --- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="xlda-kit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser):
        p.add_argument("--seed", type=int, default=None, help="global seed")
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--emit-config", default=None,
                       help="write the effective config to this file")

    p = sub.add_parser("filter", help="quantile quality filtering")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--stage", choices=quality.STAGES, default=None)
    p.add_argument("--class", dest="lang_class",
                   choices=corpus.LANGUAGE_CLASSES, default=None)
    p.add_argument("--keep", type=float, default=None,
                   help="explicit keep fraction (overrides the stage preset)")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("plan", help="language sampling distribution and mixture")
    common(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", default=None, help="en=0.85,ko=0.10,...")
    p.add_argument("--rho", type=float, default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--stats", default=None, help="corpus stats JSON")
    group.add_argument("--corpus", default=None, help="corpus record file")
    p.add_argument("--upsample", default=None, help="code=factor,... share rescale")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("pack", help="pack documents into fixed-length sequences")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seq-len", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--split", choices=["split", "drop"], default=None)
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("mask", help="inspect the attention mask of a packed sequence")
    common(p)
    p.add_argument("--policy", required=True, help="xlda|intra|bridge")
    p.add_argument("--from", dest="packed", required=True, help="packed batch file")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--dense", action="store_true", help="emit the 0/1 grid")
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("schedule", help="emit the lr/batch schedule table")
    common(p)
    p.add_argument("--peak", type=float, default=None)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--total", type=int, default=None)
    p.add_argument("--decay-frac", type=float, default=None)
    p.add_argument("--final-ratio", type=float, default=None)
    p.add_argument("--every", type=int, default=None, help="row spacing in steps")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("advise", help="scaling-law lr and vocab factors")
    common(p)
    p.add_argument("--params-from", type=float, required=True)
    p.add_argument("--tokens-from", type=float, required=True)
    p.add_argument("--params-to", type=float, required=True)
    p.add_argument("--tokens-to", type=float, required=True)
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser("train-toy", help="train the reference model on a packed file")
    common(p)
    p.add_argument("--packed", required=True)
    p.add_argument("--policy", required=True, help="xlda|intra|bridge")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--batch-seqs", type=int, default=4)
    p.add_argument("--peak", type=float, default=None)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--weight-decay", type=float, default=0.1)
    p.add_argument("--metrics", default=None, help="metrics CSV output path")
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    common(p)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("transfer", help="cross-lingual transfer smoke experiment")
    common(p)
    p.add_argument("--steps", type=int, default=3000)
    p.add_argument("--seq-len", type=int, default=None)
    p.add_argument("--train-windows", type=int, default=None)
    p.add_argument("--eval-windows", type=int, default=None)
    p.add_argument("--probe-docs", type=int, default=None)
    p.add_argument("--report", default=None, help="JSON report output path")
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("eval-consistency", help="cross-lingual consistency metrics")
    common(p)
    p.add_argument("--pairs", required=True,
                   help="line-delimited {item_id, src_correct, tgt_correct}")
    p.set_defaults(func=_cmd_eval_consistency)

    return parser


def dispatch(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version paths
        return int(exc.code or 0)
    try:
        run = RunConfig(getattr(args, "config", None))
        if getattr(args, "seed", None) is not None:
            run.override("global", "seed", args.seed)
        return args.func(args, run)
    except (XldaKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
