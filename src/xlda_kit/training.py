"""Training loop, AdamW, and the cross-lingual transfer smoke experiment.

Training is single-threaded and deterministic: identical (inputs, config,
seed) produce an identical metrics log and identical final parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import model as toy
from . import rng
from .corpus import Document, LanguageTag
from .errors import ConfigError, TrainingDivergedError
from .masks import MaskPolicy, MaskSpec, segment_ids
from .packing import (
    IGNORE_LABEL,
    DocSpan,
    PackedSequence,
    PackerConfig,
    pack_stream,
)
from .sampling import SamplerConfig
from .schedule import ScheduleConfig, lr_at


@dataclass(frozen=True)
class OptimizerConfig:
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1


class AdamW:
    """Decoupled weight decay Adam over a named tensor dict."""

    def __init__(self, params: toy.Parameters, config: OptimizerConfig):
        self.config = config
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors.items()}

    def step(self, params: toy.Parameters, grads: dict[str, np.ndarray], lr: float):
        cfg = self.config
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        for name, w in params.tensors.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            w -= lr * cfg.weight_decay * w
            w -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


@dataclass
class Batch:
    tokens: np.ndarray  # [B, L] int64
    specs: tuple[MaskSpec, ...]  # one attention mask spec per row
    ntp: np.ndarray  # [B, L] int64, IGNORE_LABEL where no target
    mtp: np.ndarray
    real_tokens: int


def _window(seq: PackedSequence, policy: MaskPolicy) -> tuple:
    """One window's tokens, mask spec, NTP and MTP labels, and real tokens."""
    return (
        seq.tokens.astype(np.int64),
        MaskSpec.for_sequence(seq, policy),
        seq.ntp_labels.astype(np.int64),
        seq.mtp_labels.astype(np.int64),
        seq.pad_start,
    )


def _stack(windows: Sequence[tuple]) -> Batch:
    tokens, specs, ntp, mtp, real = zip(*windows)
    return Batch(tokens=np.stack(tokens), specs=specs, ntp=np.stack(ntp),
                 mtp=np.stack(mtp), real_tokens=int(sum(real)))


def batch_from_sequences(
    seqs: Sequence[PackedSequence], policy: MaskPolicy
) -> Batch:
    return _stack([_window(s, policy) for s in seqs])


def cycle_batches(
    seqs: Sequence[PackedSequence], policy: MaskPolicy, batch_sequences: int
) -> Iterator[Batch]:
    """Deterministic wrap-around batching over a fixed sequence list."""
    if not seqs:
        raise ConfigError("no packed sequences to train on")
    n = len(seqs)
    cursor = 0
    while True:
        picks = [seqs[(cursor + j) % n] for j in range(batch_sequences)]
        cursor = (cursor + batch_sequences) % n
        yield _stack([_window(s, policy) for s in picks])


@dataclass
class StepMetrics:
    step: int
    lr: float
    batch_tokens: int
    loss_ntp: float
    loss_mtp: float
    loss_total: float

    CSV_HEADER = "step,lr,batch_tokens,loss_ntp,loss_mtp,loss_total"

    def csv_row(self) -> str:
        return (
            f"{self.step},{self.lr!r},{self.batch_tokens},"
            f"{self.loss_ntp!r},{self.loss_mtp!r},{self.loss_total!r}"
        )


def train(
    params: toy.Parameters,
    batches: Iterator[Batch],
    schedule: ScheduleConfig,
    optimizer: OptimizerConfig,
    steps: int,
    mtp_alpha: float | None = None,
) -> list[StepMetrics]:
    """Run ``steps`` optimizer steps, logging (step, lr, tokens, losses).

    The learning rate at step s is exactly ``lr_at(schedule, s)``. Aborts if
    the loss stops being finite.
    """
    if steps < 0:
        raise ConfigError(f"steps must be >= 0: {steps}")
    if steps > schedule.total_steps:
        raise ConfigError(
            f"steps ({steps}) exceed schedule total_steps ({schedule.total_steps})"
        )
    alpha = params.config.mtp_alpha if mtp_alpha is None else mtp_alpha
    opt = AdamW(params, optimizer)
    log: list[StepMetrics] = []
    for step in range(steps):
        batch = next(batches)
        lr = lr_at(schedule, step)
        breakdown, grads = toy.loss_and_grads(
            params, batch.tokens, batch.specs, batch.ntp, batch.mtp, mtp_alpha=alpha
        )
        if not math.isfinite(breakdown.total):
            raise TrainingDivergedError(
                f"non-finite loss {breakdown.total} at step {step}"
            )
        opt.step(params, grads, lr)
        log.append(
            StepMetrics(
                step=step,
                lr=lr,
                batch_tokens=batch.real_tokens,
                loss_ntp=breakdown.ntp,
                loss_mtp=breakdown.mtp,
                loss_total=breakdown.total,
            )
        )
    return log


def write_metrics_csv(path, log: Iterable[StepMetrics]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(StepMetrics.CSV_HEADER + "\n")
        for row in log:
            fh.write(row.csv_row() + "\n")


# --- transfer smoke experiment ----------------------------------------------
#
# Two synthetic languages share facts through a fixed vocabulary offset:
# fact k of an episode is the token pair (key_k, value_k) in the
# high-resource language and the same pair shifted by a constant in the
# low-resource one. The key->value table is redrawn for every few-window
# episode, so values are never predictable from the weights alone: the only
# winning strategy is to find the fact restated earlier in the attention
# window. Training documents state each of their facts once, so the
# restatement always sits in *another* document of the window: a model
# trained under the intra-document mask never sees one, while the
# cross-lingual window makes them abundant in both languages. Episodes are
# packed independently so that every window draws on a single table.
#
# The headline held-out comparison is a policy-neutral probe: single
# documents with internal fact repeats, where a one-span window yields the
# same mask under every policy, so differences come from the trained weights
# alone and the numbers are exactly equal across policies at a budget of
# zero steps. Packed fresh episodes scored under each model's own training
# mask are reported alongside as the system-level view.


@dataclass(frozen=True)
class TransferSpec:
    vocab_size: int = 64
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 64
    steps: int = 3000
    seq_len: int = 128
    batch_sequences: int = 4
    low_resource_share: float = 0.10
    n_keys: int = 8
    train_facts_per_doc: int = 3
    probe_facts_per_doc: int = 8
    episode_windows: int = 4
    train_windows: int = 3000
    eval_windows: int = 96
    n_probe_docs: int = 256
    peak_lr: float = 3e-3
    weight_decay: float = 0.01
    mtp_alpha: float = 0.2
    seed: int = 0
    high_lang: str = "hi"
    low_lang: str = "lo"
    policies: tuple[MaskPolicy, MaskPolicy] = (
        MaskPolicy.XLDA_FULL_CAUSAL,
        MaskPolicy.INTRA_DOCUMENT_CAUSAL,
    )

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if not (0.0 < self.low_resource_share < 1.0):
            raise ConfigError("low_resource_share must be in (0, 1)")
        if self.vocab_size < 1 + 4 * self.n_keys:
            raise ConfigError(
                f"vocab_size {self.vocab_size} too small for {self.n_keys} keys "
                f"per language (needs >= {1 + 4 * self.n_keys})"
            )
        if self.train_facts_per_doc > self.n_keys:
            raise ConfigError("train_facts_per_doc cannot exceed n_keys")
        if self.seq_len < 2 * self.train_facts_per_doc:
            raise ConfigError("seq_len cannot hold a single training document")
        if self.train_windows < self.batch_sequences:
            raise ConfigError("infeasible budget: fewer training windows than a batch")
        if self.episode_windows < 1 or self.eval_windows < 1:
            raise ConfigError("episode_windows and eval_windows must be positive")

    @property
    def lang_offset(self) -> int:
        return 2 * self.n_keys


@dataclass
class TransferReport:
    """Held-out losses per policy: the policy-neutral single-document probe
    (headline) and packed windows under each model's own training mask."""

    packed: dict[str, dict[str, float]]
    single_doc: dict[str, dict[str, float]]
    initial_single_doc: dict[str, float]
    steps: int
    token_budget: int
    languages: tuple[str, str]

    def to_json(self) -> dict:
        return {
            "packed": self.packed,
            "single_doc": self.single_doc,
            "initial_single_doc": self.initial_single_doc,
            "steps": self.steps,
            "token_budget": self.token_budget,
            "languages": list(self.languages),
        }


def _episode_table(spec: TransferSpec, stream_index: int, episode: int) -> np.ndarray:
    gen = rng.stream(
        spec.seed, rng.STREAM_TRANSFER_TABLE, (stream_index << 40) + episode
    )
    return gen.permutation(spec.n_keys)


def _fact_tokens(spec: TransferSpec, fact_ids, table: np.ndarray, low: bool) -> tuple:
    offset = spec.lang_offset if low else 0
    toks = []
    for k in fact_ids:
        toks.append(1 + offset + int(k))
        toks.append(1 + offset + spec.n_keys + int(table[int(k)]))
    return tuple(toks)


def _packed_episodes(
    spec: TransferSpec, stream_index: int, n_windows: int
) -> list[PackedSequence]:
    """Generate and pack enough per-table episodes to cover ``n_windows``."""
    gen = rng.stream(spec.seed, rng.STREAM_TRANSFER, stream_index)
    hi = LanguageTag(spec.high_lang, "english")
    lo = LanguageTag(spec.low_lang, "multilingual")
    packer = PackerConfig(seq_len=spec.seq_len, pad_token=0)
    windows: list[PackedSequence] = []
    episode = 0
    doc_serial = 0
    target_tokens = spec.episode_windows * spec.seq_len
    while len(windows) < n_windows:
        table = _episode_table(spec, stream_index, episode)
        docs = []
        cum = 0
        while cum < target_tokens:
            low = bool(gen.random() < spec.low_resource_share)
            fact_ids = gen.choice(
                spec.n_keys, size=spec.train_facts_per_doc, replace=False
            )
            toks = _fact_tokens(spec, fact_ids, table, low)
            lang = lo if low else hi
            docs.append(
                Document(
                    id=f"{lang.code}-{stream_index}-{doc_serial:07d}",
                    lang=lang,
                    tokens=toks,
                )
            )
            doc_serial += 1
            cum += len(toks)
        codes = sorted({d.lang.code for d in docs})
        sampler = SamplerConfig(
            alpha_temp=1.0,
            beta=({codes[0]: 1.0} if len(codes) == 1
                  else {codes[0]: 0.5, codes[1]: 0.5}),
            rho=0.0,
            seed=rng.derive_key(spec.seed, stream_index, episode)[0] % (1 << 62),
        )
        windows.extend(pack_stream(docs, sampler, packer))
        episode += 1
    return windows[:n_windows]


def _probe_documents(spec: TransferSpec, stream_index: int) -> list[Document]:
    """Single-document probe set: per-document tables, facts with repeats."""
    gen = rng.stream(spec.seed, rng.STREAM_TRANSFER, stream_index)
    hi = LanguageTag(spec.high_lang, "english")
    lo = LanguageTag(spec.low_lang, "multilingual")
    docs = []
    for i in range(spec.n_probe_docs):
        table = _episode_table(spec, (stream_index << 8) + 1, i)
        low = i % 2 == 1  # balanced probe
        fact_ids = gen.integers(0, spec.n_keys, size=spec.probe_facts_per_doc)
        toks = _fact_tokens(spec, fact_ids, table, low)
        lang = lo if low else hi
        docs.append(Document(id=f"probe-{lang.code}-{i:05d}", lang=lang, tokens=toks))
    return docs


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return (logits - m) - np.log(e.sum(axis=-1, keepdims=True))


def _language_ce(
    params: toy.Parameters,
    seqs: Sequence[PackedSequence],
    policy: MaskPolicy,
    codes: tuple[str, str],
    chunk: int = 32,
) -> dict[str, float]:
    """Mean next-token CE per language over packed sequences under a policy."""
    sums = {c: 0.0 for c in codes}
    counts = {c: 0 for c in codes}
    lang_to_id = {c: i for i, c in enumerate(codes)}
    for start in range(0, len(seqs), chunk):
        part = seqs[start : start + chunk]
        batch = batch_from_sequences(part, policy)
        out = toy.forward(params, batch.tokens, batch.specs)
        logp = _log_softmax(out.ntp_logits)
        labels = batch.ntp
        support = labels != np.int64(IGNORE_LABEL)
        safe = np.where(support, labels, 0)
        ce = -np.take_along_axis(logp, safe[..., None], axis=-1)[..., 0]
        lang_ids = np.stack([segment_ids(seq, lang_to_id)[1] for seq in part])
        for code, lid in lang_to_id.items():
            sel = support & (lang_ids == lid)
            sums[code] += float(ce[sel].sum())
            counts[code] += int(sel.sum())
    return {c: (sums[c] / counts[c]) if counts[c] else float("nan") for c in codes}


def _probe_ce(
    params: toy.Parameters, docs: Sequence[Document], codes: tuple[str, str]
) -> dict[str, float]:
    """Per-language NTP CE over single-document sequences (policy-neutral:
    a one-span window yields the same mask under every policy)."""
    results = {}
    for code in codes:
        subset = [d for d in docs if d.lang.code == code]
        length = len(subset[0].tokens)
        tokens = np.array([d.tokens for d in subset], dtype=np.int64)
        spans = (DocSpan(start=0, end=length, lang=subset[0].lang, doc_id="probe"),)
        spec = MaskSpec(MaskPolicy.XLDA_FULL_CAUSAL, spans, length, length)
        out = toy.forward(params, tokens, spec)
        logp = _log_softmax(out.ntp_logits)
        ce = -np.take_along_axis(logp[:, :-1, :], tokens[:, 1:, None], axis=-1)
        results[code] = float(ce.mean())
    return results


def transfer_experiment(spec: TransferSpec) -> TransferReport:
    """Train one model per mask policy on identical packed data, then compare
    held-out loss per language."""
    codes = (spec.high_lang, spec.low_lang)
    # the optimizer loop reaches only the first steps * batch_sequences windows
    packed_train = _packed_episodes(
        spec, 1, min(spec.train_windows, max(spec.steps, 1) * spec.batch_sequences)
    )
    packed_eval = _packed_episodes(spec, 2, spec.eval_windows)
    probe_docs = _probe_documents(spec, 3)

    model_cfg = toy.ModelConfig(
        n_layers=spec.n_layers,
        d_model=spec.d_model,
        d_ff=spec.d_ff,
        n_heads=spec.n_heads,
        vocab_size=spec.vocab_size,
        mtp_alpha=spec.mtp_alpha,
        seed=spec.seed,
    )
    sched = ScheduleConfig(
        peak_lr=spec.peak_lr,
        warmup_steps=max(1, spec.steps // 20) if spec.steps else 1,
        total_steps=max(spec.steps, 2),
        decay_fraction=0.2,
        final_ratio=0.1,
        batch_start_tokens=spec.batch_sequences * spec.seq_len,
        batch_end_tokens=spec.batch_sequences * spec.seq_len,
        batch_ramp_tokens=1,
        seq_len=spec.seq_len,
    )
    opt = OptimizerConfig(weight_decay=spec.weight_decay)

    init_params = toy.init(model_cfg)
    initial_probe = _probe_ce(init_params, probe_docs, codes)

    packed_losses: dict[str, dict[str, float]] = {}
    probe_losses: dict[str, dict[str, float]] = {}
    for policy in spec.policies:
        params = init_params.copy()
        batches = cycle_batches(packed_train, policy, spec.batch_sequences)
        train(params, batches, sched, opt, spec.steps, mtp_alpha=spec.mtp_alpha)
        packed_losses[policy.value] = _language_ce(params, packed_eval, policy, codes)
        probe_losses[policy.value] = _probe_ce(params, probe_docs, codes)
    return TransferReport(
        packed=packed_losses,
        single_doc=probe_losses,
        initial_single_doc=initial_probe,
        steps=spec.steps,
        token_budget=spec.steps * spec.batch_sequences * spec.seq_len,
        languages=codes,
    )
