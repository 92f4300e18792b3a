"""Training loop, AdamW, and the cross-lingual transfer smoke experiment.

Training is single-threaded and deterministic: identical (inputs, config,
seed) produce an identical metrics log and identical final parameters.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from . import model as toy
from . import rng
from .corpus import Document, LanguageTag
from .errors import ConfigError, TrainingDivergedError
from .masks import MaskPolicy, MaskSpec, segment_ids
from .packing import (MIN_SEQ_LEN, SPAN_BYTES, DocSpan, PackedSequence, PackerConfig,
                      pack_stream)
from .sampling import SamplerConfig
from .schedule import ScheduleConfig, lr_at


class AdamW:
    """Decoupled weight decay Adam: one elementwise pass over the flat
    parameter vector, with both moments kept as flat vectors of its size."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.95
    eps: ClassVar[float] = 1e-8

    def __init__(self, params: toy.Parameters, weight_decay: float):
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def step(self, params: toy.Parameters, grads: toy.Parameters, lr: float):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        w, g, m, v = params.flat, grads.flat, self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        w -= lr * self.weight_decay * w
        w -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@dataclass
class Batch:
    tokens: np.ndarray  # [B, L] uint32, the windows' own dtype
    specs: tuple[MaskSpec, ...]  # one attention mask spec per row
    ntp: np.ndarray  # [B, L] uint32, IGNORE_LABEL where no target
    mtp: np.ndarray
    real_tokens: int


def batch_from_sequences(
    seqs: Sequence[PackedSequence], policy: MaskPolicy
) -> Batch:
    """The windows stacked row by row, each with its mask spec under ``policy``."""
    return Batch(tokens=np.stack([s.tokens for s in seqs]),
                 specs=tuple(MaskSpec.for_sequence(s, policy) for s in seqs),
                 ntp=np.stack([s.ntp_labels for s in seqs]),
                 mtp=np.stack([s.mtp_labels for s in seqs]),
                 real_tokens=int(sum(s.pad_start for s in seqs)))


def cycle_batches(
    seqs: Sequence[PackedSequence], policy: MaskPolicy, batch_sequences: int
) -> Iterator[Batch]:
    """Deterministic wrap-around batching over a fixed sequence list."""
    if not seqs:
        raise ConfigError("no packed sequences to train on")
    if batch_sequences < 1:
        raise ConfigError(f"batch_sequences must be >= 1: {batch_sequences}")
    n = len(seqs)
    cursor = 0
    while True:
        picks = [seqs[(cursor + j) % n] for j in range(batch_sequences)]
        cursor = (cursor + batch_sequences) % n
        yield batch_from_sequences(picks, policy)


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
    weight_decay: float,
    steps: int,
) -> list[StepMetrics]:
    """Run ``steps`` optimizer steps, logging (step, lr, tokens, losses).

    The learning rate at step s is exactly ``lr_at(schedule, s)``; the MTP
    loss weight is the model config's ``mtp_alpha``. Aborts before the update
    if the loss or the gradient stops being finite, so the parameters are
    left as the previous step made them.
    """
    if steps < 0:
        raise ConfigError(f"steps must be >= 0: {steps}")
    if steps > schedule.total_steps:
        raise ConfigError(
            f"steps ({steps}) exceed schedule total_steps ({schedule.total_steps})"
        )
    opt = AdamW(params, weight_decay)
    log: list[StepMetrics] = []
    for step in range(steps):
        batch = next(batches)
        lr = lr_at(schedule, step)
        breakdown, grads = toy.loss_and_grads(params, batch.tokens, batch.specs, batch.ntp,
                                              batch.mtp)
        if not math.isfinite(breakdown.total):
            raise TrainingDivergedError(
                f"non-finite loss {breakdown.total} at step {step}"
            )
        g2 = float(grads.flat @ grads.flat)
        if not math.isfinite(g2):
            raise TrainingDivergedError(
                f"non-finite gradient (squared norm {g2}) at step {step}"
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
    """One transfer run: its budget, windows, seed, dtype and policies.

    The synthetic task and the model are fixed class constants. Token 0 is
    unused; ``n_keys`` keys and values of the high-resource language come
    next, then the low-resource language's, inside ``vocab_size``. Training
    documents state ``train_facts_per_doc`` distinct facts and probe
    documents ``probe_facts_per_doc`` facts with repeats, and one key->value
    table covers an episode of about ``episode_windows`` windows.
    """

    # the task
    n_keys: ClassVar[int] = 8
    train_facts_per_doc: ClassVar[int] = 3
    probe_facts_per_doc: ClassVar[int] = 8
    episode_windows: ClassVar[int] = 4
    high_lang: ClassVar[str] = "hi"
    low_lang: ClassVar[str] = "lo"
    # the model and its optimizer
    vocab_size: ClassVar[int] = 64
    d_model: ClassVar[int] = 32
    n_layers: ClassVar[int] = 2
    n_heads: ClassVar[int] = 4
    d_ff: ClassVar[int] = 64
    batch_sequences: ClassVar[int] = 4
    peak_lr: ClassVar[float] = 3e-3
    weight_decay: ClassVar[float] = 0.01
    mtp_alpha: ClassVar[float] = 0.2

    steps: int = 3000
    seq_len: int = 128
    low_resource_share: float = 0.10
    train_windows: int = 3000
    eval_windows: int = 96
    n_probe_docs: int = 256
    seed: int = 0
    dtype: str = "float32"  # the models' parameter and compute dtype
    policies: tuple[MaskPolicy, MaskPolicy] = (
        MaskPolicy.XLDA_FULL_CAUSAL,
        MaskPolicy.INTRA_DOCUMENT_CAUSAL,
    )

    # the least value of each run size, and why; the [transfer] settings
    # take their bounds from here
    least: ClassVar[dict[str, tuple[int, str]]] = {
        "steps": (0, ""),
        "seq_len": (max(MIN_SEQ_LEN, 2 * train_facts_per_doc), "the packer's shortest window"),
        "train_windows": (batch_sequences,
                          "infeasible budget: fewer training windows than a batch"),
        "eval_windows": (1, ""),
        "n_probe_docs": (2, "the probe alternates languages"),
    }

    def __post_init__(self):
        for name, (least, why) in self.least.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}"
                                  + (f" ({why})" if why else ""))
        if not (0.0 < self.low_resource_share < 1.0):
            raise ConfigError("low_resource_share must be in (0, 1)")
        self.model_config()  # a bad model setting fails here, not after packing

    @property
    def lang_offset(self) -> int:
        return 2 * self.n_keys

    def model_config(self) -> toy.ModelConfig:
        """The model every policy trains from the same initial weights."""
        return toy.ModelConfig(n_layers=self.n_layers, d_model=self.d_model, d_ff=self.d_ff,
                               n_heads=self.n_heads, vocab_size=self.vocab_size,
                               mtp_alpha=self.mtp_alpha, seed=self.seed, dtype=self.dtype)

    @property
    def train_window_count(self) -> int:
        """Training windows packed: the optimizer loop reaches only the first
        ``steps * batch_sequences`` of ``train_windows``."""
        return min(self.train_windows, max(self.steps, 1) * self.batch_sequences)

    def working_set_bytes(self) -> int:
        """An upper estimate of a run's peak memory: ``model.working_set_bytes``
        of its larger phase, plus the windows the run holds throughout.

        The phases are a training step on one batch, which holds every
        block's cache, and one forward-only evaluation pass over
        ``_eval_rows`` packed or probe windows (about 1,024 tokens), which
        holds none; at the default spec the training step is the larger.
        Each held window is charged 12 bytes per position, for its tokens
        and two label tracks, and ``SPAN_BYTES`` for each span it may hold
        and twice more for its own objects."""
        config = self.model_config()
        probe_len = 2 * self.probe_facts_per_doc
        phase = max(toy.working_set_bytes(config, self.batch_sequences, self.seq_len),
                    *(toy.working_set_bytes(config, _eval_rows(seq_len), seq_len, backward=False)
                      for seq_len in (self.seq_len, probe_len)))
        # a window of whole documents may start and end with a fragment
        spans = self.seq_len // (2 * self.train_facts_per_doc) + 2
        packed = (self.train_window_count + self.eval_windows) * (
            12 * self.seq_len + SPAN_BYTES * (spans + 2))
        probes = self.n_probe_docs * (12 * probe_len + SPAN_BYTES * 3)
        return phase + packed + probes


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
        return {**asdict(self), "languages": list(self.languages)}


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
    packer = PackerConfig(seq_len=spec.seq_len)
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
        sampler = SamplerConfig(
            alpha_temp=1.0,
            beta=None,
            rho=0.0,
            seed=rng.derive_key(spec.seed, stream_index, episode)[0] % (1 << 62),
        )
        windows.extend(pack_stream(docs, sampler, packer))
        episode += 1
    return windows[:n_windows]


def _probe_windows(spec: TransferSpec, stream_index: int) -> list[PackedSequence]:
    """Single-document probe set: one-span windows, per-document tables,
    facts with repeats."""
    gen = rng.stream(spec.seed, rng.STREAM_TRANSFER, stream_index)
    hi = LanguageTag(spec.high_lang, "english")
    lo = LanguageTag(spec.low_lang, "multilingual")
    windows = []
    for i in range(spec.n_probe_docs):
        table = _episode_table(spec, (stream_index << 8) + 1, i)
        low = i % 2 == 1  # balanced probe
        fact_ids = gen.integers(0, spec.n_keys, size=spec.probe_facts_per_doc)
        toks = _fact_tokens(spec, fact_ids, table, low)
        lang = lo if low else hi
        span = DocSpan(start=0, end=len(toks), lang=lang, doc_id=f"probe-{lang.code}-{i:05d}")
        windows.append(PackedSequence(np.array(toks, dtype=np.uint32), (span,), len(toks)))
    return windows


_EVAL_CHUNK = 32  # windows whose CE is summed as one group in held-out evaluation
_EVAL_TOKENS = 1024  # window tokens per evaluation forward pass, beyond one window


def _eval_rows(seq_len: int) -> int:
    """Windows of ``seq_len`` tokens per evaluation forward pass."""
    return max(1, min(_EVAL_CHUNK, _EVAL_TOKENS // seq_len))


def _language_ce(
    params: toy.Parameters,
    seqs: Sequence[PackedSequence],
    policy: MaskPolicy,
    codes: tuple[str, str],
) -> dict[str, float]:
    """Mean next-token CE per language over packed sequences under a policy.

    The CE is summed per group of ``_EVAL_CHUNK`` windows; each group runs
    NTP-only forward passes of ``_eval_rows`` windows and sums their
    per-token CE as one array, in window order.
    """
    sums = {c: 0.0 for c in codes}
    counts = {c: 0 for c in codes}
    lang_to_id = {c: i for i, c in enumerate(codes)}
    for start in range(0, len(seqs), _EVAL_CHUNK):
        part = seqs[start : start + _EVAL_CHUNK]
        rows = _eval_rows(part[0].seq_len)
        ces, langs = [], []
        for sub in (part[r : r + rows] for r in range(0, len(part), rows)):
            batch = batch_from_sequences(sub, policy)
            out = toy.forward(params, batch.tokens, batch.specs, mtp=False)
            idx, ce, _ = toy.token_ce(out.ntp_logits, batch.ntp)
            ces.append(ce)
            langs.append(np.concatenate([segment_ids(seq, lang_to_id)[1] for seq in sub])[idx])
        ce, lang_ids = np.concatenate(ces), np.concatenate(langs)
        for code, lid in lang_to_id.items():
            sel = lang_ids == lid
            sums[code] += float(ce[sel].sum())
            counts[code] += int(sel.sum())
    return {c: (sums[c] / counts[c]) if counts[c] else float("nan") for c in codes}


def transfer_experiment(spec: TransferSpec) -> TransferReport:
    """Train one model per mask policy on identical packed data, then compare
    held-out loss per language."""
    codes = (spec.high_lang, spec.low_lang)
    packed_train = _packed_episodes(spec, 1, spec.train_window_count)
    packed_eval = _packed_episodes(spec, 2, spec.eval_windows)
    probe_windows = _probe_windows(spec, 3)

    sched = ScheduleConfig(
        peak_lr=spec.peak_lr,
        warmup_steps=max(1, spec.steps // 20) if spec.steps else 1,
        total_steps=max(spec.steps, 2),
        decay_fraction=0.2,
        final_ratio=0.1,
    )

    init_params = toy.init(spec.model_config())
    # a one-span window has the same mask under every policy
    initial_probe = _language_ce(init_params, probe_windows, spec.policies[0], codes)

    packed_losses: dict[str, dict[str, float]] = {}
    probe_losses: dict[str, dict[str, float]] = {}
    for policy in spec.policies:
        params = init_params.copy()
        batches = cycle_batches(packed_train, policy, spec.batch_sequences)
        train(params, batches, sched, spec.weight_decay, spec.steps)
        packed_losses[policy.value] = _language_ce(params, packed_eval, policy, codes)
        probe_losses[policy.value] = _language_ce(params, probe_windows, policy, codes)
    return TransferReport(
        packed=packed_losses,
        single_doc=probe_losses,
        initial_single_doc=initial_probe,
        steps=spec.steps,
        token_budget=spec.steps * spec.batch_sequences * spec.seq_len,
        languages=codes,
    )
