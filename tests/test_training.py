import numpy as np
import pytest

from xlda_kit import model as toy
from xlda_kit.corpus import Document, LanguageTag
from xlda_kit.errors import ConfigError
from xlda_kit.masks import MaskPolicy, MaskSpec
from xlda_kit.packing import PackerConfig, pack_stream
from xlda_kit.sampling import SamplerConfig
from xlda_kit.schedule import ScheduleConfig, lr_at
from xlda_kit.training import (
    OptimizerConfig,
    TransferSpec,
    batch_from_sequences,
    cycle_batches,
    train,
    transfer_experiment,
)

EN = LanguageTag("en", "english")
KO = LanguageTag("ko", "multilingual")

MODEL = toy.ModelConfig(
    n_layers=1, d_model=16, d_ff=32, n_heads=2, vocab_size=12, mtp_alpha=0.2, seed=3
)


def copy_task_sequences(n_seqs=8, seq_len=16, seed=0):
    """Two-symbol repetition documents: an easy next-token task."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    docs = []
    for i in range(n_seqs * 3):
        sym = 2 + int(gen.integers(0, 2))
        lang = (EN, KO)[i % 2]
        docs.append(Document(f"d{i}", lang, tuple([sym] * int(gen.integers(4, 9)))))
    sampler = SamplerConfig(alpha_temp=1.0, beta={"en": 0.5, "ko": 0.5}, seed=seed)
    return list(pack_stream(docs, sampler, PackerConfig(seq_len=seq_len)))


def small_schedule(steps):
    return ScheduleConfig(
        peak_lr=5e-3,
        warmup_steps=max(1, steps // 10),
        total_steps=max(steps, 2),
        decay_fraction=0.2,
        final_ratio=0.1,
        batch_start_tokens=64,
        batch_end_tokens=64,
        batch_ramp_tokens=1,
        seq_len=16,
    )


def test_zero_steps_leaves_params_unchanged():
    params = toy.init(MODEL)
    before = {k: v.copy() for k, v in params.tensors.items()}
    seqs = copy_task_sequences()
    log = train(
        params,
        cycle_batches(seqs, MaskPolicy.XLDA_FULL_CAUSAL, 2),
        small_schedule(0),
        OptimizerConfig(),
        steps=0,
    )
    assert log == []
    for name, tensor in params.tensors.items():
        assert (tensor == before[name]).all()


def test_copy_task_loss_decreases():
    params = toy.init(MODEL)
    seqs = copy_task_sequences()
    log = train(
        params,
        cycle_batches(seqs, MaskPolicy.XLDA_FULL_CAUSAL, 2),
        small_schedule(200),
        OptimizerConfig(weight_decay=0.01),
        steps=200,
    )
    assert log[-1].loss_total < log[0].loss_total
    assert log[-1].loss_ntp < 0.7 * log[0].loss_ntp


def test_logged_lr_matches_schedule():
    params = toy.init(MODEL)
    seqs = copy_task_sequences()
    sched = small_schedule(30)
    log = train(
        params,
        cycle_batches(seqs, MaskPolicy.INTRA_DOCUMENT_CAUSAL, 2),
        sched,
        OptimizerConfig(),
        steps=30,
    )
    for row in log:
        assert row.lr == lr_at(sched, row.step)
    assert [row.step for row in log] == list(range(30))


def test_training_deterministic():
    seqs = copy_task_sequences()

    def run():
        params = toy.init(MODEL)
        log = train(
            params,
            cycle_batches(seqs, MaskPolicy.XLDA_FULL_CAUSAL, 2),
            small_schedule(25),
            OptimizerConfig(),
            steps=25,
        )
        return params, log

    p1, l1 = run()
    p2, l2 = run()
    for name in p1.tensors:
        assert (p1.tensors[name] == p2.tensors[name]).all()
    assert [(r.loss_total, r.lr) for r in l1] == [(r.loss_total, r.lr) for r in l2]


def test_batch_from_sequences_counts_real_tokens():
    seqs = copy_task_sequences()
    batch = batch_from_sequences(seqs[:2], MaskPolicy.XLDA_FULL_CAUSAL)
    assert batch.real_tokens == seqs[0].pad_start + seqs[1].pad_start
    assert batch.tokens.shape == (2, 16)
    assert batch.specs == tuple(
        MaskSpec.for_sequence(s, MaskPolicy.XLDA_FULL_CAUSAL) for s in seqs[:2]
    )


def test_train_steps_beyond_schedule_is_error():
    params = toy.init(MODEL)
    seqs = copy_task_sequences()
    with pytest.raises(ConfigError):
        train(
            params,
            cycle_batches(seqs, MaskPolicy.XLDA_FULL_CAUSAL, 2),
            small_schedule(10),
            OptimizerConfig(),
            steps=11,
        )


def test_transfer_zero_budget_probe_losses_equal():
    spec = TransferSpec(
        steps=0,
        train_windows=24,
        eval_windows=8,
        n_probe_docs=32,
        seq_len=64,
    )
    report = transfer_experiment(spec)
    a, b = (report.single_doc[p.value] for p in spec.policies)
    assert a == b
    assert report.single_doc[spec.policies[0].value] == report.initial_single_doc
    assert report.token_budget == 0


def test_transfer_swapping_policies_swaps_columns():
    base = TransferSpec(
        steps=12,
        train_windows=24,
        eval_windows=8,
        n_probe_docs=32,
        seq_len=64,
    )
    swapped = TransferSpec(
        steps=12,
        train_windows=24,
        eval_windows=8,
        n_probe_docs=32,
        seq_len=64,
        policies=(base.policies[1], base.policies[0]),
    )
    r1 = transfer_experiment(base)
    r2 = transfer_experiment(swapped)
    for policy in (p.value for p in base.policies):
        assert r1.single_doc[policy] == r2.single_doc[policy]
        assert r1.packed[policy] == r2.packed[policy]


def test_transfer_infeasible_budget_is_error():
    with pytest.raises(ConfigError, match="infeasible"):
        TransferSpec(train_windows=2, batch_sequences=4)
    with pytest.raises(ConfigError):
        TransferSpec(steps=-1)
    with pytest.raises(ConfigError, match="vocab_size"):
        TransferSpec(vocab_size=16, n_keys=8)
