import importlib
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from xlda_kit import model as toy
from xlda_kit.corpus import Document, LanguageTag
from xlda_kit.errors import ConfigError, TrainingDivergedError
from xlda_kit.masks import MaskPolicy, MaskSpec, segment_ids
from xlda_kit.packing import PackerConfig, pack_stream
from xlda_kit.sampling import SamplerConfig
from xlda_kit.schedule import ScheduleConfig, lr_at
from xlda_kit.training import (
    AdamW,
    TransferSpec,
    _language_ce,
    _packed_episodes,
    _probe_windows,
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
        0.1,
        steps=0,
    )
    assert log == []
    for name, tensor in params.tensors.items():
        assert (tensor == before[name]).all()


def test_adamw_flat_pass_matches_the_per_name_loop():
    params = toy.init(MODEL)
    oracle = {name: t.copy() for name, t in params.tensors.items()}
    opt = AdamW(params, weight_decay=0.1)
    m = {name: np.zeros_like(t) for name, t in oracle.items()}
    v = {name: np.zeros_like(t) for name, t in oracle.items()}
    gen = np.random.default_rng(11)
    for t in range(1, 8):
        grads = params.like(gen.standard_normal(params.flat.size) * 10.0 ** -t)
        lr = 1e-3 * t
        opt.step(params, grads, lr)
        # the per-name AdamW loop the flat pass replaced
        bc1 = 1.0 - opt.beta1**t
        bc2 = 1.0 - opt.beta2**t
        for name, w in oracle.items():
            g = grads.tensors[name]
            m[name] *= opt.beta1
            m[name] += (1.0 - opt.beta1) * g
            v[name] *= opt.beta2
            v[name] += (1.0 - opt.beta2) * (g * g)
            w -= lr * opt.weight_decay * w
            w -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + opt.eps)
    for name, w in oracle.items():
        assert params.tensors[name].tobytes() == w.tobytes(), name
    assert opt.m.tobytes() == np.concatenate([a.reshape(-1) for a in m.values()]).tobytes()
    assert opt.v.tobytes() == np.concatenate([a.reshape(-1) for a in v.values()]).tobytes()


@pytest.mark.parametrize("batch_sequences", [0, -2])
def test_cycle_batches_needs_at_least_one_sequence_per_batch(batch_sequences):
    with pytest.raises(ConfigError, match="batch_sequences must be >= 1"):
        next(cycle_batches(copy_task_sequences(), MaskPolicy.XLDA_FULL_CAUSAL, batch_sequences))


def test_copy_task_loss_decreases():
    params = toy.init(MODEL)
    seqs = copy_task_sequences()
    log = train(
        params,
        cycle_batches(seqs, MaskPolicy.XLDA_FULL_CAUSAL, 2),
        small_schedule(200),
        0.01,
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
        0.1,
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
            0.1,
            steps=25,
        )
        return params, log

    p1, l1 = run()
    p2, l2 = run()
    for name in p1.tensors:
        assert (p1.tensors[name] == p2.tensors[name]).all()
    assert [(r.loss_total, r.lr) for r in l1] == [(r.loss_total, r.lr) for r in l2]


def test_non_finite_gradient_stops_training_before_the_update(monkeypatch):
    seqs = copy_task_sequences()
    k = 3

    def run(params, steps):
        return train(params, cycle_batches(seqs, MaskPolicy.XLDA_FULL_CAUSAL, 2),
                     small_schedule(10), 0.1, steps=steps)

    stopped = toy.init(MODEL)
    run(stopped, k)
    real, calls = toy.loss_and_grads, itertools.count()

    def nan_at_step_k(*args, **kwargs):
        breakdown, grads = real(*args, **kwargs)
        if next(calls) == k:
            grads.flat[0] = np.nan
        return breakdown, grads

    monkeypatch.setattr(toy, "loss_and_grads", nan_at_step_k)
    params = toy.init(MODEL)
    with pytest.raises(TrainingDivergedError, match=f"gradient .* at step {k}$"):
        run(params, 10)
    assert params.flat.tobytes() == stopped.flat.tobytes()


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
            0.1,
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


def test_probe_windows_score_as_single_documents():
    spec = TransferSpec(steps=0, train_windows=24, eval_windows=8, n_probe_docs=32, seq_len=64)
    windows = _probe_windows(spec, 3)
    length = 2 * spec.probe_facts_per_doc
    assert len(windows) == spec.n_probe_docs
    assert all(len(w.spans) == 1 and w.pad_start == w.seq_len == length for w in windows)
    codes = (spec.high_lang, spec.low_lang)
    params = toy.init(toy.ModelConfig(n_layers=spec.n_layers, d_model=spec.d_model,
                                      d_ff=spec.d_ff, n_heads=spec.n_heads,
                                      vocab_size=spec.vocab_size, seed=5))
    for policy in MaskPolicy:
        got = _language_ce(params, windows, policy, codes)
        for code in codes:
            # per-language mean of -log p(tokens[1:]) over whole documents
            subset = [w for w in windows if w.spans[0].lang.code == code]
            tokens = np.stack([w.tokens for w in subset]).astype(np.int64)
            mask = MaskSpec(MaskPolicy.XLDA_FULL_CAUSAL, subset[0].spans, length, length)
            logits = toy.forward(params, tokens, mask).ntp_logits[:, :-1]
            m = logits.max(axis=-1, keepdims=True)
            logp = logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
            want = -np.take_along_axis(logp, tokens[:, 1:, None], axis=-1).mean()
            assert got[code] == pytest.approx(want, rel=1e-12, abs=0)


def _float_arrays(obj, path="cache"):
    """(path, dtype) of every float or complex array reachable from ``obj``."""
    if isinstance(obj, np.ndarray):
        return [(path, obj.dtype)] if obj.dtype.kind in "fc" else []
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif hasattr(obj, "__dict__"):
        items = vars(obj).items()
    else:
        return []
    return [found for key, value in items for found in _float_arrays(value, f"{path}.{key}")]


def test_float32_step_leaves_no_float64_behind():
    config = replace(MODEL, dtype="float32")
    params = toy.init(config)
    batch = batch_from_sequences(copy_task_sequences(n_seqs=2), MaskPolicy.XLDA_FULL_CAUSAL)
    out, cache = toy._forward_with_cache(params, batch.tokens, batch.specs)
    arrays = _float_arrays(cache) + _float_arrays(out, "output")
    assert any(dtype == np.complex64 for _, dtype in arrays)  # the rotary table
    assert [(path, dtype) for path, dtype in arrays
            if dtype not in (np.float32, np.complex64)] == []
    _, dlogits, _ = toy._ce_and_grad(out.ntp_logits, batch.ntp)
    assert dlogits.dtype == np.float32
    _, grads = toy.loss_and_grads(params, batch.tokens, batch.specs, batch.ntp, batch.mtp)
    opt = AdamW(params, 0.1)
    opt.step(params, grads, 1e-3)
    for vector in (params.flat, grads.flat, opt.m, opt.v):
        assert vector.dtype == np.float32


def test_transfer_spec_checks_its_model_dtype():
    assert TransferSpec().model_config().dtype == "float32"
    with pytest.raises(ConfigError, match="dtype"):
        TransferSpec(dtype="float16")


@pytest.mark.parametrize("n_probe_docs", [-1, 0, 1])
def test_transfer_probe_needs_both_languages(n_probe_docs):
    with pytest.raises(ConfigError, match="n_probe_docs"):
        TransferSpec(n_probe_docs=n_probe_docs)


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
        TransferSpec(train_windows=2)
    with pytest.raises(ConfigError):
        TransferSpec(steps=-1)
    # 6 tokens hold a training document, but the packer's shortest window is 8
    with pytest.raises(ConfigError, match="seq_len must be >= 8, got 6"):
        TransferSpec(seq_len=6)
    with pytest.raises(ConfigError, match="eval_windows must be >= 1, got 0"):
        TransferSpec(eval_windows=0)


def test_transfer_working_set_bounds_a_traced_run():
    """The estimate charges the larger phase, the training batch with its
    caches or one 1,024-token evaluation forward without, and the windows
    held; it stays an upper bound on what a default-shape run allocates."""
    spec = TransferSpec(steps=2)
    config = spec.model_config()
    # numpy loads numpy.random on first use, about 0.6 MiB of module objects:
    # an import, charged to the estimate's interpreter, not to the traced run
    importlib.import_module("numpy.random")
    # at the default shape the training step is the larger phase
    assert (toy.working_set_bytes(config, 8, spec.seq_len, backward=False)
            < toy.working_set_bytes(config, spec.batch_sequences, spec.seq_len)
            < spec.working_set_bytes())
    tracemalloc.start()
    try:
        transfer_experiment(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < spec.working_set_bytes() - (64 << 20)


@pytest.mark.parametrize("seq_len", [16, 128, 512])
def test_transfer_working_set_charges_the_windows_held(seq_len):
    """Each training window a run holds, with its labels, is charged more
    than it allocates."""
    few, many = (TransferSpec(seq_len=seq_len, train_windows=n, steps=n) for n in (100, 400))
    tracemalloc.start()
    try:
        held = _packed_episodes(many, 1, 300)
        for window in held:
            window.ntp_labels  # derived once, then held
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert allocated < many.working_set_bytes() - few.working_set_bytes()


def _language_ce_in_32_window_forwards(params, seqs, policy, codes):
    """Held-out CE as it was scored before: one forward, both heads, per
    group of 32 windows."""
    sums, counts = dict.fromkeys(codes, 0.0), dict.fromkeys(codes, 0)
    lang_to_id = {c: i for i, c in enumerate(codes)}
    for start in range(0, len(seqs), 32):
        part = seqs[start:start + 32]
        batch = batch_from_sequences(part, policy)
        out = toy.forward(params, batch.tokens, batch.specs)
        idx, ce, _ = toy.token_ce(out.ntp_logits, batch.ntp)
        lang_ids = np.concatenate([segment_ids(seq, lang_to_id)[1] for seq in part])[idx]
        for code, lid in lang_to_id.items():
            sums[code] += float(ce[lang_ids == lid].sum())
            counts[code] += int((lang_ids == lid).sum())
    return {c: sums[c] / counts[c] for c in codes}


EVAL_SPEC = TransferSpec(eval_windows=40, n_probe_docs=70)


@pytest.mark.parametrize("dtype", toy.DTYPES)
@pytest.mark.parametrize("policy", list(MaskPolicy))
def test_language_ce_equals_32_window_scoring(dtype, policy):
    """1,024-token NTP-only forwards give every group the same CE array, so
    the same sums, on packed (8 per forward) and probe (one group of up to
    32 per forward) windows, last groups short."""
    codes = (EVAL_SPEC.high_lang, EVAL_SPEC.low_lang)
    params = toy.init(replace(EVAL_SPEC.model_config(), dtype=dtype))
    for seqs in (_packed_episodes(EVAL_SPEC, 2, EVAL_SPEC.eval_windows),
                 _probe_windows(EVAL_SPEC, 3)):
        assert (_language_ce(params, seqs, policy, codes)
                == _language_ce_in_32_window_forwards(params, seqs, policy, codes))


def test_scoring_96_packed_windows_peaks_below_half_the_32_window_path():
    spec = TransferSpec(eval_windows=96)
    codes = (spec.high_lang, spec.low_lang)
    params = toy.init(spec.model_config())
    seqs = _packed_episodes(spec, 2, spec.eval_windows)

    def traced_peak(score):
        score(params, seqs, MaskPolicy.XLDA_FULL_CAUSAL, codes)  # the rotary table, once
        tracemalloc.start()
        try:
            score(params, seqs, MaskPolicy.XLDA_FULL_CAUSAL, codes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chunked = traced_peak(_language_ce)
    whole = traced_peak(_language_ce_in_32_window_forwards)
    assert chunked < whole / 2, (chunked, whole)
