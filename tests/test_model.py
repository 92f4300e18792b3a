import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xlda_kit import model as toy
from xlda_kit.errors import ConfigError, DataError
from xlda_kit.masks import (MaskPolicy, MaskSpec, allowed_block, materialize_dense,
                            spans_from_lengths)
from xlda_kit.packing import IGNORE_LABEL

TINY = toy.ModelConfig(
    n_layers=1, d_model=8, d_ff=16, n_heads=2, vocab_size=11, mtp_alpha=0.2, seed=0
)
IGN = np.int64(IGNORE_LABEL)


def two_doc_spec(policy, lengths=(4, 4), codes=("en", "ko")):
    spans = spans_from_lengths(list(lengths), list(codes))
    total = sum(lengths)
    return MaskSpec(policy, spans, total, total)


def random_tokens(gen, config, b, l):
    return gen.integers(0, config.vocab_size, size=(b, l), dtype=np.int64)


def shifted_labels(tokens):
    labels = np.full_like(tokens, IGN)
    labels[:, :-1] = tokens[:, 1:]
    return labels


def test_init_deterministic_and_shapes():
    a = toy.init(TINY)
    b = toy.init(TINY)
    assert a.tensors.keys() == b.tensors.keys()
    for name in a.tensors:
        assert (a.tensors[name] == b.tensors[name]).all()
        assert np.isfinite(a.tensors[name]).all()
    other = toy.init(toy.ModelConfig(**{**TINY.__dict__, "seed": 1}))
    assert any((a.tensors[n] != other.tensors[n]).any() for n in a.tensors
               if a.tensors[n].ndim > 1)


def _offset(view, base):
    return view.__array_interface__["data"][0] - base.__array_interface__["data"][0]


def _assert_tiles(params, names):
    """``params.tensors`` are views named ``names`` laid end to end over ``flat``."""
    assert list(params.tensors) == list(names)
    start = 0
    for tensor in params.tensors.values():
        assert np.shares_memory(tensor, params.flat)
        assert _offset(tensor, params.flat) == start * params.flat.itemsize
        start += tensor.size
    assert start == params.flat.size
    assert params.flat.dtype == np.float64 and params.flat.ndim == 1


def test_parameters_tile_one_flat_vector_in_init_order():
    params = toy.init(TINY)
    _assert_tiles(params, toy._shapes(TINY))
    # the draws of the per-name init the flat layout replaced, in its order
    gen = toy.rng.stream(TINY.seed, toy.rng.STREAM_INIT)
    for name, shape in toy._shapes(TINY).items():
        old = (np.ones(shape) if len(shape) == 1
               else gen.standard_normal(shape) / math.sqrt(shape[0]))
        assert params.tensors[name].tobytes() == old.tobytes(), name
    params.tensors["blocks.0.wq"][1, 2] = 7.0
    assert 7.0 in params.flat


def test_parameters_copy_does_not_alias():
    params = toy.init(TINY)
    twin = params.copy()
    _assert_tiles(twin, params.tensors)
    assert not np.shares_memory(twin.flat, params.flat)
    assert twin.flat.tobytes() == params.flat.tobytes()
    twin.tensors["embed"][0, 0] += 1.0
    twin.flat[-1] -= 1.0
    assert (params.flat == toy.init(TINY).flat).all()


def test_gradients_share_the_parameter_layout():
    params = toy.init(TINY)
    gen = np.random.default_rng(5)
    tokens = random_tokens(gen, TINY, 2, 8)
    labels = shifted_labels(tokens)
    spec = two_doc_spec(MaskPolicy.INTRA_DOCUMENT_CAUSAL)
    _, grads = toy.loss_and_grads(params, tokens, [spec, spec], labels)
    _assert_tiles(grads, params.tensors)
    assert not np.shares_memory(grads.flat, params.flat)
    for name, tensor in params.tensors.items():
        assert grads.tensors[name].shape == tensor.shape
    assert np.isfinite(grads.flat).all() and (grads.flat != 0).any()


def test_init_shape_errors():
    with pytest.raises(ConfigError):
        toy.ModelConfig(n_layers=1, d_model=8, d_ff=16, n_heads=3, vocab_size=11)
    with pytest.raises(ConfigError):
        # head dim 1 is odd: rotary pairing impossible
        toy.ModelConfig(n_layers=1, d_model=4, d_ff=8, n_heads=4, vocab_size=11)


def test_dtype_is_float32_or_float64():
    assert toy.init(replace(TINY, dtype="float32")).flat.dtype == np.float32
    for bad in ("float16", "double", ""):
        with pytest.raises(ConfigError, match="dtype must be one of float32|float64"):
            replace(TINY, dtype=bad)


def test_working_set_bytes_follow_the_dtype_itemsize():
    interpreter = 64 << 20
    for batch, seq_len in ((1, 8), (4, 128), (2, 512)):
        for backward in (True, False):
            wide = toy.working_set_bytes(TINY, batch, seq_len, backward) - interpreter
            narrow = toy.working_set_bytes(replace(TINY, dtype="float32"), batch, seq_len,
                                           backward)
            assert wide > 0 and 2 * (narrow - interpreter) == wide
        assert (toy.working_set_bytes(TINY, batch, seq_len, backward=False)
                < toy.working_set_bytes(TINY, batch, seq_len))


def test_full_scale_architecture_config_accepted():
    cfg = toy.ModelConfig(
        n_layers=32,
        d_model=4096,
        d_ff=11008,
        n_heads=32,
        vocab_size=128_256,
        rope_theta=100_000.0,
    )
    assert cfg.head_dim == 128


def test_forward_shapes_and_finite():
    params = toy.init(TINY)
    spec = two_doc_spec(MaskPolicy.XLDA_FULL_CAUSAL)
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 0], dtype=np.uint64)))
    tokens = random_tokens(gen, TINY, 2, 8)
    out = toy.forward(params, tokens, [spec, spec])
    assert out.ntp_logits.shape == (2, 8, 11)
    assert out.mtp_logits.shape == (2, 8, 11)
    assert np.isfinite(out.ntp_logits).all()
    assert np.isfinite(out.mtp_logits).all()


def test_forward_rejects_out_of_vocab():
    params = toy.init(TINY)
    spec = two_doc_spec(MaskPolicy.XLDA_FULL_CAUSAL)
    tokens = np.array([0, 1, 2, 3, 4, 5, 6, 11], dtype=np.int64)
    with pytest.raises(DataError, match="out of vocab"):
        toy.forward(params, tokens, spec)


def test_causality_future_perturbation_never_changes_past():
    params = toy.init(TINY)
    gen = np.random.Generator(np.random.Philox(key=np.array([2, 0], dtype=np.uint64)))
    tokens = random_tokens(gen, TINY, 1, 8)[0]
    for policy in MaskPolicy:
        spec = two_doc_spec(policy)
        base = toy.forward(params, tokens, spec)
        for t in range(7):
            bumped = tokens.copy()
            bumped[t + 1 :] = (bumped[t + 1 :] + 1) % TINY.vocab_size
            out = toy.forward(params, bumped, spec)
            delta = np.abs(out.ntp_logits[0, : t + 1] - base.ntp_logits[0, : t + 1])
            assert delta.max() <= 1e-12


def test_mask_faithfulness_single_layer():
    """Perturbing token k changes NTP logits at q > k iff the policy allows
    (q, k); a single trunk layer makes the attention path one hop."""
    params = toy.init(TINY)
    gen = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    tokens = random_tokens(gen, TINY, 1, 8)[0]
    for policy in MaskPolicy:
        spec = two_doc_spec(policy)
        base = toy.forward(params, tokens, spec)
        for k in range(8):
            bumped = tokens.copy()
            bumped[k] = (bumped[k] + 3) % TINY.vocab_size
            out = toy.forward(params, bumped, spec)
            for q in range(8):
                if q == k:
                    continue
                delta = float(
                    np.abs(out.ntp_logits[0, q] - base.ntp_logits[0, q]).max()
                )
                from xlda_kit.masks import is_allowed

                if q < k:
                    assert delta <= 1e-12
                elif is_allowed(spec, q, k):
                    assert delta > 1e-9
                else:
                    assert delta <= 1e-12


def test_xlda_lets_position_three_see_token_zero_across_docs():
    params = toy.init(TINY)
    spans = spans_from_lengths([2, 6], ["en", "ko"])
    xlda = MaskSpec(MaskPolicy.XLDA_FULL_CAUSAL, spans, 8, 8)
    intra = MaskSpec(MaskPolicy.INTRA_DOCUMENT_CAUSAL, spans, 8, 8)
    tokens = np.arange(8, dtype=np.int64) % TINY.vocab_size
    bumped = tokens.copy()
    bumped[0] = (bumped[0] + 5) % TINY.vocab_size
    for spec, should_change in ((xlda, True), (intra, False)):
        a = toy.forward(params, tokens, spec)
        b = toy.forward(params, bumped, spec)
        delta = float(np.abs(a.ntp_logits[0, 3] - b.ntp_logits[0, 3]).max())
        assert (delta > 1e-9) is should_change


def test_loss_uniform_logits_is_log_vocab():
    v = 11
    logits = np.zeros((1, 4, v))
    out = toy.ForwardOutput(ntp_logits=logits, mtp_logits=logits.copy())
    labels = np.array([[1, 2, 3, IGNORE_LABEL]], dtype=np.int64)
    breakdown = toy.loss(out, labels, mtp_alpha=0.0)
    assert abs(breakdown.ntp - math.log(v)) <= 1e-12


def test_loss_linear_in_alpha():
    params = toy.init(TINY)
    gen = np.random.Generator(np.random.Philox(key=np.array([4, 0], dtype=np.uint64)))
    tokens = random_tokens(gen, TINY, 2, 8)
    spec = two_doc_spec(MaskPolicy.CROSS_LINGUAL_BRIDGE)
    out = toy.forward(params, tokens, [spec, spec])
    labels = shifted_labels(tokens)
    l0 = toy.loss(out, labels, mtp_alpha=0.0).total
    l1 = toy.loss(out, labels, mtp_alpha=1.0).total
    for alpha in (0.2, 0.5, 0.77):
        la = toy.loss(out, labels, mtp_alpha=alpha).total
        assert la == pytest.approx(l0 + alpha * (l1 - l0), abs=1e-15)


def test_loss_alpha_zero_is_ntp_only():
    params = toy.init(TINY)
    gen = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    tokens = random_tokens(gen, TINY, 1, 8)
    spec = two_doc_spec(MaskPolicy.XLDA_FULL_CAUSAL)
    out = toy.forward(params, tokens, [spec])
    breakdown = toy.loss(out, shifted_labels(tokens), mtp_alpha=0.0)
    assert breakdown.total == breakdown.ntp


def test_loss_arithmetic_example():
    # CE_ntp = 1.0 and CE_mtp = 2.0 at alpha 0.2 combine to 1.4
    assert 1.0 + 0.2 * 2.0 == pytest.approx(1.4)


def test_loss_empty_support_is_error():
    logits = np.zeros((1, 3, 11))
    out = toy.ForwardOutput(ntp_logits=logits, mtp_logits=logits.copy())
    all_ignored = np.full((1, 3), IGNORE_LABEL, dtype=np.int64)
    with pytest.raises(DataError, match="empty loss support"):
        toy.loss(out, all_ignored, mtp_alpha=0.2)


def test_token_ce_matches_per_position_log_softmax():
    gen = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
    b, l, v = 3, 7, 11
    logits = gen.normal(0.0, 4.0, size=(b, l, v))
    labels = gen.integers(0, v, size=(b, l)).astype(np.int64)
    labels[gen.random((b, l)) < 0.3] = IGN
    labels[1] = IGN  # one fully ignored row
    idx, ce, soft = toy.token_ce(logits, labels)
    want_idx, want_ce, want_soft = [], [], []
    for i in range(b):
        for t in range(l):
            if labels[i, t] == IGN:
                continue
            row = logits[i, t]
            log_z = math.log(sum(math.exp(x - row.max()) for x in row)) + row.max()
            want_idx.append(i * l + t)
            want_ce.append(log_z - row[labels[i, t]])
            want_soft.append([math.exp(x - log_z) for x in row])
    assert idx.tolist() == want_idx
    assert not set(idx.tolist()) & set(range(l, 2 * l))
    np.testing.assert_allclose(ce, want_ce, rtol=1e-12, atol=0)
    np.testing.assert_allclose(soft, want_soft, rtol=1e-12, atol=1e-300)
    # the training loss is the mean of these values
    out = toy.ForwardOutput(ntp_logits=logits, mtp_logits=logits)
    assert toy.loss(out, labels, mtp_alpha=0.0).ntp == ce.mean()


def test_loss_scores_the_mtp_head_on_the_derived_track():
    gen = np.random.Generator(np.random.Philox(key=np.array([18, 0], dtype=np.uint64)))
    b, l, v = 2, 9, 11
    out = toy.ForwardOutput(ntp_logits=gen.normal(size=(b, l, v)),
                            mtp_logits=gen.normal(size=(b, l, v)))
    labels = gen.integers(0, v, size=(b, l)).astype(np.int64)
    labels[gen.random((b, l)) < 0.3] = IGN
    _, ce, _ = toy.token_ce(out.mtp_logits, toy._mtp_labels(labels))
    assert toy.loss(out, labels, mtp_alpha=0.5).mtp == ce.mean()
    # a label array too narrow to hold IGNORE_LABEL is scored as it is
    full = gen.integers(0, v, size=(b, l))
    assert toy.loss(out, full.astype(np.int32), 0.5) == toy.loss(out, full, 0.5)


def test_token_ce_all_ignored_and_out_of_vocab():
    logits = np.zeros((2, 3, 5))
    idx, ce, soft = toy.token_ce(logits, np.full((2, 3), IGN))
    assert idx.size == ce.size == len(soft) == 0
    with pytest.raises(DataError, match="out of vocabulary"):
        toy.token_ce(logits, np.full((2, 3), 5, dtype=np.int64))


def test_grad_check_runs_in_float64_whatever_the_dtype():
    narrow = replace(TINY, dtype="float32")
    seen = []
    real = toy.loss_and_grads

    def spy(params, *args, **kwargs):
        seen.append(params.flat.dtype)
        return real(params, *args, **kwargs)

    with mock.patch.object(toy, "loss_and_grads", spy):
        report = toy.grad_check(narrow, max_coords_per_tensor=2)
    assert seen == [np.float64]
    assert report.passed
    assert report.per_tensor == toy.grad_check(TINY, max_coords_per_tensor=2).per_tensor


def test_grad_check_report_is_unchanged_by_forward_only_losses():
    """The finite-difference losses run forward-only; keeping every cache
    instead gives the same report."""
    real = toy._forward_with_cache
    keeps = []

    def recording(params, tokens, masks, keep=True):
        keeps.append(keep)
        return real(params, tokens, masks, keep)

    with mock.patch.object(toy, "_forward_with_cache", recording):
        report = toy.grad_check(TINY, max_coords_per_tensor=3)
    assert keeps.count(False) == 4 * report.coords_checked and keeps.count(True) == 1
    with mock.patch.object(toy, "_forward_with_cache",
                           lambda params, tokens, masks, keep=True: real(params, tokens, masks)):
        assert toy.grad_check(TINY, max_coords_per_tensor=3) == report


def test_grad_check_rejects_large_models():
    big = toy.ModelConfig(n_layers=2, d_model=32, d_ff=64, n_heads=4, vocab_size=64)
    with mock.patch.object(toy, "init") as init, pytest.raises(ConfigError):
        toy.grad_check(big)
    init.assert_not_called()  # refused from the config's shapes, before allocating


def test_masked_rows_zero_attention_padding():
    params = toy.init(TINY)
    spans = spans_from_lengths([4], ["en"])
    spec = MaskSpec(MaskPolicy.XLDA_FULL_CAUSAL, spans, 4, 8)  # pad from 4
    tokens = np.array([1, 2, 3, 4, 0, 0, 0, 0], dtype=np.int64)
    out = toy.forward(params, tokens, spec)
    assert np.isfinite(out.ntp_logits).all()


def test_rope_table_is_cached_read_only_and_exact():
    hd, l = TINY.head_dim, 12
    angles = np.arange(l, dtype=np.float64)[:, None] * TINY.rope_theta ** (
        -np.arange(hd // 2, dtype=np.float64) * 2.0 / hd)
    for dtype, complex_dtype in ((np.float32, np.complex64), (np.float64, np.complex128)):
        rot = toy._rope_tables(TINY.rope_theta, hd, l, np.dtype(dtype))
        assert toy._rope_tables(TINY.rope_theta, hd, l, np.dtype(dtype)) is rot
        assert not rot.flags.writeable
        assert rot.tobytes() == np.exp(1j * angles).astype(complex_dtype).tobytes()


# --- forward-only passes ----------------------------------------------------

# the transfer probe's model, and one of its 32-window evaluation chunks
PROBE = toy.ModelConfig(n_layers=2, d_model=32, d_ff=64, n_heads=4, vocab_size=64)


def _probe_chunk(policy, rows=32, seq_len=128):
    """``rows`` windows of 3-40 token documents in two languages; the last
    is padded from 100."""
    gen = np.random.default_rng(32)
    specs = []
    for row in range(rows):
        pad_start = 100 if row == rows - 1 else seq_len
        lengths = []
        while sum(lengths) < pad_start:
            lengths.append(int(min(gen.integers(3, 41), pad_start - sum(lengths))))
        codes = [("en", "ko")[i % 2] for i in range(len(lengths))]
        specs.append(MaskSpec(policy, spans_from_lengths(lengths, codes), pad_start, seq_len))
    return random_tokens(gen, PROBE, rows, seq_len), specs


@pytest.mark.parametrize("dtype", toy.DTYPES)
@pytest.mark.parametrize("policy", list(MaskPolicy))
def test_forward_only_logits_are_bit_identical(dtype, policy):
    params = toy.init(replace(PROBE, dtype=dtype))
    tokens, specs = _probe_chunk(policy)
    out = toy.forward(params, tokens, specs)
    cached, cache = toy._forward_with_cache(params, tokens, specs)
    assert len(cache["blocks"]) == PROBE.n_layers
    assert out.ntp_logits.dtype == out.mtp_logits.dtype == np.dtype(dtype)
    assert out.ntp_logits.tobytes() == cached.ntp_logits.tobytes()
    assert out.mtp_logits.tobytes() == cached.mtp_logits.tobytes()
    assert toy._forward_with_cache(params, tokens, specs, keep=False)[1] is None


@pytest.mark.parametrize("dtype", toy.DTYPES)
@pytest.mark.parametrize("policy", list(MaskPolicy))
def test_forward_without_mtp_gives_the_same_ntp_logits(dtype, policy):
    params = toy.init(replace(PROBE, dtype=dtype))
    tokens, specs = _probe_chunk(policy, rows=8)
    ntp_only = toy.forward(params, tokens, specs, mtp=False)
    assert ntp_only.mtp_logits is None
    assert ntp_only.ntp_logits.tobytes() == toy.forward(params, tokens, specs).ntp_logits.tobytes()
    with pytest.raises(TypeError):
        toy.forward(params, tokens, specs, False)  # mtp is keyword-only


def _traced_peak(run) -> int:
    run()  # the rotary table is built once, outside the trace
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_only_peak_is_at_most_half_the_cached_pass():
    params = toy.init(replace(PROBE, dtype="float32"))
    tokens, specs = _probe_chunk(MaskPolicy.XLDA_FULL_CAUSAL)
    forward_only = _traced_peak(lambda: toy.forward(params, tokens, specs))
    cached = _traced_peak(lambda: toy._forward_with_cache(params, tokens, specs))
    assert forward_only <= cached / 2, (forward_only, cached)
    # each estimate covers what its pass holds
    interpreter = 64 << 20
    assert forward_only < toy.working_set_bytes(params.config, 32, 128,
                                                 backward=False) - interpreter
    labels = shifted_labels(tokens)
    step = _traced_peak(lambda: toy.loss_and_grads(params, tokens, specs, labels))
    assert step < toy.working_set_bytes(params.config, 32, 128) - interpreter


# --- tiled attention against the dense oracle --------------------------------


def _dense_attention_fwd(x, masks, p, prefix, config, rot, keep):
    """The full L x L masked softmax the tiled attention replaced; it keeps
    its cache whatever ``keep`` says."""
    b, l, d = x.shape
    h, hd = config.n_heads, config.head_dim
    q = (x @ p[f"{prefix}.wq"]).reshape(b, l, h, hd)
    k = (x @ p[f"{prefix}.wk"]).reshape(b, l, h, hd)
    v = (x @ p[f"{prefix}.wv"]).reshape(b, l, h, hd)
    qr = toy._rope_fwd(q, rot).transpose(0, 2, 1, 3)
    kr = toy._rope_fwd(k, rot).transpose(0, 2, 1, 3)
    vh = v.transpose(0, 2, 1, 3)
    scale = 1.0 / math.sqrt(hd)
    scores = (qr @ kr.transpose(0, 1, 3, 2)) * scale
    neg = np.where(masks[:, None, :, :], scores, -np.inf)
    m = np.max(neg, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(neg - m)
    denom = e.sum(axis=-1, keepdims=True)
    w = np.where(denom > 0.0, e / np.where(denom > 0.0, denom, 1.0), 0.0)
    merged = (w @ vh).transpose(0, 2, 1, 3).reshape(b, l, d)
    return merged @ p[f"{prefix}.wo"], (x, qr, kr, vh, w, merged, prefix, scale)


def _dense_attention_bwd(cache, dout, p, grads, config, rot):
    x, qr, kr, vh, w, merged, prefix, scale = cache
    b, l, d = x.shape
    h, hd = config.n_heads, config.head_dim
    grads[f"{prefix}.wo"] += merged.reshape(-1, d).T @ dout.reshape(-1, d)
    dctx = (dout @ p[f"{prefix}.wo"].T).reshape(b, l, h, hd).transpose(0, 2, 1, 3)
    dw = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = w.transpose(0, 1, 3, 2) @ dctx
    dscores = w * (dw - np.sum(dw * w, axis=-1, keepdims=True))
    dqr = (dscores @ kr) * scale
    dkr = (dscores.transpose(0, 1, 3, 2) @ qr) * scale
    dq = toy._rope_bwd(dqr.transpose(0, 2, 1, 3), rot).reshape(b, l, d)
    dk = toy._rope_bwd(dkr.transpose(0, 2, 1, 3), rot).reshape(b, l, d)
    dv = dvh.transpose(0, 2, 1, 3).reshape(b, l, d)
    x_flat = x.reshape(-1, d)
    grads[f"{prefix}.wq"] += x_flat.T @ dq.reshape(-1, d)
    grads[f"{prefix}.wk"] += x_flat.T @ dk.reshape(-1, d)
    grads[f"{prefix}.wv"] += x_flat.T @ dv.reshape(-1, d)
    return (dq @ p[f"{prefix}.wq"].T + dk @ p[f"{prefix}.wk"].T
            + dv @ p[f"{prefix}.wv"].T)


def _dense_masks(specs, dtype=None):
    return np.stack([materialize_dense(s, s.seq_len) for s in specs])


def _run_model(params, tokens, specs, labels):
    out = toy.forward(params, tokens, specs)
    _, grads = toy.loss_and_grads(params, tokens, specs, labels)
    return out, grads


def _assert_matches_dense(params, tokens, specs, labels, tol=1e-12):
    tiled_out, tiled_grads = _run_model(params, tokens, specs, labels)
    # the oracle attends over the dense [B, L, L] masks of the same specs
    with mock.patch.multiple(toy, _key_bands=_dense_masks,
                             _attention_fwd=_dense_attention_fwd,
                             _attention_bwd=_dense_attention_bwd):
        dense_out, dense_grads = _run_model(params, tokens, specs, labels)
    assert np.abs(tiled_out.ntp_logits - dense_out.ntp_logits).max() <= tol
    assert np.abs(tiled_out.mtp_logits - dense_out.mtp_logits).max() <= tol
    for name, g in dense_grads.tensors.items():
        assert np.abs(tiled_grads.tensors[name] - g).max() <= tol, name


@st.composite
def _spec_batches(draw, max_len=200):
    """1-3 mask specs of one length, each with its own policy and padding."""
    seq_len = draw(st.integers(1, max_len))
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        policy = draw(st.sampled_from(list(MaskPolicy)))
        pad_start = draw(st.integers(0, seq_len))
        lengths = []
        while sum(lengths) < pad_start:
            lengths.append(draw(st.integers(1, min(40, pad_start - sum(lengths)))))
        codes = draw(st.lists(st.sampled_from(["en", "ko", "ja"]),
                              min_size=len(lengths), max_size=len(lengths)))
        specs.append(MaskSpec(policy, spans_from_lengths(lengths, codes),
                              pad_start, seq_len))
    return specs


@settings(max_examples=100, deadline=None)
@given(specs=_spec_batches(), seed=st.integers(0, 2**32 - 1))
def test_tiled_attention_matches_dense_oracle(specs, seed):
    gen = np.random.default_rng(seed)
    b, l = len(specs), specs[0].seq_len
    params = toy.init(toy.ModelConfig(**{**TINY.__dict__, "seed": seed % 7}))
    tokens = random_tokens(gen, TINY, b, l)
    labels = random_tokens(gen, TINY, b, l)
    _assert_matches_dense(params, tokens, specs, labels)


@settings(max_examples=40, deadline=None)
@given(specs=_spec_batches(), seed=st.integers(0, 2**32 - 1))
def test_value_at_masked_key_leaves_output_bit_identical(specs, seed):
    gen = np.random.default_rng(seed)
    masks = _dense_masks(specs)
    b, l, _ = masks.shape
    qr, kr, vh = (gen.standard_normal((b, 2, l, 4)) for _ in range(3))
    bands = toy._key_bands(specs)
    base, _ = toy._band_attention(0.5 * qr, kr, vh, bands)
    key = int(gen.integers(0, l))
    bumped = vh.copy()
    bumped[:, :, key] = 1e6 * gen.standard_normal((b, 2, 4))
    out, _ = toy._band_attention(0.5 * qr, kr, bumped, bands)
    for i in range(b):
        for q in np.flatnonzero(~masks[i, :, key]):
            assert out[i, :, q].tobytes() == base[i, :, q].tobytes()


def _specs_at_512(gen, policy):
    """Two 512-token windows of 10-59 token documents, one padded from 470."""
    specs = []
    for pad_start in (512, 470):
        lengths = []
        while sum(lengths) < pad_start:
            lengths.append(int(min(gen.integers(10, 60), pad_start - sum(lengths))))
        codes = [("en", "ko", "ja")[i % 3] for i in range(len(lengths))]
        specs.append(MaskSpec(policy, spans_from_lengths(lengths, codes),
                              pad_start, 512))
    return specs


@pytest.mark.parametrize("policy", list(MaskPolicy))
def test_tiled_attention_matches_dense_oracle_at_512(policy):
    gen = np.random.default_rng(512)
    specs = _specs_at_512(gen, policy)
    params = toy.init(TINY)
    _assert_matches_dense(params, random_tokens(gen, TINY, 2, 512), specs,
                          random_tokens(gen, TINY, 2, 512))


# float32 rounds each of the tens of products and sums behind a logit or a
# gradient at 6e-8 relative; the largest gap measured here is 6e-6
FLOAT32_ORACLE_TOL = 5e-5


@pytest.mark.parametrize("policy", list(MaskPolicy))
def test_float32_tiled_attention_matches_dense_oracle_at_512(policy):
    gen = np.random.default_rng(512)
    specs = _specs_at_512(gen, policy)
    params = toy.init(replace(TINY, dtype="float32"))
    tokens, labels = random_tokens(gen, TINY, 2, 512), random_tokens(gen, TINY, 2, 512)
    out, grads = _run_model(params, tokens, specs, labels)
    assert out.ntp_logits.dtype == grads.flat.dtype == np.float32
    _assert_matches_dense(params, tokens, specs, labels, tol=FLOAT32_ORACLE_TOL)


def test_key_bands_skip_keys_no_row_may_attend():
    spans = spans_from_lengths([30] * 14, ["en", "ko"] * 7)
    spec = MaskSpec(MaskPolicy.INTRA_DOCUMENT_CAUSAL, spans, 420, 512)
    bands = toy._key_bands([spec])
    # the last tile holds only padding rows, so it is left out
    assert [(b.qs, b.qe) for b in bands] == [(i * 64, i * 64 + 64) for i in range(7)]
    for band in bands:
        assert band.ks == band.qs - band.qs % 30  # start of the first row's document
        assert band.ke == min(band.qe, 420)
    assert sum((b.qe - b.qs) * (b.ke - b.ks) for b in bands) < 512 * 512 // 4


@settings(max_examples=300, deadline=None)
@given(specs=_spec_batches(max_len=300))
def test_key_bands_match_dense_reach(specs):
    """Each tile's band runs from the first to the last key column any of its
    rows may reach in the dense masks, and holds exactly their cells."""
    masks = _dense_masks(specs)
    union = masks.any(axis=0)
    expected = []
    for qs in range(0, masks.shape[-1], toy.ATTENTION_TILE):
        qe = min(qs + toy.ATTENTION_TILE, masks.shape[-1])
        cols = np.flatnonzero(union[qs:qe].any(axis=0))
        if cols.size:
            expected.append((qs, qe, int(cols[0]), int(cols[-1]) + 1))
    bands = toy._key_bands(specs)
    assert [(b.qs, b.qe, b.ks, b.ke) for b in bands] == expected
    for band in bands:
        assert band.bias.shape == (len(specs), 1, band.qe - band.qs,
                                   band.ke - band.ks)
        assert ((band.bias[:, 0] == 0)
                == masks[:, band.qs:band.qe, band.ks:band.ke]).all()


@st.composite
def _one_span_batches(draw, max_len=80):
    """1-3 specs of one length whose live part is a single document."""
    seq_len = draw(st.integers(1, max_len))
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        pad_start = draw(st.integers(0, seq_len))
        lengths = [pad_start] if pad_start else []
        specs.append(MaskSpec(draw(st.sampled_from(list(MaskPolicy))),
                              spans_from_lengths(lengths, ["ko"] * len(lengths)),
                              pad_start, seq_len))
    return specs


@settings(max_examples=200, deadline=None)
@given(specs=st.one_of(_spec_batches(max_len=300), _one_span_batches()),
       dtype=st.sampled_from(toy.DTYPES))
def test_key_bands_match_stacked_allowed_block(specs, dtype):
    """Each band's bias, from the batch form of ``allowed_block``, is the
    additive form of every row's single-spec ``allowed_block``."""
    for band in toy._key_bands(specs, np.dtype(dtype)):
        allowed = np.stack([allowed_block(s, band.qs, band.qe, band.ks, band.ke)
                            for s in specs])
        want = np.where(allowed[:, None], 0.0, -np.inf).astype(dtype)
        assert band.bias.dtype == want.dtype
        assert band.bias.tobytes() == want.tobytes()


def test_mask_spec_count_or_length_mismatch_is_error():
    params = toy.init(TINY)
    spec = two_doc_spec(MaskPolicy.XLDA_FULL_CAUSAL)  # seq_len 8
    tokens = np.zeros((2, 8), dtype=np.int64)
    labels = np.ones((2, 8), dtype=np.int64)
    for masks in ([spec], [spec, spec, spec]):
        with pytest.raises(DataError, match="count 1|count 3"):
            toy.forward(params, tokens, masks)
        with pytest.raises(DataError, match="count 1|count 3"):
            toy.loss_and_grads(params, tokens, masks, labels)
    short = two_doc_spec(MaskPolicy.INTRA_DOCUMENT_CAUSAL, lengths=(3, 4))
    for masks in (short, [spec, short]):
        with pytest.raises(DataError, match=r"seq_len \[7.*length 8"):
            toy.forward(params, tokens, masks)
        with pytest.raises(DataError, match=r"seq_len \[7.*length 8"):
            toy.loss_and_grads(params, tokens, masks, labels)
