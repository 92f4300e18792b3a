import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xlda_kit import model as toy
from xlda_kit.errors import ConfigError, DataError
from xlda_kit.masks import MaskPolicy, MaskSpec, materialize_dense, spans_from_lengths
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
    ntp = np.full_like(tokens, IGN)
    mtp = np.full_like(tokens, IGN)
    ntp[:, :-1] = tokens[:, 1:]
    mtp[:, :-2] = tokens[:, 2:]
    return ntp, mtp


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


def test_init_shape_errors():
    with pytest.raises(ConfigError):
        toy.ModelConfig(n_layers=1, d_model=8, d_ff=16, n_heads=3, vocab_size=11)
    with pytest.raises(ConfigError):
        # head dim 1 is odd: rotary pairing impossible
        toy.ModelConfig(n_layers=1, d_model=4, d_ff=8, n_heads=4, vocab_size=11)


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
    breakdown = toy.loss(out, labels, labels, mtp_alpha=0.0)
    assert abs(breakdown.ntp - math.log(v)) <= 1e-12


def test_loss_linear_in_alpha():
    params = toy.init(TINY)
    gen = np.random.Generator(np.random.Philox(key=np.array([4, 0], dtype=np.uint64)))
    tokens = random_tokens(gen, TINY, 2, 8)
    spec = two_doc_spec(MaskPolicy.CROSS_LINGUAL_BRIDGE)
    out = toy.forward(params, tokens, [spec, spec])
    ntp, mtp = shifted_labels(tokens)
    l0 = toy.loss(out, ntp, mtp, mtp_alpha=0.0).total
    l1 = toy.loss(out, ntp, mtp, mtp_alpha=1.0).total
    for alpha in (0.2, 0.5, 0.77):
        la = toy.loss(out, ntp, mtp, mtp_alpha=alpha).total
        assert la == pytest.approx(l0 + alpha * (l1 - l0), abs=1e-15)


def test_loss_alpha_zero_is_ntp_only():
    params = toy.init(TINY)
    gen = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    tokens = random_tokens(gen, TINY, 1, 8)
    spec = two_doc_spec(MaskPolicy.XLDA_FULL_CAUSAL)
    out = toy.forward(params, tokens, [spec])
    ntp, mtp = shifted_labels(tokens)
    breakdown = toy.loss(out, ntp, mtp, mtp_alpha=0.0)
    assert breakdown.total == breakdown.ntp


def test_loss_arithmetic_example():
    # CE_ntp = 1.0 and CE_mtp = 2.0 at alpha 0.2 combine to 1.4
    assert 1.0 + 0.2 * 2.0 == pytest.approx(1.4)


def test_loss_empty_support_is_error():
    logits = np.zeros((1, 3, 11))
    out = toy.ForwardOutput(ntp_logits=logits, mtp_logits=logits.copy())
    all_ignored = np.full((1, 3), IGNORE_LABEL, dtype=np.int64)
    with pytest.raises(DataError, match="empty loss support"):
        toy.loss(out, all_ignored, all_ignored, mtp_alpha=0.2)


def test_grad_check_passes_both_alphas():
    for alpha in (0.0, 0.2):
        report = toy.grad_check(TINY, tolerance=1e-6, mtp_alpha=alpha)
        assert report.passed, f"alpha={alpha}: {report.max_rel_error}"
        assert report.coords_checked == toy.init(TINY).n_params()


def test_grad_check_rejects_large_models():
    big = toy.ModelConfig(n_layers=2, d_model=32, d_ff=64, n_heads=4, vocab_size=64)
    with pytest.raises(ConfigError):
        toy.grad_check(big)


def test_grad_check_skips_zero_parameter_slice_with_note():
    params = toy.init(TINY)
    params.tensors["degenerate"] = np.zeros((0,))
    report = toy.grad_check(TINY, max_coords_per_tensor=2, params=params)
    assert any("degenerate" in note and "skipped" in note for note in report.skipped)
    assert "degenerate" not in report.per_tensor


def test_masked_rows_zero_attention_padding():
    params = toy.init(TINY)
    spans = spans_from_lengths([4], ["en"])
    spec = MaskSpec(MaskPolicy.XLDA_FULL_CAUSAL, spans, 4, 8)  # pad from 4
    tokens = np.array([1, 2, 3, 4, 0, 0, 0, 0], dtype=np.int64)
    out = toy.forward(params, tokens, spec)
    assert np.isfinite(out.ntp_logits).all()


# --- tiled attention against the dense oracle --------------------------------


def _dense_attention_fwd(x, masks, p, prefix, config, cos, sin):
    """The full L x L masked softmax the tiled attention replaced."""
    b, l, d = x.shape
    h, hd = config.n_heads, config.head_dim
    q = (x @ p[f"{prefix}.wq"]).reshape(b, l, h, hd)
    k = (x @ p[f"{prefix}.wk"]).reshape(b, l, h, hd)
    v = (x @ p[f"{prefix}.wv"]).reshape(b, l, h, hd)
    qr = toy._rope_fwd(q, cos, sin).transpose(0, 2, 1, 3)
    kr = toy._rope_fwd(k, cos, sin).transpose(0, 2, 1, 3)
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


def _dense_attention_bwd(cache, dout, p, grads, config, cos, sin):
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
    dq = toy._rope_bwd(dqr.transpose(0, 2, 1, 3), cos, sin).reshape(b, l, d)
    dk = toy._rope_bwd(dkr.transpose(0, 2, 1, 3), cos, sin).reshape(b, l, d)
    dv = dvh.transpose(0, 2, 1, 3).reshape(b, l, d)
    x_flat = x.reshape(-1, d)
    grads[f"{prefix}.wq"] += x_flat.T @ dq.reshape(-1, d)
    grads[f"{prefix}.wk"] += x_flat.T @ dk.reshape(-1, d)
    grads[f"{prefix}.wv"] += x_flat.T @ dv.reshape(-1, d)
    return (dq @ p[f"{prefix}.wq"].T + dk @ p[f"{prefix}.wk"].T
            + dv @ p[f"{prefix}.wv"].T)


def _dense_masks(specs):
    return np.stack([materialize_dense(s, s.seq_len) for s in specs])


def _run_model(params, tokens, specs, labels):
    out = toy.forward(params, tokens, specs)
    _, grads = toy.loss_and_grads(params, tokens, specs, labels, labels[:, ::-1],
                                  mtp_alpha=0.2)
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
    for name, g in dense_grads.items():
        assert np.abs(tiled_grads[name] - g).max() <= tol, name


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
    base, _ = toy._band_attention(qr, kr, vh, bands, 0.5)
    key = int(gen.integers(0, l))
    bumped = vh.copy()
    bumped[:, :, key] = 1e6 * gen.standard_normal((b, 2, 4))
    out, _ = toy._band_attention(qr, kr, bumped, bands, 0.5)
    for i in range(b):
        for q in np.flatnonzero(~masks[i, :, key]):
            assert out[i, :, q].tobytes() == base[i, :, q].tobytes()


@pytest.mark.parametrize("policy", list(MaskPolicy))
def test_tiled_attention_matches_dense_oracle_at_512(policy):
    gen = np.random.default_rng(512)
    specs = []
    for pad_start in (512, 470):
        lengths = []
        while sum(lengths) < pad_start:
            lengths.append(int(min(gen.integers(10, 60), pad_start - sum(lengths))))
        codes = [("en", "ko", "ja")[i % 3] for i in range(len(lengths))]
        specs.append(MaskSpec(policy, spans_from_lengths(lengths, codes),
                              pad_start, 512))
    params = toy.init(TINY)
    _assert_matches_dense(params, random_tokens(gen, TINY, 2, 512), specs,
                          random_tokens(gen, TINY, 2, 512))


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
        assert band.allowed.shape == (len(specs), 1, band.qe - band.qs,
                                      band.ke - band.ks)
        assert (band.allowed[:, 0]
                == masks[:, band.qs:band.qe, band.ks:band.ke]).all()


def test_mask_spec_count_or_length_mismatch_is_error():
    params = toy.init(TINY)
    spec = two_doc_spec(MaskPolicy.XLDA_FULL_CAUSAL)  # seq_len 8
    tokens = np.zeros((2, 8), dtype=np.int64)
    labels = np.ones((2, 8), dtype=np.int64)
    for masks in ([spec], [spec, spec, spec]):
        with pytest.raises(DataError, match="count 1|count 3"):
            toy.forward(params, tokens, masks)
        with pytest.raises(DataError, match="count 1|count 3"):
            toy.loss_and_grads(params, tokens, masks, labels, labels, mtp_alpha=0.2)
    short = two_doc_spec(MaskPolicy.INTRA_DOCUMENT_CAUSAL, lengths=(3, 4))
    for masks in (short, [spec, short]):
        with pytest.raises(DataError, match=r"seq_len \[7.*length 8"):
            toy.forward(params, tokens, masks)
        with pytest.raises(DataError, match=r"seq_len \[7.*length 8"):
            toy.loss_and_grads(params, tokens, masks, labels, labels, mtp_alpha=0.2)
