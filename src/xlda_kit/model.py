"""Desk-scale decoder-only transformer for verifying mask semantics.

RoPE attention, SwiGLU feedforward, RMSNorm applied before *and* after each
attention and feedforward sublayer (the residual adds the post-normed
sublayer output), a final norm ahead of the tied output head, and a
second-next-token head built from one extra transformer block stacked on the
trunk's final hidden states.

Everything is float64 numpy with hand-written backward passes, so analytic
gradients can be checked against central finite differences to tight
tolerances and runs are bit-reproducible.

Masks are ``MaskSpec`` span tables, one per sequence. Attention runs over
fixed tiles of ``ATTENTION_TILE`` query rows. Each tile scores only its key
band, the keys some row of the tile may attend to in some sequence: from the
smallest ``masks.earliest_keys`` of its rows to its last non-padding row, so
under ``intra`` and ``bridge`` the cost follows the allowed span pairs
instead of L * L. ``masks.allowed_block`` gives the band's cells, and masked
cells are kept out of ``exp`` (see ``_band_attention``); tiles with only
padding rows are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .errors import ConfigError, DataError
from .masks import MaskSpec, allowed_block, earliest_keys
from .packing import IGNORE_LABEL, make_labels

Array = np.ndarray


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 2
    d_model: int = 32
    d_ff: int = 64
    n_heads: int = 4
    vocab_size: int = 64
    rope_theta: float = 100_000.0
    mtp_alpha: float = 0.2
    norm_eps: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("n_layers", "d_model", "d_ff", "n_heads", "vocab_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head dimension must be even for rotary pairing")
        if not (0.0 <= self.mtp_alpha <= 1.0):
            raise ConfigError(f"mtp_alpha must be in [0, 1]: {self.mtp_alpha}")
        if self.rope_theta <= 0 or self.norm_eps <= 0:
            raise ConfigError("rope_theta and norm_eps must be positive")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class Parameters:
    """Named parameter tensors plus the config they were built for."""

    config: ModelConfig
    tensors: dict[str, Array]

    def copy(self) -> "Parameters":
        return Parameters(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def n_params(self) -> int:
        return sum(t.size for t in self.tensors.values())


@dataclass
class ForwardOutput:
    ntp_logits: Array  # [B, L, V]
    mtp_logits: Array


_BLOCK_NORMS = ("attn_norm_in", "attn_norm_out", "ffn_norm_in", "ffn_norm_out")
_BLOCK_MATS = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")


def _block_names(prefix: str) -> list[str]:
    return [f"{prefix}.{n}" for n in _BLOCK_NORMS + _BLOCK_MATS]


def init(config: ModelConfig) -> Parameters:
    """Deterministic scaled-normal initialization from the config seed."""
    gen = rng.stream(config.seed, rng.STREAM_INIT)
    d, f, v = config.d_model, config.d_ff, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {"embed": (v, d)}
    prefixes = [f"blocks.{i}" for i in range(config.n_layers)] + ["mtp_block"]
    for p in prefixes:
        for n in _BLOCK_NORMS:
            shapes[f"{p}.{n}"] = (d,)
        shapes[f"{p}.wq"] = (d, d)
        shapes[f"{p}.wk"] = (d, d)
        shapes[f"{p}.wv"] = (d, d)
        shapes[f"{p}.wo"] = (d, d)
        shapes[f"{p}.w_gate"] = (d, f)
        shapes[f"{p}.w_up"] = (d, f)
        shapes[f"{p}.w_down"] = (f, d)
    shapes["ntp_norm"] = (d,)
    shapes["mtp_norm"] = (d,)

    tensors: dict[str, Array] = {}
    for name, shape in shapes.items():
        if len(shape) == 1:
            tensors[name] = np.ones(shape, dtype=np.float64)
        else:
            fan_in = shape[0]
            tensors[name] = gen.standard_normal(shape) / math.sqrt(fan_in)
    return Parameters(config=config, tensors=tensors)


# --- primitive layers (forward returns a cache consumed by backward) -------


def _rmsnorm_fwd(x: Array, g: Array, eps: float):
    r = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return x * r * g, (x, g, r)


def _rmsnorm_bwd(cache, dy: Array):
    x, g, r = cache
    d = x.shape[-1]
    dg = np.sum(dy * x * r, axis=tuple(range(x.ndim - 1)))
    inner = np.sum(dy * g * x, axis=-1, keepdims=True)
    dx = dy * g * r - x * (r**3 / d) * inner
    return dx, dg


def _silu(x: Array) -> Array:
    return x / (1.0 + np.exp(-x))


def _silu_grad(x: Array) -> Array:
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def _rope_tables(config: ModelConfig, seq_len: int) -> tuple[Array, Array]:
    half = config.head_dim // 2
    inv = config.rope_theta ** (-np.arange(half, dtype=np.float64) * 2.0 / config.head_dim)
    ang = np.arange(seq_len, dtype=np.float64)[:, None] * inv[None, :]
    return np.cos(ang), np.sin(ang)


def _rope_fwd(x: Array, cos: Array, sin: Array) -> Array:
    # x: [B, L, H, hd]; tables: [L, hd/2]
    c = cos[None, :, None, :]
    s = sin[None, :, None, :]
    xe, xo = x[..., 0::2], x[..., 1::2]
    y = np.empty_like(x)
    y[..., 0::2] = xe * c - xo * s
    y[..., 1::2] = xe * s + xo * c
    return y


def _rope_bwd(dy: Array, cos: Array, sin: Array) -> Array:
    # transpose of a rotation is the rotation by the opposite angle
    c = cos[None, :, None, :]
    s = sin[None, :, None, :]
    de, do = dy[..., 0::2], dy[..., 1::2]
    dx = np.empty_like(dy)
    dx[..., 0::2] = de * c + do * s
    dx[..., 1::2] = -de * s + do * c
    return dx


ATTENTION_TILE = 64  # query rows per attention tile


@dataclass(frozen=True)
class _Band:
    qs: int  # query rows [qs, qe)
    qe: int
    ks: int  # key columns [ks, ke)
    ke: int
    allowed: Array  # [B, 1, tq, tk] bool


def _key_bands(specs: Sequence[MaskSpec]) -> list[_Band]:
    """Query tiles with their key bands, from one mask spec per sequence.

    A tile's band runs from the earliest key any of its non-padding rows may
    attend to up to its last non-padding row. Tiles with no non-padding row
    in any sequence are left out; their attention output is zero.
    """
    seq_len = specs[0].seq_len
    firsts = [earliest_keys(s) for s in specs]
    bands = []
    for qs in range(0, seq_len, ATTENTION_TILE):
        qe = min(qs + ATTENTION_TILE, seq_len)
        live = [(int(first[qs:qe].min()), min(qe, s.pad_start))
                for s, first in zip(specs, firsts) if s.pad_start > qs]
        if not live:
            continue
        ks = min(k for k, _ in live)
        ke = max(k for _, k in live)
        allowed = np.stack([allowed_block(s, qs, qe, ks, ke) for s in specs])
        bands.append(_Band(qs, qe, ks, ke, allowed=allowed[:, None]))
    return bands


def _band_attention(qr: Array, kr: Array, vh: Array, bands: Sequence[_Band],
                    scale: float) -> tuple[Array, list[Array]]:
    """Masked softmax attention over key bands; returns context and weights.

    Masked cells never reach ``exp`` as -inf or as an underflowing argument:
    the shifted scores are multiplied by the 0/1 mask before ``exp`` (so a
    masked cell becomes exp(0)) and the result by the mask again. ``exp`` is
    several times slower on -inf and underflowing inputs than on ordinary
    ones. The shift is the maximum over allowed cells only, so every allowed
    argument is <= 0. Rows with no allowed key keep zero weights.
    """
    ctx = np.zeros(vh.shape)
    weights = []
    for band in bands:
        s = qr[:, :, band.qs:band.qe] @ kr[:, :, band.ks:band.ke].swapaxes(-1, -2)
        s *= scale
        m = np.max(s, axis=-1, keepdims=True, where=band.allowed, initial=-np.inf)
        m[m == -np.inf] = 0.0  # rows with nothing allowed
        s -= m
        s *= band.allowed
        np.exp(s, out=s)
        s *= band.allowed
        denom = s.sum(axis=-1, keepdims=True)
        denom[denom == 0.0] = 1.0
        s /= denom
        ctx[:, :, band.qs:band.qe] = s @ vh[:, :, band.ks:band.ke]
        weights.append(s)
    return ctx, weights


def _band_attention_bwd(dctx: Array, ctx: Array, qr: Array, kr: Array, vh: Array,
                        bands: Sequence[_Band], weights: Sequence[Array],
                        scale: float) -> tuple[Array, Array, Array]:
    """Gradients of ``_band_attention`` w.r.t. qr, kr and vh, tile by tile.

    The softmax backward needs sum_k dw[q, k] * w[q, k] per row, which
    equals dctx[q] . ctx[q]; it is taken from the context once for all rows.
    """
    dqr = np.zeros_like(qr)
    dkr = np.zeros_like(kr)
    dvh = np.zeros_like(vh)
    row_dot = np.sum(dctx * ctx, axis=-1, keepdims=True)
    for band, w in zip(bands, weights):
        q_rows, k_cols = slice(band.qs, band.qe), slice(band.ks, band.ke)
        dc = dctx[:, :, q_rows]
        dvh[:, :, k_cols] += w.swapaxes(-1, -2) @ dc
        dw = dc @ vh[:, :, k_cols].swapaxes(-1, -2)
        dw -= row_dot[:, :, q_rows]
        dw *= w  # d(scores)
        dqr[:, :, q_rows] = (dw @ kr[:, :, k_cols]) * scale
        dkr[:, :, k_cols] += (dw.swapaxes(-1, -2) @ qr[:, :, q_rows]) * scale
    return dqr, dkr, dvh


def _attention_fwd(x: Array, bands: Sequence[_Band], p: Mapping[str, Array],
                   prefix: str, config: ModelConfig, cos: Array, sin: Array):
    b, l, d = x.shape
    h, hd = config.n_heads, config.head_dim
    q = (x @ p[f"{prefix}.wq"]).reshape(b, l, h, hd)
    k = (x @ p[f"{prefix}.wk"]).reshape(b, l, h, hd)
    v = (x @ p[f"{prefix}.wv"]).reshape(b, l, h, hd)
    qr = _rope_fwd(q, cos, sin).transpose(0, 2, 1, 3)  # [B, H, L, hd]
    kr = _rope_fwd(k, cos, sin).transpose(0, 2, 1, 3)
    vh = v.transpose(0, 2, 1, 3)
    scale = 1.0 / math.sqrt(hd)
    ctx, weights = _band_attention(qr, kr, vh, bands, scale)  # [B, H, L, hd]
    merged = ctx.transpose(0, 2, 1, 3).reshape(b, l, d)
    out = merged @ p[f"{prefix}.wo"]
    cache = (x, qr, kr, vh, bands, weights, merged, prefix, scale)
    return out, cache


def _attention_bwd(cache, dout: Array, p: Mapping[str, Array],
                   grads: dict[str, Array], config: ModelConfig,
                   cos: Array, sin: Array) -> Array:
    x, qr, kr, vh, bands, weights, merged, prefix, scale = cache
    b, l, d = x.shape
    h, hd = config.n_heads, config.head_dim
    grads[f"{prefix}.wo"] += merged.reshape(-1, d).T @ dout.reshape(-1, d)
    dmerged = dout @ p[f"{prefix}.wo"].T
    dctx = dmerged.reshape(b, l, h, hd).transpose(0, 2, 1, 3)
    ctx = merged.reshape(b, l, h, hd).transpose(0, 2, 1, 3)
    dqr, dkr, dvh = _band_attention_bwd(dctx, ctx, qr, kr, vh, bands, weights, scale)
    dq = _rope_bwd(dqr.transpose(0, 2, 1, 3), cos, sin).reshape(b, l, d)
    dk = _rope_bwd(dkr.transpose(0, 2, 1, 3), cos, sin).reshape(b, l, d)
    dv = dvh.transpose(0, 2, 1, 3).reshape(b, l, d)
    x_flat = x.reshape(-1, d)
    grads[f"{prefix}.wq"] += x_flat.T @ dq.reshape(-1, d)
    grads[f"{prefix}.wk"] += x_flat.T @ dk.reshape(-1, d)
    grads[f"{prefix}.wv"] += x_flat.T @ dv.reshape(-1, d)
    dx = dq @ p[f"{prefix}.wq"].T
    dx += dk @ p[f"{prefix}.wk"].T
    dx += dv @ p[f"{prefix}.wv"].T
    return dx


def _block_fwd(x: Array, bands: Sequence[_Band], p: Mapping[str, Array],
               prefix: str, config: ModelConfig, cos: Array, sin: Array):
    eps = config.norm_eps
    a_in, c_norm1 = _rmsnorm_fwd(x, p[f"{prefix}.attn_norm_in"], eps)
    attn, c_attn = _attention_fwd(a_in, bands, p, prefix, config, cos, sin)
    a_out, c_norm2 = _rmsnorm_fwd(attn, p[f"{prefix}.attn_norm_out"], eps)
    h = x + a_out
    f_in, c_norm3 = _rmsnorm_fwd(h, p[f"{prefix}.ffn_norm_in"], eps)
    gate = f_in @ p[f"{prefix}.w_gate"]
    up = f_in @ p[f"{prefix}.w_up"]
    act = _silu(gate) * up
    ffn = act @ p[f"{prefix}.w_down"]
    f_out, c_norm4 = _rmsnorm_fwd(ffn, p[f"{prefix}.ffn_norm_out"], eps)
    y = h + f_out
    cache = (c_norm1, c_attn, c_norm2, c_norm3, gate, up, act, f_in, c_norm4, prefix)
    return y, cache


def _block_bwd(cache, dy: Array, p: Mapping[str, Array], grads: dict[str, Array],
               config: ModelConfig, cos: Array, sin: Array) -> Array:
    c_norm1, c_attn, c_norm2, c_norm3, gate, up, act, f_in, c_norm4, prefix = cache
    d = dy.shape[-1]
    # y = h + rmsnorm(ffn)
    dffn, dg4 = _rmsnorm_bwd(c_norm4, dy)
    grads[f"{prefix}.ffn_norm_out"] += dg4
    dact = dffn @ p[f"{prefix}.w_down"].T
    grads[f"{prefix}.w_down"] += act.reshape(-1, act.shape[-1]).T @ dffn.reshape(-1, d)
    dgate = dact * up * _silu_grad(gate)
    dup = dact * _silu(gate)
    df_in = dgate @ p[f"{prefix}.w_gate"].T + dup @ p[f"{prefix}.w_up"].T
    f_flat = f_in.reshape(-1, d)
    grads[f"{prefix}.w_gate"] += f_flat.T @ dgate.reshape(-1, dgate.shape[-1])
    grads[f"{prefix}.w_up"] += f_flat.T @ dup.reshape(-1, dup.shape[-1])
    dh, dg3 = _rmsnorm_bwd(c_norm3, df_in)
    grads[f"{prefix}.ffn_norm_in"] += dg3
    dh += dy  # residual
    # h = x + rmsnorm(attn)
    dattn, dg2 = _rmsnorm_bwd(c_norm2, dh)
    grads[f"{prefix}.attn_norm_out"] += dg2
    da_in = _attention_bwd(c_attn, dattn, p, grads, config, cos, sin)
    dx, dg1 = _rmsnorm_bwd(c_norm1, da_in)
    grads[f"{prefix}.attn_norm_in"] += dg1
    dx += dh  # residual
    return dx


def _check_tokens(tokens: Array, vocab_size: int):
    if tokens.size == 0:
        return
    lo, hi = int(tokens.min()), int(tokens.max())
    if lo < 0 or hi >= vocab_size:
        raise DataError(f"token id {hi if hi >= vocab_size else lo} out of "
                        f"vocabulary (size {vocab_size})")


def _forward_with_cache(params: Parameters, tokens: Array | Sequence[int],
                        masks: MaskSpec | Sequence[MaskSpec]):
    cfg = params.config
    p = params.tensors
    tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
    b, l = tokens.shape
    specs = [masks] * b if isinstance(masks, MaskSpec) else list(masks)
    if len(specs) != b or any(s.seq_len != l for s in specs):
        raise DataError(f"mask specs (count {len(specs)}, seq_len "
                        f"{sorted({s.seq_len for s in specs})}) do not match "
                        f"{b} sequences of length {l}")
    _check_tokens(tokens, cfg.vocab_size)
    cos, sin = _rope_tables(cfg, l)
    bands = _key_bands(specs)
    x = p["embed"][tokens]  # [B, L, D]
    block_caches = []
    for i in range(cfg.n_layers):
        x, cache = _block_fwd(x, bands, p, f"blocks.{i}", cfg, cos, sin)
        block_caches.append(cache)
    trunk = x
    ntp_hidden, c_ntp_norm = _rmsnorm_fwd(trunk, p["ntp_norm"], cfg.norm_eps)
    ntp_logits = ntp_hidden @ p["embed"].T
    mtp_x, c_mtp_block = _block_fwd(trunk, bands, p, "mtp_block", cfg, cos, sin)
    mtp_hidden, c_mtp_norm = _rmsnorm_fwd(mtp_x, p["mtp_norm"], cfg.norm_eps)
    mtp_logits = mtp_hidden @ p["embed"].T
    cache = {
        "tokens": tokens,
        "cos": cos,
        "sin": sin,
        "blocks": block_caches,
        "ntp_norm": c_ntp_norm,
        "ntp_hidden": ntp_hidden,
        "mtp_block": c_mtp_block,
        "mtp_norm": c_mtp_norm,
        "mtp_hidden": mtp_hidden,
    }
    return ForwardOutput(ntp_logits=ntp_logits, mtp_logits=mtp_logits), cache


def forward(
    params: Parameters,
    tokens: Array | Sequence[int],
    mask_spec: MaskSpec | Sequence[MaskSpec],
) -> ForwardOutput:
    """Run the model; attention is zero exactly where the mask disallows.

    ``mask_spec`` is one spec for every row of ``tokens`` or one spec per
    row; rows may use different policies. A spec count or ``seq_len`` that
    does not match ``tokens`` is a ``DataError``.
    """
    out, _ = _forward_with_cache(params, tokens, mask_spec)
    return out


@dataclass
class LossBreakdown:
    total: float
    ntp: float
    mtp: float
    ntp_support: int
    mtp_support: int


def _ce_and_grad(logits: Array, labels: Array):
    """Mean cross entropy over non-ignored positions and its logit gradient."""
    b, l, v = logits.shape
    flat_logits = logits.reshape(-1, v)
    flat_labels = labels.reshape(-1).astype(np.int64)
    support = flat_labels != np.int64(IGNORE_LABEL)
    n = int(support.sum())
    dlogits = np.zeros_like(flat_logits)
    if n == 0:
        return 0.0, dlogits.reshape(b, l, v), 0
    idx = np.nonzero(support)[0]
    sel = flat_logits[idx]
    lab = flat_labels[idx]
    if lab.min() < 0 or int(lab.max()) >= v:
        raise DataError("label id out of vocabulary")
    m = sel.max(axis=-1, keepdims=True)
    e = np.exp(sel - m)
    z = e.sum(axis=-1, keepdims=True)
    log_probs = (sel - m) - np.log(z)
    ce = -log_probs[np.arange(n), lab].mean()
    soft = e / z
    soft[np.arange(n), lab] -= 1.0
    dlogits[idx] = soft / n
    return float(ce), dlogits.reshape(b, l, v), n


def _loss_breakdown(output: ForwardOutput, ntp_labels: Array, mtp_labels: Array,
                    mtp_alpha: float) -> tuple[LossBreakdown, Array, Array]:
    """The loss and the gradients of its total w.r.t. both logit tensors."""
    ntp_labels = np.atleast_2d(np.asarray(ntp_labels))
    mtp_labels = np.atleast_2d(np.asarray(mtp_labels))
    ce_ntp, dntp_logits, n_ntp = _ce_and_grad(output.ntp_logits, ntp_labels)
    ce_mtp, dmtp_logits, n_mtp = _ce_and_grad(output.mtp_logits, mtp_labels)
    if n_ntp == 0 and n_mtp == 0:
        raise DataError("empty loss support: every label is the ignore marker")
    breakdown = LossBreakdown(
        total=ce_ntp + mtp_alpha * ce_mtp,
        ntp=ce_ntp,
        mtp=ce_mtp,
        ntp_support=n_ntp,
        mtp_support=n_mtp,
    )
    return breakdown, dntp_logits, dmtp_logits * mtp_alpha


def loss(
    output: ForwardOutput,
    ntp_labels: Array,
    mtp_labels: Array,
    mtp_alpha: float,
) -> LossBreakdown:
    """Mean NTP cross entropy plus ``mtp_alpha`` times mean MTP cross entropy.

    Positions labelled ``IGNORE_LABEL`` are excluded from both means. A track
    with no support contributes zero; if both tracks are empty that is an
    error.
    """
    return _loss_breakdown(output, ntp_labels, mtp_labels, mtp_alpha)[0]


def loss_and_grads(
    params: Parameters,
    tokens: Array,
    masks: MaskSpec | Sequence[MaskSpec],
    ntp_labels: Array,
    mtp_labels: Array,
    mtp_alpha: float,
) -> tuple[LossBreakdown, dict[str, Array]]:
    """Forward, loss, and full analytic parameter gradients; ``masks`` as
    for ``forward``."""
    cfg = params.config
    p = params.tensors
    out, cache = _forward_with_cache(params, tokens, masks)
    breakdown, dntp_logits, dmtp_logits = _loss_breakdown(
        out, ntp_labels, mtp_labels, mtp_alpha
    )

    grads = {name: np.zeros_like(t) for name, t in p.items()}
    cos, sin = cache["cos"], cache["sin"]
    d = cfg.d_model
    v = cfg.vocab_size

    # heads: logits = hidden @ embed.T
    ntp_hidden = cache["ntp_hidden"]
    mtp_hidden = cache["mtp_hidden"]
    grads["embed"] += dntp_logits.reshape(-1, v).T @ ntp_hidden.reshape(-1, d)
    grads["embed"] += dmtp_logits.reshape(-1, v).T @ mtp_hidden.reshape(-1, d)
    dntp_hidden = dntp_logits @ p["embed"]
    dmtp_hidden = dmtp_logits @ p["embed"]

    dtrunk_ntp, dg = _rmsnorm_bwd(cache["ntp_norm"], dntp_hidden)
    grads["ntp_norm"] += dg
    dmtp_x, dg = _rmsnorm_bwd(cache["mtp_norm"], dmtp_hidden)
    grads["mtp_norm"] += dg
    dtrunk_mtp = _block_bwd(cache["mtp_block"], dmtp_x, p, grads, cfg, cos, sin)
    dx = dtrunk_ntp + dtrunk_mtp
    for i in range(cfg.n_layers - 1, -1, -1):
        dx = _block_bwd(cache["blocks"][i], dx, p, grads, cfg, cos, sin)
    np.add.at(grads["embed"], cache["tokens"].reshape(-1), dx.reshape(-1, d))
    return breakdown, grads


# --- gradient verification --------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    per_tensor: dict[str, float]
    coords_checked: int
    skipped: list[str] = field(default_factory=list)
    tolerance: float = 1e-6

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _grad_check_batch(config: ModelConfig, gen: np.random.Generator):
    """A small random batch with two-document spans and boundary-masked labels."""
    from .masks import MaskPolicy, spans_from_lengths

    seq_len = 12
    b = 2
    tokens = gen.integers(0, config.vocab_size, size=(b, seq_len), dtype=np.int64)
    cut = 5
    spans = spans_from_lengths([cut, seq_len - cut], ["en", "ko"])
    specs = [
        MaskSpec(MaskPolicy.XLDA_FULL_CAUSAL, spans, seq_len, seq_len),
        MaskSpec(MaskPolicy.INTRA_DOCUMENT_CAUSAL, spans, seq_len, seq_len),
    ]
    labels = [make_labels(row, spans, seq_len) for row in tokens]
    ntp = np.stack([n for n, _ in labels]).astype(np.int64)
    mtp = np.stack([m for _, m in labels]).astype(np.int64)
    return tokens, specs, ntp, mtp


def grad_check(
    config: ModelConfig,
    tolerance: float = 1e-6,
    mtp_alpha: float = 0.2,
    max_coords_per_tensor: int | None = None,
    h_base: float = 1e-4,
    seed: int = 0,
    params: Parameters | None = None,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    Intended for models of at most a few thousand parameters; every
    coordinate is checked unless ``max_coords_per_tensor`` caps the count.
    The step for coordinate w is ``h_base * max(1, |w|)``, combined in the
    fourth-order central stencil (f(x-2h), f(x-h), f(x+h), f(x+2h)) so that
    truncation error stays far below the 1e-6 tolerance; plain second-order
    differences at this step size leave ~5e-6 of truncation error on the
    tied softmax head.
    """
    if params is None:
        params = init(config)
    if params.n_params() > 8192:
        raise ConfigError(
            f"grad_check expects a model of at most a few thousand parameters, "
            f"got {params.n_params()}"
        )
    gen = rng.stream(seed, rng.STREAM_GRAD_CHECK)
    tokens, specs, ntp, mtp = _grad_check_batch(config, gen)
    breakdown, grads = loss_and_grads(
        params, tokens, specs, ntp, mtp, mtp_alpha=mtp_alpha
    )

    def loss_only() -> float:
        out, _ = _forward_with_cache(params, tokens, specs)
        return loss(out, ntp, mtp, mtp_alpha).total

    per_tensor: dict[str, float] = {}
    skipped: list[str] = []
    checked = 0
    for name, tensor in params.tensors.items():
        if tensor.size == 0:
            skipped.append(f"{name}: zero-parameter slice, skipped")
            continue
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        if max_coords_per_tensor is not None and tensor.size > max_coords_per_tensor:
            coords = gen.choice(tensor.size, size=max_coords_per_tensor, replace=False)
        else:
            coords = np.arange(tensor.size)
        worst = 0.0
        for c in coords:
            w = flat[c]
            h = h_base * max(1.0, abs(w))
            samples = []
            for delta in (h, -h, 2.0 * h, -2.0 * h):
                flat[c] = w + delta
                samples.append(loss_only())
            flat[c] = w
            up1, down1, up2, down2 = samples
            numeric = (8.0 * (up1 - down1) - (up2 - down2)) / (12.0 * h)
            analytic = float(gflat[c])
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            worst = max(worst, float(err))
            checked += 1
        per_tensor[name] = worst
    return GradCheckReport(
        max_rel_error=max(per_tensor.values()) if per_tensor else 0.0,
        per_tensor=per_tensor,
        coords_checked=checked,
        skipped=skipped,
        tolerance=tolerance,
    )
