"""Desk-scale decoder-only transformer for verifying mask semantics.

RoPE attention, SwiGLU feedforward, RMSNorm applied before *and* after each
attention and feedforward sublayer (the residual adds the post-normed
sublayer output), a final norm ahead of the tied output head, and a
second-next-token head built from one extra transformer block stacked on the
trunk's final hidden states.

Everything is numpy with hand-written backward passes, in the config's
``dtype``: float64 by default, so analytic gradients can be checked against
central finite differences to tight tolerances, or float32, which halves the
memory traffic of a training step. Runs are bit-reproducible in either.

Masks are ``MaskSpec`` span tables, one per sequence. Attention runs over
fixed tiles of ``ATTENTION_TILE`` query rows. Each tile scores only its key
band, the keys some row of the tile may attend to in some sequence: from the
smallest ``masks.earliest_keys`` of its rows to its last non-padding row, so
under ``intra`` and ``bridge`` the cost follows the allowed span pairs
instead of L * L. The band's cells are ``masks.allowed_block`` over the batch,
turned once per forward into an additive 0/-inf mask that every block
shares (see ``_band_attention``); tiles with only padding rows are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import ClassVar, Mapping, Sequence

import numpy as np

from . import rng
from .errors import ConfigError, DataError
from .masks import MaskPolicy, MaskSpec, allowed_block, earliest_keys, spans_from_lengths
from .packing import IGNORE_LABEL, make_labels

Array = np.ndarray

DTYPES = ("float32", "float64")  # parameter and compute dtypes


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 2
    d_model: int = 32
    d_ff: int = 64
    n_heads: int = 4
    vocab_size: int = 64
    rope_theta: float = 100_000.0
    mtp_alpha: float = 0.2
    norm_eps: ClassVar[float] = 1e-6
    seed: int = 0
    dtype: str = "float64"  # one of DTYPES, for the parameters and every activation

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
        if self.rope_theta <= 0:
            raise ConfigError("rope_theta must be positive")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {'|'.join(DTYPES)}: {self.dtype!r}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class Parameters:
    """Every parameter in one vector, ``flat``, of the config's ``dtype``;
    ``tensors`` holds named views into it, laid end to end in ``init``'s
    order. The forward and backward passes compute in ``flat``'s dtype."""

    config: ModelConfig
    flat: Array
    tensors: dict[str, Array]

    def like(self, flat: Array) -> "Parameters":
        """The same names and shapes laid over ``flat``, a vector of this size."""
        return Parameters(self.config, flat,
                          _views({name: t.shape for name, t in self.tensors.items()}, flat))

    def copy(self) -> "Parameters":
        return self.like(self.flat.copy())


@dataclass
class ForwardOutput:
    ntp_logits: Array  # [B, L, V]
    mtp_logits: Array | None  # None from forward(..., mtp=False)


_BLOCK_NORMS = ("attn_norm_in", "attn_norm_out", "ffn_norm_in", "ffn_norm_out")


def _shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in layout (and init draw) order."""
    d, f, v = config.d_model, config.d_ff, config.vocab_size
    block = {**dict.fromkeys(_BLOCK_NORMS, (d,)), "wq": (d, d), "wk": (d, d), "wv": (d, d),
             "wo": (d, d), "w_gate": (d, f), "w_up": (d, f), "w_down": (f, d)}
    shapes = {"embed": (v, d)}
    for prefix in [f"blocks.{i}" for i in range(config.n_layers)] + ["mtp_block"]:
        shapes.update({f"{prefix}.{name}": shape for name, shape in block.items()})
    return {**shapes, "ntp_norm": (d,), "mtp_norm": (d,)}


def _views(shapes: Mapping[str, tuple[int, ...]], flat: Array) -> dict[str, Array]:
    views, start = {}, 0
    for name, shape in shapes.items():
        views[name] = flat[start:start + math.prod(shape)].reshape(shape)
        start += views[name].size
    return views


def init(config: ModelConfig) -> Parameters:
    """Deterministic scaled-normal initialization from the config seed; the
    norm gains start at one. The draws are float64 whatever the dtype."""
    gen = rng.stream(config.seed, rng.STREAM_INIT)
    shapes = _shapes(config)
    flat = np.ones(sum(map(math.prod, shapes.values())), dtype=config.dtype)
    tensors = _views(shapes, flat)
    for tensor in tensors.values():
        if tensor.ndim == 2:  # fan-in is the first axis
            tensor[...] = gen.standard_normal(tensor.shape) / math.sqrt(tensor.shape[0])
    return Parameters(config, flat, tensors)


def working_set_bytes(config: ModelConfig, batch: int, seq_len: int,
                      backward: bool = True) -> int:
    """An upper estimate of a process's peak memory while it runs one batch,
    from shapes alone: 64 MiB for the interpreter, then, at the itemsize of
    the config's dtype, seven parameter vectors (AdamW's four and three
    temporaries), six [B, L, V] and six [B, L, d_ff] arrays, and per block
    four [B, L, d_ff], sixteen [B, L, d] and [B, H, L, L] weights.

    With ``backward``, for a training step, every block is charged: each
    block's cache is held until the backward pass. Without it, for a
    forward-only pass (``forward``), one block is: the pass holds one
    block's arrays at a time."""
    n_params = sum(map(math.prod, _shapes(config).values()))
    blocks = config.n_layers + 1 if backward else 1
    per_row = 6 * config.vocab_size + 6 * config.d_ff + blocks * (
        4 * config.d_ff + config.n_heads * seq_len + 16 * config.d_model)
    itemsize = np.dtype(config.dtype).itemsize
    return (64 << 20) + itemsize * (7 * n_params + batch * seq_len * per_row)


# --- primitive layers (forward returns a cache consumed by backward) -------


def _rmsnorm_fwd(x: Array, g: Array, eps: float):
    d = x.shape[-1]
    r = 1.0 / np.sqrt(np.einsum("...i,...i->...", x, x)[..., None] / d + eps)
    normed = x * r
    return normed * g, (normed, g, r)


def _rmsnorm_bwd(cache, dy: Array):
    # with n = x * r: dx = r * (dn - n * mean(dn * n)), where dn = dy * g
    normed, g, r = cache
    d = normed.shape[-1]
    dn = dy * g
    dg = np.einsum("ij,ij->j", dy.reshape(-1, d), normed.reshape(-1, d))
    inner = np.einsum("...i,...i->...", dn, normed)[..., None] / d
    dn -= normed * inner
    dn *= r
    return dn, dg


def _swiglu_fwd(gate: Array, up: Array):
    """silu(gate) * up, caching the sigmoid and silu(gate) for the backward."""
    sig = np.negative(gate)
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    silu = gate * sig
    return silu * up, (sig, silu, up)


def _swiglu_bwd(cache, dact: Array) -> tuple[Array, Array]:
    # silu'(g) = sig + silu * (1 - sig)
    sig, silu, up = cache
    dsilu = 1.0 - sig
    dsilu *= silu
    dsilu += sig
    dgate = dact * up
    dgate *= dsilu
    return dgate, dact * silu


@lru_cache(maxsize=8)
def _rope_tables(rope_theta: float, head_dim: int, seq_len: int, dtype: np.dtype) -> Array:
    """Rotations e^(i * angle) as [L, hd/2] complex numbers of ``dtype``'s width.

    Computed once per argument tuple and shared by every forward, so read-only.
    """
    half = head_dim // 2
    inv = rope_theta ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    ang = np.arange(seq_len, dtype=np.float64)[:, None] * inv[None, :]
    rot = np.exp(1j * ang).astype(np.result_type(dtype, np.complex64))
    rot.flags.writeable = False
    return rot


def _rope_fwd(x: Array, rot: Array) -> Array:
    # x: [B, L, H, hd], pairs (2j, 2j+1) as one complex number; rot: [L, hd/2]
    pairs = np.ascontiguousarray(x).view(rot.dtype)
    return (pairs * rot[:, None, :]).view(x.dtype)


def _rope_bwd(dy: Array, rot: Array) -> Array:
    # transpose of a rotation is the rotation by the opposite angle
    return _rope_fwd(dy, rot.conj())


ATTENTION_TILE = 64  # query rows per attention tile


@dataclass(frozen=True)
class _Band:
    qs: int  # query rows [qs, qe)
    qe: int
    ks: int  # key columns [ks, ke)
    ke: int
    bias: Array  # [B, 1, tq, tk]: 0 where allowed, -inf where masked


def _key_bands(specs: Sequence[MaskSpec], dtype=np.float64) -> list[_Band]:
    """Query tiles with their key bands, from one mask spec per sequence.

    A tile's band runs from the earliest key any of its non-padding rows may
    attend to up to its last non-padding row. Tiles with no non-padding row
    in any sequence are left out; their attention output is zero. Each
    band's mask is ``allowed_block`` over the whole batch, each row under
    its own policy, turned into an additive bias of ``dtype``.
    """
    seq_len = specs[0].seq_len
    firsts = [earliest_keys(s) for s in specs]
    zero, masked = np.array(0.0, dtype), np.array(-np.inf, dtype)
    bands = []
    for qs in range(0, seq_len, ATTENTION_TILE):
        qe = min(qs + ATTENTION_TILE, seq_len)
        live = [(int(first[qs:qe].min()), min(qe, s.pad_start))
                for s, first in zip(specs, firsts) if s.pad_start > qs]
        if not live:
            continue
        ks = min(k for k, _ in live)
        ke = max(k for _, k in live)
        allowed = allowed_block(specs, qs, qe, ks, ke)  # [B, tq, tk]
        bands.append(_Band(qs, qe, ks, ke, bias=np.where(allowed[:, None], zero, masked)))
    return bands


def _band_attention(qr: Array, kr: Array, vh: Array, bands: Sequence[_Band],
                    keep: bool = True):
    """Masked softmax attention over key bands, with the score scale already
    in ``qr``; returns the context and the cache ``_band_attention_bwd``
    takes. Unless ``keep``, no band's weights go into the cache, so each is
    dropped once its context is written.

    Per score cell: the bias add, the row max, the shift and ``exp``. The
    shift is the maximum over allowed cells, so every allowed argument is
    <= 0 and every masked one -inf, whose ``exp`` is exactly zero. One
    product with [v, 1] gives the context and the row sums together, and the
    row sums normalise the [tq, hd] context instead of the [tq, tk] weights.
    Rows with no allowed key get zero context. Keys and values are kept
    transposed, [hd, L] per head, the layout in which BLAS runs these small
    products fastest.
    """
    b, h, l, hd = vh.shape
    kt = np.ascontiguousarray(kr.swapaxes(-1, -2))
    vt = np.ones((b, h, hd + 1, l), vh.dtype)
    vt[:, :, :hd] = vh.swapaxes(-1, -2)
    ctx = np.zeros_like(vh)
    weights = []  # per band: unnormalised weights and reciprocal row sums
    for band in bands:
        e = qr[:, :, band.qs:band.qe] @ kt[..., band.ks:band.ke]  # scores, then exp in place
        e += band.bias
        # fmax reduces faster than max, and a NaN score still reaches the
        # context through exp
        m = np.fmax.reduce(e, axis=-1, keepdims=True)
        m[m == -np.inf] = 0.0  # rows with nothing allowed
        e -= m
        np.exp(e, out=e)
        out = e @ vt[..., band.ks:band.ke].swapaxes(-1, -2)
        denom = out[..., hd:]
        denom[denom == 0.0] = 1.0
        inv = 1.0 / denom
        ctx[:, :, band.qs:band.qe] = out[..., :hd] * inv
        if keep:
            weights.append((e, inv))
    return ctx, (vt, weights)


def _band_attention_bwd(dctx: Array, ctx: Array, qr: Array, kr: Array, bands: Sequence[_Band],
                        cache) -> tuple[Array, Array, Array]:
    """Gradients of ``_band_attention`` w.r.t. qr, kr and vh, tile by tile.

    With w = e * inv, the score gradient is w * (dctx . v - dctx . ctx). The
    row factors go into the [tq, hd + 1] left operand, inv * [dctx, -dctx .
    ctx], so that one product with [v, 1] and one multiply by e give it.
    """
    vt, weights = cache
    hd = ctx.shape[-1]
    dqr = np.zeros_like(qr)
    dkt = np.zeros_like(vt[:, :, :hd])
    dvt = np.zeros_like(dkt)
    left = np.concatenate([dctx, -np.einsum("...i,...i->...", dctx, ctx)[..., None]], axis=-1)
    for band, (e, inv) in zip(bands, weights):
        q_rows, k_cols = slice(band.qs, band.qe), slice(band.ks, band.ke)
        dc = left[:, :, q_rows] * inv
        dvt[..., k_cols] += dc[..., :hd].swapaxes(-1, -2) @ e
        ds = dc @ vt[..., k_cols]
        ds *= e  # d(scores)
        dqr[:, :, q_rows] = ds @ kr[:, :, k_cols]
        dkt[..., k_cols] += qr[:, :, q_rows].swapaxes(-1, -2) @ ds
    return dqr, dkt.swapaxes(-1, -2), dvt.swapaxes(-1, -2)


def _attention_fwd(x: Array, bands: Sequence[_Band], p: Mapping[str, Array],
                   prefix: str, config: ModelConfig, rot: Array, keep: bool):
    b, l, d = x.shape
    h, hd = config.n_heads, config.head_dim
    wq = p[f"{prefix}.wq"] * (1.0 / math.sqrt(hd))  # the score scale, folded into wq
    q = (x @ wq).reshape(b, l, h, hd)
    k = (x @ p[f"{prefix}.wk"]).reshape(b, l, h, hd)
    v = (x @ p[f"{prefix}.wv"]).reshape(b, l, h, hd)
    qr = _rope_fwd(q, rot).transpose(0, 2, 1, 3)  # [B, H, L, hd]
    kr = _rope_fwd(k, rot).transpose(0, 2, 1, 3)
    vh = v.transpose(0, 2, 1, 3)
    ctx, c_band = _band_attention(qr, kr, vh, bands, keep)  # [B, H, L, hd]
    merged = ctx.transpose(0, 2, 1, 3).reshape(b, l, d)
    out = merged @ p[f"{prefix}.wo"]
    cache = (x, qr, kr, bands, c_band, merged, prefix, wq)
    return out, cache


def _attention_bwd(cache, dout: Array, p: Mapping[str, Array],
                   grads: dict[str, Array], config: ModelConfig, rot: Array) -> Array:
    x, qr, kr, bands, c_band, merged, prefix, wq = cache
    b, l, d = x.shape
    h, hd = config.n_heads, config.head_dim
    grads[f"{prefix}.wo"] += merged.reshape(-1, d).T @ dout.reshape(-1, d)
    dmerged = dout @ p[f"{prefix}.wo"].T
    dctx = dmerged.reshape(b, l, h, hd).transpose(0, 2, 1, 3)
    ctx = merged.reshape(b, l, h, hd).transpose(0, 2, 1, 3)
    dqr, dkr, dvh = _band_attention_bwd(dctx, ctx, qr, kr, bands, c_band)
    dq = _rope_bwd(dqr.transpose(0, 2, 1, 3), rot).reshape(b, l, d)
    dk = _rope_bwd(dkr.transpose(0, 2, 1, 3), rot).reshape(b, l, d)
    dv = dvh.transpose(0, 2, 1, 3).reshape(b, l, d)
    x_flat = x.reshape(-1, d)
    grads[f"{prefix}.wq"] += (x_flat.T @ dq.reshape(-1, d)) * (1.0 / math.sqrt(hd))
    grads[f"{prefix}.wk"] += x_flat.T @ dk.reshape(-1, d)
    grads[f"{prefix}.wv"] += x_flat.T @ dv.reshape(-1, d)
    dx = dq @ wq.T
    dx += dk @ p[f"{prefix}.wk"].T
    dx += dv @ p[f"{prefix}.wv"].T
    return dx


def _block_fwd(x: Array, bands: Sequence[_Band], p: Mapping[str, Array],
               prefix: str, config: ModelConfig, rot: Array, keep: bool):
    eps = config.norm_eps
    a_in, c_norm1 = _rmsnorm_fwd(x, p[f"{prefix}.attn_norm_in"], eps)
    attn, c_attn = _attention_fwd(a_in, bands, p, prefix, config, rot, keep)
    a_out, c_norm2 = _rmsnorm_fwd(attn, p[f"{prefix}.attn_norm_out"], eps)
    h = x + a_out
    f_in, c_norm3 = _rmsnorm_fwd(h, p[f"{prefix}.ffn_norm_in"], eps)
    act, c_swiglu = _swiglu_fwd(f_in @ p[f"{prefix}.w_gate"], f_in @ p[f"{prefix}.w_up"])
    ffn = act @ p[f"{prefix}.w_down"]
    f_out, c_norm4 = _rmsnorm_fwd(ffn, p[f"{prefix}.ffn_norm_out"], eps)
    y = h + f_out
    cache = (c_norm1, c_attn, c_norm2, c_norm3, c_swiglu, act, f_in, c_norm4, prefix)
    return y, cache


def _block_bwd(cache, dy: Array, p: Mapping[str, Array], grads: dict[str, Array],
               config: ModelConfig, rot: Array) -> Array:
    c_norm1, c_attn, c_norm2, c_norm3, c_swiglu, act, f_in, c_norm4, prefix = cache
    d = dy.shape[-1]
    # y = h + rmsnorm(ffn)
    dffn, dg4 = _rmsnorm_bwd(c_norm4, dy)
    grads[f"{prefix}.ffn_norm_out"] += dg4
    dact = dffn @ p[f"{prefix}.w_down"].T
    grads[f"{prefix}.w_down"] += act.reshape(-1, act.shape[-1]).T @ dffn.reshape(-1, d)
    dgate, dup = _swiglu_bwd(c_swiglu, dact)
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
    da_in = _attention_bwd(c_attn, dattn, p, grads, config, rot)
    dx, dg1 = _rmsnorm_bwd(c_norm1, da_in)
    grads[f"{prefix}.attn_norm_in"] += dg1
    dx += dh  # residual
    return dx


def _head_fwd(x: Array, p: Mapping[str, Array], norm: str, eps: float):
    """Final norm ``norm``, then the tied projection onto the vocabulary."""
    hidden, c_norm = _rmsnorm_fwd(x, p[norm], eps)
    return hidden @ p["embed"].T, (hidden, c_norm, norm)


def _head_bwd(cache, dlogits: Array, p: Mapping[str, Array],
              grads: dict[str, Array]) -> Array:
    hidden, c_norm, norm = cache
    v, d = p["embed"].shape
    grads["embed"] += dlogits.reshape(-1, v).T @ hidden.reshape(-1, d)
    dx, dg = _rmsnorm_bwd(c_norm, dlogits @ p["embed"])
    grads[norm] += dg
    return dx


def _check_tokens(tokens: Array, vocab_size: int):
    if tokens.size == 0:
        return
    lo, hi = int(tokens.min()), int(tokens.max())
    if lo < 0 or hi >= vocab_size:
        raise DataError(f"token id {hi if hi >= vocab_size else lo} out of "
                        f"vocabulary (size {vocab_size})")


def _forward_with_cache(params: Parameters, tokens: Array | Sequence[int],
                        masks: MaskSpec | Sequence[MaskSpec], keep: bool = True,
                        mtp: bool = True):
    """The forward pass, and the cache ``loss_and_grads`` runs the backward
    pass from. Unless ``keep``, nothing is held for a backward pass: no band
    keeps its attention weights, each block's cache is dropped once the next
    block has its input, and the cache returned is None. Unless ``mtp``, the
    MTP block and head are not run and the MTP logits are None."""
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
    rot = _rope_tables(cfg.rope_theta, cfg.head_dim, l, params.flat.dtype)
    bands = _key_bands(specs, params.flat.dtype)
    x = p["embed"][tokens]  # [B, L, D]

    def held(result):  # a layer's (output, cache), its cache dropped unless kept
        return result if keep else (result[0], None)

    block_caches = []
    for i in range(cfg.n_layers):
        x, c_block = held(_block_fwd(x, bands, p, f"blocks.{i}", cfg, rot, keep))
        block_caches.append(c_block)
    ntp_logits, c_ntp_head = held(_head_fwd(x, p, "ntp_norm", cfg.norm_eps))
    mtp_logits = c_mtp_block = c_mtp_head = None
    if mtp:
        mtp_x, c_mtp_block = held(_block_fwd(x, bands, p, "mtp_block", cfg, rot, keep))
        mtp_logits, c_mtp_head = held(_head_fwd(mtp_x, p, "mtp_norm", cfg.norm_eps))
    cache = {"tokens": tokens, "rot": rot, "blocks": block_caches,
             "ntp_head": c_ntp_head, "mtp_block": c_mtp_block,
             "mtp_head": c_mtp_head} if keep else None
    return ForwardOutput(ntp_logits=ntp_logits, mtp_logits=mtp_logits), cache


def forward(
    params: Parameters,
    tokens: Array | Sequence[int],
    mask_spec: MaskSpec | Sequence[MaskSpec],
    *,
    mtp: bool = True,
) -> ForwardOutput:
    """Run the model; attention is zero exactly where the mask disallows.

    ``mask_spec`` is one spec for every row of ``tokens`` or one spec per
    row; rows may use different policies. A spec count or ``seq_len`` that
    does not match ``tokens`` is a ``DataError``.

    The pass runs the layer code of ``loss_and_grads`` and gives the same
    logits bit for bit, but keeps nothing for a backward pass: each band's
    attention weights are dropped once its context is written, each block's
    cache once the next block has its input, and no head cache is kept. Its
    peak is one block's arrays, not every block's cache (see
    ``working_set_bytes``).

    With ``mtp=False`` the MTP block and head are skipped: ``ntp_logits``
    are the same bit for bit and ``mtp_logits`` is None.
    """
    return _forward_with_cache(params, tokens, mask_spec, keep=False, mtp=mtp)[0]


@dataclass
class LossBreakdown:
    total: float
    ntp: float
    mtp: float


def token_ce(logits: Array, labels: Array) -> tuple[Array, Array, Array]:
    """Cross entropy at every position whose label is not ``IGNORE_LABEL``.

    ``logits`` is [..., V] and ``labels`` has its leading shape. Returns the
    flat indices of the labelled positions (into ``labels.reshape(-1)``), the
    cross entropy at each, and their softmax rows. A label outside the
    vocabulary is a ``DataError``.
    """
    v = logits.shape[-1]
    flat_labels = labels.reshape(-1).astype(np.int64)
    idx = np.flatnonzero(flat_labels != np.int64(IGNORE_LABEL))
    sel = logits.reshape(-1, v)[idx]
    lab = flat_labels[idx]
    if idx.size == 0:
        return idx, np.zeros(0), sel
    if lab.min() < 0 or int(lab.max()) >= v:
        raise DataError("label id out of vocabulary")
    m = sel.max(axis=-1, keepdims=True)
    e = np.exp(sel - m)
    z = e.sum(axis=-1, keepdims=True)
    rows = np.arange(idx.size)
    ce = np.log(z[:, 0]) - (sel[rows, lab] - m[:, 0])
    return idx, ce, e / z


def _ce_and_grad(logits: Array, labels: Array):
    """Mean cross entropy over non-ignored positions and its logit gradient."""
    idx, ce, soft = token_ce(logits, labels)
    n = idx.size
    dlogits = np.zeros((labels.size, logits.shape[-1]), dtype=logits.dtype)
    if n == 0:
        return 0.0, dlogits.reshape(logits.shape), 0
    soft[np.arange(n), labels.reshape(-1)[idx].astype(np.int64)] -= 1.0
    dlogits[idx] = soft / n
    return float(ce.mean()), dlogits.reshape(logits.shape), n


def _loss_breakdown(output: ForwardOutput, ntp_labels: Array, mtp_labels: Array,
                    mtp_alpha: float) -> tuple[LossBreakdown, Array, Array]:
    """The loss and the gradients of its total w.r.t. both logit tensors."""
    ntp_labels = np.atleast_2d(np.asarray(ntp_labels))
    mtp_labels = np.atleast_2d(np.asarray(mtp_labels))
    ce_ntp, dntp_logits, n_ntp = _ce_and_grad(output.ntp_logits, ntp_labels)
    ce_mtp, dmtp_logits, n_mtp = _ce_and_grad(output.mtp_logits, mtp_labels)
    if n_ntp == 0 and n_mtp == 0:
        raise DataError("empty loss support: every label is the ignore marker")
    breakdown = LossBreakdown(total=ce_ntp + mtp_alpha * ce_mtp, ntp=ce_ntp, mtp=ce_mtp)
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


def loss_and_grads(params: Parameters, tokens: Array, masks: MaskSpec | Sequence[MaskSpec],
                   ntp_labels: Array, mtp_labels: Array) -> tuple[LossBreakdown, Parameters]:
    """Forward, loss at the config's ``mtp_alpha``, and full analytic
    parameter gradients, laid out like ``params``; ``masks`` as for
    ``forward``."""
    cfg = params.config
    p = params.tensors
    out, cache = _forward_with_cache(params, tokens, masks)
    breakdown, dntp_logits, dmtp_logits = _loss_breakdown(out, ntp_labels, mtp_labels,
                                                          cfg.mtp_alpha)
    grads = params.like(np.zeros_like(params.flat))
    g = grads.tensors
    rot = cache["rot"]
    # the embed gradient gathers the NTP head, then the MTP head, then the input
    dtrunk_ntp = _head_bwd(cache["ntp_head"], dntp_logits, p, g)
    dmtp_x = _head_bwd(cache["mtp_head"], dmtp_logits, p, g)
    dtrunk_mtp = _block_bwd(cache["mtp_block"], dmtp_x, p, g, cfg, rot)
    dx = dtrunk_ntp + dtrunk_mtp
    for i in range(cfg.n_layers - 1, -1, -1):
        dx = _block_bwd(cache["blocks"][i], dx, p, g, cfg, rot)
    np.add.at(g["embed"], cache["tokens"].reshape(-1), dx.reshape(-1, cfg.d_model))
    return breakdown, grads


# --- gradient verification --------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    per_tensor: dict[str, float]
    coords_checked: int
    tolerance: float = 1e-6

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _grad_check_batch(config: ModelConfig, gen: np.random.Generator):
    """A small random batch with two-document spans and boundary-masked labels."""
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
    ntp = np.stack([n for n, _ in labels])
    mtp = np.stack([m for _, m in labels])
    return tokens, specs, ntp, mtp


def grad_check(
    config: ModelConfig,
    tolerance: float = 1e-6,
    max_coords_per_tensor: int | None = None,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences at the
    parameters ``init(config)`` draws.

    The loss weighs MTP by ``config.mtp_alpha``.

    Intended for models of at most a few thousand parameters; every
    coordinate is checked unless ``max_coords_per_tensor`` caps the count,
    or until one fails for good (a non-finite gradient or error).
    The batch and the coordinates picked under a cap come from one fixed
    stream, so a check is reproducible. The step for coordinate w is
    ``1e-4 * max(1, |w|)``, combined in the fourth-order central stencil
    (f(x-2h), f(x-h), f(x+h), f(x+2h)) so that truncation error stays far
    below the 1e-6 tolerance; plain second-order differences at this step
    size leave ~5e-6 of truncation error on the tied softmax head.

    The check always runs in float64, whatever ``config.dtype`` is: float32
    rounding alone is far above the tolerance.
    """
    config = replace(config, dtype="float64")
    n_params = sum(map(math.prod, _shapes(config).values()))  # refused before allocating
    if n_params > 8192:
        raise ConfigError(
            f"grad_check expects a model of at most a few thousand parameters, got {n_params}"
        )
    params = init(config)
    gen = rng.stream(0, rng.STREAM_GRAD_CHECK)
    tokens, specs, ntp, mtp = _grad_check_batch(config, gen)
    _, grads = loss_and_grads(params, tokens, specs, ntp, mtp)

    def loss_only() -> float:
        out, _ = _forward_with_cache(params, tokens, specs, keep=False)
        return loss(out, ntp, mtp, params.config.mtp_alpha).total

    per_tensor: dict[str, float] = {}
    checked = 0
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        gflat = grads.tensors[name].reshape(-1)
        if max_coords_per_tensor is not None and tensor.size > max_coords_per_tensor:
            coords = gen.choice(tensor.size, size=max_coords_per_tensor, replace=False)
        else:
            coords = np.arange(tensor.size)
        worst = 0.0
        for c in coords:
            checked += 1
            analytic = float(gflat[c])
            if not math.isfinite(analytic):  # fails whatever the losses
                worst = math.inf
                break
            w = flat[c]
            h = 1e-4 * max(1.0, abs(w))
            samples = []
            for delta in (h, -h, 2.0 * h, -2.0 * h):
                flat[c] = w + delta
                samples.append(loss_only())
            flat[c] = w
            up1, down1, up2, down2 = samples
            numeric = (8.0 * (up1 - down1) - (up2 - down2)) / (12.0 * h)
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            # a NaN error must fail the check, and max() would drop it
            worst = max(worst, float(err) if math.isfinite(err) else math.inf)
        per_tensor[name] = worst
        if worst == math.inf:  # no later coordinate can change the result
            break
    return GradCheckReport(
        max_rel_error=max(per_tensor.values()),
        per_tensor=per_tensor,
        coords_checked=checked,
        tolerance=tolerance,
    )
