"""Attention-mask policies for packed sequences.

Three policies over the same span metadata:

* ``xlda_full_causal`` — plain causal attention over the whole packed
  window: tokens may attend across every document boundary, which is what
  lets material from different languages interact in context.
* ``intra_document_causal`` — the conventional packing mask: attention is
  confined to the token's own document.
* ``cross_lingual_bridge`` — a stricter cross-lingual variant: attention
  crosses a document boundary only when the two documents are in different
  languages; same-language neighbors stay separated.

Causality (key position <= query position) and padding exclusion are
enforced under every policy. The span-based form is canonical and O(1) per
query; the dense boolean matrix is a debug/test view.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .packing import DocSpan, PackedSequence, check_tiling

DENSE_SEQ_LEN_CAP = 8192


class MaskPolicy(enum.Enum):
    XLDA_FULL_CAUSAL = "xlda_full_causal"
    INTRA_DOCUMENT_CAUSAL = "intra_document_causal"
    CROSS_LINGUAL_BRIDGE = "cross_lingual_bridge"

    @classmethod
    def parse(cls, name: str) -> "MaskPolicy":
        aliases = {
            "xlda": cls.XLDA_FULL_CAUSAL,
            "intra": cls.INTRA_DOCUMENT_CAUSAL,
            "bridge": cls.CROSS_LINGUAL_BRIDGE,
        }
        key = name.strip().lower()
        if key in aliases:
            return aliases[key]
        for member in cls:
            if member.value == key:
                return member
        raise ConfigError(f"unknown mask policy {name!r}; use xlda|intra|bridge")


@dataclass(frozen=True)
class MaskSpec:
    """Span-based description of the allowed attention pairs of one sequence."""

    policy: MaskPolicy
    spans: tuple[DocSpan, ...]
    pad_start: int
    seq_len: int

    def __post_init__(self):
        check_tiling(self.spans, self.pad_start, self.seq_len)
        # precompute span lookup boundaries
        object.__setattr__(self, "_starts", tuple(s.start for s in self.spans))

    @classmethod
    def for_sequence(cls, seq: PackedSequence, policy: MaskPolicy) -> "MaskSpec":
        return cls(policy=policy, spans=seq.spans, pad_start=seq.pad_start,
                   seq_len=seq.seq_len)

    def span_index(self, pos: int) -> int:
        """Index of the span containing token position ``pos`` (< pad_start)."""
        return bisect_right(self._starts, pos) - 1


def is_allowed(spec: MaskSpec, q: int, k: int) -> bool:
    """May the query at position ``q`` attend to the key at position ``k``?"""
    if not (0 <= q < spec.seq_len) or not (0 <= k < spec.seq_len):
        raise DataError(
            f"position out of range: q={q}, k={k}, seq_len={spec.seq_len}"
        )
    if k > q or q >= spec.pad_start or k >= spec.pad_start:
        return False
    if spec.policy is MaskPolicy.XLDA_FULL_CAUSAL:
        return True
    qi = spec.span_index(q)
    ki = spec.span_index(k)
    if qi == ki:
        return True
    if spec.policy is MaskPolicy.INTRA_DOCUMENT_CAUSAL:
        return False
    return spec.spans[qi].lang.code != spec.spans[ki].lang.code


def materialize_dense(
    spec: MaskSpec, seq_len: int, force: bool = False,
    cap: int = DENSE_SEQ_LEN_CAP,
) -> np.ndarray:
    """Dense boolean matrix with ``m[q, k] == is_allowed(spec, q, k)``.

    Refuses sequence lengths above the memory cap unless forced.
    """
    if seq_len != spec.seq_len:
        raise DataError(
            f"seq_len {seq_len} does not match the spec's sequence ({spec.seq_len})"
        )
    if seq_len > cap and not force:
        raise ConfigError(
            f"refusing to materialize {seq_len}x{seq_len} mask "
            f"(cap {cap}); pass force=True to override"
        )
    pos = np.arange(seq_len)
    doc, lang = segment_ids(spec)
    causal = pos[None, :] <= pos[:, None]
    valid = (pos[:, None] < spec.pad_start) & (pos[None, :] < spec.pad_start)
    base = causal & valid
    if spec.policy is MaskPolicy.XLDA_FULL_CAUSAL:
        return base
    same_doc = doc[:, None] == doc[None, :]
    if spec.policy is MaskPolicy.INTRA_DOCUMENT_CAUSAL:
        return base & same_doc
    return base & (same_doc | (lang[:, None] != lang[None, :]))


def allowed_pair_count(spec: MaskSpec) -> int:
    """Number of allowed (q, k) pairs, from span arithmetic alone.

    Within a span the allowed region is the lower triangle including the
    diagonal, n(n+1)/2; between an earlier span j and a later span i every
    pair is causal, contributing n_i * n_j when the policy permits the pair
    of documents at all.
    """
    total = 0
    spans = spec.spans
    for i, si in enumerate(spans):
        n_i = len(si)
        total += n_i * (n_i + 1) // 2
        if spec.policy is MaskPolicy.INTRA_DOCUMENT_CAUSAL:
            continue
        for j in range(i):
            sj = spans[j]
            if spec.policy is MaskPolicy.XLDA_FULL_CAUSAL or (
                si.lang.code != sj.lang.code
            ):
                total += n_i * len(sj)
    return total


def segment_ids(
    window: MaskSpec | PackedSequence, lang_ids: Mapping[str, int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position document and language ids of a window (-1 in padding).

    Documents are numbered by span index. Languages get the ids of
    ``lang_ids`` when given; any other language is numbered from
    ``len(lang_ids)`` up in order of first appearance.
    """
    ids = dict(lang_ids or {})
    doc = np.full(window.seq_len, -1, dtype=np.int64)
    lang = np.full(window.seq_len, -1, dtype=np.int64)
    for i, span in enumerate(window.spans):
        doc[span.start : span.end] = i
        lang[span.start : span.end] = ids.setdefault(span.lang.code, len(ids))
    return doc, lang


def spans_from_lengths(
    lengths: Sequence[int], codes: Sequence[str]
) -> tuple[DocSpan, ...]:
    """Build a tiling span tuple from fragment lengths and language codes."""
    if len(lengths) != len(codes):
        raise ConfigError("lengths and codes must align")
    from .corpus import LanguageTag, default_language_class

    spans = []
    pos = 0
    for i, (n, code) in enumerate(zip(lengths, codes)):
        spans.append(
            DocSpan(
                start=pos,
                end=pos + n,
                lang=LanguageTag(code, default_language_class(code)),
                doc_id=f"d{i}",
                piece_index=0,
            )
        )
        pos += n
    return tuple(spans)
