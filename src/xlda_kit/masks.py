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
enforced under every policy. ``allowed_block`` is the one implementation of
the rule, over any block of one window or of a batch of windows, each under
its own policy: the model's attention bias takes its cells from it, and the
dense boolean matrix, a debug/test view, is that block over the full grid.
``is_allowed`` answers for one cell, the reference the block is tested
against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
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

    @classmethod
    def for_sequence(cls, seq: PackedSequence, policy: MaskPolicy) -> "MaskSpec":
        return cls(policy=policy, spans=seq.spans, pad_start=seq.pad_start,
                   seq_len=seq.seq_len)

    @cached_property
    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        return segment_ids(self)  # built on first use


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
    doc, lang = spec.segments
    if doc[q] == doc[k]:
        return True
    if spec.policy is MaskPolicy.INTRA_DOCUMENT_CAUSAL:
        return False
    return bool(lang[q] != lang[k])


def allowed_block(specs: MaskSpec | Sequence[MaskSpec], qs: int, qe: int, ks: int,
                  ke: int) -> np.ndarray:
    """The policy rule over the block of query rows [qs, qe) and key columns
    [ks, ke): ``block[i, j] == is_allowed(spec, qs + i, ks + j)``.

    ``specs`` is one spec, giving a [tq, tk] block, or a sequence of specs
    of one length, giving a [B, tq, tk] block whose rows each follow their
    own spec's policy. Segment ids are read only when some row is not
    ``xlda``.
    """
    batch = [specs] if isinstance(specs, MaskSpec) else specs
    pads = np.array([s.pad_start for s in batch])[:, None, None]
    q = np.arange(qs, qe)[:, None]
    k = np.arange(ks, ke)
    allowed = (k <= q) & (q < pads) & (k < pads)
    policies = [s.policy for s in batch]
    if any(p is not MaskPolicy.XLDA_FULL_CAUSAL for p in policies):

        def differ(ids):  # [B, tq, tk]: do a row's query and key ids differ?
            return (np.array([i[qs:qe, None] for i in ids])
                    != np.array([i[None, ks:ke] for i in ids]))

        def under(policy):  # [B, 1, 1]: is the row under ``policy``?
            return np.array([p is policy for p in policies])[:, None, None]

        doc, lang = zip(*(s.segments for s in batch))
        rule = ~differ(doc)
        if MaskPolicy.XLDA_FULL_CAUSAL in policies:
            rule |= under(MaskPolicy.XLDA_FULL_CAUSAL)
        if MaskPolicy.CROSS_LINGUAL_BRIDGE in policies:
            rule |= under(MaskPolicy.CROSS_LINGUAL_BRIDGE) & differ(lang)
        allowed &= rule
    return allowed[0] if isinstance(specs, MaskSpec) else allowed


def earliest_keys(spec: MaskSpec) -> np.ndarray:
    """Each non-padding row's first allowed key: 0 under ``xlda``, the start
    of the row's document under ``intra``, and under ``bridge`` the smaller
    of that and the first position in another language."""
    live = spec.pad_start
    if spec.policy is MaskPolicy.XLDA_FULL_CAUSAL:
        return np.zeros(live, dtype=np.int64)
    doc, lang = spec.segments
    doc_start = np.array([s.start for s in spec.spans], dtype=np.int64)[doc[:live]]
    if spec.policy is MaskPolicy.INTRA_DOCUMENT_CAUSAL:
        return doc_start
    # segment_ids gives the first span's language id 0: rows in any other
    # language may reach key 0, rows in that one first meet another at `other`
    code = spec.spans[0].lang.code if live else None
    other = next((s.start for s in spec.spans if s.lang.code != code), live)
    return np.minimum(doc_start, np.where(lang[:live] == 0, other, 0))


def materialize_dense(spec: MaskSpec, seq_len: int) -> np.ndarray:
    """Dense boolean matrix with ``m[q, k] == is_allowed(spec, q, k)``, the
    ``allowed_block`` of the full grid.

    Refuses sequence lengths above ``DENSE_SEQ_LEN_CAP``, whose grid would
    take more than 64 MiB; ``allowed_block`` gives any part of such a grid.
    """
    if seq_len != spec.seq_len:
        raise DataError(
            f"seq_len {seq_len} does not match the spec's sequence ({spec.seq_len})"
        )
    if seq_len > DENSE_SEQ_LEN_CAP:
        raise ConfigError(
            f"refusing to materialize {seq_len}x{seq_len} mask (cap {DENSE_SEQ_LEN_CAP})"
        )
    return allowed_block(spec, 0, seq_len, 0, seq_len)


def allowed_pair_count(spec: MaskSpec) -> int:
    """Number of allowed (q, k) pairs, in closed form over the span table.

    With P = ``pad_start`` live positions, spans of n tokens and N_lang
    live tokens per language:

    * ``xlda``: the causal triangle over the live positions, P(P+1)/2;
    * ``intra``: each span's own triangle, the sum of n(n+1)/2;
    * ``bridge``: the ``intra`` sum plus every pair of positions in
      different languages, once each, (P² − Σ N_lang²)/2. Two positions in
      different languages are in different spans, and the later one is the
      query.
    """
    live = spec.pad_start
    if spec.policy is MaskPolicy.XLDA_FULL_CAUSAL:
        return live * (live + 1) // 2
    total = sum(len(s) * (len(s) + 1) for s in spec.spans) // 2
    if spec.policy is MaskPolicy.INTRA_DOCUMENT_CAUSAL:
        return total
    per_lang: dict[str, int] = {}
    for s in spec.spans:
        per_lang[s.lang.code] = per_lang.get(s.lang.code, 0) + len(s)
    return total + (live * live - sum(n * n for n in per_lang.values())) // 2


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
            )
        )
        pos += n
    return tuple(spans)
