"""Assemble sampled documents into fixed-length packed sequences.

Each packed sequence is a fixed-length token buffer tiled by document spans,
with next-token and second-next-token label tracks. Sequences flagged by the
sampler must contain at least two distinct languages; the packer enforces
that by forcing a cross-lingual draw as soon as a flagged sequence would
otherwise close with a single language, reserving the final slot if needed.

Filling is greedy and single-pass: the next document's language is drawn
from the sampling distribution restricted to languages that still have
material. Long documents are split across sequences (default) or their
overhanging tail is dropped and counted, per ``split_policy``.
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import rng
from .corpus import Document, LanguageTag, default_language_class, stats as corpus_stats
from .errors import ConfigError, ConstraintInfeasibleError, DataError
from .sampling import SamplerConfig, constraint_flag, language_distribution

SPLIT_ACROSS_SEQUENCES = "split_across_sequences"
DROP_TAIL_DOC = "drop_tail_doc"

IGNORE_LABEL = 0xFFFFFFFF

_MAGIC = b"XLDA"
_VERSION = 1


@dataclass(frozen=True)
class DocSpan:
    """Half-open token range [start, end) occupied by one document fragment."""

    start: int
    end: int
    lang: LanguageTag
    doc_id: str
    piece_index: int = 0

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise DataError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class PackerConfig:
    seq_len: int = 4096
    split_policy: str = SPLIT_ACROSS_SEQUENCES
    pad_token: int = 0
    ignore_label: int = IGNORE_LABEL
    cross_doc_labels: bool = False

    def __post_init__(self):
        if self.seq_len < 8:
            raise ConfigError(f"seq_len must be >= 8: {self.seq_len}")
        if self.split_policy not in (SPLIT_ACROSS_SEQUENCES, DROP_TAIL_DOC):
            raise ConfigError(f"unknown split_policy: {self.split_policy!r}")


@dataclass
class PackedSequence:
    tokens: np.ndarray  # uint32[seq_len]
    spans: tuple[DocSpan, ...]
    ntp_labels: np.ndarray  # uint32[seq_len], ignore_label where no target
    mtp_labels: np.ndarray
    pad_start: int

    def __post_init__(self):
        seq_len = len(self.tokens)
        if not (0 <= self.pad_start <= seq_len):
            raise DataError(f"pad_start {self.pad_start} outside [0, {seq_len}]")
        pos = 0
        for span in self.spans:
            if span.start != pos:
                raise DataError(f"spans do not tile: gap/overlap at {span.start}")
            pos = span.end
        if pos != self.pad_start:
            raise DataError(f"spans cover [0, {pos}) but pad_start is {self.pad_start}")

    @property
    def seq_len(self) -> int:
        return len(self.tokens)

    def languages(self) -> set[str]:
        return {span.lang.code for span in self.spans}


def make_labels(
    tokens: np.ndarray,
    spans: Sequence[DocSpan],
    config: PackerConfig,
    pad_start: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Next-token and second-next-token targets for a packed buffer.

    By default targets stay inside their document: positions whose target
    would cross a span boundary get the ignore label, as does everything at
    or past ``pad_start``. With ``cross_doc_labels`` targets run through the
    whole non-pad region regardless of document boundaries.
    """
    seq_len = len(tokens)
    if pad_start is None:
        pad_start = spans[-1].end if spans else 0
    ign = config.ignore_label
    ntp = np.full(seq_len, ign, dtype=np.uint32)
    mtp = np.full(seq_len, ign, dtype=np.uint32)
    if config.cross_doc_labels:
        if pad_start >= 2:
            ntp[: pad_start - 1] = tokens[1:pad_start]
        if pad_start >= 3:
            mtp[: pad_start - 2] = tokens[2:pad_start]
        return ntp, mtp
    for span in spans:
        if len(span) >= 2:
            ntp[span.start : span.end - 1] = tokens[span.start + 1 : span.end]
        if len(span) >= 3:
            mtp[span.start : span.end - 2] = tokens[span.start + 2 : span.end]
    return ntp, mtp


@dataclass
class PackReport:
    """Bookkeeping emitted alongside a packing run."""

    sequences: int = 0
    tokens_packed: int = 0
    tokens_dropped: int = 0
    tokens_unconsumed: int = 0
    documents_consumed: int = 0
    cross_lingual_sequences: int = 0
    stopped_early: bool = False
    stop_reason: str = ""

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _QueueItem:
    doc: Document
    offset: int = 0
    piece: int = 0

    def remaining(self) -> int:
        return len(self.doc.tokens) - self.offset


def _doc_hash(doc_id: str) -> int:
    digest = hashlib.blake2b(doc_id.encode("utf-8"), digest_size=8).digest()
    return struct.unpack("<Q", digest)[0]


def _restricted_draw(
    dist: Mapping[str, float], pool: Sequence[str], gen: np.random.Generator
) -> str:
    """Categorical draw over ``pool``, renormalized; uniform if mass is zero."""
    weights = [max(0.0, float(dist.get(code, 0.0))) for code in pool]
    total = sum(weights)
    if total <= 0.0:
        weights = [1.0] * len(pool)
        total = float(len(pool))
    u = float(gen.random()) * total
    acc = 0.0
    for code, w in zip(pool, weights):
        acc += w
        if u < acc:
            return code
    return pool[-1]


class _Filler:
    """Sequential greedy fill over language-keyed queues."""

    def __init__(
        self,
        queues: dict[str, deque[_QueueItem]],
        distribution: Mapping[str, float],
        sampler: SamplerConfig,
        config: PackerConfig,
        report: PackReport,
    ):
        self.queues = queues
        self.dist = distribution
        self.sampler = sampler
        self.config = config
        self.report = report
        self.lang_order = sorted(queues)
        # boundary carry: the fragment cut by the previous sequence's end
        self.carry: _QueueItem | None = None
        # tokens written into a sequence that was then abandoned as infeasible
        self.aborted_tokens = 0

    def _available(self) -> list[str]:
        return [l for l in self.lang_order if self.queues[l]]

    def _other_material_exists(self, lang: str) -> bool:
        if self.carry is not None and self.carry.doc.lang.code != lang:
            return True
        return any(self.queues[l] for l in self.lang_order if l != lang)

    def has_material(self) -> bool:
        return self.carry is not None or any(self.queues[l] for l in self.lang_order)

    def fill(self, index: int) -> PackedSequence | None:
        cfg = self.config
        flag = constraint_flag(self.sampler, index)
        gen = rng.stream(self.sampler.seed, rng.STREAM_PACK, index)
        tokens = np.full(cfg.seq_len, cfg.pad_token, dtype=np.uint32)
        spans: list[DocSpan] = []
        langs: set[str] = set()
        pos = 0
        while pos < cfg.seq_len:
            if self.carry is not None:
                item, self.carry = self.carry, None
            else:
                avail = self._available()
                if not avail:
                    break
                if flag and len(langs) == 1:
                    pool = [l for l in avail if l not in langs]
                    if not pool:
                        self.report.stopped_early = True
                        self.report.stop_reason = (
                            "cross-lingual constraint infeasible: only "
                            f"{sorted(langs)[0]!r} still has documents"
                        )
                        self.aborted_tokens += pos
                        return None
                else:
                    pool = avail
                code = _restricted_draw(self.dist, pool, gen)
                item = self.queues[code].popleft()
                if item.piece == 0 and item.offset == 0:
                    self.report.documents_consumed += 1
            lang = item.doc.lang
            room = cfg.seq_len - pos
            take = min(item.remaining(), room)
            if flag and take == room and len(langs | {lang.code}) == 1:
                # closing the sequence unilingual would violate the flag;
                # reserve the last slot for a different language
                if room == 1 or not self._other_material_exists(lang.code):
                    self.report.stopped_early = True
                    self.report.stop_reason = (
                        "cross-lingual constraint infeasible: only "
                        f"{lang.code!r} still has documents"
                    )
                    # put the item back so the leftover count is accurate
                    self.queues[lang.code].appendleft(item)
                    self.aborted_tokens += pos
                    return None
                take = room - 1
                leftover = _QueueItem(item.doc, item.offset + take, item.piece + 1)
                if cfg.split_policy == SPLIT_ACROSS_SEQUENCES:
                    self.queues[lang.code].appendleft(leftover)
                else:
                    self.report.tokens_dropped += leftover.remaining()
            elif item.remaining() > take:
                rest = _QueueItem(item.doc, item.offset + take, item.piece + 1)
                if cfg.split_policy == SPLIT_ACROSS_SEQUENCES:
                    self.carry = rest  # continues at the next sequence start
                else:
                    self.report.tokens_dropped += rest.remaining()
            try:
                tokens[pos : pos + take] = item.doc.tokens[item.offset : item.offset + take]
            except OverflowError:
                raise DataError(
                    f"document {item.doc.id!r} has a token id outside [0, 2**32)"
                ) from None
            spans.append(
                DocSpan(
                    start=pos,
                    end=pos + take,
                    lang=lang,
                    doc_id=item.doc.id,
                    piece_index=item.piece,
                )
            )
            langs.add(lang.code)
            pos += take
        if pos == 0:
            return None
        if flag and len(langs) < 2:
            self.report.stopped_early = True
            self.report.stop_reason = (
                "cross-lingual constraint infeasible: material ran out with "
                f"only {sorted(langs)[0]!r} available"
            )
            self.aborted_tokens += pos
            return None
        clash = np.flatnonzero(tokens[:pos] == cfg.ignore_label)
        if clash.size:
            doc_id = next(s.doc_id for s in spans if s.end > clash[0])
            raise DataError(
                f"document {doc_id!r} has token id {cfg.ignore_label}, which is "
                "reserved as the ignore label"
            )
        ntp, mtp = make_labels(tokens, spans, cfg, pad_start=pos)
        seq = PackedSequence(
            tokens=tokens, spans=tuple(spans), ntp_labels=ntp,
            mtp_labels=mtp, pad_start=pos,
        )
        self.report.sequences += 1
        self.report.tokens_packed += pos
        if len(langs) >= 2:
            self.report.cross_lingual_sequences += 1
        return seq

    def leftover_tokens(self) -> int:
        total = self.aborted_tokens
        if self.carry is not None:
            total += self.carry.remaining()
        for q in self.queues.values():
            total += sum(item.remaining() for item in q)
        return total


def pack_stream(
    docs: Iterable[Document],
    sampler: SamplerConfig,
    config: PackerConfig,
    distribution: Mapping[str, float] | None = None,
    report: PackReport | None = None,
) -> Iterator[PackedSequence]:
    """Pack a document collection into fixed-length sequences.

    The sampling distribution defaults to the one computed from the input's
    own corpus stats. Every consumed token lands in exactly one output
    position (tail tokens dropped under ``drop_tail_doc`` are counted in the
    report). If a flagged sequence cannot be made cross-lingual because only
    one language has material left, the stream stops and the leftovers are
    reported; if that happens before any sequence was produced, it is an
    error naming the constraint.
    """
    docs = list(docs)
    report = report if report is not None else PackReport()
    queues: dict[str, deque[_QueueItem]] = {}
    for doc in docs:
        queues.setdefault(doc.lang.code, deque()).append(_QueueItem(doc))
    if not queues:
        return
    if distribution is None:
        if sampler.beta.keys() == queues.keys():
            distribution = language_distribution(sampler, corpus_stats(docs))
        else:
            # sampler beta does not cover this corpus; fall back to
            # size-proportional shares
            st = corpus_stats(docs)
            total = st.total_tokens
            distribution = {
                code: st.per_language[code].tokens / total for code in sorted(queues)
            }
    if sampler.rho > 0.0 and len(queues) < 2:
        raise ConstraintInfeasibleError(
            "cross-lingual constraint (rho > 0) needs at least two languages "
            f"with documents; corpus has only {sorted(queues)}"
        )
    filler = _Filler(queues, distribution, sampler, config, report)
    index = 0
    while filler.has_material():
        seq = filler.fill(index)
        if seq is None:
            if report.stopped_early:
                if report.sequences == 0:
                    raise ConstraintInfeasibleError(report.stop_reason)
                break
            break
        yield seq
        index += 1
    report.tokens_unconsumed = filler.leftover_tokens()


# ---------------------------------------------------------------------------
# Packed-batch binary file format
#
# little-endian header: magic "XLDA", version u32, seq_len u32, count u64
# per sequence: tokens u32[seq_len], pad_start u32, span_count u32,
#               spans (start u32, end u32, lang_idx u16, doc_hash u64)*,
#               ntp u32[seq_len], mtp u32[seq_len]
# sidecar <path>.langs: one "idx\tcode\tclass" line per language index
# ---------------------------------------------------------------------------


def _encode_sequence(seq: PackedSequence, lang_index: Mapping[str, int]) -> bytes:
    parts = [seq.tokens.astype("<u4").tobytes()]
    parts.append(struct.pack("<II", seq.pad_start, len(seq.spans)))
    for span in seq.spans:
        parts.append(
            struct.pack(
                "<IIHQ",
                span.start,
                span.end,
                lang_index[span.lang.code],
                _doc_hash(span.doc_id),
            )
        )
    parts.append(seq.ntp_labels.astype("<u4").tobytes())
    parts.append(seq.mtp_labels.astype("<u4").tobytes())
    return b"".join(parts)


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".langs")


def write_packed(
    path: str | Path,
    sequences: Iterable[PackedSequence],
    config: PackerConfig,
    threads: int = 1,
) -> int:
    """Write sequences to the packed-batch binary format. Returns the count.

    With ``threads > 1`` the per-sequence encoding is farmed out to a thread
    pool; results are written in sequence-index order either way, so the
    output bytes do not depend on the worker count.
    """
    path = Path(path)
    seqs = list(sequences)
    lang_codes: dict[str, str] = {}
    for seq in seqs:
        for span in seq.spans:
            lang_codes.setdefault(span.lang.code, span.lang.lang_class)
    ordered = sorted(lang_codes)
    lang_index = {code: i for i, code in enumerate(ordered)}
    if threads > 1 and seqs:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blobs = list(pool.map(lambda s: _encode_sequence(s, lang_index), seqs))
    else:
        blobs = [_encode_sequence(s, lang_index) for s in seqs]
    with path.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIQ", _VERSION, config.seq_len, len(seqs)))
        for blob in blobs:
            fh.write(blob)
    with sidecar_path(path).open("w", encoding="utf-8") as fh:
        for code in ordered:
            fh.write(f"{lang_index[code]}\t{code}\t{lang_codes[code]}\n")
    return len(seqs)


def read_packed(path: str | Path) -> tuple[list[PackedSequence], PackerConfig]:
    """Read a packed-batch file back into memory, resolving the sidecar."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    side = sidecar_path(path)
    if not side.exists():
        raise DataError(f"missing language sidecar: {side}")
    tags: dict[int, LanguageTag] = {}
    with side.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) == 3:
                idx, code, lang_class = parts
            elif len(parts) == 2:
                idx, code = parts
                lang_class = default_language_class(code)
            else:
                raise DataError(f"malformed sidecar line: {line!r}")
            tags[int(idx)] = LanguageTag(code=code, lang_class=lang_class)

    with path.open("rb") as fh:
        header = fh.read(4 + 4 + 4 + 8)
        if len(header) < 20 or header[:4] != _MAGIC:
            raise DataError(f"not a packed-batch file: {path}")
        version, seq_len, count = struct.unpack("<IIQ", header[4:])
        if version != _VERSION:
            raise DataError(f"unsupported packed-batch version {version}")
        sequences = []
        for _ in range(count):
            tokens = np.frombuffer(fh.read(4 * seq_len), dtype="<u4").copy()
            pad_start, span_count = struct.unpack("<II", fh.read(8))
            spans = []
            for _ in range(span_count):
                start, end, lang_idx, _doc = struct.unpack("<IIHQ", fh.read(18))
                if lang_idx not in tags:
                    raise DataError(f"sidecar does not define lang_idx {lang_idx}")
                spans.append(
                    DocSpan(
                        start=start,
                        end=end,
                        lang=tags[lang_idx],
                        doc_id=f"h{_doc:016x}",
                        piece_index=0,
                    )
                )
            ntp = np.frombuffer(fh.read(4 * seq_len), dtype="<u4").copy()
            mtp = np.frombuffer(fh.read(4 * seq_len), dtype="<u4").copy()
            sequences.append(
                PackedSequence(
                    tokens=tokens,
                    spans=tuple(spans),
                    ntp_labels=ntp,
                    mtp_labels=mtp,
                    pad_start=pad_start,
                )
            )
    return sequences, PackerConfig(seq_len=seq_len)
