"""Assemble sampled documents into fixed-length packed sequences.

A packed sequence is a fixed-length token buffer plus the span table that
tiles its non-pad prefix with document fragments. Everything else about the
window (next-token labels, attention masks, segment ids) is derived from
those two. Sequences flagged by the sampler must contain at least two
distinct languages, and the packer enforces that at two points. Once a
flagged window holds one language, each later draw in it excludes that
language. And when a flagged window's first fragment would fill it whole,
the fragment is cut one token short, so that the last slot goes to another
language; if no other language has material left, the stream stops. Only
a first fragment needs the cut: a carry from the previous window is only
ever a first fragment, and every later fragment of a flagged window is of a
second language.

Filling is greedy and single-pass: the next document's language is drawn
from the sampling distribution restricted to languages that still have
material. Long documents are split across sequences (default) or their
overhanging tail is dropped and counted, per ``split_policy``.
"""

from __future__ import annotations

import hashlib
import mmap
import struct
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import rng
from .corpus import INGEST_BLOCK_IDS, Document, LanguageTag, stats as corpus_stats
from .errors import ConfigError, ConstraintInfeasibleError, DataError, XldaKitError
from .sampling import (CategoricalDraw, SamplerConfig, constraint_flag,
                       language_distribution)

SPLIT_ACROSS_SEQUENCES = "split_across_sequences"
DROP_TAIL_DOC = "drop_tail_doc"
MIN_SEQ_LEN = 8  # the shortest window a packer makes or a packed file holds

IGNORE_LABEL = 0xFFFFFFFF

_MAGIC = b"XLDA"
_VERSION = 3


@dataclass(frozen=True)
class DocSpan:
    """Half-open token range [start, end) occupied by one document fragment."""

    start: int
    end: int
    lang: LanguageTag
    doc_id: str

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise DataError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class PackerConfig:
    seq_len: int = 4096
    split_policy: str = SPLIT_ACROSS_SEQUENCES
    cross_doc_labels: bool = False

    def __post_init__(self):
        if self.seq_len < MIN_SEQ_LEN:
            raise ConfigError(f"seq_len must be >= {MIN_SEQ_LEN}: {self.seq_len}")
        if self.split_policy not in (SPLIT_ACROSS_SEQUENCES, DROP_TAIL_DOC):
            raise ConfigError(f"unknown split_policy: {self.split_policy!r}")


def check_tiling(spans: Sequence[DocSpan], pad_start: int, seq_len: int) -> None:
    """Require ``spans`` to tile ``[0, pad_start)`` exactly, inside the window."""
    if not (0 <= pad_start <= seq_len):
        raise DataError(f"pad_start {pad_start} outside [0, {seq_len}]")
    pos = 0
    for span in spans:
        if span.start != pos:
            raise DataError(f"spans do not tile [0, pad_start): gap/overlap at {pos}")
        pos = span.end
    if pos != pad_start:
        raise DataError(f"spans cover [0, {pos}) but pad_start is {pad_start}")


@dataclass(frozen=True)
class PackedSequence:
    """One packed window: tokens plus the span table tiling ``[0, pad_start)``.

    The next-token labels are not stored: they are derived once, on first
    use, by ``make_labels`` from the tokens, the spans and
    ``cross_doc_labels``, and are read-only.
    """

    tokens: np.ndarray  # uint32[seq_len]
    spans: tuple[DocSpan, ...]
    pad_start: int
    cross_doc_labels: bool = False

    def __post_init__(self):
        check_tiling(self.spans, self.pad_start, len(self.tokens))

    def __eq__(self, other):
        if not isinstance(other, PackedSequence):
            return NotImplemented
        return (np.array_equal(self.tokens, other.tokens)
                and (self.spans, self.pad_start, self.cross_doc_labels)
                == (other.spans, other.pad_start, other.cross_doc_labels))

    @property
    def seq_len(self) -> int:
        return len(self.tokens)

    @cached_property
    def labels(self) -> np.ndarray:  # uint32[seq_len] next-token targets
        labels = make_labels(self.tokens, self.spans, self.pad_start, self.cross_doc_labels)
        labels.flags.writeable = False
        return labels


def make_labels(
    tokens: np.ndarray,
    spans: Sequence[DocSpan],
    pad_start: int,
    cross_doc_labels: bool = False,
) -> np.ndarray:
    """Next-token targets for a packed buffer.

    By default targets stay inside their document: positions whose target
    would cross a span boundary get ``IGNORE_LABEL``, as does everything at
    or past ``pad_start``. With ``cross_doc_labels`` targets run through the
    whole non-pad region regardless of document boundaries.
    """
    labels = np.full(len(tokens), IGNORE_LABEL, dtype=np.uint32)
    if cross_doc_labels:
        ranges = [(0, pad_start)]
    else:
        ranges = [(span.start, span.end) for span in spans]
    for start, end in ranges:
        if end - start >= 2:
            labels[start : end - 1] = tokens[start + 1 : end]
    return labels


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

    def remaining(self) -> int:
        return len(self.doc.tokens) - self.offset


def _doc_hash(doc_id: str) -> int:
    digest = hashlib.blake2b(doc_id.encode("utf-8"), digest_size=8).digest()
    return struct.unpack("<Q", digest)[0]


def _doc_at(spans: Sequence[DocSpan], hits: np.ndarray) -> str:
    """The id of the document whose span holds the first true entry of
    ``hits``, a mask over the positions that ``spans`` tile."""
    first = hits.argmax()
    return next(s.doc_id for s in spans if s.end > first)


def pack_stream(
    docs: Iterable[Document],
    sampler: SamplerConfig,
    config: PackerConfig,
    report: PackReport | None = None,
) -> Iterator[PackedSequence]:
    """Pack a document collection into fixed-length sequences.

    Languages are drawn from ``language_distribution`` over the input's own
    corpus stats, so ``sampler.beta`` must name exactly the languages of
    ``docs``; any other beta raises ``ConfigError``. Every consumed token
    lands in exactly one output position (tail tokens dropped under
    ``drop_tail_doc`` are counted in the report). With ``rho > 0`` a corpus
    of fewer than two languages is an error naming the constraint. If a
    flagged sequence cannot be made cross-lingual because only one language
    has material left, the stream stops and the leftovers are reported. An
    empty ``docs`` gives an empty stream.
    """
    docs = list(docs)
    report = report if report is not None else PackReport()
    queues: dict[str, deque[_QueueItem]] = {}
    for doc in docs:
        queues.setdefault(doc.lang.code, deque()).append(_QueueItem(doc))
    if not queues:
        return
    queues = dict(sorted(queues.items()))
    draw = CategoricalDraw(language_distribution(sampler, corpus_stats(docs)))
    if sampler.rho > 0.0 and len(queues) < 2:
        raise ConstraintInfeasibleError(
            "cross-lingual constraint (rho > 0) needs at least two languages "
            f"with documents; corpus has only {sorted(queues)}"
        )
    seq_len = config.seq_len
    # one generator per stream, re-keyed for each window
    flags = rng.Stream(sampler.seed, rng.STREAM_FLAGS)
    draws = rng.Stream(sampler.seed, rng.STREAM_PACK)
    # the ids of the window being filled, as read: [0, pos) is in use
    ids = np.empty(seq_len, dtype=np.int64)
    carry: _QueueItem | None = None  # the fragment cut by the last window's end
    aborted = 0  # tokens of the window abandoned when the stream stops
    index = 0
    while carry is not None or any(queues.values()):
        flag = constraint_flag(sampler, index, flags)
        gen = draws.at(index)
        spans: list[DocSpan] = []
        langs: set[str] = set()
        pos = 0
        stop = None  # why a flagged window is abandoned, if it is
        while pos < seq_len:
            if carry is not None:
                item, carry = carry, None
            else:
                avail = [code for code, q in queues.items() if q]
                if not avail:
                    break
                if flag and len(langs) == 1:
                    avail = [code for code in avail if code not in langs]
                    if not avail:
                        stop = f"only {next(iter(langs))!r} still has documents"
                        break
                item = queues[draw(avail, gen)].popleft()
                if item.offset == 0:
                    report.documents_consumed += 1
            lang = item.doc.lang
            room = seq_len - pos
            take = min(item.remaining(), room)
            if flag and take == room and not langs:
                # a first fragment filling a flagged window would close it
                # unilingual: cut it one short for a second language
                if not any(q for code, q in queues.items() if code != lang.code):
                    queues[lang.code].appendleft(item)  # counted as unconsumed
                    stop = f"only {lang.code!r} still has documents"
                    break
                take -= 1
            left = item.remaining() - take
            if left:
                rest = _QueueItem(item.doc, item.offset + take)
                if config.split_policy == DROP_TAIL_DOC:
                    report.tokens_dropped += left
                elif take < room:
                    queues[lang.code].appendleft(rest)  # cut for the kept last slot
                else:
                    carry = rest  # continues at the next window's start
            ids[pos : pos + take] = item.doc.tokens[item.offset : item.offset + take]
            spans.append(DocSpan(start=pos, end=pos + take, lang=lang, doc_id=item.doc.id))
            langs.add(lang.code)
            pos += take
        # one reduction settles every id copied, in an abandoned window too:
        # the uint32 window would wrap an id above the reserved one
        top = ids[:pos].max(initial=0)
        if top > IGNORE_LABEL:
            raise DataError(f"document {_doc_at(spans, ids[:pos] > IGNORE_LABEL)!r} "
                            "has a token id outside [0, 2**32)")
        if stop is None and flag and len(langs) < 2:
            stop = f"material ran out with only {next(iter(langs))!r} available"
        if stop is not None:
            report.stopped_early = True
            report.stop_reason = f"cross-lingual constraint infeasible: {stop}"
            aborted = pos
            break
        if top == IGNORE_LABEL:
            raise DataError(
                f"document {_doc_at(spans, ids[:pos] == IGNORE_LABEL)!r} has token id "
                f"{IGNORE_LABEL}, which is reserved as the ignore label"
            )
        tokens = np.zeros(seq_len, dtype=np.uint32)
        tokens[:pos] = ids[:pos]
        report.sequences += 1
        report.tokens_packed += pos
        if len(langs) >= 2:
            report.cross_lingual_sequences += 1
        yield PackedSequence(tokens=tokens, spans=tuple(spans), pad_start=pos,
                             cross_doc_labels=config.cross_doc_labels)
        index += 1
    # a stop leaves no carry: a window that cuts one is full and, if
    # flagged, holds two languages
    report.tokens_unconsumed = aborted + sum(
        item.remaining() for q in queues.values() for item in q)


SPAN_BYTES = 256  # objects of one span of a held window: 200-220 B measured
_DOC_BYTES = 1024  # objects of one document held through a pack: 450-800 B measured
_WINDOW_BYTES = 1024  # objects of one window beyond its token arrays: 300-370 B measured
_PARSE_BYTES = 192  # per id of the records being parsed: 43-47 B measured where a line is
# parsed whole, 77-98 B where its ids are read as text (with the check of their text)


def working_set_bytes(docs: Sequence[Document], seq_len: int) -> int:
    """An upper estimate of a ``pack`` run's peak memory over ``docs``.

    64 MiB for the interpreter; for each document held, 8 bytes per token
    and ``_DOC_BYTES``, plus ``_PARSE_BYTES`` per token of the one block of
    records parsed while the others are held (``corpus.ingest`` converts
    ``INGEST_BLOCK_IDS`` ids at a time, or one longer record); for each of
    at most ``max(1, ceil(tokens / seq_len))`` windows (every window but the
    last is full), 8 bytes per position, for its tokens and the writer's
    copy of them, and ``_WINDOW_BYTES``; and ``SPAN_BYTES`` for each of at
    most ``len(docs) + windows`` spans, since a window's end cuts at most
    one document in two.
    """
    lengths = [len(doc.tokens) for doc in docs]
    tokens = sum(lengths)
    block = min(tokens, max(INGEST_BLOCK_IDS, max(lengths, default=0)))
    windows = max(1, -(-tokens // seq_len))
    return ((64 << 20) + 8 * tokens + _PARSE_BYTES * block
            + _DOC_BYTES * len(docs) + windows * (8 * seq_len + _WINDOW_BYTES)
            + SPAN_BYTES * (len(docs) + windows))


# ---------------------------------------------------------------------------
# Packed-batch binary file format, version 3 (all integers little-endian)
#
# header: magic "XLDA", version u32 (= 3), seq_len u32, count u64,
#         cross_doc_labels u8 (0 or 1), language count u16,
#         per language: code (u8 length + UTF-8), class (u8 length + UTF-8)
# columns, each one array over the records in order, with no framing or
# padding between them:
#   pad_start u32[count], span_count u32[count], tokens u32[count, seq_len],
#   spans (start u32, end u32, lang_idx u16, doc_hash u64)[sum of span_count]
# Record i's spans are the span_count[i] rows after those of records 0..i-1.
# Labels (from tokens, spans and cross_doc_labels) and the pad token
# (tokens[pad_start:]) are not stored. Version 1 and 2 files are not read.
# ---------------------------------------------------------------------------

_PREFIX = struct.Struct("<4sI")  # magic, version
_HEADER = struct.Struct("<IQBH")  # seq_len, count, cross_doc_labels, languages
_U32 = np.dtype("<u4")
_SPANS = np.dtype([("start", "<u4"), ("end", "<u4"), ("lang", "<u2"), ("doc", "<u8")])


def _short_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    return bytes([len(raw)]) + raw


def write_packed(
    path: str | Path, sequences: Iterable[PackedSequence], config: PackerConfig
) -> int:
    """Write sequences to the packed-batch format (version 3). Returns the count.

    Every sequence must have the config's ``seq_len`` and ``cross_doc_labels``,
    since the file records both once, in its header.
    """
    seqs = list(sequences)
    tags: dict[str, LanguageTag] = {}
    for seq in seqs:
        if (seq.seq_len, seq.cross_doc_labels) != (config.seq_len, config.cross_doc_labels):
            raise ConfigError("a sequence's seq_len or cross_doc_labels differs from the config")
        for span in seq.spans:
            tags.setdefault(span.lang.code, span.lang)
    codes = sorted(tags)
    lang_index = {code: i for i, code in enumerate(codes)}
    columns = [
        np.array([seq.pad_start for seq in seqs], dtype=_U32),
        np.array([len(seq.spans) for seq in seqs], dtype=_U32),
        np.array([seq.tokens for seq in seqs], dtype=_U32),
    ]
    # the span table is built one record at a time: a tuple per span of the
    # whole file, all alive at once, sets off the cyclic garbage collector
    columns += [np.array([(s.start, s.end, lang_index[s.lang.code], _doc_hash(s.doc_id))
                          for s in seq.spans], dtype=_SPANS) for seq in seqs]
    with Path(path).open("wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _VERSION))
        fh.write(_HEADER.pack(config.seq_len, len(seqs), config.cross_doc_labels, len(codes)))
        for code in codes:
            fh.write(_short_text(code) + _short_text(tags[code].lang_class))
        for column in columns:
            fh.write(column)
    return len(seqs)


def _read_header(data: mmap.mmap) -> tuple[int, int, bool, list[LanguageTag], int]:
    """Parse the header and language table after the prefix.

    Returns ``seq_len``, the record count, ``cross_doc_labels``, the language
    tags and the offset of the first column.
    """
    pos = _PREFIX.size

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(data) - pos:
            raise DataError("file ends early (truncated)")
        pos += n
        return data[pos - n : pos]

    def text() -> str:
        try:
            return take(take(1)[0]).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError("language table entry is not UTF-8") from None

    seq_len, count, cross_doc, n_langs = _HEADER.unpack(take(_HEADER.size))
    if seq_len < MIN_SEQ_LEN or cross_doc > 1:
        raise DataError(f"bad header (seq_len {seq_len}, cross_doc_labels {cross_doc})")
    tags = [LanguageTag(code=text(), lang_class=text()) for _ in range(n_langs)]
    return seq_len, count, bool(cross_doc), tags, pos


def _first(bad: np.ndarray) -> int | None:
    """Index of the first true entry of ``bad``, or None if there is none."""
    return int(bad.argmax()) if bad.any() else None


def _columns(data: mmap.mmap, pos: int, seq_len: int, count: int, n_langs: int):
    """View the four columns that start at ``pos`` and check every record.

    Returns ``pad_start``, the token array and the span table (both views
    into ``data``) and the span-table edges: record i's spans are rows
    ``edges[i]`` to ``edges[i + 1]``. Each check runs over a whole column
    and reports the first record or span that fails it.
    """
    fixed = count * (2 + seq_len) * _U32.itemsize
    if fixed > len(data) - pos:
        raise DataError(f"file ends early (truncated): header says {count} sequences")
    pads = np.frombuffer(data, _U32, count, pos)
    counts = np.frombuffer(data, _U32, count, pos + 4 * count)
    if (i := _first(counts > seq_len)) is not None:
        raise DataError(f"span count {counts[i]} above seq_len {seq_len}")
    edges = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(counts, dtype=np.int64, out=edges[1:])
    n_spans = int(edges[-1])
    extra = len(data) - pos - fixed - n_spans * _SPANS.itemsize
    if extra < 0:
        raise DataError("file ends early (truncated)")
    if extra:
        raise DataError(f"{extra} trailing bytes after {count} sequences")
    tokens = np.frombuffer(data, _U32, count * seq_len, pos + 8 * count).reshape(count, seq_len)
    spans = np.frombuffer(data, _SPANS, n_spans, pos + fixed)
    starts, ends = spans["start"], spans["end"]
    if (j := _first(spans["lang"] >= n_langs)) is not None:
        raise DataError(f"language index {spans['lang'][j]} missing from the language table")
    if (j := _first(starts >= ends)) is not None:
        raise DataError(f"invalid span [{starts[j]}, {ends[j]})")
    if (i := _first(pads > seq_len)) is not None:
        raise DataError(f"pad_start {pads[i]} outside [0, {seq_len}]")
    # each span starts where the one before it in its record ends; a
    # record's first span starts at 0 and its last ends at pad_start
    filled = counts > 0
    expected = np.zeros(n_spans, dtype=_U32)
    expected[1:] = ends[:-1]
    expected[edges[:-1][filled]] = 0
    if (j := _first(starts != expected)) is not None:
        raise DataError(f"spans do not tile [0, pad_start): gap/overlap at {expected[j]}")
    covered = np.zeros(count, dtype=_U32)
    covered[filled] = ends[edges[1:][filled] - 1]
    if (i := _first(covered != pads)) is not None:
        raise DataError(f"spans cover [0, {covered[i]}) but pad_start is {pads[i]}")
    # the reserved id is the largest uint32, so one reduction clears a file
    # that does not hold it; only one that does is searched for positions
    if count and tokens.max() == IGNORE_LABEL:
        hits = np.flatnonzero(tokens == IGNORE_LABEL)
        if (hits % seq_len < pads[hits // seq_len]).any():
            raise DataError(f"token id {IGNORE_LABEL} is reserved as the ignore label")
    return pads, tokens, spans, edges


def read_packed(
    path: str | Path, index: int | None = None
) -> tuple[list[PackedSequence], PackerConfig]:
    """Read a packed-batch file (version 3) back into memory.

    Returns the sequences and a ``PackerConfig`` with the file's ``seq_len``
    and ``cross_doc_labels`` (so derived labels match the packer's). The
    file is mapped read-only, not copied; after the header its columns are
    viewed as numpy arrays and every record is checked with whole-column
    expressions; any malformed file raises ``DataError``. Only then are
    records decoded into ``PackedSequence`` objects, which hold copies, so
    nothing returned refers to the map. With ``index``, only record
    ``index`` is decoded and the list holds just that sequence; an index
    outside ``[0, count)`` raises ``XldaKitError``. Files of other versions
    raise ``DataError`` asking for a re-pack, and a path that is not a
    regular file (a device, a FIFO, a directory) raises ``DataError``
    before it is opened.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    if not path.is_file():
        raise DataError(f"not a regular file: {path}")
    with path.open("rb") as fh:
        try:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # an empty file cannot be mapped
            raise DataError(f"not a packed-batch file: {path}") from None
    # on success no view into the map is left (close raises BufferError if
    # one were); on an error the traceback's frames still hold views, and
    # the map closes when the error is dropped
    result = _read_mapped(data, path, index)
    data.close()
    return result


def _read_mapped(data: mmap.mmap, path: Path, index: int | None
                 ) -> tuple[list[PackedSequence], PackerConfig]:
    """``read_packed`` on the mapped file ``data``; its views into the map
    end with this call."""
    if len(data) < _PREFIX.size or data[:4] != _MAGIC:
        raise DataError(f"not a packed-batch file: {path}")
    _, version = _PREFIX.unpack_from(data)
    if version != _VERSION:
        raise DataError(
            f"{path} is packed-batch version {version}; only version {_VERSION} "
            "can be read: re-pack the corpus with `xlda-kit pack`"
        )
    try:
        seq_len, count, cross_doc, tags, pos = _read_header(data)
        pads, tokens, spans, edges = _columns(data, pos, seq_len, count, len(tags))
    except DataError as exc:
        raise DataError(f"corrupt packed-batch file {path}: {exc}") from None
    records = range(count)
    if index is not None:
        if not 0 <= index < count:
            raise XldaKitError(f"sequence index {index} outside [0, {count})")
        records = records[index : index + 1]
    sequences = []
    for i in records:
        rows = spans[edges[i] : edges[i + 1]].tolist()
        sequences.append(PackedSequence(
            tokens[i].copy(),
            tuple(DocSpan(start, end, tags[lang], f"h{doc:016x}")
                  for start, end, lang, doc in rows),
            int(pads[i]),
            cross_doc,
        ))
    return sequences, PackerConfig(seq_len=seq_len, cross_doc_labels=cross_doc)
