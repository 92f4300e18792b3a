"""Document ingestion and corpus statistics.

Input is line-delimited UTF-8 records (one JSON object per line) with the
fields ``id``, ``lang`` and ``tokens``, and optional ``score`` and ``class``.
Records carry pre-tokenized ``tokens``, a JSON array of integer ids; this
module never tokenizes.
"""

from __future__ import annotations

import codecs
import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import DataError

LANGUAGE_CLASSES = ("english", "multilingual", "math_code")

SCORE_MIN = 0.0
SCORE_MAX = 5.0

# ``ingest`` converts the token ids of a block of records at once; a block
# holds at most this many ids, and a record with more is a block of its own
INGEST_BLOCK_IDS = 8192

# ``ingest`` checks at once the id texts of record lines holding about this
# many bytes; ``_ID_DIGITS`` is the longest id the text path reads, since
# C ``strtoll`` reads every id below 10**18 exactly
_CHECK_BYTES = 1 << 16
_ID_DIGITS = 18
_TOKENS_KEY = b'"tokens"'

_raw_decode = json.JSONDecoder().raw_decode
_ids_of_text = functools.partial(np.fromstring, dtype=np.int64, sep=",")
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode
_encode_string = json.encoder.encode_basestring_ascii


@dataclass(frozen=True)
class LanguageTag:
    """A language code plus the coarse class used for filter-preset lookup."""

    code: str
    lang_class: str = "multilingual"

    def __post_init__(self):
        if not self.code or len(self.code) > 8 or self.code != self.code.lower():
            raise DataError(
                f"language code must be non-empty, lowercase, <= 8 chars: {self.code!r}"
            )
        if self.lang_class not in LANGUAGE_CLASSES:
            raise DataError(
                f"language class must be one of {LANGUAGE_CLASSES}: {self.lang_class!r}"
            )


@functools.lru_cache(maxsize=1024)
def _language_tag(code: str, lang_class: str) -> LanguageTag:
    """The one tag of a (code, class) pair, shared by every record that
    names it. A bad pair raises on every call: an error is not cached."""
    return LanguageTag(code, lang_class)


def default_language_class(code: str) -> str:
    """Class inferred when a record does not carry one explicitly.

    ``en`` maps to english, everything else to multilingual; math_code is
    only ever assigned explicitly.
    """
    return "english" if code == "en" else "multilingual"


@dataclass(frozen=True, eq=False, slots=True)
class Document:
    """A language-tagged, optionally quality-scored token sequence.

    ``tokens`` may be given as any sequence of integers; it is held as one
    read-only int64 array, so an id must lie in [0, 2**63). The documents
    that ``ingest`` reads from one block of records hold read-only views of
    that block's one array.
    """

    id: str
    lang: LanguageTag
    tokens: np.ndarray
    score: float | None = None

    def __post_init__(self):
        if not self.id:
            raise DataError("document id must be non-empty")
        if len(self.tokens) == 0:
            raise DataError(f"document {self.id!r} has no tokens")
        try:
            tokens = np.fromiter(self.tokens, np.int64, len(self.tokens))
        except OverflowError:
            t = next(t for t in self.tokens if not -2**63 <= t < 2**63)
            raise DataError(f"document {self.id!r} has token id {t} outside [0, 2**63)"
                            if t > 0 else f"document {self.id!r} has negative token id {t}"
                            ) from None
        if tokens.min() < 0:
            t = tokens[np.argmax(tokens < 0)]
            raise DataError(f"document {self.id!r} has negative token id {t}")
        tokens.flags.writeable = False
        object.__setattr__(self, "tokens", tokens)
        self._check_score()

    @classmethod
    def _of_checked(cls, doc_id: str, lang: LanguageTag, tokens: np.ndarray,
                    score: float | None) -> "Document":
        """A document over ``tokens``, a read-only int64 array of ids already
        checked to lie in [0, 2**63), held as given; only the score is
        checked."""
        doc = object.__new__(cls)
        # written through the slots' descriptors, past the frozen ``__setattr__``
        _SET_ID(doc, doc_id)
        _SET_LANG(doc, lang)
        _SET_TOKENS(doc, tokens)
        _SET_SCORE(doc, score)
        doc._check_score()
        return doc

    def _check_score(self) -> None:
        if self.score is not None and not (SCORE_MIN <= self.score <= SCORE_MAX):
            raise DataError(
                f"document {self.id!r} score {self.score} outside [{SCORE_MIN}, {SCORE_MAX}]"
            )

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        return ((self.id, self.lang, self.score) == (other.id, other.lang, other.score)
                and np.array_equal(self.tokens, other.tokens))

    def __hash__(self):
        return hash((self.id, self.lang, self.score, len(self.tokens)))

    def __len__(self) -> int:
        return len(self.tokens)


_SET_ID, _SET_LANG, _SET_TOKENS, _SET_SCORE = (
    Document.__dict__[name].__set__ for name in ("id", "lang", "tokens", "score"))


@dataclass(frozen=True)
class LineError:
    """One malformed input line, reported by 1-based line number."""

    line_no: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


@dataclass
class IngestReport:
    """The per-line errors accumulated while ingesting a file."""

    errors: list[LineError] = field(default_factory=list)

    @property
    def skipped(self) -> int:
        return len(self.errors)


def parse_json_object(raw: bytes) -> dict | None:
    """The JSON object in UTF-8 ``raw``, such as one line of a record file,
    or None if ``raw`` is blank; anything else is a ``DataError``."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise DataError(f"not valid UTF-8: {exc.reason} at byte {exc.start}") from exc
    if not line:
        return None
    # ``json.loads(line)``: its BOM check, then the decoder with its trailing
    # data check, where the strip has already removed the JSON whitespace
    try:
        if line[0] == "\ufeff":
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                       line, 0)
        record, end = _raw_decode(line)
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
    except json.JSONDecodeError as exc:
        raise DataError(f"not valid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer beyond Python's digit limit
        raise DataError(f"not valid JSON: {str(exc).partition(';')[0]}") from exc
    if not isinstance(record, dict):
        raise DataError("record is not a JSON object")
    return record


def numbered_lines(fh: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """Each raw line of binary ``fh`` with its 1-based line number. A UTF-8
    byte-order mark at the start of line 1 is dropped; one anywhere else is
    left in the line, where it is not valid JSON."""
    first = fh.readline().removeprefix(codecs.BOM_UTF8)
    return itertools.chain([(1, first)], enumerate(fh, start=2))


def _id_and_lang(record: dict) -> tuple[str, LanguageTag]:
    doc_id = record.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise DataError("missing or empty 'id' field")

    code = record.get("lang")
    if not isinstance(code, str) or not code:
        raise DataError("empty language tag")
    lang_class = record.get("class")
    if lang_class is None:
        lang_class = default_language_class(code)
    # a class that is not a string (a JSON array, say) cannot be a cache key
    lang = (_language_tag(code, lang_class) if isinstance(lang_class, str)
            else LanguageTag(code=code, lang_class=lang_class))
    return doc_id, lang


def _score(record: dict) -> float | None:
    score = record.get("score")
    if score is None:
        return None
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise DataError("'score' is not a number")
    try:
        return float(score)
    except OverflowError:  # an integer beyond float range reads as 1e400 does
        return math.inf if score > 0 else -math.inf


def _record_fields(record: dict) -> tuple[str, LanguageTag, list, float | None]:
    """The id, language tag, token list and score of ``record``: every check
    of a record but those of its token ids' range and of its score's."""
    doc_id, lang = _id_and_lang(record)
    tokens = record.get("tokens")
    if tokens is None:
        raise DataError("record has no 'tokens'")
    if not isinstance(tokens, list):
        raise DataError("'tokens' is not an array")
    # the int64 conversion would truncate JSON floats and take booleans as 0 and 1
    if not set(map(type, tokens)) <= {int}:
        raise DataError("non-integer token id in 'tokens'")
    score = _score(record)
    if not tokens:
        raise DataError(f"document {doc_id!r} has no tokens")
    return doc_id, lang, tokens, score


def _emptied(raw: bytes) -> tuple[bytes, bytes] | None:
    """``raw`` with its token array emptied, and the array's text with each
    ``, `` read as ``,``; None unless ``raw`` holds no backslash, so that no
    escaped key hides a second ``tokens``, and holds ``"tokens"`` once,
    followed by ``:[`` or ``: [`` and then by a ``]``."""
    key = raw.find(_TOKENS_KEY)
    after = key + len(_TOKENS_KEY)
    if key < 0:
        return None
    if raw.startswith(b":[", after):
        start = after + 2
    elif raw.startswith(b": [", after):
        start = after + 3
    else:
        return None
    end = raw.find(b"]", start)
    # a byte is looked for as an int, which is one memchr
    if end < 0 or ord("\\") in raw or raw.find(_TOKENS_KEY, after) >= 0:
        return None
    text = raw[start:end]
    if ord(" ") in text:
        text = text.replace(b", ", b",")
    return raw[:start] + raw[end:], text


def _plain_id_counts(texts: list[bytes]) -> list[int]:
    """For each of ``texts``, its count of ids if it is a plain list of ids,
    else 0. A plain list is one or more decimal ids of at most
    ``_ID_DIGITS`` digits, without leading zeros, separated by single
    commas: exactly the JSON arrays of such ids, minus the brackets."""
    if not texts:
        return []
    # the texts between commas, and the position of the comma after each
    chars = np.frombuffer(b",".join([b"", *texts, b""]), np.uint8)
    ends = np.cumsum([len(text) + 1 for text in texts])
    digit = chars - ord("0") < 10
    comma = chars == ord(",")
    counts = np.add.reduceat(comma[:-1], np.concatenate(([0], ends[:-1])), dtype=np.int64)
    # where a run of _ID_DIGITS + 1 digits starts: runs of 2, 4, 8 and 16
    # digits, then of 16 + 3
    longer = digit
    for shift in (1, 2, 4, 8, _ID_DIGITS + 1 - 16):
        longer = longer[:-shift] & longer[shift:]
    bad = np.concatenate((
        np.flatnonzero(~(digit | comma)),
        np.flatnonzero(comma[:-1] & comma[1:]) + 1,  # an empty id
        np.flatnonzero(comma[:-2] & (chars[1:-1] == ord("0")) & digit[2:]) + 1,  # 0 leading
        np.flatnonzero(longer)))
    counts[np.searchsorted(ends, bad)] = 0
    return counts.tolist()


def _text_fields(head: bytes, ids: bytes) -> tuple | None:
    """The record of line ``head``, whose emptied token array held the plain
    list of ids ``ids``, in ``_record_fields`` form with ``ids`` for its
    token list; None if ``head`` does not parse to a record whose one
    ``tokens`` is that array, or holds any other error."""
    try:
        record = parse_json_object(head)
        if record.get("tokens") != []:
            return None
        doc_id, lang = _id_and_lang(record)
        return doc_id, lang, ids, _score(record)
    except DataError:
        return None


def _chunks(lines: Iterator[tuple[int, bytes]]) -> Iterator[list[tuple[int, bytes]]]:
    """``lines`` in runs of at least ``_CHECK_BYTES`` bytes, the last one
    aside."""
    chunk, held = [], 0
    for line in lines:
        chunk.append(line)
        held += len(line[1])
        if held >= _CHECK_BYTES:
            yield chunk
            chunk, held = [], 0
    if chunk:
        yield chunk


def _line_items(lines: Iterator[tuple[int, bytes]]) -> Iterator[tuple[int, tuple | str, int]]:
    """Each non-blank line of ``lines`` with its number, its record in
    ``_record_fields`` form or its line error, and its count of ids.

    A line whose token array is a plain list of ids (``_emptied``,
    ``_plain_id_counts``) is parsed with that array emptied, and its record
    holds the ids' text in place of their list; any other line, and any line
    whose emptied form is not a record, is parsed as it is.
    """
    for chunk in _chunks(lines):
        split = [_emptied(raw) for _, raw in chunk]
        counts = iter(_plain_id_counts([parts[1] for parts in split if parts]))
        for (line_no, raw), parts in zip(chunk, split):
            n = next(counts) if parts else 0
            item = _text_fields(*parts) if n else None
            if item is None:
                try:
                    record = parse_json_object(raw)
                    if record is None:
                        continue
                    item = _record_fields(record)
                    n = len(item[2])
                except DataError as exc:
                    item, n = str(exc), 0
            yield line_no, item, n


def _block_ids(records: list[tuple[tuple, int]]) -> tuple[np.ndarray, bool]:
    """The ids of ``records`` (each with its count of ids) in record order,
    as one read-only int64 array, and whether every id lies in [0, 2**63).
    The ids given as text are converted by one ``np.fromstring``, those
    given as lists by one ``np.fromiter``."""
    texts = [r[2] for r, _ in records if type(r[2]) is bytes]
    lists = [r[2] for r, _ in records if type(r[2]) is list]
    ids = _ids_of_text(b",".join(texts)) if texts else np.empty(0, np.int64)
    in_range = True
    if lists:
        try:
            listed = np.fromiter(itertools.chain.from_iterable(lists), np.int64,
                                 sum(map(len, lists)))
            in_range = listed.min() >= 0
        except OverflowError:
            in_range = False
        if in_range and texts:
            from_text = np.repeat([type(r[2]) is bytes for r, _ in records],
                                  [n for _, n in records])
            mixed = np.empty(len(from_text), np.int64)
            mixed[from_text], mixed[~from_text] = ids, listed
            ids = mixed
        elif in_range:
            ids = listed
    ids.flags.writeable = False
    return ids, in_range


def _block_documents(block: list[tuple[int, tuple | str, int]], report: IngestReport | None,
                     seen_ids: set[str]) -> Iterator[Document]:
    """Yield the documents of ``block`` and record its line errors, in line
    order. ``block`` holds, per line, its number, either its record in
    ``_line_items`` form or its line error, and its count of ids. The
    records' ids are converted and checked at once (``_block_ids``), into
    one read-only array that their documents view; if any id is out of
    range, each record is converted on its own instead, by ``Document``."""
    ids, in_range = _block_ids([(item, n) for _, item, n in block if isinstance(item, tuple)])
    start = 0
    for line_no, item, n in block:
        if isinstance(item, tuple):
            doc_id, lang, tokens, score = item
            try:
                doc = (Document._of_checked(doc_id, lang, ids[start:start + n], score)
                       if in_range else Document(doc_id, lang, _ids_of_text(tokens)
                                                 if type(tokens) is bytes else tokens, score))
            except DataError as exc:
                item = str(exc)
            start += n
        if isinstance(item, str):
            if report is not None:
                report.errors.append(LineError(line_no, item))
            continue
        if doc.id in seen_ids:
            # always fatal: span metadata downstream keys on doc id
            raise DataError(f"line {line_no}: duplicate document id {doc.id!r}")
        seen_ids.add(doc.id)
        yield doc


def input_file(path: str | Path) -> Path:
    """``path``, if it names something to read lines from: a regular file or
    a pipe such as ``/dev/stdin``. A missing path or a directory is a
    ``DataError``."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    if path.is_dir():
        raise DataError(f"is a directory, not a file: {path}")
    return path


def ingest(path: str | Path, report: IngestReport | None = None) -> Iterator[Document]:
    """Yield Documents from a record file in file order.

    A record's ``tokens`` must be a JSON array of integers in [0, 2**63).
    Malformed lines are skipped and recorded in ``report`` with their line
    numbers, in line order. A missing file or a directory is fatal, and so
    is a duplicate id, because downstream span metadata keys on document id.

    Records are read in blocks of at most ``INGEST_BLOCK_IDS`` token ids (a
    longer record is a block of its own), whose ids are converted at once:
    the documents of a block view one shared array, so holding any of them
    holds the whole block. Every caller holds all of a file's documents or
    none of them.

    A token array of decimal ids below 10**18 without leading zeros,
    written ``[5,9,2]`` as ``filter`` writes it or ``[5, 9, 2]`` as
    ``json.dumps`` does, in a line holding no backslash and one
    ``"tokens"``, is read as text: the line is parsed with the array
    emptied, and a block's id texts become its array in one
    ``np.fromstring``, with no Python int per id. Every other line is parsed
    whole. Both paths give the same documents and the same errors.
    """
    path = input_file(path)
    seen_ids: set[str] = set()
    block: list[tuple[int, tuple | str, int]] = []
    block_ids = 0
    # read bytes and decode line by line, so that an invalid byte sequence
    # is one malformed line rather than a failure of the whole file
    with path.open("rb") as fh:
        for line_no, item, n in _line_items(numbered_lines(fh)):
            if isinstance(item, tuple):
                if block_ids + n > INGEST_BLOCK_IDS:
                    yield from _block_documents(block, report, seen_ids)
                    block, block_ids = [], 0
                block_ids += n
            block.append((line_no, item, n))
    yield from _block_documents(block, report, seen_ids)


@dataclass(frozen=True)
class LanguageStats:
    documents: int
    tokens: int


@dataclass
class CorpusStats:
    """Per-language document and token counts."""

    per_language: dict[str, LanguageStats]

    @property
    def total_tokens(self) -> int:
        return sum(s.tokens for s in self.per_language.values())

    @property
    def total_documents(self) -> int:
        return sum(s.documents for s in self.per_language.values())

    def languages(self) -> list[str]:
        return sorted(self.per_language)

    def to_json(self) -> dict:
        return {
            "per_language": {
                code: {"documents": s.documents, "tokens": s.tokens}
                for code, s in sorted(self.per_language.items())
            },
            "total_documents": self.total_documents,
            "total_tokens": self.total_tokens,
        }

    @classmethod
    def from_json(cls, payload) -> "CorpusStats":
        """The inverse of ``to_json``: codes follow the ``LanguageTag`` rules
        and both counts are non-negative JSON integers."""
        per_language = payload.get("per_language") if isinstance(payload, dict) else None
        if not isinstance(per_language, dict):
            raise DataError("malformed stats payload: 'per_language' is not an object")
        for code, entry in per_language.items():
            LanguageTag(code)
            for key in ("documents", "tokens"):
                n = entry.get(key) if isinstance(entry, dict) else None
                if type(n) is not int or n < 0:  # not a float, bool or missing count
                    raise DataError(f"malformed stats payload: {code} {key} must be a "
                                    f"non-negative integer, got {n!r}")
        return cls({code: LanguageStats(entry["documents"], entry["tokens"])
                    for code, entry in per_language.items()})


def stats(docs: Iterable[Document]) -> CorpusStats:
    """Exact per-language counts over a document stream."""
    counts: dict[str, list[int]] = {}
    for doc in docs:
        entry = counts.setdefault(doc.lang.code, [0, 0])
        entry[0] += 1
        entry[1] += len(doc.tokens)
    return CorpusStats(
        per_language={code: LanguageStats(d, t) for code, (d, t) in counts.items()}
    )


def _record_lines(docs: list[Document]) -> bytes:
    """The record lines of ``docs``, whose token ids are made text at once.

    Each id is one row of bytes: its decimal digits, zero-padded to the
    width of the block's largest id, then ``,``, or ``]`` after a
    document's last id. One boolean compress drops the leading zeros, so no
    Python object is made per id. The other fields go through ``json``'s
    own encoders, which write ``score`` as ``json.dumps`` does (``3`` for an
    int, ``3.5`` for a float).
    """
    ids = np.concatenate([doc.tokens for doc in docs])
    width = len(str(int(ids.max())))
    rows = np.empty((len(ids), width + 1), np.uint8)
    rest = ids
    for col in range(width - 1, 0, -1):
        quot = rest // 10
        rows[:, col] = rest - quot * 10
        rest = quot
    rows[:, 0] = rest
    rows[:, :width] += ord("0")
    rows[:, width] = ord(",")
    rows[np.cumsum([len(doc.tokens) for doc in docs]) - 1, width] = ord("]")
    # a digit column is kept for the ids that reach it; the last digit and
    # the separator always are
    keep = np.ones(rows.shape, bool)
    for col in range(width - 1):
        np.greater_equal(ids, 10 ** (width - 1 - col), out=keep[:, col])
    chars = rows[keep]
    ends = (np.flatnonzero(chars == ord("]")) + 1).tolist()
    text = chars.tobytes()
    # a JSON number holds no comma, so the block's scores are one encoder call
    scores = _encode_compact([doc.score for doc in docs])[1:-1].split(",")
    lines = []
    start = 0
    for doc, end, score in zip(docs, ends, scores):
        lines += (f'{{"id":{_encode_string(doc.id)},"lang":{_encode_string(doc.lang.code)},'
                  f'"class":{_encode_string(doc.lang.lang_class)},"tokens":['.encode(),
                  text[start:end],
                  b"}\n" if score == "null" else f',"score":{score}}}\n'.encode())
        start = end
    return b"".join(lines)


def write_records(docs: Iterable[Document], path: str | Path) -> int:
    """Write documents back out in the record format, one line each::

        {"id":<id>,"lang":<code>,"class":<class>,"tokens":[<id>,...],"score":<score>}

    compact JSON with the keys in this order, strings escaped to ASCII as
    ``json.dumps`` does, and no ``score`` key for a document without one.
    The file is truncated before the first document is read. Documents are
    written a block at a time, a block holding at most ``INGEST_BLOCK_IDS``
    token ids (a longer document is a block of its own), so the writer
    holds one block and its text. Returns the count written.
    """
    n = block_ids = 0
    block: list[Document] = []
    with Path(path).open("wb") as fh:
        for doc in docs:
            if block and block_ids + len(doc.tokens) > INGEST_BLOCK_IDS:
                fh.write(_record_lines(block))
                block, block_ids = [], 0
            block.append(doc)
            block_ids += len(doc.tokens)
            n += 1
        if block:
            fh.write(_record_lines(block))
    return n
