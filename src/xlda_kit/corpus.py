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
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import DataError

LANGUAGE_CLASSES = ("english", "multilingual", "math_code")

SCORE_MIN = 0.0
SCORE_MAX = 5.0


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
    read-only int64 array, so an id must lie in [0, 2**63).
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
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"not valid JSON: {exc.msg}") from exc
    if not isinstance(record, dict):
        raise DataError("record is not a JSON object")
    return record


def numbered_lines(fh: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """Each raw line of binary ``fh`` with its 1-based line number. A UTF-8
    byte-order mark at the start of line 1 is dropped; one anywhere else is
    left in the line, where it is not valid JSON."""
    first = fh.readline().removeprefix(codecs.BOM_UTF8)
    return itertools.chain([(1, first)], enumerate(fh, start=2))


def _parse_record(record: dict) -> Document:
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

    tokens = record.get("tokens")
    if tokens is None:
        raise DataError("record has no 'tokens'")
    if not isinstance(tokens, list):
        raise DataError("'tokens' is not an array")
    # the int64 conversion would truncate JSON floats and take booleans as 0 and 1
    if not set(map(type, tokens)) <= {int}:
        raise DataError("non-integer token id in 'tokens'")

    score = record.get("score")
    if score is not None:
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise DataError("'score' is not a number")
        score = float(score)

    return Document(id=doc_id, lang=lang, tokens=tokens, score=score)


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
    numbers. A missing file or a directory is fatal, and so is a duplicate
    id, because downstream span metadata keys on document id.
    """
    path = input_file(path)
    seen_ids: set[str] = set()
    # read bytes and decode line by line, so that an invalid byte sequence
    # is one malformed line rather than a failure of the whole file
    with path.open("rb") as fh:
        for line_no, raw in numbered_lines(fh):
            try:
                record = parse_json_object(raw)
                if record is None:
                    continue
                doc = _parse_record(record)
            except DataError as exc:
                if report is not None:
                    report.errors.append(LineError(line_no, str(exc)))
                continue
            if doc.id in seen_ids:
                # always fatal: span metadata downstream keys on doc id
                raise DataError(f"line {line_no}: duplicate document id {doc.id!r}")
            seen_ids.add(doc.id)
            yield doc


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


def write_records(docs: Iterable[Document], path: str | Path) -> int:
    """Write documents back out in the record format. Returns count written."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    n = 0
    with Path(path).open("w", encoding="utf-8") as fh:
        for doc in docs:
            record = {
                "id": doc.id,
                "lang": doc.lang.code,
                "class": doc.lang.lang_class,
                "tokens": doc.tokens.tolist(),
            }
            if doc.score is not None:
                record["score"] = doc.score
            fh.write(encode(record) + "\n")
            n += 1
    return n
