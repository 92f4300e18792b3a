"""Document ingestion and corpus statistics.

Input is line-delimited UTF-8 records (one JSON object per line) with
configurable field names. Records carry either pre-tokenized ``tokens`` or
raw ``text`` plus a caller-supplied tokenizer callback; this module never
tokenizes on its own.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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


def default_language_class(code: str) -> str:
    """Class inferred when a record does not carry one explicitly.

    ``en`` maps to english, everything else to multilingual; math_code is
    only ever assigned explicitly.
    """
    return "english" if code == "en" else "multilingual"


@dataclass(frozen=True)
class Document:
    """A language-tagged, optionally quality-scored token sequence."""

    id: str
    lang: LanguageTag
    tokens: tuple[int, ...]
    score: float | None = None

    def __post_init__(self):
        if not self.id:
            raise DataError("document id must be non-empty")
        if len(self.tokens) == 0:
            raise DataError(f"document {self.id!r} has no tokens")
        for t in self.tokens:
            if t < 0:
                raise DataError(f"document {self.id!r} has negative token id {t}")
        if self.score is not None and not (SCORE_MIN <= self.score <= SCORE_MAX):
            raise DataError(
                f"document {self.id!r} score {self.score} outside [{SCORE_MIN}, {SCORE_MAX}]"
            )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class RecordSchema:
    """Field names used when parsing record lines."""

    id: str = "id"
    lang: str = "lang"
    tokens: str = "tokens"
    text: str = "text"
    score: str = "score"
    lang_class: str = "class"


@dataclass(frozen=True)
class LineError:
    """One malformed input line, reported by 1-based line number."""

    line_no: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


@dataclass
class IngestReport:
    """Counts and per-line errors accumulated while ingesting a file."""

    documents: int = 0
    errors: list[LineError] = field(default_factory=list)

    @property
    def skipped(self) -> int:
        return len(self.errors)


def _decode_line(raw: bytes) -> str:
    try:
        return raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise DataError(f"not valid UTF-8: {exc.reason} at byte {exc.start}") from exc


def _parse_line(
    line: str,
    schema: RecordSchema,
    tokenizer: Callable[[str], Sequence[int]] | None,
) -> Document:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"not valid JSON: {exc.msg}") from exc
    if not isinstance(record, dict):
        raise DataError("record is not a JSON object")

    doc_id = record.get(schema.id)
    if not isinstance(doc_id, str) or not doc_id:
        raise DataError(f"missing or empty {schema.id!r} field")

    code = record.get(schema.lang)
    if not isinstance(code, str) or not code:
        raise DataError("empty language tag")
    lang_class = record.get(schema.lang_class)
    if lang_class is None:
        lang_class = default_language_class(code)
    lang = LanguageTag(code=code, lang_class=lang_class)

    tokens = record.get(schema.tokens)
    if tokens is None:
        text = record.get(schema.text)
        if text is None:
            raise DataError(f"record has neither {schema.tokens!r} nor {schema.text!r}")
        if tokenizer is None:
            raise DataError("raw text record but no tokenizer callback was supplied")
        tokens = tokenizer(text)
    if not isinstance(tokens, (list, tuple)):
        raise DataError(f"{schema.tokens!r} is not an array")
    # int() would truncate JSON floats and booleans or overflow on 1e400;
    # a tokenizer's integer types, numpy's among them, are token ids
    if any(k is bool or not issubclass(k, numbers.Integral) for k in set(map(type, tokens))):
        raise DataError(f"non-integer token id in {schema.tokens!r}")
    token_tuple = tuple(map(int, tokens))

    score = record.get(schema.score)
    if score is not None:
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise DataError(f"{schema.score!r} is not a number")
        score = float(score)

    return Document(id=doc_id, lang=lang, tokens=token_tuple, score=score)


def ingest(
    path: str | Path,
    schema: RecordSchema | None = None,
    tokenizer: Callable[[str], Sequence[int]] | None = None,
    fail_fast: bool = False,
    report: IngestReport | None = None,
) -> Iterator[Document]:
    """Yield Documents from a record file in file order.

    Malformed lines are recorded in ``report`` with their line numbers; with
    ``fail_fast`` the first one raises instead. A missing file is always
    fatal. Duplicate ids are a hard error either way, because downstream span
    metadata keys on document id.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    schema = schema or RecordSchema()
    seen_ids: set[str] = set()
    # read bytes and decode line by line, so that an invalid byte sequence
    # is one malformed line rather than a failure of the whole file
    with path.open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = _decode_line(raw)
                if not line:
                    continue
                doc = _parse_line(line, schema, tokenizer)
            except DataError as exc:
                if fail_fast:
                    raise DataError(f"line {line_no}: {exc}") from exc
                if report is not None:
                    report.errors.append(LineError(line_no, str(exc)))
                continue
            if doc.id in seen_ids:
                # always fatal: span metadata downstream keys on doc id
                raise DataError(f"line {line_no}: duplicate document id {doc.id!r}")
            seen_ids.add(doc.id)
            if report is not None:
                report.documents += 1
            yield doc


def ingest_shards(
    paths: Sequence[str | Path],
    schema: RecordSchema | None = None,
    tokenizer: Callable[[str], Sequence[int]] | None = None,
    fail_fast: bool = False,
    report: IngestReport | None = None,
) -> Iterator[Document]:
    """Ingest several shards, merged in the given (deterministic) shard order."""
    for path in paths:
        yield from ingest(path, schema=schema, tokenizer=tokenizer,
                          fail_fast=fail_fast, report=report)


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
    def from_json(cls, payload: dict) -> "CorpusStats":
        try:
            per_language = {
                code: LanguageStats(int(v["documents"]), int(v["tokens"]))
                for code, v in payload["per_language"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed stats payload: {exc}") from exc
        return cls(per_language=per_language)


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
    n = 0
    with Path(path).open("w", encoding="utf-8") as fh:
        for doc in docs:
            record = {
                "id": doc.id,
                "lang": doc.lang.code,
                "class": doc.lang.lang_class,
                "tokens": list(doc.tokens),
            }
            if doc.score is not None:
                record["score"] = doc.score
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            n += 1
    return n
