import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xlda_kit.corpus import (
    CorpusStats,
    Document,
    IngestReport,
    LanguageTag,
    RecordSchema,
    ingest,
    ingest_shards,
    stats,
    write_records,
)
from xlda_kit.errors import DataError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_basic_line(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"d1","lang":"ko","tokens":[5,9,2]}'])
    docs = list(ingest(f))
    assert len(docs) == 1
    assert docs[0].id == "d1"
    assert docs[0].lang.code == "ko"
    assert docs[0].tokens == (5, 9, 2)


def test_ingest_empty_language_tag_is_error(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"d1","lang":"","tokens":[1]}'])
    report = IngestReport()
    docs = list(ingest(f, report=report))
    assert docs == []
    assert len(report.errors) == 1
    assert report.errors[0].line_no == 1
    assert "empty language tag" in report.errors[0].message


def test_ingest_fail_fast(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"d1","lang":"","tokens":[1]}'])
    with pytest.raises(DataError, match="line 1"):
        list(ingest(f, fail_fast=True))


def test_ingest_missing_file():
    with pytest.raises(DataError, match="no such file"):
        list(ingest("/nonexistent/corpus.jsonl"))


def test_ingest_1000_lines_order_preserved(tmp_path):
    f = tmp_path / "corpus.jsonl"
    lines = [
        json.dumps({"id": f"d{i}", "lang": "en", "tokens": [i % 7 + 1]})
        for i in range(1000)
    ]
    write_lines(f, lines)
    docs = list(ingest(f))
    assert len(docs) == 1000
    assert [d.id for d in docs] == [f"d{i}" for i in range(1000)]


def test_ingest_duplicate_id_always_fatal(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, [
        '{"id":"d1","lang":"en","tokens":[1]}',
        '{"id":"d1","lang":"en","tokens":[2]}',
    ])
    with pytest.raises(DataError, match="duplicate document id"):
        list(ingest(f))


def test_ingest_text_with_tokenizer(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"t1","lang":"en","text":"ab"}'])
    docs = list(ingest(f, tokenizer=lambda s: [ord(c) for c in s]))
    assert docs[0].tokens == (97, 98)


def test_ingest_text_without_tokenizer_is_line_error(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"t1","lang":"en","text":"ab"}'])
    report = IngestReport()
    assert list(ingest(f, report=report)) == []
    assert "tokenizer" in report.errors[0].message


def test_ingest_custom_schema(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"doc":"x","language":"ko","ids":[3],"q":4.5}'])
    schema = RecordSchema(id="doc", lang="language", tokens="ids", score="q")
    docs = list(ingest(f, schema=schema))
    assert docs[0].id == "x"
    assert docs[0].score == 4.5


def test_ingest_deterministic_error_report(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, [
        '{"id":"a","lang":"en","tokens":[1]}',
        "not json at all",
        '{"id":"b","lang":"en","tokens":[]}',
    ])
    r1, r2 = IngestReport(), IngestReport()
    docs1 = list(ingest(f, report=r1))
    docs2 = list(ingest(f, report=r2))
    assert [d.id for d in docs1] == [d.id for d in docs2] == ["a"]
    assert [(e.line_no, e.message) for e in r1.errors] == [
        (e.line_no, e.message) for e in r2.errors
    ]
    assert len(r1.errors) == 2


def test_stats_empty():
    s = stats([])
    assert s.total_tokens == 0
    assert s.total_documents == 0


def test_stats_arithmetic():
    en = LanguageTag("en", "english")
    ko = LanguageTag("ko", "multilingual")
    docs = [
        Document("a", en, (1, 2, 3)),
        Document("b", en, (1, 2, 3, 4)),
        Document("c", ko, (9, 9, 9, 9, 9)),
    ]
    s = stats(docs)
    assert s.per_language["en"].tokens == 7
    assert s.per_language["ko"].tokens == 5
    assert s.total_tokens == 12
    assert s.per_language["en"].documents == 2


def test_stats_matches_independent_recount(tmp_path):
    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
    langs = ["en", "ko", "ja"]
    docs = []
    for i in range(10_000):
        code = langs[int(gen.integers(0, 3))]
        n = int(gen.integers(1, 12))
        docs.append(
            Document(f"d{i}", LanguageTag(code), tuple(int(t) for t in gen.integers(0, 50, n)))
        )
    s = stats(docs)
    # second-pass recount with plain dict arithmetic
    recount: dict[str, int] = {}
    for d in docs:
        recount[d.lang.code] = recount.get(d.lang.code, 0) + len(d.tokens)
    for code, tok in recount.items():
        assert s.per_language[code].tokens == tok
    assert s.total_tokens == sum(recount.values())
    # per-language token counts sum to the total
    assert sum(v.tokens for v in s.per_language.values()) == s.total_tokens


def test_stats_json_roundtrip():
    en = LanguageTag("en", "english")
    s = stats([Document("a", en, (1, 2))])
    assert CorpusStats.from_json(s.to_json()).per_language["en"].tokens == 2


def test_document_invariants():
    en = LanguageTag("en", "english")
    with pytest.raises(DataError):
        Document("a", en, ())
    with pytest.raises(DataError):
        Document("a", en, (1,), score=5.5)
    with pytest.raises(DataError):
        Document("", en, (1,))
    with pytest.raises(DataError):
        LanguageTag("TOOLONGCODE")
    with pytest.raises(DataError):
        LanguageTag("en", "bogus")


def test_write_records_roundtrip(tmp_path):
    en = LanguageTag("en", "english")
    docs = [Document("a", en, (1, 2), score=3.5), Document("b", en, (4,))]
    out = tmp_path / "out.jsonl"
    assert write_records(docs, out) == 2
    back = list(ingest(out))
    assert [d.id for d in back] == ["a", "b"]
    assert back[0].score == 3.5
    assert back[1].score is None


def test_ingest_shards_merges_in_order(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_lines(a, ['{"id":"a1","lang":"en","tokens":[1]}'])
    write_lines(b, ['{"id":"b1","lang":"en","tokens":[2]}'])
    docs = list(ingest_shards([a, b]))
    assert [d.id for d in docs] == ["a1", "b1"]


def test_ingest_invalid_utf8_is_line_error(tmp_path):
    f = tmp_path / "corpus.jsonl"
    f.write_bytes(b'{"id":"d1","lang":"en","tokens":[1]}\n'
                  b'\xff\xfe{"id":"d2"}\n'
                  b'{"id":"d3","lang":"ko","tokens":[2]}\n')
    report = IngestReport()
    docs = list(ingest(f, report=report))
    assert [d.id for d in docs] == ["d1", "d3"]
    assert [e.line_no for e in report.errors] == [2]
    assert "not valid UTF-8" in report.errors[0].message
    with pytest.raises(DataError, match="line 2: not valid UTF-8"):
        list(ingest(f, fail_fast=True))


@pytest.mark.parametrize("tokens", [
    "[1.7, true, 3]", "[2.0]", "[true]", "[false, 1]", "[1e400]", "[Infinity]",
    "[-Infinity]", "[NaN]", '["5"]',
])
def test_non_integer_token_id_is_line_error(tmp_path, tokens):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"d1","lang":"en","tokens":[1]}',
                    f'{{"id":"d2","lang":"en","tokens":{tokens}}}',
                    '{"id":"d3","lang":"en","tokens":[3]}'])
    report = IngestReport()
    docs = list(ingest(f, report=report))
    assert [d.id for d in docs] == ["d1", "d3"]
    assert [e.line_no for e in report.errors] == [2]
    assert "non-integer token id" in report.errors[0].message
    with pytest.raises(DataError, match="line 2: non-integer token id"):
        list(ingest(f, fail_fast=True))


def test_tokenizer_integer_types_are_token_ids(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"t1","lang":"en","text":"ab"}',
                    '{"id":"t2","lang":"en","text":"cd"}'])
    for to_ids in (lambda s: np.frombuffer(s.encode(), dtype=np.uint8).astype(np.int64),
                   lambda s: [np.uint32(ord(c)) for c in s],
                   lambda s: tuple(ord(c) for c in s)):
        docs = list(ingest(f, tokenizer=lambda s: list(to_ids(s))))
        assert [d.tokens for d in docs] == [(97, 98), (99, 100)]
        assert all(type(t) is int for d in docs for t in d.tokens)


def test_tokenizer_float_token_ids_are_line_errors(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"t1","lang":"en","text":"ab"}'])
    report = IngestReport()
    docs = list(ingest(f, report=report,
                       tokenizer=lambda s: [np.float64(ord(c)) for c in s]))
    assert docs == []
    assert "non-integer token id" in report.errors[0].message


_VALID_CORPUS = "".join(
    json.dumps({"id": f"d{i}", "lang": ("en", "ko", "ja")[i % 3],
                "class": ("english", "multilingual", "multilingual")[i % 3],
                "score": round(0.6 * i, 1), "tokens": list(range(i + 1, 2 * i + 4))})
    + "\n"
    for i in range(8)
).encode()

_CORRUPTION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, len(_VALID_CORPUS) - 1), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, len(_VALID_CORPUS)), st.just(0)),
    st.tuples(st.just("insert"), st.integers(0, len(_VALID_CORPUS)), st.integers(0, 255)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_CORRUPTION, min_size=1, max_size=4))
def test_ingest_corrupted_file_gives_line_errors_or_data_error(tmp_path_factory, edits):
    data = bytearray(_VALID_CORPUS)
    for kind, pos, value in edits:
        pos = min(pos, len(data))
        if kind == "flip" and pos < len(data):
            data[pos] ^= 1 << value
        elif kind == "truncate":
            del data[pos:]
        elif kind == "insert":
            data.insert(pos, value)
    f = tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"
    f.write_bytes(bytes(data))
    report = IngestReport()
    try:
        docs = list(ingest(f, report=report))
    except DataError as exc:
        assert "duplicate document id" in str(exc)
        return
    assert report.documents == len(docs)
    assert all(isinstance(d, Document) and d.tokens for d in docs)
    assert all(type(t) is int for d in docs for t in d.tokens)
