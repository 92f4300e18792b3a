import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xlda_kit import corpus
from xlda_kit.corpus import (
    CorpusStats,
    Document,
    IngestReport,
    LanguageTag,
    _record_fields,
    ingest,
    numbered_lines,
    parse_json_object,
    stats,
    write_records,
)
from xlda_kit.errors import DataError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def ids(doc):
    """A document's token ids, after checking they are its read-only int64 buffer."""
    assert isinstance(doc.tokens, np.ndarray) and doc.tokens.dtype == np.int64
    assert doc.tokens.ndim == 1 and not doc.tokens.flags.writeable
    return doc.tokens.tolist()


def test_ingest_basic_line(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"d1","lang":"ko","tokens":[5,9,2]}'])
    docs = list(ingest(f))
    assert len(docs) == 1
    assert docs[0].id == "d1"
    assert docs[0].lang.code == "ko"
    assert ids(docs[0]) == [5, 9, 2]


def test_ingest_empty_language_tag_is_error(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"d1","lang":"","tokens":[1]}'])
    report = IngestReport()
    docs = list(ingest(f, report=report))
    assert docs == []
    assert len(report.errors) == 1
    assert report.errors[0].line_no == 1
    assert "empty language tag" in report.errors[0].message


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


def test_record_without_tokens_is_line_error(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"t1","lang":"en","text":"ab"}', '{"id":"t2","lang":"en"}'])
    report = IngestReport()
    assert list(ingest(f, report=report)) == []
    assert [str(e) for e in report.errors] == ["line 1: record has no 'tokens'",
                                               "line 2: record has no 'tokens'"]


def test_corpus_holds_one_language_tag_per_language(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, [
        '{"id":"a","lang":"en","tokens":[1]}',
        '{"id":"b","lang":"ko","tokens":[2]}',
        '{"id":"c","lang":"en","tokens":[3]}',
        '{"id":"d","lang":"ko","class":"math_code","tokens":[4]}',
        '{"id":"e","lang":"ko","tokens":[5]}',
        '{"id":"f","lang":"KO","tokens":[6]}',
        '{"id":"g","lang":"ko","class":["english"],"tokens":[7]}',
        '{"id":"h","lang":"KO","tokens":[8]}',
        '{"id":"i","lang":"ko","class":"prose","tokens":[9]}',
        '{"id":"j","lang":"ko","class":"prose","tokens":[10]}',
    ])
    report = IngestReport()
    a, b, c, d, e = ingest(f, report=report)
    assert a.lang is c.lang and b.lang is e.lang
    assert b.lang == LanguageTag("ko") and d.lang == LanguageTag("ko", "math_code")
    assert [str(err) for err in report.errors] == [
        "line 6: language code must be non-empty, lowercase, <= 8 chars: 'KO'",
        "line 7: language class must be one of ('english', 'multilingual', 'math_code'): "
        "['english']",
        "line 8: language code must be non-empty, lowercase, <= 8 chars: 'KO'",
        "line 9: language class must be one of ('english', 'multilingual', 'math_code'): "
        "'prose'",
        "line 10: language class must be one of ('english', 'multilingual', 'math_code'): "
        "'prose'",
    ]


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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["a", "d\u00e9"]), st.sampled_from([LanguageTag("en", "english"),
                                                         LanguageTag("ko")]),
       st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6),
       st.one_of(st.none(), st.floats(allow_nan=False), st.integers(-2, 7).map(float)))
def test_a_checked_document_equals_one_built_from_its_fields(doc_id, lang, tokens, score):
    buffer = np.array(tokens, dtype=np.int64)
    buffer.flags.writeable = False
    try:
        expected = Document(doc_id, lang, tokens, score)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            Document._of_checked(doc_id, lang, buffer, score)
        assert str(got.value) == str(exc) and "outside [0.0, 5.0]" in str(exc)
        return
    doc = Document._of_checked(doc_id, lang, buffer, score)
    assert doc == expected and (doc.id, doc.lang, doc.score) == (doc_id, lang, score)
    assert doc.tokens is buffer
    with pytest.raises(AttributeError):
        doc.score = 1.0


def test_write_records_roundtrip(tmp_path):
    docs = [Document("a", LanguageTag("en", "english"), (1, 2, 30), score=3.5),
            Document("b", LanguageTag("ko"), (4,)),
            Document("c\u00e9", LanguageTag("ja", "math_code"), (0, 7), score=0.0)]
    out = tmp_path / "out.jsonl"
    assert write_records(docs, out) == 3
    # the documented line: compact, keys in this order, no score key for None
    assert out.read_bytes() == (
        b'{"id":"a","lang":"en","class":"english","tokens":[1,2,30],"score":3.5}\n'
        b'{"id":"b","lang":"ko","class":"multilingual","tokens":[4]}\n'
        b'{"id":"c\\u00e9","lang":"ja","class":"math_code","tokens":[0,7],"score":0.0}\n'
    )
    assert list(ingest(out)) == docs


def test_leading_byte_order_mark_is_skipped_on_line_1_only(tmp_path):
    f = tmp_path / "corpus.jsonl"
    records = [b'{"id":"d1","lang":"en","tokens":[1]}\n',
               b'{"id":"d2","lang":"ko","tokens":[2]}\n']
    f.write_bytes(b"\xef\xbb\xbf" + b"".join(records))
    report = IngestReport()
    assert [d.id for d in ingest(f, report=report)] == ["d1", "d2"]
    assert report.errors == []
    # a mark anywhere else, a second one on line 1 included, is not valid JSON
    for data, bad_line in ((records[0] + b"\xef\xbb\xbf" + records[1], 2),
                           (b"\xef\xbb\xbf" * 2 + b"".join(records), 1)):
        f.write_bytes(data)
        report = IngestReport()
        assert len(list(ingest(f, report=report))) == 1
        assert [(e.line_no, e.message.startswith("not valid JSON"))
                for e in report.errors] == [(bad_line, True)]


def test_unicode_whitespace_around_a_record_is_stripped_after_decoding(tmp_path):
    # str.strip() also removes U+3000, U+00A0 and U+0085, which bytes.strip()
    # leaves in place: a record line that ends in the ideographic space of CJK
    # text parses, and a line holding only that space is blank, not malformed
    f = tmp_path / "corpus.jsonl"
    f.write_bytes('{"id":"d1","lang":"ja","tokens":[1]}\u3000\n\u3000\n'
                  '\u00a0{"id":"d2","lang":"ko","tokens":[2]}\u0085\n'.encode("utf-8"))
    report = IngestReport()
    assert [d.id for d in ingest(f, report=report)] == ["d1", "d2"]
    assert report.errors == []


def _parse_with_json_loads(raw):
    """What ``parse_json_object(raw)`` gives, by ``json.loads``."""
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
    except ValueError as exc:  # an integer of more than 4,300 digits
        assert str(exc).startswith("Exceeds the limit (4300 digits) for integer string")
        raise DataError(f"not valid JSON: {str(exc).partition(';')[0]}") from exc
    if not isinstance(record, dict):
        raise DataError("record is not a JSON object")
    return record


def _outcome(parse, raw):
    try:
        return "value", repr(parse(raw))  # repr: a NaN equals itself
    except DataError as exc:
        return "error", str(exc)


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)
_PADDING = st.text(st.sampled_from(" \t\r\n\u3000\u00a0\u0085\x0b\x0c\u2028"), max_size=3)
# record lines: a JSON object or another value, or any text, perhaps after a
# byte-order mark, before trailing text, or wrapped in Unicode whitespace
_RECORD_TEXT = st.builds(
    lambda bom, value, tail, before, after: before + bom + value + tail + after,
    st.sampled_from(["", "", "\ufeff"]),
    st.one_of(st.dictionaries(st.text(max_size=3), _JSON_VALUE, max_size=3).map(json.dumps),
              _JSON_VALUE.map(json.dumps), st.text(max_size=8)),
    st.one_of(st.just(""), st.just(""), st.text(max_size=4),
              st.sampled_from([" x", "{}", ",{}", "]", " 1"])),
    _PADDING, _PADDING)


@st.composite
def _record_bytes(draw):
    raw = draw(_RECORD_TEXT).encode("utf-8")
    if draw(st.booleans()):  # break the UTF-8 at some byte
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + raw[at:]
    return raw


@settings(max_examples=500, deadline=None)
@given(st.one_of(_record_bytes(), st.binary(max_size=12)))
def test_parse_json_object_gives_what_json_loads_gives(raw):
    assert _outcome(parse_json_object, raw) == _outcome(_parse_with_json_loads, raw)


def test_negative_token_id_is_line_error_naming_the_first(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, ['{"id":"d1","lang":"en","tokens":[1]}',
                    '{"id":"d2","lang":"en","tokens":[4,-3,0,-7]}',
                    '{"id":"d3","lang":"en","tokens":[3]}'])
    report = IngestReport()
    assert [d.id for d in ingest(f, report=report)] == ["d1", "d3"]
    assert [str(e) for e in report.errors] == [
        "line 2: document 'd2' has negative token id -3"]
    with pytest.raises(DataError) as exc:
        Document("d2", LanguageTag("en"), (4, -3, 0, -7))
    assert str(exc.value) == "document 'd2' has negative token id -3"


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


_BIG = 2**63 - 1

# JSON array elements: integers at and around the int64 edges, floats
# (integral ones included), booleans, strings, null, arrays and objects
_ELEMENT = st.one_of(
    st.integers(-2**64, 2**64), st.sampled_from([-1, 0, _BIG, 2**63]),
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-9, 9).map(float),
    st.booleans(), st.text(max_size=3), st.none(),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ELEMENT, min_size=1, max_size=6))
def test_token_array_is_kept_iff_every_id_is_an_integer_in_range(tmp_path_factory, tokens):
    f = tmp_path_factory.mktemp("ids") / "corpus.jsonl"
    write_lines(f, [json.dumps({"id": "d", "lang": "en", "tokens": tokens})])
    report = IngestReport()
    docs = list(ingest(f, report=report))
    if all(type(t) is int and 0 <= t < 2**63 for t in tokens):
        assert [ids(d) for d in docs] == [tokens] and report.errors == []
    else:
        assert docs == [] and [e.line_no for e in report.errors] == [1]


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
    assert all(isinstance(d, Document) and len(ids(d)) > 0 for d in docs)


@pytest.mark.parametrize("given", [
    (5, 0, _BIG), [5, 0, _BIG], [np.uint64(5), np.int32(0), np.int64(_BIG)],
    np.array([5, 0, _BIG], dtype=np.uint64),
], ids=["tuple", "list", "numpy-ints", "numpy-array"])
def test_document_tokens_are_a_read_only_int64_buffer(given):
    en = LanguageTag("en")
    d = Document("d", en, given)
    assert ids(d) == [5, 0, _BIG]
    with pytest.raises(ValueError):
        d.tokens[0] = 1
    # equal whatever type the ids came in, and unequal when one id differs
    assert d == Document("d", en, (5, 0, _BIG)) and hash(d) == hash(Document("d", en, [5, 0, _BIG]))
    assert d != Document("d", en, (5, 0, _BIG - 1)) and d != Document("d", en, (5, 0))
    assert d != Document("d", en, (5, 0, _BIG), score=1.0) and d != Document("e", en, (5, 0, _BIG))
    source = [1, 2]
    held = Document("h", en, source)
    source[0] = 9  # the buffer is a copy
    assert ids(held) == [1, 2]


def test_token_id_of_2_to_the_63_or_more_is_line_error_naming_the_document(tmp_path):
    f = tmp_path / "corpus.jsonl"
    write_lines(f, [f'{{"id":"d1","lang":"en","tokens":[{_BIG}]}}',
                    f'{{"id":"d2","lang":"en","tokens":[1,{2**63},2]}}',
                    f'{{"id":"d3","lang":"en","tokens":[3,{-2**63 - 1}]}}',
                    '{"id":"d4","lang":"en","tokens":[4]}'])
    report = IngestReport()
    assert [ids(d) for d in ingest(f, report=report)] == [[_BIG], [4]]
    assert [str(e) for e in report.errors] == [
        f"line 2: document 'd2' has token id {2**63} outside [0, 2**63)",
        f"line 3: document 'd3' has negative token id {-2**63 - 1}"]


def test_ingest_write_ingest_is_byte_identical(tmp_path):
    gen = np.random.Generator(np.random.Philox(key=np.array([13, 0], dtype=np.uint64)))
    lines = []
    for i in range(200):
        code, lang_class = (("en", "english"), ("ko", "multilingual"), ("ja", "math_code"))[i % 3]
        # several blocks of ids, one of them a single record longer than a block
        n = corpus.INGEST_BLOCK_IDS + 1 if i == 100 else int(gen.integers(1, 200))
        record = {"id": f"d{i}\u00e9" if i % 7 == 0 else f"d{i}", "lang": code,
                  "class": lang_class,
                  "tokens": gen.integers(0, _BIG, n, endpoint=True).tolist()}
        if i % 5:
            record["score"] = round(float(gen.uniform(0, 5)), 3)
        lines.append(json.dumps(record, separators=(",", ":")))
    original = tmp_path / "original.jsonl"
    write_lines(original, lines)
    docs = list(ingest(original))
    assert len(docs) == 200 and max(max(ids(d)) for d in docs) > 2**62
    assert sum(map(len, docs)) > 3 * corpus.INGEST_BLOCK_IDS
    written = tmp_path / "written.jsonl"
    assert write_records(docs, written) == 200
    assert written.read_bytes() == original.read_bytes()
    assert list(ingest(written)) == docs


# ids at every decimal width, each side of each power of ten, up to 2**63 - 1
_DIGIT_EDGES = sorted({0, _BIG, *(10**k + d for k in range(19) for d in (-1, 0))})


@settings(max_examples=300, deadline=None)
@given(records=st.lists(st.tuples(
    st.text(min_size=1, max_size=6),
    st.sampled_from(["en", "ko", "zh-hant", "\u00e9"]),
    st.sampled_from(corpus.LANGUAGE_CLASSES),
    st.lists(st.one_of(st.sampled_from(_DIGIT_EDGES), st.integers(0, _BIG)),
             min_size=1, max_size=8),
    st.one_of(st.none(), st.integers(0, 5), st.floats(0, 5))), max_size=8),
    block_ids=st.integers(1, 12))
def test_written_lines_are_the_compact_json_dumps_of_the_records(tmp_path_factory, records,
                                                                 block_ids):
    docs = [Document(doc_id, LanguageTag(code, lang_class), tokens, score)
            for doc_id, code, lang_class, tokens, score in records]
    out = tmp_path_factory.mktemp("write") / "out.jsonl"
    # small blocks, so that records of a few ids still cross block boundaries
    with mock.patch.object(corpus, "INGEST_BLOCK_IDS", block_ids):
        assert write_records(docs, out) == len(docs)
    want = ""
    for doc_id, code, lang_class, tokens, score in records:
        record = {"id": doc_id, "lang": code, "class": lang_class, "tokens": tokens}
        if score is not None:
            record["score"] = score
        want += json.dumps(record, separators=(",", ":")) + "\n"
    assert out.read_bytes() == want.encode("ascii")


def test_held_documents_cost_at_most_16_bytes_per_token(tmp_path):
    gen = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
    f = tmp_path / "corpus.jsonl"
    lines, total = [], 0
    while total < 200_000:
        n = int(gen.integers(50, 151))  # about 100 tokens a document
        code = ("en", "ko", "ja", "de", "th")[len(lines) % 5]
        lines.append(json.dumps({"id": f"{code}-{len(lines):07d}", "lang": code,
                                 "score": round(float(gen.uniform(0, 5)), 3),
                                 "tokens": gen.integers(0, 250_000, n).tolist()}))
        total += n
    write_lines(f, lines)
    tracemalloc.start()
    try:
        docs = list(ingest(f))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, docs)) == total
    assert held / total <= 16, f"{held / total:.1f} B per token"


def test_writing_holds_one_block_not_the_corpus(tmp_path):
    gen = np.random.Generator(np.random.Philox(key=np.array([19, 0], dtype=np.uint64)))
    corpora = []
    for total in (50_000, 200_000):
        docs, n = [], 0
        while n < total:
            tokens = gen.integers(0, 250_000, int(gen.integers(50, 151)))
            docs.append(Document(f"d{len(docs)}", LanguageTag("ko"), tokens, 2.5))
            n += len(tokens)
        corpora.append(docs)
    added = []
    tracemalloc.start()
    try:
        for docs in corpora:
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            write_records(docs, tmp_path / "out.jsonl")
            added.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    # the text of the whole corpus would be about 7 B per token
    assert added[1] <= 1.25 * added[0], f"{added[0]} B, then {added[1]} B for 4x the tokens"


# one line of a record file: a valid record, one of every line error
# `ingest` knows, or a line near a plain token array, which `ingest` reads as
# text (valid or not); "dup" repeats the id of the last valid record
_NEAR_PLAIN = [
    "[01]", "[0]", "[1,,2]", "[,1]", "[1,]", "[1 ,2]", "[1e3]", "[-0]", "[+1]",
    "[1,  2]", "[1,\t2]", "[ 1]", "[1 2]", "[1, 02]", "[00]",
    f"[{10**18 - 1}]", f"[{10**18}]", f"[5,{2**63 - 1}]", f"[{2**63}]", f"[{10**19 + 7}]",
    f"[{'9' * 4301}]",
]
_BAD_LINES = [
    '{"id": "x", "lang"', "[1, 2]", '"text"', '{"lang":"en","tokens":[1]}',
    '{"id":"","lang":"en","tokens":[1]}', '{"id":7,"lang":"en","tokens":[1]}',
    '{"id":"x","tokens":[1]}', '{"id":"x","lang":"","tokens":[1]}',
    '{"id":"x","lang":"EN","tokens":[1]}', '{"id":"x","lang":"en","class":"prose","tokens":[1]}',
    '{"id":"x","lang":"en","class":["english"],"tokens":[1]}', '{"id":"x","lang":"en"}',
    '{"id":"x","lang":"en","tokens":"1 2"}', '{"id":"x","lang":"en","tokens":{"a":1}}',
    '{"id":"x","lang":"en","tokens":[]}', '{"id":"x","lang":"en","tokens":[1,2.0]}',
    '{"id":"x","lang":"en","tokens":[true]}', '{"id":"x","lang":"en","tokens":[3,-1]}',
    f'{{"id":"x","lang":"en","tokens":[{2**63}]}}', f'{{"id":"x","lang":"en","tokens":[1,{2**64}]}}',
    f'{{"id":"x","lang":"en","tokens":[{-2**63 - 1}]}}', '{"id":"x","lang":"en","tokens":[1],"score":"4"}',
    '{"id":"x","lang":"en","tokens":[1],"score":true}', '{"id":"x","lang":"en","tokens":[1],"score":5.5}',
    '{"id":"x","lang":"en","tokens":[1],"score":-1}', '{"id":"x","lang":"en","tokens":[-4],"score":9}',
    '{"id":"x","lang":"en","tokens":[1],"score":1e400}', "", "   ", "\u3000",
    '{"id":"x","lang":"en","tokens":[1],"score":1' + "0" * 400 + "}",
    '{"id":"x","lang":"en","tokens":[1],"score":-1' + "0" * 400 + "}",
    '{"id":"x","lang":"en","tokens":[1],"score":1' + "0" * 5000 + "}",
    *(f'{{"id":"x","lang":"en","tokens":{ids}}}' for ids in _NEAR_PLAIN),
    *(f'{{"id": "x", "lang": "en", "tokens": {ids.replace(",", ", ")}}}' for ids in _NEAR_PLAIN),
    '{"id":"x","lang":"en","m":{"tokens":[1]},"tokens":[2]}',
    '{"id":"x","lang":"en","m":{"tokens":[1]}}', '{"id":"x","lang":"en","m":[{"tokens":[1]}]}',
    '{"id":"x","lang":"en","tokens":[1],"tokens":[2]}',
    '{"id":"x","lang":"en","tokens":[],"tokens":[3]}', '{"id":"x","lang":"en","tokens":[3],"tokens":[]}',
    '{"id":"x","lang":"en","tok\\u0065ns":[4],"tokens":[3]}',
    '{"id":"x","lang":"en","tokens":[3],"tok\\u0065ns":[]}',
    '{"id":"x","lang":"en","tokens" :[1]}', '{"id":"x","lang":"en","tokens":  [1]}',
    '{"id":"tokens","lang":"en","tokens":[1]}', '{"id":"x","lang":"tokens"}',
    '{"id":"x","lang":"en","tokens":[1]}\r', '{"id":"x","lang":"en","tokens":[1, 2]}\r',
    '{"id":"x","lang":"en","tokens":[1]', '{"id":"x","lang":"en","tokens":[1]}}',
    '{"id":"x","lang":"en","tokens":[1]} x', '{"id":"x","lang":"en","tokens":[1], "score":"high"}',
    '{"id":"x","lang":"en","tokens":[1,2],"score":6}', '{"id":"x","lang":"en","tokens":[1]}\u3000',
    '{"id":"x","lang":"en","tokens":[1]}\x00',
]
_VALID_RECORD = st.fixed_dictionaries(
    {"lang": st.sampled_from(["en", "ko", "ja"]),
     "tokens": st.lists(st.one_of(st.integers(0, 300),
                                  st.sampled_from([0, 10**18 - 1, 10**18, _BIG])),
                        min_size=1, max_size=12)},
    optional={"class": st.sampled_from(["english", "multilingual", "math_code"]),
              "score": st.one_of(st.integers(0, 5), st.floats(0, 5))})
# written as `filter` writes records, or as `json.dumps` does by default
_SPELLINGS = {"compact": (",", ":"), "default": None}
# a valid record twice as often as each other kind of line
_LINE = st.one_of(*2 * [st.tuples(_VALID_RECORD, st.sampled_from(sorted(_SPELLINGS)))],
                  st.sampled_from(_BAD_LINES), st.just("dup"))


def _record_file(lines, bom):
    out, last_id = [], None
    for i, line in enumerate(lines):
        if isinstance(line, tuple):
            last_id = f"d{i}"
            line = json.dumps({"id": last_id, **line[0]}, separators=_SPELLINGS[line[1]])
        elif line == "dup":
            line = json.dumps({"id": last_id or "d", "lang": "ko", "tokens": [i]})
        else:  # a line of its own: the near-misses that are valid records are kept
            line = line.replace('"id":"x"', f'"id":"x{i}"').replace('"id": "x"', f'"id": "x{i}"')
        out.append(line)
    return (b"\xef\xbb\xbf" if bom else b"") + "\n".join(out).encode("utf-8") + b"\n"


def _one_record_at_a_time(data):
    """What `ingest` yields, records and raises for ``data``, parsed one
    record at a time and parsed by ``json.loads``: each document with the
    number of line errors recorded when it is yielded, the line errors and
    the fatal error."""
    docs, errors, seen = [], [], set()
    for line_no, raw in numbered_lines(io.BytesIO(data)):
        try:
            record = _parse_with_json_loads(raw)
            if record is None:
                continue
            doc = Document(*_record_fields(record))
        except DataError as exc:
            errors.append((line_no, str(exc)))
            continue
        if doc.id in seen:
            return docs, errors, f"line {line_no}: duplicate document id {doc.id!r}"
        seen.add(doc.id)
        docs.append((doc, len(errors)))
    return docs, errors, None


def _ingested(path):
    docs, report, fatal = [], IngestReport(), None
    try:
        for doc in ingest(path, report=report):
            docs.append((doc, len(report.errors)))
    except DataError as exc:
        fatal = str(exc)
    return docs, [(e.line_no, e.message) for e in report.errors], fatal


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=40), st.booleans(), st.sampled_from([1, 3, 16, 8192]))
def test_block_ingest_matches_one_record_at_a_time(tmp_path_factory, lines, bom, block_ids):
    f = tmp_path_factory.mktemp("blocks") / "corpus.jsonl"
    data = _record_file(lines, bom)
    f.write_bytes(data)
    with mock.patch.object(corpus, "INGEST_BLOCK_IDS", block_ids):
        got = _ingested(f)
    assert got == _one_record_at_a_time(data)
    assert all(ids(d) for d, _ in got[0])


def test_a_record_longer_than_a_block_is_a_block_of_its_own(tmp_path):
    gen = np.random.Generator(np.random.Philox(key=np.array([23, 0], dtype=np.uint64)))
    n = corpus.INGEST_BLOCK_IDS
    lengths = [3, n - 5, 2 * n + 1, 4, n, 1, n + 1]
    lines = [json.dumps({"id": f"d{i}", "lang": "en", "tokens": gen.integers(0, 99, k).tolist()})
             for i, k in enumerate(lengths)]
    lines[3:3] = ['{"id":"bad","lang":"en","tokens":[1,-1]}', "{"]
    f = tmp_path / "corpus.jsonl"
    write_lines(f, lines)
    docs, errors, fatal = _ingested(f)
    assert (docs, errors, fatal) == _one_record_at_a_time(f.read_bytes())
    assert [len(ids(d)) for d, _ in docs] == lengths and fatal is None
    assert errors == [(4, "document 'bad' has negative token id -1"),
                      (5, "not valid JSON: Expecting property name enclosed in double quotes")]
    # the long record's ids are an array of their own, not a view of a neighbour's
    long = docs[2][0].tokens
    assert long.base is None or long.base.size == 2 * n + 1


@pytest.mark.parametrize("spelling", sorted(_SPELLINGS))
def test_plain_token_arrays_reach_the_json_decoder_emptied(tmp_path, spelling):
    """Every line of a file of plain token arrays is read as text: no id
    reaches the JSON decoder, so none becomes a Python int."""
    gen = np.random.Generator(np.random.Philox(key=np.array([29, 0], dtype=np.uint64)))
    records = []
    for i in range(300):
        n = corpus.INGEST_BLOCK_IDS + 3 if i == 150 else int(gen.integers(1, 120))
        record = {"id": f"d{i}", "lang": ("en", "ko", "ja")[i % 3],
                  "tokens": gen.integers(0, 10**18, n).tolist()}
        record["tokens"][0] = (0, 7, 10**18 - 1)[i % 3]
        if i % 4:
            record["score"] = round(float(gen.uniform(0, 5)), 2)
        if i % 5 == 0:
            record["class"] = "math_code"
        records.append(record)
    f = tmp_path / "corpus.jsonl"
    write_lines(f, [json.dumps(r, separators=_SPELLINGS[spelling]) for r in records])
    decoded = []
    real = corpus._raw_decode

    def spy(text):
        decoded.append(text)
        return real(text)

    report = IngestReport()
    with mock.patch.object(corpus, "_raw_decode", spy):
        docs = list(ingest(f, report=report))
    assert [ids(d) for d in docs] == [r["tokens"] for r in records] and report.errors == []
    assert [(d.id, d.lang.lang_class, d.score) for d in docs] == [
        (r["id"], r.get("class", corpus.default_language_class(r["lang"])), r.get("score"))
        for r in records]
    assert len(decoded) == len(records)
    assert all(json.loads(text)["tokens"] == [] for text in decoded)
