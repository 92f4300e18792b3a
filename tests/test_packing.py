import bisect
import contextlib
import hashlib
import itertools
import os
import struct
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlda_kit import model as toy
from xlda_kit import packing
from xlda_kit.cli import dispatch
from xlda_kit.corpus import Document, LanguageTag, stats as corpus_stats
from xlda_kit.errors import ConfigError, ConstraintInfeasibleError, DataError, XldaKitError
from xlda_kit.packing import (
    DROP_TAIL_DOC,
    IGNORE_LABEL,
    PackedSequence,
    PackReport,
    PackerConfig,
    make_labels,
    pack_stream,
    read_packed,
    write_packed,
)
from xlda_kit.masks import spans_from_lengths
from xlda_kit.sampling import CategoricalDraw, SamplerConfig, language_distribution

EN = LanguageTag("en", "english")
KO = LanguageTag("ko", "multilingual")


def doc(doc_id, lang, tokens):
    return Document(doc_id, lang, tuple(tokens))


def sampler(rho=0.0, seed=0, beta=None):
    return SamplerConfig(
        alpha_temp=1.0,
        beta=beta or {"en": 0.5, "ko": 0.5},
        rho=rho,
        seed=seed,
    )


def token_multiset(seqs):
    bag = Counter()
    for s in seqs:
        bag.update(int(t) for t in s.tokens[: s.pad_start])
    return bag


def check_labels(seq):
    for t in range(seq.seq_len):
        ntp = int(seq.labels[t])
        if ntp != IGNORE_LABEL:
            assert t + 1 < seq.seq_len and ntp == int(seq.tokens[t + 1])
        if t >= seq.pad_start:
            assert ntp == IGNORE_LABEL


def test_hand_enumerated_split_example():
    # docs of lengths [3, 4, 2] into seq_len 5 with one language and splits:
    # greedy fill gives [3 | 2-of-4] and [2-of-4 | 2], 9 tokens conserved
    docs = [
        doc("a", EN, [1, 2, 3]),
        doc("b", EN, [4, 5, 6, 7]),
        doc("c", EN, [8, 9]),
    ]
    config = PackerConfig(seq_len=8)
    # seq_len minimum is 8; emulate the hand example at seq_len 8:
    # [a(3), b(4), c(1)] then [c(1)]
    report = PackReport()
    seqs = list(pack_stream(docs, sampler(beta={"en": 1.0}), config, report=report))
    assert report.tokens_packed == 9
    assert token_multiset(seqs) == Counter([1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert seqs[0].pad_start == 8
    assert seqs[1].pad_start == 1
    # spans tile exactly
    for s in seqs:
        assert s.spans[0].start == 0
        assert s.spans[-1].end == s.pad_start
    # the split document keeps its fragment order: its first piece closes
    # the first window and the rest opens the next
    pieces = [(i, sp.start, sp.end) for i, s in enumerate(seqs) for sp in s.spans
              if sp.doc_id == "c"]
    assert pieces == [(0, 7, 8), (1, 0, 1)]
    assert [int(seqs[i].tokens[start]) for i, start, _ in pieces] == [8, 9]


def test_exact_fit_single_doc():
    d = doc("a", EN, range(1, 9))
    config = PackerConfig(seq_len=8)
    seqs = list(pack_stream([d], sampler(beta={"en": 1.0}), config))
    assert len(seqs) == 1
    assert seqs[0].pad_start == 8
    assert len(seqs[0].spans) == 1
    assert seqs[0].spans[0].end == 8


def test_rho_one_every_sequence_cross_lingual():
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 0], dtype=np.uint64)))
    docs = []
    for i in range(60):
        docs.append(doc(f"e{i}", EN, gen.integers(1, 90, int(gen.integers(1, 7)))))
        docs.append(doc(f"k{i}", KO, gen.integers(1, 90, int(gen.integers(1, 7)))))
    config = PackerConfig(seq_len=16)
    seqs = list(pack_stream(docs, sampler(rho=1.0, seed=5), config))
    assert seqs
    for s in seqs:
        assert len({sp.lang.code for sp in s.spans}) >= 2


def test_rho_one_single_language_is_constraint_error():
    docs = [doc(f"e{i}", EN, [1, 2, 3]) for i in range(10)]
    with pytest.raises(ConstraintInfeasibleError, match="cross-lingual"):
        list(pack_stream(docs, sampler(rho=1.0, beta={"en": 1.0}),
                         PackerConfig(seq_len=8)))


@pytest.mark.parametrize("tail, reason", [
    # the second window holds one English document, then material runs out
    ([2], "material ran out with only 'en' available"),
    # a second English document can only follow the first one
    ([2, 2], "only 'en' still has documents"),
    # an English document filling the whole window would close it unilingual
    ([10], "only 'en' still has documents"),
], ids=["ran-out", "draw", "close"])
def test_rho_one_stop_reasons_conserve_tokens(tail, reason):
    # the first window is exactly one 4-token document per language
    docs = [doc("e0", EN, [1] * 4), doc("k0", KO, [2] * 4)]
    docs += [doc(f"e{i + 1}", EN, [3] * n) for i, n in enumerate(tail)]
    report = PackReport()
    seqs = list(pack_stream(docs, sampler(rho=1.0), PackerConfig(seq_len=8), report=report))
    assert len(seqs) == report.sequences == 1
    assert report.stopped_early
    assert report.stop_reason == f"cross-lingual constraint infeasible: {reason}"
    total = sum(len(d.tokens) for d in docs)
    assert report.tokens_packed + report.tokens_dropped + report.tokens_unconsumed == total
    assert report.tokens_unconsumed == sum(tail)


def test_empty_input_is_empty_stream():
    assert list(pack_stream([], sampler(), PackerConfig(seq_len=8))) == []


@pytest.mark.parametrize("beta, message", [
    ({"en": 1.0}, r"languages in stats missing from beta: \['ko'\]"),
    ({"en": 0.5, "ko": 0.25, "ja": 0.25}, r"languages in beta missing from stats: \['ja'\]"),
], ids=["beta-misses-a-language", "beta-names-another-language"])
def test_beta_not_naming_the_corpus_languages_is_config_error(beta, message):
    docs = [doc("e0", EN, [1, 2, 3]), doc("k0", KO, [4, 5])]
    with pytest.raises(ConfigError, match=message):
        list(pack_stream(docs, sampler(beta=beta), PackerConfig(seq_len=8)))


def test_conservation_random_corpora_split_policy():
    gen = np.random.Generator(np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
    for trial in range(40):
        docs = []
        for i in range(int(gen.integers(4, 40))):
            lang = (EN, KO)[int(gen.integers(0, 2))]
            toks = gen.integers(1, 1000, int(gen.integers(1, 30)))
            docs.append(doc(f"t{trial}-d{i}", lang, toks))
        total = sum(len(d.tokens) for d in docs)
        report = PackReport()
        config = PackerConfig(seq_len=int(gen.integers(8, 33)))
        # a beta over the languages this trial drew; at alpha 1 it leaves
        # the size-proportional shares as they are
        langs = sorted({d.lang.code for d in docs})
        beta = dict.fromkeys(langs, 1.0 / len(langs))
        seqs = list(pack_stream(docs, sampler(seed=trial, beta=beta), config, report=report))
        assert report.tokens_dropped == 0
        assert report.tokens_packed + report.tokens_unconsumed == total
        expected = Counter()
        consumed = total - report.tokens_unconsumed
        got = token_multiset(seqs)
        assert sum(got.values()) == consumed
        # with rho=0 nothing stops early, so everything is consumed
        assert report.tokens_unconsumed == 0
        for d in docs:
            expected.update(int(t) for t in d.tokens)
        assert got == expected
        for s in seqs:
            check_labels(s)


def test_drop_tail_policy_counts_dropped():
    docs = [doc("a", EN, range(1, 21))]  # 20 tokens into seq_len 8
    report = PackReport()
    config = PackerConfig(seq_len=8, split_policy=DROP_TAIL_DOC)
    seqs = list(pack_stream(docs, sampler(beta={"en": 1.0}), config, report=report))
    assert len(seqs) == 1
    assert seqs[0].pad_start == 8
    assert report.tokens_packed == 8
    assert report.tokens_dropped == 12
    assert report.tokens_packed + report.tokens_dropped == 20


def test_deterministic_across_runs():
    gen = np.random.Generator(np.random.Philox(key=np.array([2, 0], dtype=np.uint64)))
    docs = []
    for i in range(40):
        lang = (EN, KO)[int(gen.integers(0, 2))]
        docs.append(doc(f"d{i}", lang, gen.integers(1, 50, int(gen.integers(1, 9)))))
    config = PackerConfig(seq_len=16)
    a = list(pack_stream(docs, sampler(rho=0.5, seed=11), config))
    b = list(pack_stream(docs, sampler(rho=0.5, seed=11), config))
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert (sa.tokens == sb.tokens).all()
        assert sa.spans == sb.spans
    c = list(pack_stream(docs, sampler(rho=0.5, seed=12), config))
    assert any(
        (sa.tokens != sc.tokens).any() for sa, sc in zip(a, c)
    ) or len(a) != len(c)


def test_make_labels_single_span():
    tokens = np.array([10, 11, 12, 13, 0, 0, 0, 0], dtype=np.uint32)
    spans = spans_from_lengths([4], ["en"])
    ntp = make_labels(tokens, spans, pad_start=4)
    ign = IGNORE_LABEL
    assert ntp.tolist() == [11, 12, 13, ign, ign, ign, ign, ign]
    assert toy._mtp_labels(ntp[None])[0].tolist() == [12, 13, ign, ign, ign, ign, ign, ign]


def test_make_labels_boundary_masking():
    tokens = np.array([1, 2, 3, 4, 0, 0, 0, 0], dtype=np.uint32)
    spans = spans_from_lengths([2, 2], ["en", "ko"])
    ntp = make_labels(tokens, spans, pad_start=4)
    ign = IGNORE_LABEL
    assert ntp.tolist() == [2, ign, 4, ign, ign, ign, ign, ign]
    assert toy._mtp_labels(ntp[None])[0].tolist() == [ign] * 8


def test_make_labels_cross_doc():
    tokens = np.array([1, 2, 3, 4, 0, 0, 0, 0], dtype=np.uint32)
    spans = spans_from_lengths([2, 2], ["en", "ko"])
    ntp = make_labels(tokens, spans, pad_start=4, cross_doc_labels=True)
    ign = IGNORE_LABEL
    assert ntp.tolist() == [2, 3, 4, ign, ign, ign, ign, ign]
    assert toy._mtp_labels(ntp[None])[0].tolist() == [3, 4, ign, ign, ign, ign, ign, ign]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mtp_targets_are_the_tokens_two_ahead_inside_a_span(data):
    """The MTP track the loss builds from the next-token labels holds
    tokens[t + 2] where t and t + 2 lie in one span (anywhere below
    pad_start under cross_doc_labels), and IGNORE_LABEL everywhere else."""
    lengths = data.draw(st.lists(st.integers(1, 6), max_size=6), label="lengths")
    pad_start = sum(lengths)
    seq_len = pad_start + data.draw(st.integers(0, 39 - pad_start), label="pad")
    spans = spans_from_lengths(lengths, ["en"] * len(lengths))
    cross_doc = data.draw(st.booleans(), label="cross_doc_labels")
    tokens = np.array(data.draw(st.lists(st.integers(0, IGNORE_LABEL - 1),
                                         min_size=seq_len, max_size=seq_len)),
                      dtype=np.uint32)
    span_of = {t: i for i, s in enumerate(spans) for t in range(s.start, s.end)}
    want = [int(tokens[t + 2]) if t + 2 < pad_start
            and (cross_doc or span_of[t] == span_of[t + 2]) else IGNORE_LABEL
            for t in range(seq_len)]
    labels = make_labels(tokens, spans, pad_start, cross_doc)
    assert toy._mtp_labels(labels[None])[0].tolist() == want


def test_packed_file_roundtrip(tmp_path):
    gen = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    docs = []
    for i in range(30):
        lang = (EN, KO)[int(gen.integers(0, 2))]
        docs.append(doc(f"d{i}", lang, gen.integers(1, 200, int(gen.integers(1, 9)))))
    config = PackerConfig(seq_len=16)
    seqs = list(pack_stream(docs, sampler(seed=4), config))
    path = tmp_path / "batch.xlda"
    write_packed(path, seqs, config)
    back, back_config = read_packed(path)
    assert back_config == config
    assert list(tmp_path.iterdir()) == [path]  # no sidecar
    assert len(back) == len(seqs)
    for orig, loaded in zip(seqs, back):
        assert (orig.tokens == loaded.tokens).all()
        assert (orig.labels == loaded.labels).all()
        assert orig.pad_start == loaded.pad_start
        assert [
            (s.start, s.end, s.lang.code) for s in orig.spans
        ] == [(s.start, s.end, s.lang.code) for s in loaded.spans]


def test_packed_file_bytes_identical_across_writes(tmp_path):
    gen = np.random.Generator(np.random.Philox(key=np.array([4, 0], dtype=np.uint64)))
    docs = []
    for i in range(50):
        lang = (EN, KO)[int(gen.integers(0, 2))]
        docs.append(doc(f"d{i}", lang, gen.integers(1, 200, int(gen.integers(1, 9)))))
    config = PackerConfig(seq_len=16)
    seqs = list(pack_stream(docs, sampler(seed=4), config))
    p1 = tmp_path / "one.xlda"
    p2 = tmp_path / "two.xlda"
    write_packed(p1, seqs, config)
    write_packed(p2, list(pack_stream(docs, sampler(seed=4), config)), config)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("bad", [IGNORE_LABEL, 2**32, 2**70, 2**33 - 1, 2**32 + 7])
def test_token_id_outside_uint32_or_ignore_label_is_data_error(bad):
    # 2**33 - 1 and 2**32 + 7 would wrap to the ignore label and to 7 in a
    # uint32 window; 2**70 does not fit the document's int64 buffer
    message = ("has token id 4294967295, which is reserved" if bad == IGNORE_LABEL
               else "outside [0, 2**63)" if bad >= 2**63 else "outside [0, 2**32)")
    with pytest.raises(DataError) as exc:
        docs = [doc("e0", EN, [1, 2, 3]), doc("k0", KO, [4, bad, 6])]
        list(pack_stream(docs, sampler(), PackerConfig(seq_len=8)))
    assert str(exc.value).startswith("document 'k0' ") and message in str(exc.value)


WIDE = 2**32 + 7  # a uint32 window would hold it as 7


# (docs, rho, windows made before the error, the error or None), at seq_len 8;
# beta puts all of its mass on en, so en is drawn while it has material and
# ko only when a flagged sequence needs it
@pytest.mark.parametrize("docs, rho, windows, error", [
    pytest.param([("e0", EN, [1, WIDE, 3]), ("e1", EN, [4, 5])], 0.0, 0,
                 "document 'e0' has a token id outside [0, 2**32)", id="first-fragment"),
    pytest.param([("e0", EN, [1, 2, 3]), ("e1", EN, [4, 5, WIDE])], 0.0, 0,
                 "document 'e1' has a token id outside [0, 2**32)", id="later-fragment"),
    # window 0 takes e1's first two ids, window 1 starts with the rest
    pytest.param([("e0", EN, [1] * 6), ("e1", EN, [2, 3, 4, WIDE, 5])], 0.0, 1,
                 "document 'e1' has a token id outside [0, 2**32)", id="carried-fragment"),
    # window 1 holds e2 alone when ko has run out, so the flag abandons it:
    # once with en material left, once at the end of all material
    pytest.param([("e0", EN, [1, 2, 3]), ("k0", KO, [4, 5]), ("e1", EN, [6, 7, 8]),
                  ("e2", EN, [9, WIDE]), ("e3", EN, [10])], 1.0, 1,
                 "document 'e2' has a token id outside [0, 2**32)", id="abandoned-window"),
    pytest.param([("e0", EN, [1, 2, 3]), ("k0", KO, [4, 5]), ("e1", EN, [6, 7, 8]),
                  ("e2", EN, [9, WIDE])], 1.0, 1,
                 "document 'e2' has a token id outside [0, 2**32)", id="abandoned-last-window"),
    # the width error comes first, wherever the reserved id is in the window
    pytest.param([("e0", EN, [1, IGNORE_LABEL]), ("e1", EN, [WIDE, 2])], 0.0, 0,
                 "document 'e1' has a token id outside [0, 2**32)", id="reserved-then-wide"),
    pytest.param([("e0", EN, [WIDE, 1]), ("e1", EN, [IGNORE_LABEL, 2])], 0.0, 0,
                 "document 'e0' has a token id outside [0, 2**32)", id="wide-then-reserved"),
    pytest.param([("e0", EN, [1, 2]), ("e1", EN, [3, IGNORE_LABEL])], 0.0, 0,
                 f"document 'e1' has token id {IGNORE_LABEL}, which is reserved as the "
                 "ignore label", id="reserved-alone"),
])
@pytest.mark.parametrize("policy", [packing.SPLIT_ACROSS_SEQUENCES, DROP_TAIL_DOC])
def test_an_id_the_window_cannot_hold_is_an_error_naming_its_document(
        docs, rho, windows, error, policy):
    if policy == DROP_TAIL_DOC and windows == 1 and rho == 0.0:
        # e1's tail, with the wide id, is dropped instead of carried
        error = None
    beta = {"en": 1.0, "ko": 0.0} if rho else {"en": 1.0}
    made = []
    with pytest.raises(DataError) if error else contextlib.nullcontext() as exc:
        for seq in pack_stream([doc(*d) for d in docs], sampler(rho=rho, beta=beta),
                               PackerConfig(seq_len=8, split_policy=policy)):
            made.append(seq)
    assert len(made) == windows
    if error:
        assert str(exc.value) == error
    else:
        assert made[0].tokens.tolist() == [1] * 6 + [2, 3]


def test_largest_non_reserved_token_id_packs():
    docs = [doc("e0", EN, [1, IGNORE_LABEL - 1, 3])]
    [seq] = pack_stream(docs, sampler(beta={"en": 1.0}), PackerConfig(seq_len=8))
    assert seq.labels[0] == IGNORE_LABEL - 1


# --- packed format v3: layout and hardening ---------------------------------


def header_bytes(version, seq_len, count, cross_doc, langs):
    """The header and language table, which v2 and v3 share."""
    out = b"XLDA" + struct.pack("<IIQBH", version, seq_len, count, cross_doc, len(langs))
    for code, lang_class in langs:
        out += bytes([len(code)]) + code.encode() + bytes([len(lang_class)])
        out += lang_class.encode()
    return out


def v3_bytes(records, seq_len=8, langs=(("en", "english"),), cross_doc=0,
             count=None, version=3, span_counts=None):
    """A packed-batch file built by hand from the documented v3 layout.

    ``records`` holds (tokens, pad_start, spans) with spans as
    (start, end, lang_idx, doc_hash); ``span_counts`` replaces the stored
    span counts, which default to the records' own.
    """
    out = header_bytes(version, seq_len, len(records) if count is None else count,
                       cross_doc, langs)
    if span_counts is None:
        span_counts = [len(spans) for _, _, spans in records]
    out += struct.pack(f"<{len(records)}I", *(pad_start for _, pad_start, _ in records))
    out += struct.pack(f"<{len(records)}I", *span_counts)
    for tokens, _, _ in records:
        out += struct.pack(f"<{seq_len}I", *tokens)
    for _, _, spans in records:
        for start, end, lang, doc_hash in spans:
            out += struct.pack("<IIHQ", start, end, lang, doc_hash)
    return out


def v2_bytes(records, seq_len=8, langs=(("en", "english"),), cross_doc=0, count=None):
    """A file in the retired v2 layout: the v3 header, then one framed record
    at a time (tokens, pad_start u32, span count u32, its spans)."""
    out = header_bytes(2, seq_len, len(records) if count is None else count,
                       cross_doc, langs)
    for tokens, pad_start, spans in records:
        out += struct.pack(f"<{seq_len}I", *tokens)
        out += struct.pack("<II", pad_start, len(spans))
        for start, end, lang, doc_hash in spans:
            out += struct.pack("<IIHQ", start, end, lang, doc_hash)
    return out


GOOD = ([1, 2, 3, 4, 5, 0, 0, 0], 5, [(0, 3, 0, 7), (3, 5, 0, 9)])


def test_writer_matches_documented_v3_layout(tmp_path):
    docs = [doc("a", EN, [1, 2, 3]), doc("b", KO, [4, 5])]
    config = PackerConfig(seq_len=8, cross_doc_labels=True)
    seqs = list(pack_stream(docs, sampler(seed=1), config))
    path = tmp_path / "batch.xlda"
    write_packed(path, seqs, config)
    index = {"en": 0, "ko": 1}

    def doc_hash(doc_id):
        return int.from_bytes(hashlib.blake2b(doc_id.encode(), digest_size=8).digest(), "little")

    records = [
        ([int(t) for t in s.tokens], s.pad_start,
         [(sp.start, sp.end, index[sp.lang.code], doc_hash(sp.doc_id)) for sp in s.spans])
        for s in seqs
    ]
    expected = v3_bytes(records, langs=(("en", "english"), ("ko", "multilingual")),
                        cross_doc=1)
    assert path.read_bytes() == expected


def test_hand_built_v3_file_loads(tmp_path):
    path = tmp_path / "ok.xlda"
    path.write_bytes(v3_bytes([GOOD]))
    [seq], config = read_packed(path)
    assert config.seq_len == 8 and not config.cross_doc_labels
    assert seq.tokens.tolist() == GOOD[0] and seq.pad_start == 5
    assert [(s.start, s.end, s.lang.code) for s in seq.spans] == [(0, 3, "en"), (3, 5, "en")]
    assert seq.labels.tolist()[:5] == [2, 3, IGNORE_LABEL, 5, IGNORE_LABEL]


def test_ignore_label_at_or_past_pad_start_loads(tmp_path):
    # the reserved id is only checked in [0, pad_start); padding is not read
    tokens = [1, 2, 3, IGNORE_LABEL, IGNORE_LABEL, 0, 0, IGNORE_LABEL]
    path = tmp_path / "ok.xlda"
    path.write_bytes(v3_bytes([GOOD, (tokens, 3, [(0, 3, 0, 0)])]))
    seqs, _ = read_packed(path)
    assert seqs[1].tokens.tolist() == tokens and seqs[1].pad_start == 3
    [seq], _ = read_packed(path, index=1)
    assert seq.tokens.tolist() == tokens


def test_cross_doc_labels_roundtrip(tmp_path):
    docs = [doc(f"d{i}", (EN, KO)[i % 2], range(1 + i, 6 + i)) for i in range(8)]
    config = PackerConfig(seq_len=16, cross_doc_labels=True)
    seqs = list(pack_stream(docs, sampler(seed=2), config))
    path = tmp_path / "cross.xlda"
    write_packed(path, seqs, config)
    back, back_config = read_packed(path)
    assert back_config.cross_doc_labels
    for orig, loaded in zip(seqs, back):
        assert loaded.cross_doc_labels
        assert (orig.labels == loaded.labels).all()


def test_labels_are_read_only():
    [seq] = pack_stream([doc("e0", EN, [1, 2, 3])], sampler(beta={"en": 1.0}),
                        PackerConfig(seq_len=8))
    with pytest.raises(AttributeError):
        seq.labels = seq.labels.copy()
    with pytest.raises(ValueError):
        seq.labels[0] = 7


def test_write_rejects_sequences_that_disagree_with_the_header(tmp_path):
    seqs = list(pack_stream([doc("e0", EN, [1, 2, 3])], sampler(beta={"en": 1.0}),
                            PackerConfig(seq_len=8)))
    with pytest.raises(ConfigError):
        write_packed(tmp_path / "x.xlda", seqs, PackerConfig(seq_len=8, cross_doc_labels=True))
    with pytest.raises(ConfigError):
        write_packed(tmp_path / "x.xlda", seqs, PackerConfig(seq_len=16))


MALFORMED = [
    ("truncated", v3_bytes([GOOD])[:-1], "truncated"),
    ("trailing", v3_bytes([GOOD]) + b"\0", "trailing bytes"),
    ("count_too_large", v3_bytes([GOOD], count=2**60), "truncated"),
    ("pad_start_past_seq_len",
     v3_bytes([([1] * 8, 9, [(0, 9, 0, 0)])]), "pad_start 9 outside"),
    ("span_past_seq_len",
     v3_bytes([([1] * 8, 8, [(0, 4, 0, 0), (4, 12, 0, 0)])]), "spans cover"),
    ("span_gap", v3_bytes([([1] * 8, 5, [(0, 2, 0, 0), (3, 5, 0, 0)])]), "do not tile"),
    ("empty_span", v3_bytes([([1] * 8, 3, [(0, 0, 0, 0), (0, 3, 0, 0)])]), "invalid span"),
    ("span_count_above_seq_len",
     v3_bytes([([1] * 8, 8, [(i, i + 1, 0, 0) for i in range(9)])]), "span count 9"),
    ("unknown_language", v3_bytes([([1] * 8, 3, [(0, 3, 1, 0)])]), "language index 1"),
    ("bad_language_code", v3_bytes([GOOD], langs=(("EN", "english"),)), "language code"),
    ("bad_language_class", v3_bytes([GOOD], langs=(("en", "latin"),)), "language class"),
    ("short_seq_len", v3_bytes([], seq_len=4), "bad header"),
    ("bad_flag", v3_bytes([GOOD], cross_doc=2), "bad header"),
    ("ignore_label_token",
     v3_bytes([([1, IGNORE_LABEL, 3, 0, 0, 0, 0, 0], 3, [(0, 3, 0, 0)])]), "reserved"),
    ("not_xlda", b"PK\x03\x04" + bytes(40), "not a packed-batch file"),
    ("empty", b"", "not a packed-batch file"),
    ("version_2", v3_bytes([GOOD], version=2), r"version 2; only version 3 .*re-pack"),
    ("span_counts_past_end", v3_bytes([GOOD, GOOD], span_counts=[2, 8]), "truncated"),
]


@pytest.mark.parametrize("name, blob, message", MALFORMED, ids=[row[0] for row in MALFORMED])
def test_malformed_v3_file_is_data_error(tmp_path, name, blob, message):
    path = tmp_path / f"{name}.xlda"
    path.write_bytes(blob)
    with pytest.raises(DataError, match=message):
        read_packed(path)
    with pytest.raises(DataError, match=message):
        read_packed(path, index=0)


# the v2 rows of the table above, each with the message the v2 reader gave
@pytest.mark.parametrize("name, blob, message", [
    ("truncated", v2_bytes([GOOD])[:-1], "truncated"),
    ("trailing", v2_bytes([GOOD]) + b"\0", "trailing bytes"),
    ("count_too_large", v2_bytes([GOOD], count=2**60), "truncated"),
    ("pad_start_past_seq_len",
     v2_bytes([([1] * 8, 9, [(0, 9, 0, 0)])]), "pad_start 9 outside"),
    ("span_past_seq_len",
     v2_bytes([([1] * 8, 8, [(0, 4, 0, 0), (4, 12, 0, 0)])]), "spans cover"),
    ("span_gap", v2_bytes([([1] * 8, 5, [(0, 2, 0, 0), (3, 5, 0, 0)])]), "do not tile"),
    ("empty_span", v2_bytes([([1] * 8, 3, [(0, 0, 0, 0), (0, 3, 0, 0)])]), "invalid span"),
    ("span_count_above_seq_len",
     v2_bytes([([1] * 8, 8, [(i, i + 1, 0, 0) for i in range(9)])]), "span count 9"),
    ("unknown_language", v2_bytes([([1] * 8, 3, [(0, 3, 1, 0)])]), "language index 1"),
    ("bad_language_code", v2_bytes([GOOD], langs=(("EN", "english"),)), "language code"),
    ("bad_language_class", v2_bytes([GOOD], langs=(("en", "latin"),)), "language class"),
    ("short_seq_len", v2_bytes([], seq_len=4), "bad header"),
    ("bad_flag", v2_bytes([GOOD], cross_doc=2), "bad header"),
    ("ignore_label_token",
     v2_bytes([([1, IGNORE_LABEL, 3, 0, 0, 0, 0, 0], 3, [(0, 3, 0, 0)])]), "reserved"),
    ("not_xlda", b"PK\x03\x04" + bytes(40), "not a packed-batch file"),
    ("empty", b"", "not a packed-batch file"),
])
def test_malformed_v2_file_is_data_error(tmp_path, name, blob, message):
    # a v2 file, well formed or not, is refused from its header with the
    # re-pack hint; a file that is not XLDA at all keeps its own message
    if blob.startswith(b"XLDA"):
        message = r"version 2; only version 3 .*re-pack"
    path = tmp_path / f"{name}.xlda"
    path.write_bytes(blob)
    with pytest.raises(DataError, match=message):
        read_packed(path)
    with pytest.raises(DataError, match=message):
        read_packed(path, index=0)


@pytest.mark.parametrize("name, bad_record, message", [
    ("bad_tiling", ([1] * 8, 5, [(0, 2, 0, 0), (3, 5, 0, 0)]), "do not tile"),
    ("short_of_pad_start", ([1] * 8, 5, [(0, 3, 0, 0)]), "spans cover"),
    ("unknown_language", ([1] * 8, 3, [(0, 3, 1, 0)]), "language index 1"),
    ("reserved_token", ([1, IGNORE_LABEL, 3, 0, 0, 0, 0, 0], 3, [(0, 3, 0, 0)]), "reserved"),
])
def test_mask_of_a_good_record_rejects_a_file_with_a_corrupt_later_one(
        tmp_path, capsys, name, bad_record, message):
    path = tmp_path / f"{name}.xlda"
    path.write_bytes(v3_bytes([GOOD, GOOD, bad_record]))
    with pytest.raises(DataError, match=message):
        read_packed(path, index=0)
    code = dispatch(["mask", "--policy", "xlda", "--from", str(path), "--index", "0"])
    captured = capsys.readouterr()
    assert code == 2 and message in captured.err and not captured.out


# never /dev/zero or a FIFO: if the check regressed, reading one would
# exhaust memory or block
@pytest.mark.parametrize("kind", ["device", "directory"])
def test_a_path_that_is_not_a_regular_file_is_refused_unread(tmp_path, capsys, kind):
    path = "/dev/null" if kind == "device" else str(tmp_path)
    with pytest.raises(DataError, match="not a regular file"):
        read_packed(path, index=0)
    for argv in (["mask", "--policy", "xlda", "--from", path],
                 ["train-toy", "--packed", path, "--policy", "xlda", "--steps", "1"]):
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == 2 and f"not a regular file: {path}" in captured.err
        assert not captured.out


def _tied_to(*paths):
    """The memory maps and file descriptors of this process on ``paths``."""
    names = {str(Path(p).resolve()) for p in paths}
    maps = [line for line in Path("/proc/self/maps").read_text().splitlines()
            if line.split(maxsplit=5)[5:] and line.split(maxsplit=5)[5] in names]
    fds = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}") in names:
                fds.append(fd)
        except OSError:  # the descriptor listdir itself used
            pass
    return maps, fds


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc")
def test_mapped_read_leaves_nothing_tied_to_the_file(tmp_path):
    path = tmp_path / "batch.xlda"
    blob = v3_bytes([GOOD, GOOD, GOOD])
    path.write_bytes(blob)
    [seq], _ = read_packed(path, index=1)
    expected = seq.tokens.copy()
    path.write_bytes(bytes(len(blob)))
    path.unlink()
    assert np.array_equal(seq.tokens, expected) and seq.tokens.flags.writeable
    path.write_bytes(blob)
    bad = tmp_path / "bad.xlda"
    bad.write_bytes(v3_bytes([GOOD, GOOD, ([1] * 8, 5, [(0, 3, 0, 0)])]))
    for i in range(500):
        read_packed(path, index=i % 3)
        with pytest.raises(DataError, match="spans cover"):
            read_packed(bad, index=0)
    assert _tied_to(path, bad) == ([], [])


def test_version_one_file_is_rejected_with_repack_hint(tmp_path):
    path = tmp_path / "old.xlda"
    # a version 1 header: magic, version, seq_len, count
    path.write_bytes(b"XLDA" + struct.pack("<IIQ", 1, 8, 0))
    with pytest.raises(DataError, match=r"version 1; only version 3 .*re-pack"):
        read_packed(path)


def test_one_record_read_allocates_no_file_sized_array(tmp_path):
    # 256 windows of 4,096 tokens: a 4 MiB token column, which the whole-file
    # check reads but must not copy, not even as a one-byte-per-token mask
    spans = spans_from_lengths([256] * 16, ["en"] * 16)
    tokens = np.arange(256 * 4096, dtype=np.uint32).reshape(256, 4096)
    config = PackerConfig(seq_len=4096)
    path = tmp_path / "big.xlda"
    write_packed(path, [PackedSequence(row, spans, 4096) for row in tokens], config)
    read_packed(path, index=0)  # first-use imports and caches stay out of the count
    tracemalloc.start()
    try:
        [seq], _ = read_packed(path, index=255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(seq.tokens, tokens[255])
    assert peak < tokens.nbytes // 8


def test_file_of_no_sequences_reads_back_empty(tmp_path):
    path = tmp_path / "empty.xlda"
    assert write_packed(path, [], PackerConfig(seq_len=8)) == 0
    assert read_packed(path) == ([], PackerConfig(seq_len=8))
    with pytest.raises(XldaKitError, match=r"sequence index 0 outside \[0, 0\)") as exc:
        read_packed(path, index=0)
    assert not isinstance(exc.value, DataError)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    gen = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    docs = [doc(f"d{i}", (EN, KO)[i % 2], gen.integers(1, 300, int(gen.integers(1, 9))))
            for i in range(12)]
    config = PackerConfig(seq_len=8)
    path = tmp_path_factory.mktemp("fuzz")
    seqs = list(pack_stream(docs, sampler(rho=0.5, seed=3), config))
    assert len(seqs) >= 3
    write_packed(path / "base.xlda", seqs, config)
    return path


def fuzzed_file(fuzz_dir, data):
    """The base file cut at a drawn length, with up to four drawn bit flips."""
    base = (fuzz_dir / "base.xlda").read_bytes()
    blob = bytearray(base[: data.draw(st.integers(0, len(base)), label="keep")])
    for bit in data.draw(st.lists(st.integers(0, 8 * len(base) - 1), max_size=4), label="flips"):
        if bit // 8 < len(blob):
            blob[bit // 8] ^= 1 << (bit % 8)
    path = fuzz_dir / "fuzzed.xlda"
    path.write_bytes(bytes(blob))
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_packed_file_loads_or_raises_data_error(fuzz_dir, data):
    path = fuzzed_file(fuzz_dir, data)
    try:
        seqs, config = read_packed(path)
    except DataError:
        return
    for seq in seqs:
        assert seq.seq_len == config.seq_len


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_packed_file_one_record_read_matches_full_read(fuzz_dir, data):
    path = fuzzed_file(fuzz_dir, data)
    try:
        full, config = read_packed(path)
    except DataError:
        for index in range(len(read_packed(fuzz_dir / "base.xlda")[0])):
            with pytest.raises(DataError):
                read_packed(path, index=index)
        return
    with pytest.raises(XldaKitError, match="outside") as past_end:
        read_packed(path, index=len(full))
    assert not isinstance(past_end.value, DataError)
    for index, want in enumerate(full):
        [seq], one_config = read_packed(path, index=index)
        assert one_config == config
        assert seq.tokens.tolist() == want.tokens.tolist()
        assert seq.spans == want.spans and seq.pad_start == want.pad_start
        assert (seq.labels == want.labels).all()


# --- realised language shares ------------------------------------------------


def test_realised_language_shares_match_distribution():
    """Token shares of the packer's output follow ``language_distribution``.

    Every language has more material than the prefix consumes, so no queue
    runs dry and each document's language is a fresh categorical draw
    (rho = 0: no forced cross-lingual draws). About 5000 documents with
    lengths 1-15 are drawn; the standard error of a share is below 0.008, so
    a tolerance of 0.03 is about four standard errors.
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([8, 0], dtype=np.uint64)))
    codes = {"en": EN, "ko": KO, "sw": LanguageTag("sw", "multilingual")}
    docs = [doc(f"{code}{i}", tag, gen.integers(1, 100, int(gen.integers(1, 16))))
            for code, tag in codes.items() for i in range(6000)]
    cfg = SamplerConfig(alpha_temp=0.3, beta={"en": 0.5, "ko": 0.3, "sw": 0.2}, seed=21)
    dist = language_distribution(cfg, corpus_stats(docs))
    windows = itertools.islice(pack_stream(docs, cfg, PackerConfig(seq_len=64)), 640)
    tokens = Counter()
    for seq in windows:
        for span in seq.spans:
            tokens[span.lang.code] += len(span)
    total = sum(tokens.values())
    assert total == 640 * 64
    for code, p in dist.items():
        assert abs(tokens[code] / total - p) <= 0.03, (code, tokens[code] / total, p)


def test_packer_draws_are_categorical_draws(monkeypatch):
    """Each of the packer's language draws is the code whose running sum of
    the pool's weights in the distribution first exceeds one uniform from
    the window's generator, scaled by the pool's total, for every pool: the
    full one, the ones left as languages run out, and the ones that a
    flagged window's cross-lingual draw narrows."""
    gen = np.random.Generator(np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
    codes = ("de", "en", "ko", "sw")
    docs = [doc(f"{code}{i}", LanguageTag(code), gen.integers(1, 100, int(gen.integers(1, 40))))
            for k, code in enumerate(codes) for i in range(30 * (k + 1))]
    cfg = SamplerConfig(alpha_temp=0.3, beta={"de": 0.1, "en": 0.4, "ko": 0.3, "sw": 0.2},
                        rho=0.7, seed=5)
    dist = language_distribution(cfg, corpus_stats(docs))
    pools = Counter()

    class Checked(CategoricalDraw):
        def __call__(self, pool, gen):
            twin = np.random.Generator(np.random.Philox())
            twin.bit_generator.state = gen.bit_generator.state
            code = super().__call__(pool, gen)
            sums = list(itertools.accumulate(dist[c] for c in pool))
            i = bisect.bisect_right(sums, twin.random() * sums[-1])
            assert code == pool[min(i, len(pool) - 1)]
            pools[tuple(pool)] += 1
            return code
    monkeypatch.setattr(packing, "CategoricalDraw", Checked)
    report = PackReport()
    list(pack_stream(docs, cfg, PackerConfig(seq_len=64), report))
    assert len(pools) >= 8 and sum(pools.values()) >= report.documents_consumed > 250
