from collections import Counter

import numpy as np
import pytest

from xlda_kit.corpus import Document, LanguageTag
from xlda_kit.errors import ConstraintInfeasibleError, DataError
from xlda_kit.packing import (
    DROP_TAIL_DOC,
    IGNORE_LABEL,
    PackReport,
    PackerConfig,
    make_labels,
    pack_stream,
    read_packed,
    sidecar_path,
    write_packed,
)
from xlda_kit.masks import spans_from_lengths
from xlda_kit.sampling import SamplerConfig

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
        ntp = int(seq.ntp_labels[t])
        mtp = int(seq.mtp_labels[t])
        if ntp != IGNORE_LABEL:
            assert t + 1 < seq.seq_len and ntp == int(seq.tokens[t + 1])
        if mtp != IGNORE_LABEL:
            assert t + 2 < seq.seq_len and mtp == int(seq.tokens[t + 2])
        if t >= seq.pad_start:
            assert ntp == IGNORE_LABEL and mtp == IGNORE_LABEL


def test_hand_enumerated_split_example():
    # docs of lengths [3, 4, 2] into seq_len 5 with one language and splits:
    # greedy fill gives [3 | 2-of-4] and [2-of-4 | 2], 9 tokens conserved
    docs = [
        doc("a", EN, [1, 2, 3]),
        doc("b", EN, [4, 5, 6, 7]),
        doc("c", EN, [8, 9]),
    ]
    config = PackerConfig(seq_len=8, pad_token=0)
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
    # the split document keeps its fragment order
    pieces = [
        (sp.doc_id, sp.piece_index) for s in seqs for sp in s.spans if sp.doc_id == "c"
    ]
    assert pieces == [("c", 0), ("c", 1)]


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


def test_empty_input_is_empty_stream():
    assert list(pack_stream([], sampler(), PackerConfig(seq_len=8))) == []


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
        seqs = list(pack_stream(docs, sampler(seed=trial), config, report=report))
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
    config = PackerConfig(seq_len=8)
    tokens = np.array([10, 11, 12, 13, 0, 0, 0, 0], dtype=np.uint32)
    spans = spans_from_lengths([4], ["en"])
    ntp, mtp = make_labels(tokens, spans, config, pad_start=4)
    ign = IGNORE_LABEL
    assert ntp.tolist() == [11, 12, 13, ign, ign, ign, ign, ign]
    assert mtp.tolist() == [12, 13, ign, ign, ign, ign, ign, ign]


def test_make_labels_boundary_masking():
    config = PackerConfig(seq_len=8)
    tokens = np.array([1, 2, 3, 4, 0, 0, 0, 0], dtype=np.uint32)
    spans = spans_from_lengths([2, 2], ["en", "ko"])
    ntp, mtp = make_labels(tokens, spans, config, pad_start=4)
    ign = IGNORE_LABEL
    assert ntp.tolist() == [2, ign, 4, ign, ign, ign, ign, ign]
    assert mtp.tolist() == [ign] * 8


def test_make_labels_cross_doc():
    config = PackerConfig(seq_len=8, cross_doc_labels=True)
    tokens = np.array([1, 2, 3, 4, 0, 0, 0, 0], dtype=np.uint32)
    spans = spans_from_lengths([2, 2], ["en", "ko"])
    ntp, mtp = make_labels(tokens, spans, config, pad_start=4)
    ign = IGNORE_LABEL
    assert ntp.tolist() == [2, 3, 4, ign, ign, ign, ign, ign]
    assert mtp.tolist() == [3, 4, ign, ign, ign, ign, ign, ign]


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
    assert sidecar_path(path).exists()
    back, back_config = read_packed(path)
    assert back_config.seq_len == 16
    assert len(back) == len(seqs)
    for orig, loaded in zip(seqs, back):
        assert (orig.tokens == loaded.tokens).all()
        assert (orig.ntp_labels == loaded.ntp_labels).all()
        assert (orig.mtp_labels == loaded.mtp_labels).all()
        assert orig.pad_start == loaded.pad_start
        assert [
            (s.start, s.end, s.lang.code) for s in orig.spans
        ] == [(s.start, s.end, s.lang.code) for s in loaded.spans]


def test_packed_file_thread_count_does_not_change_bytes(tmp_path):
    gen = np.random.Generator(np.random.Philox(key=np.array([4, 0], dtype=np.uint64)))
    docs = []
    for i in range(50):
        lang = (EN, KO)[int(gen.integers(0, 2))]
        docs.append(doc(f"d{i}", lang, gen.integers(1, 200, int(gen.integers(1, 9)))))
    config = PackerConfig(seq_len=16)
    seqs = list(pack_stream(docs, sampler(seed=4), config))
    p1 = tmp_path / "one.xlda"
    p8 = tmp_path / "eight.xlda"
    write_packed(p1, seqs, config, threads=1)
    write_packed(p8, seqs, config, threads=8)
    assert p1.read_bytes() == p8.read_bytes()
    assert sidecar_path(p1).read_text() == sidecar_path(p8).read_text()


@pytest.mark.parametrize("bad", [IGNORE_LABEL, 2**32, 2**70])
def test_token_id_outside_uint32_or_ignore_label_is_data_error(bad):
    docs = [doc("e0", EN, [1, 2, 3]), doc("k0", KO, [4, bad, 6])]
    with pytest.raises(DataError, match="'k0'"):
        list(pack_stream(docs, sampler(), PackerConfig(seq_len=8)))


def test_largest_non_reserved_token_id_packs():
    docs = [doc("e0", EN, [1, IGNORE_LABEL - 1, 3])]
    [seq] = pack_stream(docs, sampler(beta={"en": 1.0}), PackerConfig(seq_len=8))
    assert seq.ntp_labels[0] == IGNORE_LABEL - 1
