import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xlda_kit.errors import ConfigError, DataError
from xlda_kit.masks import (
    MaskPolicy,
    MaskSpec,
    allowed_block,
    allowed_pair_count,
    is_allowed,
    materialize_dense,
    segment_ids,
    spans_from_lengths,
)

POLICIES = list(MaskPolicy)


def spec_for(lengths, codes, policy, pad_start=None, seq_len=None):
    spans = spans_from_lengths(lengths, codes)
    covered = sum(lengths)
    return MaskSpec(
        policy=policy,
        spans=spans,
        pad_start=covered if pad_start is None else pad_start,
        seq_len=covered if seq_len is None else seq_len,
    )


def brute_force_dense(spec):
    """Independent per-cell construction from position-level doc/lang ids."""
    doc, lang = segment_ids(spec)
    out = np.zeros((spec.seq_len, spec.seq_len), dtype=bool)
    for q in range(spec.seq_len):
        for k in range(spec.seq_len):
            if k > q or q >= spec.pad_start or k >= spec.pad_start:
                continue
            if spec.policy is MaskPolicy.XLDA_FULL_CAUSAL:
                out[q, k] = True
            elif spec.policy is MaskPolicy.INTRA_DOCUMENT_CAUSAL:
                out[q, k] = doc[q] == doc[k]
            else:
                out[q, k] = (doc[q] == doc[k]) or (lang[q] != lang[k])
    return out


def test_causality_always():
    spec = spec_for([3, 3], ["en", "ko"], MaskPolicy.XLDA_FULL_CAUSAL)
    for q in range(6):
        for k in range(q + 1, 6):
            assert not is_allowed(spec, q, k)


def test_cross_document_cell_two_documents():
    # en in [0..3), ko in [3..6): the cross-document cell (4, 1)
    xlda = spec_for([3, 3], ["en", "ko"], MaskPolicy.XLDA_FULL_CAUSAL)
    intra = spec_for([3, 3], ["en", "ko"], MaskPolicy.INTRA_DOCUMENT_CAUSAL)
    assert is_allowed(xlda, 4, 1)
    assert not is_allowed(intra, 4, 1)


def test_single_document_policies_agree():
    specs = [spec_for([6], ["en"], p) for p in POLICIES]
    for q in range(6):
        for k in range(6):
            values = {is_allowed(s, q, k) for s in specs}
            assert len(values) == 1


def test_bridge_blocks_same_language_neighbors():
    bridge = spec_for([2, 2, 2], ["en", "en", "ko"], MaskPolicy.CROSS_LINGUAL_BRIDGE)
    assert not is_allowed(bridge, 2, 1)  # en doc 1 -> en doc 0
    assert is_allowed(bridge, 4, 1)  # ko -> en
    assert is_allowed(bridge, 5, 4)  # within own doc


def test_out_of_range_position_is_error():
    spec = spec_for([4], ["en"], MaskPolicy.XLDA_FULL_CAUSAL)
    with pytest.raises(DataError):
        is_allowed(spec, 4, 0)
    with pytest.raises(DataError):
        is_allowed(spec, 0, -1)


def test_dense_counts_closed_forms():
    xlda = spec_for([3, 3], ["en", "ko"], MaskPolicy.XLDA_FULL_CAUSAL)
    assert materialize_dense(xlda, 6).sum() == 21  # 6*7/2
    intra = spec_for([3, 3], ["en", "ko"], MaskPolicy.INTRA_DOCUMENT_CAUSAL)
    assert materialize_dense(intra, 6).sum() == 12  # two 3x3 lower triangles
    assert allowed_pair_count(xlda) == 21
    assert allowed_pair_count(intra) == 12


def pair_count_by_span_pairs(spec):
    """The span-pair double loop: each span's triangle, plus n_i * n_j for
    every earlier span j whose document the policy lets span i reach."""
    total = 0
    for i, si in enumerate(spec.spans):
        total += len(si) * (len(si) + 1) // 2
        if spec.policy is MaskPolicy.INTRA_DOCUMENT_CAUSAL:
            continue
        for sj in spec.spans[:i]:
            if spec.policy is MaskPolicy.XLDA_FULL_CAUSAL or si.lang.code != sj.lang.code:
                total += len(si) * len(sj)
    return total


@pytest.mark.parametrize("lengths, codes, pad_start, seq_len", [
    ([], [], 0, 8),  # no spans: all padding
    ([5, 2, 7], ["en", "en", "en"], None, None),  # one language
    ([3, 1, 4, 2], ["en", "ko", "ja", "sw"], None, None),  # all distinct
    ([2, 3, 1, 4, 2], ["en", "ko", "en", "ja", "ko"], None, None),  # repeats, not adjacent
    ([4, 3, 2], ["ko", "en", "ko"], 9, 16),  # padding
])
def test_closed_form_pair_count_edge_cases(lengths, codes, pad_start, seq_len):
    counts = {}
    for policy in POLICIES:
        spec = spec_for(lengths, codes, policy, pad_start, seq_len)
        counts[policy] = allowed_pair_count(spec)
        assert counts[policy] == int(materialize_dense(spec, spec.seq_len).sum())
        assert counts[policy] == pair_count_by_span_pairs(spec)
    bridge = counts[MaskPolicy.CROSS_LINGUAL_BRIDGE]
    if len(set(codes)) == 1:
        assert bridge == counts[MaskPolicy.INTRA_DOCUMENT_CAUSAL]
    if len(set(codes)) == len(codes):
        assert bridge == counts[MaskPolicy.XLDA_FULL_CAUSAL]


def test_padding_rows_and_cols_fully_false():
    spec = spec_for([2, 2], ["en", "ko"], MaskPolicy.XLDA_FULL_CAUSAL,
                    pad_start=4, seq_len=6)
    dense = materialize_dense(spec, 6)
    assert not dense[4:, :].any()
    assert not dense[:, 4:].any()
    for q in range(6):
        for k in (4, 5):
            assert not is_allowed(spec, q, k)


def test_dense_cap_guard():
    spec = spec_for([2], ["en"], MaskPolicy.XLDA_FULL_CAUSAL,
                    pad_start=2, seq_len=10_000)
    with pytest.raises(ConfigError):
        materialize_dense(spec, 10_000)


def test_seq_len_mismatch_is_error():
    spec = spec_for([4], ["en"], MaskPolicy.XLDA_FULL_CAUSAL)
    with pytest.raises(DataError):
        materialize_dense(spec, 8)


def compositions(n):
    """All ordered document segmentations of a window of length n."""
    if n == 0:
        yield []
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield [first] + rest


def test_exhaustive_oracle_small_lengths():
    """Every segmentation of L <= 9, two language patterns, all policies:
    span form, dense form, brute force, and the pair count all agree."""
    for L in range(1, 10):
        for lengths in compositions(L):
            n_docs = len(lengths)
            patterns = [
                [("en", "ko")[i % 2] for i in range(n_docs)],
                [("en", "ko")[(i // 2) % 2] for i in range(n_docs)],
            ]
            for codes in patterns:
                for policy in POLICIES:
                    spec = spec_for(lengths, codes, policy)
                    dense = materialize_dense(spec, L)
                    brute = brute_force_dense(spec)
                    assert (dense == brute).all()
                    span_view = np.array(
                        [[is_allowed(spec, q, k) for k in range(L)] for q in range(L)]
                    )
                    assert (span_view == brute).all()
                    assert allowed_pair_count(spec) == int(brute.sum())


def random_spec(gen, policy, max_len=512):
    L = int(gen.integers(2, max_len + 1))
    pad = int(gen.integers(1, L + 1))
    lengths = []
    left = pad
    while left > 0:
        n = int(gen.integers(1, left + 1))
        lengths.append(n)
        left -= n
    codes = [("en", "ko", "ja")[int(gen.integers(0, 3))] for _ in lengths]
    spans = spans_from_lengths(lengths, codes)
    return MaskSpec(policy=policy, spans=spans, pad_start=pad, seq_len=L)


def test_policy_monotonicity_random_specs():
    gen = np.random.Generator(np.random.Philox(key=np.array([21, 0], dtype=np.uint64)))
    for _ in range(300):
        base = random_spec(gen, MaskPolicy.XLDA_FULL_CAUSAL, max_len=96)
        by_policy = {
            p: materialize_dense(
                MaskSpec(p, base.spans, base.pad_start, base.seq_len), base.seq_len
            )
            for p in POLICIES
        }
        intra = by_policy[MaskPolicy.INTRA_DOCUMENT_CAUSAL]
        bridge = by_policy[MaskPolicy.CROSS_LINGUAL_BRIDGE]
        xlda = by_policy[MaskPolicy.XLDA_FULL_CAUSAL]
        assert not (intra & ~bridge).any()
        assert not (bridge & ~xlda).any()


def test_three_routes_agree_on_random_specs_up_to_64():
    gen = np.random.Generator(np.random.Philox(key=np.array([22, 0], dtype=np.uint64)))
    for _ in range(200):
        for policy in POLICIES:
            spec = random_spec(gen, policy, max_len=64)
            dense = materialize_dense(spec, spec.seq_len)
            brute = brute_force_dense(spec)
            assert (dense == brute).all()
            assert allowed_pair_count(spec) == int(brute.sum())


@st.composite
def mixed_batch_blocks(draw, max_len=24):
    """1-4 specs of one length, each with its own policy, padding and
    languages, and a block of query rows and key columns of that window."""
    seq_len = draw(st.integers(1, max_len))
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        pad_start = draw(st.integers(0, seq_len))
        lengths = []
        while sum(lengths) < pad_start:
            lengths.append(draw(st.integers(1, pad_start - sum(lengths))))
        codes = [draw(st.sampled_from(["en", "ko", "ja"])) for _ in lengths]
        specs.append(MaskSpec(draw(st.sampled_from(POLICIES)),
                              spans_from_lengths(lengths, codes), pad_start, seq_len))
    qs, qe = sorted(draw(st.lists(st.integers(0, seq_len), min_size=2, max_size=2)))
    ks, ke = sorted(draw(st.lists(st.integers(0, seq_len), min_size=2, max_size=2)))
    return specs, (qs, qe, ks, ke)


@settings(max_examples=300, deadline=None)
@given(batch=mixed_batch_blocks())
def test_batched_allowed_block_matches_is_allowed(batch):
    """Over a batch whose rows mix policies, every cell of the block is
    ``is_allowed`` under that row's spec, and each row is the block of its
    spec alone."""
    specs, (qs, qe, ks, ke) = batch
    block = allowed_block(specs, qs, qe, ks, ke)
    assert block.shape == (len(specs), qe - qs, ke - ks) and block.dtype == bool
    for spec, rows in zip(specs, block):
        want = [[is_allowed(spec, q, k) for k in range(ks, ke)] for q in range(qs, qe)]
        assert rows.tolist() == want
        assert (allowed_block(spec, qs, qe, ks, ke) == rows).all()


def test_policy_parse():
    assert MaskPolicy.parse("xlda") is MaskPolicy.XLDA_FULL_CAUSAL
    assert MaskPolicy.parse("intra") is MaskPolicy.INTRA_DOCUMENT_CAUSAL
    assert MaskPolicy.parse("bridge") is MaskPolicy.CROSS_LINGUAL_BRIDGE
    assert MaskPolicy.parse("cross_lingual_bridge") is MaskPolicy.CROSS_LINGUAL_BRIDGE
    with pytest.raises(ConfigError):
        MaskPolicy.parse("full")


def test_spans_must_tile():
    spans = spans_from_lengths([2, 2], ["en", "ko"])
    with pytest.raises(DataError):
        MaskSpec(MaskPolicy.XLDA_FULL_CAUSAL, spans, pad_start=5, seq_len=6)
    with pytest.raises(DataError):
        MaskSpec(MaskPolicy.XLDA_FULL_CAUSAL, spans[1:], pad_start=4, seq_len=6)
