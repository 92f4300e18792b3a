import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xlda_kit.corpus import Document, LanguageTag
from xlda_kit.errors import ConfigError, DataError
from xlda_kit.quality import quantile_filter, stage_preset

EN = LanguageTag("en", "english")


def docs_from_scores(scores, ids=None):
    ids = ids or [f"d{i}" for i in range(len(scores))]
    return [Document(i, EN, (1,), score=s) for i, s in zip(ids, scores)]


def sort_and_cut_oracle(docs, keep_fraction):
    """Independent reference: stable sort by (-score, id), cut at ceil(f*n)."""
    k = math.ceil(keep_fraction * len(docs))
    ranked = sorted(docs, key=lambda d: (-d.score, d.id))
    return {d.id for d in ranked[:k]}


def test_stage_presets_reference_fractions():
    assert stage_preset("pretrain", "english") == 0.80
    assert stage_preset("pretrain", "multilingual") == 0.50
    assert stage_preset("anneal", "english") == 0.20
    assert stage_preset("anneal", "multilingual") == 0.10


def test_stage_preset_unknown_is_error():
    with pytest.raises(ConfigError):
        stage_preset("warmup", "english")
    with pytest.raises(ConfigError):
        stage_preset("pretrain", "klingon")


def test_quantile_filter_basic():
    docs = docs_from_scores([5, 4, 3, 2, 1])
    kept = quantile_filter(docs, 0.5)
    assert {d.score for d in kept} == {5, 4, 3}


def test_quantile_filter_keep_all_is_identity_in_order():
    docs = docs_from_scores([2, 5, 1, 3])
    assert quantile_filter(docs, 1.0) == docs


def test_quantile_filter_ties_break_by_ascending_id():
    docs = docs_from_scores([3.0] * 10, ids=[f"id{i:02d}" for i in range(10)])
    kept = quantile_filter(docs, 0.4)
    assert [d.id for d in kept] == ["id00", "id01", "id02", "id03"]


def test_quantile_filter_unscored_error_lists_ids():
    docs = [Document("ok", EN, (1,), score=1.0), Document("bad", EN, (1,))]
    with pytest.raises(DataError, match="bad"):
        quantile_filter(docs, 0.5)


def test_quantile_filter_matches_oracle_randomized():
    gen = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    for _ in range(300):
        n = int(gen.integers(1, 40))
        scores = np.round(gen.uniform(0, 5, n), 1)
        keep = float(gen.uniform(0.05, 1.0))
        docs = docs_from_scores(list(scores))
        kept = quantile_filter(docs, keep)
        assert {d.id for d in kept} == sort_and_cut_oracle(docs, keep)
        assert len(kept) == math.ceil(keep * n)
        dropped = [d for d in docs if d not in kept]
        if kept and dropped:
            assert min(d.score for d in kept) >= max(d.score for d in dropped)


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.floats(min_value=0, max_value=5, allow_nan=False), min_size=1, max_size=50),
    keep=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)
def test_quantile_filter_properties(scores, keep):
    docs = docs_from_scores(scores)
    kept = quantile_filter(docs, keep)
    assert len(kept) == math.ceil(keep * len(docs))
    # filtering the retained set with keep 1.0 is the identity
    assert quantile_filter(kept, 1.0) == kept

