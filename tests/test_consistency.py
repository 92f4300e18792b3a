import numpy as np
import pytest

from xlda_kit.consistency import (
    PredictionPair,
    consistency_metrics,
    format_report,
    read_pairs,
)
from xlda_kit.errors import DataError


def pairs_from_bools(rows):
    return [PredictionPair(f"q{i}", s, t) for i, (s, t) in enumerate(rows)]


def test_all_true_degenerate():
    report = consistency_metrics(pairs_from_bools([(True, True)] * 5))
    assert report.src_t_to_tgt_t == 1.0
    assert report.src_f_to_tgt_t is None
    assert report.tgt_f_to_src_t is None


def test_worked_example():
    # src correct {1,2,3}, tgt correct {1,2,4} out of 4 items
    rows = [(True, True), (True, True), (True, False), (False, True)]
    report = consistency_metrics(pairs_from_bools(rows))
    assert report.src_t_to_tgt_t == pytest.approx(2 / 3)
    assert report.src_f_to_tgt_t == 1.0
    assert report.tgt_f_to_src_t == 1.0


def test_empty_is_error():
    with pytest.raises(DataError):
        consistency_metrics([])


def test_duplicate_item_id_is_error():
    with pytest.raises(DataError, match="duplicate"):
        consistency_metrics([PredictionPair("a", True, True),
                             PredictionPair("a", False, True)])


def brute_force(rows):
    """Independent enumeration of the conditionals."""
    src_t = [t for s, t in rows if s]
    src_f = [t for s, t in rows if not s]
    tgt_f_src = [s for s, t in rows if not t]
    def rate(xs):
        return sum(xs) / len(xs) if xs else None
    return rate(src_t), rate(src_f), rate(tgt_f_src)


def test_matches_brute_force_randomized():
    gen = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    for _ in range(2000):
        n = int(gen.integers(1, 60))
        rows = [(bool(gen.integers(0, 2)), bool(gen.integers(0, 2))) for _ in range(n)]
        report = consistency_metrics(pairs_from_bools(rows))
        tt, ft, tf = brute_force(rows)
        assert report.src_t_to_tgt_t == tt
        assert report.src_f_to_tgt_t == ft
        assert report.tgt_f_to_src_t == tf
        # law of total probability against the target-language accuracy
        if report.src_t_to_tgt_t is not None and report.src_f_to_tgt_t is not None:
            p_src = report.src_accuracy
            lhs = report.src_t_to_tgt_t * p_src + report.src_f_to_tgt_t * (1 - p_src)
            assert abs(lhs - report.tgt_accuracy) <= 1e-12
        for rate in (report.src_t_to_tgt_t, report.src_f_to_tgt_t, report.tgt_f_to_src_t):
            if rate is not None:
                assert 0.0 <= rate <= 1.0


def test_swapping_columns_swaps_direction():
    gen = np.random.Generator(np.random.Philox(key=np.array([4, 0], dtype=np.uint64)))
    rows = [(bool(gen.integers(0, 2)), bool(gen.integers(0, 2))) for _ in range(50)]
    fwd = consistency_metrics(pairs_from_bools(rows))
    rev = consistency_metrics(pairs_from_bools([(t, s) for s, t in rows]))
    # src(T)->tgt(T) in one direction is tgt(T)->src(T) in the other
    def cond(num, den):
        return num / den if den else None
    assert rev.src_t_to_tgt_t == cond(fwd.n_tt, fwd.n_tt + fwd.n_ft)
    assert rev.tgt_f_to_src_t == fwd.src_f_to_tgt_t
    assert rev.n_tf == fwd.n_ft


def test_read_pairs_and_format(tmp_path):
    f = tmp_path / "pairs.jsonl"
    f.write_text(
        '{"item_id":"a","src_correct":true,"tgt_correct":false}\n'
        '{"item_id":"b","src_correct":1,"tgt_correct":0}\n',
        encoding="utf-8",
    )
    pairs = read_pairs(f)
    assert pairs[0] == PredictionPair("a", True, False)
    assert pairs[1] == PredictionPair("b", True, False)
    text = format_report(consistency_metrics(pairs))
    assert "src(T)->tgt(T)" in text and "tgt(F)->src(T)" in text


def test_read_pairs_rejects_single_language_items(tmp_path):
    f = tmp_path / "pairs.jsonl"
    f.write_text('{"item_id":"a","src_correct":true}\n', encoding="utf-8")
    with pytest.raises(DataError, match="both languages"):
        read_pairs(f)
    f.write_text('{"item_id":"a","src_correct":true,"tgt_correct":null}\n',
                 encoding="utf-8")
    with pytest.raises(DataError):
        read_pairs(f)


@pytest.mark.parametrize("src, tgt", [("1.0", "0.0"), ("1.0", "true"), ("false", "0.0")])
def test_read_pairs_rejects_float_flags(tmp_path, src, tgt):
    f = tmp_path / "pairs.jsonl"
    f.write_text(f'{{"item_id":"a","src_correct":{src},"tgt_correct":{tgt}}}\n',
                 encoding="utf-8")
    key = "src_correct" if src == "1.0" else "tgt_correct"
    with pytest.raises(DataError, match=f"line 1: {key} must be a boolean"):
        read_pairs(f)


def test_read_pairs_skips_a_leading_byte_order_mark(tmp_path):
    f = tmp_path / "pairs.jsonl"
    first = b'{"item_id":"a","src_correct":true,"tgt_correct":false}\n'
    second = b'{"item_id":"b","src_correct":false,"tgt_correct":true}\n'
    f.write_bytes(b"\xef\xbb\xbf" + first + second)
    assert read_pairs(f) == [PredictionPair("a", True, False),
                             PredictionPair("b", False, True)]
    f.write_bytes(first + b"\xef\xbb\xbf" + second)
    with pytest.raises(DataError, match="line 2: not valid JSON"):
        read_pairs(f)
