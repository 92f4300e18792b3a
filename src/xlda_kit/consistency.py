"""Cross-lingual prediction-consistency metrics over parallel eval records.

Input is per-item correctness in a source and a target language. The three
headline conditionals are

    src(T) -> tgt(T) = #{src correct and tgt correct} / #{src correct}
    src(F) -> tgt(T) = #{src wrong  and tgt correct} / #{src wrong}
    tgt(F) -> src(T) = #{tgt wrong  and src correct} / #{tgt wrong}

A conditional with an empty conditioning set is reported as undefined (None),
never as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import input_file, numbered_lines, parse_json_object
from .errors import DataError


@dataclass(frozen=True)
class PredictionPair:
    item_id: str
    src_correct: bool
    tgt_correct: bool


@dataclass(frozen=True)
class ConsistencyReport:
    n_items: int
    n_tt: int  # src correct, tgt correct
    n_tf: int  # src correct, tgt wrong
    n_ft: int  # src wrong,  tgt correct
    n_ff: int
    src_accuracy: float
    tgt_accuracy: float
    src_t_to_tgt_t: float | None
    src_f_to_tgt_t: float | None
    tgt_f_to_src_t: float | None
    src_t_to_tgt_f: float | None
    src_f_to_tgt_f: float | None

    def to_json(self) -> dict:
        return {
            "n_items": self.n_items,
            "counts": {"tt": self.n_tt, "tf": self.n_tf, "ft": self.n_ft, "ff": self.n_ff},
            "src_accuracy": self.src_accuracy,
            "tgt_accuracy": self.tgt_accuracy,
            "src_t_to_tgt_t": self.src_t_to_tgt_t,
            "tgt_f_to_src_t": self.tgt_f_to_src_t,
            "src_f_to_tgt_t": self.src_f_to_tgt_t,
            "src_t_to_tgt_f": self.src_t_to_tgt_f,
            "src_f_to_tgt_f": self.src_f_to_tgt_f,
        }


def _rate(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def consistency_metrics(pairs: Sequence[PredictionPair]) -> ConsistencyReport:
    """Joint counts, marginal accuracies, and conditional transfer rates."""
    if not pairs:
        raise DataError("no prediction pairs given")
    seen: set[str] = set()
    n_tt = n_tf = n_ft = n_ff = 0
    for pair in pairs:
        if pair.item_id in seen:
            raise DataError(f"duplicate item id {pair.item_id!r}")
        seen.add(pair.item_id)
        if pair.src_correct and pair.tgt_correct:
            n_tt += 1
        elif pair.src_correct:
            n_tf += 1
        elif pair.tgt_correct:
            n_ft += 1
        else:
            n_ff += 1
    n = len(pairs)
    n_src_t = n_tt + n_tf
    n_src_f = n_ft + n_ff
    n_tgt_f = n_tf + n_ff
    return ConsistencyReport(
        n_items=n,
        n_tt=n_tt,
        n_tf=n_tf,
        n_ft=n_ft,
        n_ff=n_ff,
        src_accuracy=n_src_t / n,
        tgt_accuracy=(n_tt + n_ft) / n,
        src_t_to_tgt_t=_rate(n_tt, n_src_t),
        src_f_to_tgt_t=_rate(n_ft, n_src_f),
        tgt_f_to_src_t=_rate(n_tf, n_tgt_f),
        src_t_to_tgt_f=_rate(n_tf, n_src_t),
        src_f_to_tgt_f=_rate(n_ff, n_src_f),
    )


def read_pairs(path: str | Path) -> list[PredictionPair]:
    """Parse a line-delimited {item_id, src_correct, tgt_correct} file.

    Items answered in only one language (missing or null fields) are
    rejected at parse time.
    """
    pairs = []
    with input_file(path).open("rb") as fh:
        for line_no, raw in numbered_lines(fh):
            try:
                record = parse_json_object(raw)
                if record is not None:
                    pairs.append(_parse_pair(record))
            except DataError as exc:
                raise DataError(f"line {line_no}: {exc}") from None
    return pairs


def _parse_pair(record: dict) -> PredictionPair:
    item_id = record.get("item_id")
    if not isinstance(item_id, str) or not item_id:
        raise DataError("missing or empty item_id")
    src, tgt = (record.get(key) for key in ("src_correct", "tgt_correct"))
    for key, v in (("src_correct", src), ("tgt_correct", tgt)):
        # true, false, 1 or 0; 1.0 == 1, so a JSON float needs a type check
        if type(v) not in (bool, int) or v not in (0, 1):
            raise DataError(f"{key} must be a boolean (item answered in both languages "
                            "is required)")
    return PredictionPair(item_id, bool(src), bool(tgt))


def format_report(report: ConsistencyReport) -> str:
    """Text rendering with the conditional columns in the conventional order."""

    def fmt(rate: float | None) -> str:
        return "undefined" if rate is None else f"{100.0 * rate:.2f}%"

    lines = [
        f"items: {report.n_items}",
        f"src accuracy: {fmt(report.src_accuracy)}   tgt accuracy: {fmt(report.tgt_accuracy)}",
        f"counts: TT={report.n_tt} TF={report.n_tf} FT={report.n_ft} FF={report.n_ff}",
        f"src(T)->tgt(T): {fmt(report.src_t_to_tgt_t)}",
        f"tgt(F)->src(T): {fmt(report.tgt_f_to_src_t)}",
        f"src(F)->tgt(T): {fmt(report.src_f_to_tgt_t)}",
    ]
    return "\n".join(lines)
