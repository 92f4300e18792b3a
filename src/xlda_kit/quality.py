"""Per-language quantile quality filtering.

Retention fractions come in two flavors: the stage presets
(pretrain vs anneal, per language class) and an explicit keep fraction.
Retention keeps the top ``ceil(keep_fraction * n)`` documents by score, so a
run never keeps less than the requested fraction; ties are broken by
ascending document id for determinism.
"""

from __future__ import annotations

import math
from typing import Sequence

from .corpus import Document
from .errors import ConfigError, DataError

STAGES = ("pretrain", "anneal")

# keep fractions per (stage, language class); math_code has no preset
# fraction and passes through unfiltered unless an explicit keep is given
_PRESETS = {
    ("pretrain", "english"): 0.80,
    ("pretrain", "multilingual"): 0.50,
    ("pretrain", "math_code"): 1.00,
    ("anneal", "english"): 0.20,
    ("anneal", "multilingual"): 0.10,
    ("anneal", "math_code"): 1.00,
}


def stage_preset(stage: str, lang_class: str) -> float:
    """Preset keep fraction for a (stage, language class) pair."""
    try:
        return _PRESETS[(stage, lang_class)]
    except KeyError:
        raise ConfigError(
            f"no filter preset for stage={stage!r}, class={lang_class!r}; "
            f"stages are {STAGES}"
        ) from None


def quantile_filter(
    docs: Sequence[Document], keep_fraction: float
) -> list[Document]:
    """Retain the top ``ceil(keep_fraction * n)`` documents by score.

    Every retained score is >= every dropped score; ties at the cut are
    resolved by ascending id. Retained documents come back in their original
    input order.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise ConfigError(f"keep_fraction must be in (0, 1]: {keep_fraction}")
    docs = list(docs)
    unscored = [d.id for d in docs if d.score is None]
    if unscored:
        raise DataError(f"unscored documents: {', '.join(sorted(unscored))}")
    n = len(docs)
    if n == 0:
        return []
    k = math.ceil(keep_fraction * n)
    ranked = sorted(docs, key=lambda d: (-d.score, d.id))
    keep_ids = {d.id for d in ranked[:k]}
    return [d for d in docs if d.id in keep_ids]

