"""Language-level sampling distribution and the cross-lingual constraint.

The sampling probability for a language interpolates between its
size-proportional share and a configured upsampling factor:

    P(l) = alpha * |D_l| / sum_j |D_j| + (1 - alpha) * beta_l

with temperature ``alpha`` in [0, 1]. ``beta`` must itself be a distribution
so that P is one; with none given it is uniform over the corpus languages.
``normalized`` turns ratios into shares: that uniform ``beta``, and the
rescaled token shares of ``plan --upsample``. The mixing probability ``rho``
is interpreted per sequence: with probability rho a packed sequence is
constrained to contain at least two languages (enforcement lives in the
packer).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .corpus import CorpusStats
from .errors import ConfigError, DataError

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SamplerConfig:
    alpha_temp: float
    beta: Mapping[str, float] | None = None  # None: a uniform share per corpus language
    rho: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.alpha_temp <= 1.0):
            raise ConfigError(f"alpha_temp must be in [0, 1]: {self.alpha_temp}")
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError(f"rho must be in [0, 1]: {self.rho}")
        if self.beta is None:
            return
        if not self.beta:
            raise ConfigError("beta must name at least one language")
        for code, b in self.beta.items():
            if b < 0:
                raise ConfigError(f"beta[{code!r}] is negative: {b}")
        total = float(sum(self.beta.values()))
        if abs(total - 1.0) > _SUM_TOL:
            raise ConfigError(f"beta must sum to 1 within {_SUM_TOL}, got {total!r}")


def normalized(ratios: Mapping[str, float]) -> dict[str, float]:
    """Shares proportional to ``ratios`` (e.g. {"en": 8.5, "ko": 1, "other":
    0.5}), keyed in sorted code order; the rounding residue goes to the first
    largest share, so they sum to one exactly."""
    total = float(sum(ratios.values()))
    if not 0.0 < total < math.inf:
        raise ConfigError(f"ratios must have a positive finite total, got {total!r}")
    shares = {code: r / total for code, r in sorted(ratios.items())}
    for code, s in shares.items():
        if s < 0:
            raise ConfigError(f"share[{code!r}] is negative: {s}")
    largest = max(shares, key=shares.__getitem__)
    shares[largest] += 1.0 - sum(shares.values())
    return shares


def language_distribution(
    config: SamplerConfig, stats: CorpusStats
) -> dict[str, float]:
    """Per-language sampling probabilities, keyed in sorted language order."""
    langs = stats.languages()
    if not langs or stats.total_tokens == 0:
        raise DataError("empty corpus: no tokens to sample from")
    beta = normalized(dict.fromkeys(langs, 1.0)) if config.beta is None else config.beta
    missing = [l for l in langs if l not in beta]
    if missing:
        raise ConfigError(f"languages in stats missing from beta: {missing}")
    extra = [l for l in sorted(beta) if l not in stats.per_language]
    if extra:
        raise ConfigError(f"languages in beta missing from stats: {extra}")
    total = stats.total_tokens
    alpha = config.alpha_temp
    dist = {
        code: alpha * (stats.per_language[code].tokens / total)
        + (1.0 - alpha) * float(beta[code])
        for code in langs
    }
    if not abs(sum(dist.values()) - 1.0) <= _SUM_TOL:
        raise ConfigError(f"sampling distribution sums to {sum(dist.values())!r}, not 1")
    return dist


class CategoricalDraw:
    """Categorical draws over pools of ``dist``'s codes, renormalized to each
    pool; uniform over a pool with no mass.

    A draw takes one uniform from ``gen``, scales it by the pool's total
    weight and locates it among the running sums of its weights: the first
    code whose sum exceeds it. Each pool's sums are built on its first draw."""

    def __init__(self, dist: Mapping[str, float]):
        self.dist = dist
        self._sums: dict[tuple[str, ...], tuple[list[float], float]] = {}

    def __call__(self, pool: Sequence[str], gen: np.random.Generator) -> str:
        key = tuple(pool)
        table = self._sums.get(key)
        if table is None:
            weights = [max(0.0, float(self.dist.get(code, 0.0))) for code in key]
            total = sum(weights)
            if total <= 0.0:
                weights = [1.0] * len(key)
                total = float(len(key))
            table = self._sums[key] = (list(itertools.accumulate(weights)), total)
        sums, total = table
        i = bisect.bisect_right(sums, float(gen.random()) * total)
        return key[i] if i < len(key) else key[-1]


def constraint_flag(config: SamplerConfig, index: int, flags: rng.Stream) -> bool:
    """Whether sequence ``index`` must be cross-lingual: Bernoulli(rho), drawn
    from its own stream, ``flags.at(index)`` of the caller's
    ``rng.Stream(config.seed, rng.STREAM_FLAGS)``. A uniform lies in [0, 1),
    so rho 0 and rho 1 settle the flag without one."""
    if config.rho in (0.0, 1.0):
        return config.rho == 1.0
    return bool(flags.at(index).random() < config.rho)
