"""Language-level sampling distribution and the cross-lingual constraint.

The sampling probability for a language interpolates between its
size-proportional share and a configured upsampling factor:

    P(l) = alpha * |D_l| / sum_j |D_j| + (1 - alpha) * beta_l

with temperature ``alpha`` in [0, 1]. ``beta`` must itself be a distribution
so that P is one. The mixing probability ``rho`` is interpreted per sequence:
with probability rho a packed sequence is constrained to contain at least two
languages (enforcement lives in the packer).
"""

from __future__ import annotations

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
    beta: Mapping[str, float]
    rho: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.alpha_temp <= 1.0):
            raise ConfigError(f"alpha_temp must be in [0, 1]: {self.alpha_temp}")
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError(f"rho must be in [0, 1]: {self.rho}")
        if not self.beta:
            raise ConfigError("beta must name at least one language")
        for code, b in self.beta.items():
            if b < 0:
                raise ConfigError(f"beta[{code!r}] is negative: {b}")
        total = float(sum(self.beta.values()))
        if abs(total - 1.0) > _SUM_TOL:
            raise ConfigError(f"beta must sum to 1 within {_SUM_TOL}, got {total!r}")


@dataclass(frozen=True)
class MixturePlan:
    """Per-language target token shares, summing to one."""

    shares: Mapping[str, float]

    def __post_init__(self):
        for code, s in self.shares.items():
            if s < 0:
                raise ConfigError(f"share[{code!r}] is negative: {s}")
        total = float(sum(self.shares.values()))
        if abs(total - 1.0) > _SUM_TOL:
            raise ConfigError(f"shares must sum to 1 within {_SUM_TOL}, got {total!r}")

    @classmethod
    def from_ratios(cls, ratios: Mapping[str, float]) -> "MixturePlan":
        """Normalize a ratio spec like {"en": 8.5, "ko": 1, "other": 0.5}."""
        total = float(sum(ratios.values()))
        if total <= 0:
            raise ConfigError("ratios must have positive total")
        raw = {code: r / total for code, r in sorted(ratios.items())}
        # force exact unit sum despite rounding
        largest = max(raw, key=lambda c: raw[c])
        raw[largest] += 1.0 - sum(raw.values())
        return cls(shares=raw)

    def upsample(self, factors: Mapping[str, float]) -> "MixturePlan":
        """Scale selected languages' shares (e.g. 3x multilingual volume for
        the annealing stage) and renormalize."""
        for code in factors:
            if code not in self.shares:
                raise ConfigError(f"unknown language in upsample factors: {code!r}")
        scaled = {
            code: share * float(factors.get(code, 1.0))
            for code, share in self.shares.items()
        }
        return MixturePlan.from_ratios(scaled)


def language_distribution(
    config: SamplerConfig, stats: CorpusStats
) -> dict[str, float]:
    """Per-language sampling probabilities, keyed in sorted language order."""
    langs = stats.languages()
    if not langs or stats.total_tokens == 0:
        raise DataError("empty corpus: no tokens to sample from")
    missing = [l for l in langs if l not in config.beta]
    if missing:
        raise ConfigError(f"languages in stats missing from beta: {missing}")
    extra = [l for l in sorted(config.beta) if l not in stats.per_language]
    if extra:
        raise ConfigError(f"languages in beta missing from stats: {extra}")
    total = stats.total_tokens
    alpha = config.alpha_temp
    dist = {
        code: alpha * (stats.per_language[code].tokens / total)
        + (1.0 - alpha) * float(config.beta[code])
        for code in langs
    }
    if not abs(sum(dist.values()) - 1.0) <= _SUM_TOL:
        raise ConfigError(f"sampling distribution sums to {sum(dist.values())!r}, not 1")
    return dist


def categorical_draw(
    dist: Mapping[str, float], pool: Sequence[str], gen: np.random.Generator
) -> str:
    """Categorical draw over ``pool``, renormalized; uniform if mass is zero."""
    weights = [max(0.0, float(dist.get(code, 0.0))) for code in pool]
    total = sum(weights)
    if total <= 0.0:
        weights = [1.0] * len(pool)
        total = float(len(pool))
    u = float(gen.random()) * total
    acc = 0.0
    for code, w in zip(pool, weights):
        acc += w
        if u < acc:
            return code
    return pool[-1]


def constraint_flag(config: SamplerConfig, index: int) -> bool:
    """Whether sequence ``index`` must be cross-lingual: Bernoulli(rho), drawn
    from its own stream."""
    gen = rng.stream(config.seed, rng.STREAM_FLAGS, index)
    return bool(gen.random() < config.rho)
