from unittest import mock

import numpy as np
import pytest

from xlda_kit import rng
from xlda_kit.corpus import CorpusStats, LanguageStats
from xlda_kit.errors import ConfigError, DataError
from xlda_kit.sampling import (
    CategoricalDraw,
    SamplerConfig,
    constraint_flag,
    language_distribution,
    normalized,
)


def make_stats(tokens: dict[str, int]) -> CorpusStats:
    return CorpusStats(
        per_language={c: LanguageStats(documents=1, tokens=t) for c, t in tokens.items()}
    )


IMBALANCED_SIZES = {"en": 8500, "ko": 1000, "other": 500}
UNIFORM_BETA = {"en": 0.2, "ko": 0.6, "other": 0.2}


def test_alpha_one_reduces_to_proportional():
    config = SamplerConfig(alpha_temp=1.0, beta=UNIFORM_BETA)
    dist = language_distribution(config, make_stats(IMBALANCED_SIZES))
    assert dist == {"en": 0.85, "ko": 0.10, "other": 0.05}


def test_alpha_zero_reduces_to_beta():
    config = SamplerConfig(alpha_temp=0.0, beta=UNIFORM_BETA)
    dist = language_distribution(config, make_stats(IMBALANCED_SIZES))
    assert dist == UNIFORM_BETA


def test_alpha_half_interpolates():
    config = SamplerConfig(alpha_temp=0.5, beta=UNIFORM_BETA)
    dist = language_distribution(config, make_stats(IMBALANCED_SIZES))
    assert dist["ko"] == pytest.approx(0.5 * 0.10 + 0.5 * 0.60, abs=1e-15)


def test_distribution_sums_to_one_randomized():
    gen = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    for _ in range(500):
        m = int(gen.integers(1, 8))
        codes = [f"l{i}" for i in range(m)]
        sizes = {c: int(gen.integers(1, 10_000)) for c in codes}
        raw = gen.uniform(0, 1, m)
        raw = raw / raw.sum()
        beta = dict(zip(codes, raw))
        beta[codes[0]] += 1.0 - sum(beta.values())
        config = SamplerConfig(alpha_temp=float(gen.uniform(0, 1)), beta=beta)
        dist = language_distribution(config, make_stats(sizes))
        assert abs(sum(dist.values()) - 1.0) <= 1e-12
        assert all(p >= 0 for p in dist.values())


def test_empty_corpus_is_error():
    config = SamplerConfig(alpha_temp=1.0, beta={"en": 1.0})
    with pytest.raises(DataError):
        language_distribution(config, make_stats({}))


def test_language_mismatch_is_error():
    config = SamplerConfig(alpha_temp=1.0, beta={"en": 1.0})
    with pytest.raises(ConfigError, match="missing from beta"):
        language_distribution(config, make_stats({"en": 5, "ko": 5}))
    config2 = SamplerConfig(alpha_temp=1.0, beta={"en": 0.5, "ja": 0.5})
    with pytest.raises(ConfigError, match="missing from stats"):
        language_distribution(config2, make_stats({"en": 5}))


def test_non_finite_beta_is_config_error():
    # nan passes the per-share and sum checks, which compare with < and >
    config = SamplerConfig(alpha_temp=0.5, beta={"en": float("nan"), "ko": 0.5})
    with pytest.raises(ConfigError, match="sums to nan"):
        language_distribution(config, make_stats({"en": 5, "ko": 5}))


def test_beta_must_be_distribution():
    with pytest.raises(ConfigError):
        SamplerConfig(alpha_temp=0.5, beta={"en": 0.5, "ko": 0.6})
    with pytest.raises(ConfigError):
        SamplerConfig(alpha_temp=0.5, beta={"en": 1.5, "ko": -0.5})
    with pytest.raises(ConfigError):
        SamplerConfig(alpha_temp=1.5, beta={"en": 1.0})


def pack_draw(config: SamplerConfig, dist: dict[str, float], index: int) -> str:
    """The packer's first language draw for sequence ``index``, all languages
    available: ``CategoricalDraw`` over them in sorted order, on the
    sequence's ``STREAM_PACK`` stream."""
    gen = rng.stream(config.seed, rng.STREAM_PACK, index)
    return CategoricalDraw(dist)(sorted(dist), gen)


def test_draw_language_degenerate():
    config = SamplerConfig(alpha_temp=1.0, beta={"en": 1.0}, seed=9)
    dist = {"en": 1.0, "ko": 0.0, "other": 0.0}
    assert all(pack_draw(config, dist, i) == "en" for i in range(50))


def test_draw_language_deterministic_given_seed():
    config = SamplerConfig(alpha_temp=1.0, beta=UNIFORM_BETA, seed=123)
    dist = {"en": 0.85, "ko": 0.10, "other": 0.05}
    run1 = [pack_draw(config, dist, i) for i in range(200)]
    run2 = [pack_draw(config, dist, i) for i in range(200)]
    assert run1 == run2
    other_seed = SamplerConfig(alpha_temp=1.0, beta=UNIFORM_BETA, seed=124)
    assert [pack_draw(other_seed, dist, i) for i in range(200)] != run1


def test_draw_language_empirical_frequencies():
    config = SamplerConfig(alpha_temp=1.0, beta=UNIFORM_BETA, seed=7)
    dist = {"en": 0.85, "ko": 0.10, "other": 0.05}
    n = 100_000
    draws = [pack_draw(config, dist, i) for i in range(n)]
    for code, p in dist.items():
        freq = draws.count(code) / n
        assert abs(freq - p) <= 0.01


def flag_stream(config: SamplerConfig) -> rng.Stream:
    """The packer's ``STREAM_FLAGS`` stream for ``config``."""
    return rng.Stream(config.seed, rng.STREAM_FLAGS)


def test_constraint_flags_boundaries():
    all_on = SamplerConfig(alpha_temp=1.0, beta={"en": 1.0}, rho=1.0, seed=1)
    flags = flag_stream(all_on)
    assert all(constraint_flag(all_on, i, flags) for i in range(500))
    all_off = SamplerConfig(alpha_temp=1.0, beta={"en": 1.0}, rho=0.0, seed=1)
    flags = flag_stream(all_off)
    assert not any(constraint_flag(all_off, i, flags) for i in range(500))


@pytest.mark.parametrize("rho", [0.0, 1.0, 0, 1])
def test_rho_0_and_1_settle_the_flag_without_drawing(rho):
    config = SamplerConfig(alpha_temp=1.0, beta={"en": 1.0}, rho=rho, seed=3)
    drawn = [bool(rng.stream(3, rng.STREAM_FLAGS, i).random() < rho) for i in range(1000)]
    flags = flag_stream(config)
    with mock.patch.object(rng.Stream, "at", autospec=True, side_effect=rng.Stream.at) as at:
        assert [constraint_flag(config, i, flags) for i in range(1000)] == drawn
    assert at.call_count == 0


def test_constraint_flags_match_fresh_streams():
    config = SamplerConfig(alpha_temp=1.0, beta={"en": 1.0}, rho=0.3, seed=3)
    drawn = [bool(rng.stream(3, rng.STREAM_FLAGS, i).random() < 0.3) for i in range(1000)]
    flags = flag_stream(config)
    assert [constraint_flag(config, i, flags) for i in range(1000)] == drawn


def test_constraint_flags_fraction():
    config = SamplerConfig(alpha_temp=1.0, beta={"en": 1.0}, rho=0.5, seed=0)
    stream = flag_stream(config)
    flags = [constraint_flag(config, i, stream) for i in range(10_000)]
    assert 0.48 <= np.mean(flags) <= 0.52


def test_mixture_plan_from_ratios():
    shares = normalized({"other": 0.5, "ko": 1.0, "en": 8.5})
    assert list(shares) == ["en", "ko", "other"]
    assert shares["en"] == pytest.approx(0.85, abs=1e-15)
    assert sum(shares.values()) == 1.0
    for ratios in ({"en": 0.0}, {"en": 1.0, "ko": -1.0}, {"en": float("nan")},
                   {"en": float("inf")}):
        with pytest.raises(ConfigError, match="positive finite total"):
            normalized(ratios)
    with pytest.raises(ConfigError, match=r"share\['ko'\] is negative: -0.5"):
        normalized({"en": 3.0, "ko": -1.0})


@pytest.mark.parametrize("n", range(1, 12))
def test_equal_ratios_put_the_rounding_residue_on_the_first_code(n):
    codes = [f"l{i:02d}" for i in range(n)]
    expected = {code: 1.0 / n for code in codes}
    expected[codes[0]] += 1.0 - sum(expected.values())
    shares = normalized(dict.fromkeys(reversed(codes), 1.0))
    assert list(shares.items()) == list(expected.items())


def test_no_beta_is_a_uniform_share_per_corpus_language():
    stats = make_stats(IMBALANCED_SIZES)
    uniform = normalized(dict.fromkeys(IMBALANCED_SIZES, 1.0))
    assert language_distribution(SamplerConfig(alpha_temp=0.0), stats) == uniform
    for alpha in (0.0, 0.3, 1.0):
        assert (language_distribution(SamplerConfig(alpha_temp=alpha), stats)
                == language_distribution(SamplerConfig(alpha_temp=alpha, beta=uniform), stats))


def test_mixture_plan_upsample():
    """``plan --upsample`` rescales the plan's shares and normalizes again."""
    plan = normalized({"en": 8.5, "ko": 1.0, "other": 0.5})
    factors = {"ko": 3.0, "other": 3.0}
    tripled = normalized({code: s * factors.get(code, 1.0) for code, s in plan.items()})
    assert sum(tripled.values()) == 1.0
    assert tripled["ko"] == pytest.approx(3.0 / (8.5 + 3.0 + 1.5), rel=1e-12)
