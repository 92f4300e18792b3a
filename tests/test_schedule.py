import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xlda_kit.errors import ConfigError
from xlda_kit.schedule import (
    ScheduleConfig,
    batch_size_at,
    compute_ratio,
    lr_at,
    lr_scale_factor,
    vocab_scale_factor,
)

DEFAULTS = ScheduleConfig()  # peak 2e-4, warmup 2000, total 100k, decay 10%, final 10%


def test_lr_reference_anchor_points():
    assert lr_at(DEFAULTS, 0) == 0.0
    assert lr_at(DEFAULTS, 2000) == 2.0e-4
    assert abs(lr_at(DEFAULTS, DEFAULTS.total_steps) - 2.0e-5) <= 1e-12 * 2.0e-5


def test_lr_decay_midpoint_matches_formula():
    # tau = 0.5 on the decay leg: peak / (1 + 4.5 * 0.5)
    mid = DEFAULTS.decay_start + (DEFAULTS.total_steps - DEFAULTS.decay_start) // 2
    tau = (mid - DEFAULTS.decay_start) / (DEFAULTS.total_steps - DEFAULTS.decay_start)
    assert tau == 0.5
    expected = 2e-4 / (1.0 + ((1 / 0.1) - 1.0) * 0.5)
    assert lr_at(DEFAULTS, mid) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(3.6364e-5, rel=1e-4)


def test_lr_out_of_range():
    with pytest.raises(ConfigError):
        lr_at(DEFAULTS, -1)
    with pytest.raises(ConfigError):
        lr_at(DEFAULTS, DEFAULTS.total_steps + 1)


def random_config(gen) -> ScheduleConfig:
    total = int(gen.integers(50, 5000))
    decay_fraction = float(gen.uniform(0.05, 0.6))
    max_warmup = int((1.0 - decay_fraction) * total) - 1
    warmup = int(gen.integers(1, max(2, max_warmup)))
    return ScheduleConfig(
        peak_lr=float(gen.uniform(1e-5, 1e-2)),
        warmup_steps=warmup,
        total_steps=total,
        decay_fraction=decay_fraction,
        final_ratio=float(gen.uniform(0.01, 0.9)),
        batch_start_tokens=1024,
        batch_end_tokens=4096,
        batch_ramp_tokens=1_000_000,
        seq_len=128,
    )


def test_lr_properties_over_random_configs():
    gen = np.random.Generator(np.random.Philox(key=np.array([2, 0], dtype=np.uint64)))
    for _ in range(1000):
        cfg = random_config(gen)
        # continuity at the warmup -> stable breakpoint
        assert lr_at(cfg, cfg.warmup_steps) == cfg.peak_lr
        if cfg.warmup_steps > 0:
            ramp_end = cfg.peak_lr * (cfg.warmup_steps - 1) / cfg.warmup_steps
            assert abs(lr_at(cfg, cfg.warmup_steps - 1) - ramp_end) <= 1e-18
        # continuity at the stable -> decay breakpoint
        assert lr_at(cfg, cfg.decay_start) == cfg.peak_lr
        # endpoint hits final_ratio * peak to 1e-12 relative
        end = lr_at(cfg, cfg.total_steps)
        assert abs(end - cfg.final_ratio * cfg.peak_lr) <= 1e-12 * cfg.final_ratio * cfg.peak_lr
        # monotonicity per phase
        prev = -1.0
        for step in range(0, cfg.warmup_steps + 1):
            lr = lr_at(cfg, step)
            assert lr >= prev
            prev = lr
        for step in range(cfg.warmup_steps, cfg.decay_start + 1):
            assert lr_at(cfg, step) == cfg.peak_lr
        prev = cfg.peak_lr
        for step in range(cfg.decay_start + 1, cfg.total_steps + 1):
            lr = lr_at(cfg, step)
            assert lr < prev
            prev = lr


def test_batch_ramp_boundaries():
    cfg = ScheduleConfig(seq_len=4096)
    assert batch_size_at(cfg, 0) == 1_000_000 // 4096 * 4096
    assert batch_size_at(cfg, cfg.batch_ramp_tokens) == 2_000_000 // 4096 * 4096
    assert batch_size_at(cfg, 10 * cfg.batch_ramp_tokens) == 2_000_000 // 4096 * 4096


def test_batch_ramp_midpoint():
    cfg = ScheduleConfig(
        batch_start_tokens=1_000_000,
        batch_end_tokens=2_000_000,
        batch_ramp_tokens=1_000_000_000,
        seq_len=4096,
    )
    expected_raw = 1_500_000
    assert batch_size_at(cfg, 500_000_000) == expected_raw // 4096 * 4096


@settings(max_examples=200, deadline=None)
@given(
    start=st.integers(min_value=1_000, max_value=100_000),
    extra=st.integers(min_value=0, max_value=100_000),
    seq_len=st.integers(min_value=8, max_value=512),
    points=st.lists(st.integers(min_value=0, max_value=2_000_000), min_size=2, max_size=20),
)
def test_batch_ramp_monotone_multiple_of_seq_len(start, extra, seq_len, points):
    cfg = ScheduleConfig(
        batch_start_tokens=start,
        batch_end_tokens=start + extra,
        batch_ramp_tokens=1_000_000,
        seq_len=seq_len,
    )
    values = [batch_size_at(cfg, t) for t in sorted(points)]
    assert all(v % seq_len == 0 and v > 0 for v in values)
    assert values == sorted(values)


def test_scale_factors_identity_and_power():
    assert lr_scale_factor(1.0) == 1.0
    assert vocab_scale_factor(1.0) == 1.0
    assert lr_scale_factor(2.0) == pytest.approx(2 ** -0.125, rel=1e-15)
    assert vocab_scale_factor(10.0) == pytest.approx(10 ** 0.42, rel=1e-15)
    with pytest.raises(ConfigError):
        lr_scale_factor(0.0)
    with pytest.raises(ConfigError):
        vocab_scale_factor(-1.0)


def test_reference_scaling_reproduction():
    ratio = compute_ratio(1.8e9, 1e11, 7e9, 2e12)
    assert ratio == pytest.approx(77.7778, rel=1e-4)
    assert abs(lr_scale_factor(ratio) - 0.57) <= 0.02
    assert abs(vocab_scale_factor(ratio) - 6.3) <= 0.15


def test_invalid_configs():
    with pytest.raises(ConfigError):
        ScheduleConfig(warmup_steps=95_000)  # inside the decay window
    with pytest.raises(ConfigError):
        ScheduleConfig(final_ratio=0.0)
    with pytest.raises(ConfigError):
        ScheduleConfig(decay_fraction=1.0)
    with pytest.raises(ConfigError):
        ScheduleConfig(batch_start_tokens=2_000_000, batch_end_tokens=1_000_000)
