"""Warmup-stable-decay learning rate, batch ramp, and scaling-law advisors.

The decay phase uses an inverse-proportional curve in normalized decay
progress tau:

    lr(tau) = peak / (1 + (1/final_ratio - 1) * tau)

which equals peak at tau=0 and exactly final_ratio * peak at tau=1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ScheduleConfig:
    peak_lr: float = 2e-4
    warmup_steps: int = 2000
    total_steps: int = 100_000
    decay_fraction: float = 0.10
    final_ratio: float = 0.10
    batch_start_tokens: int = 1_000_000
    batch_end_tokens: int = 2_000_000
    batch_ramp_tokens: int = 1_000_000_000_000
    seq_len: int = 4096

    def __post_init__(self):
        if self.peak_lr <= 0:
            raise ConfigError(f"peak_lr must be positive: {self.peak_lr}")
        if not (0.0 < self.final_ratio <= 1.0):
            raise ConfigError(f"final_ratio must be in (0, 1]: {self.final_ratio}")
        if not (0.0 < self.decay_fraction < 1.0):
            raise ConfigError(f"decay_fraction must be in (0, 1): {self.decay_fraction}")
        if self.total_steps <= 0:
            raise ConfigError(f"total_steps must be positive: {self.total_steps}")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0: {self.warmup_steps}")
        if self.warmup_steps >= (1.0 - self.decay_fraction) * self.total_steps:
            raise ConfigError(
                f"warmup_steps ({self.warmup_steps}) must be below "
                f"(1 - decay_fraction) * total_steps "
                f"({(1.0 - self.decay_fraction) * self.total_steps:.1f})"
            )
        if self.batch_start_tokens <= 0 or self.batch_end_tokens < self.batch_start_tokens:
            raise ConfigError("batch ramp must go from a positive start to end >= start")
        if self.batch_ramp_tokens <= 0:
            raise ConfigError("batch_ramp_tokens must be positive")
        if self.seq_len <= 0:
            raise ConfigError(f"seq_len must be positive: {self.seq_len}")

    @property
    def decay_start(self) -> int:
        return self.total_steps - int(round(self.decay_fraction * self.total_steps))


def lr_at(config: ScheduleConfig, step: int) -> float:
    """Learning rate at an integer step in [0, total_steps]."""
    if not (0 <= step <= config.total_steps):
        raise ConfigError(f"step {step} outside [0, {config.total_steps}]")
    if step < config.warmup_steps:
        return config.peak_lr * step / config.warmup_steps
    if step < config.decay_start:
        return config.peak_lr
    span = config.total_steps - config.decay_start
    tau = (step - config.decay_start) / span if span > 0 else 1.0
    return config.peak_lr / (1.0 + (1.0 / config.final_ratio - 1.0) * tau)


def batch_size_at(config: ScheduleConfig, tokens_seen: int) -> int:
    """Tokens per batch after ``tokens_seen``: linear ramp, then constant.

    Rounded down to a positive multiple of seq_len.
    """
    if tokens_seen < 0:
        raise ConfigError(f"tokens_seen must be >= 0: {tokens_seen}")
    t = min(tokens_seen, config.batch_ramp_tokens)
    frac = t / config.batch_ramp_tokens
    raw = config.batch_start_tokens + frac * (
        config.batch_end_tokens - config.batch_start_tokens
    )
    return max(config.seq_len, int(raw) // config.seq_len * config.seq_len)


def lr_scale_factor(compute_ratio: float) -> float:
    """Optimal-LR multiplier when compute scales by ``compute_ratio``.

    Follows the mu ~ C^-0.125 power law.
    """
    if compute_ratio <= 0:
        raise ConfigError(f"compute_ratio must be positive: {compute_ratio}")
    return compute_ratio ** -0.125


def vocab_scale_factor(compute_ratio: float) -> float:
    """Vocabulary-size multiplier for a compute ratio, via the C^0.42 law."""
    if compute_ratio <= 0:
        raise ConfigError(f"compute_ratio must be positive: {compute_ratio}")
    return compute_ratio ** 0.42


def compute_ratio(
    params_from: float, tokens_from: float, params_to: float, tokens_to: float
) -> float:
    """Compute ratio between two training runs under C ~ params * tokens."""
    for name, v in (
        ("params_from", params_from),
        ("tokens_from", tokens_from),
        ("params_to", params_to),
        ("tokens_to", tokens_to),
    ):
        if v <= 0:
            raise ConfigError(f"{name} must be positive: {v}")
    return (params_to * tokens_to) / (params_from * tokens_from)
