"""The benchmark's worker (``bench/worker.py``) times and ticks the program
by replacing module attributes: ``corpus.ingest``, ``packing.pack_stream``,
``schedule.lr_at``, ``training.cycle_batches``, ``training.train``,
``training.pack_stream`` and ``model.forward``. These tests put counting
wrappers in the same places and check that each command still calls through
them, so a refactor that binds one of them elsewhere fails here instead of
moving the benchmark's clock."""

import contextlib
import io
import json
from collections import Counter

import pytest

from xlda_kit import corpus, model, packing, schedule, training
from xlda_kit.cli import dispatch

HOOKS = [(corpus, "ingest"), (packing, "pack_stream"), (schedule, "lr_at"),
         (training, "cycle_batches"), (training, "train"), (training, "pack_stream"),
         (model, "forward")]


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls through each hook, by ``module.attr``."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr in HOOKS:
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    return counts


def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(list(argv)) == 0


def test_cli_commands_call_through_the_hooks(tmp_path, calls):
    (tmp_path / "corpus.jsonl").write_text("".join(
        json.dumps({"id": f"d{i}", "lang": ("en", "ko")[i % 2], "score": i % 5,
                    "tokens": [(7 * i + k) % 60 + 1 for k in range(i % 6 + 1)]}) + "\n"
        for i in range(24)), encoding="utf-8")
    cli("filter", "--input", str(tmp_path / "corpus.jsonl"), "--output",
        str(tmp_path / "kept.jsonl"), "--stage", "pretrain", "--class", "multilingual")
    assert calls == {"corpus.ingest": 1}
    cli("pack", "--input", str(tmp_path / "corpus.jsonl"), "--output",
        str(tmp_path / "batch.xlda"), "--seq-len", "16")
    assert calls == {"corpus.ingest": 2, "packing.pack_stream": 1}
    calls.clear()
    cli("schedule", "--peak", "2e-4", "--warmup", "2", "--total", "10")
    assert set(calls) == {"schedule.lr_at"}
    calls.clear()
    cli("train-toy", "--packed", str(tmp_path / "batch.xlda"), "--policy", "intra",
        "--steps", "2", "--batch-seqs", "1")
    # train-toy runs no evaluation pass, so it never calls model.forward
    assert calls == {"training.cycle_batches": 1, "training.train": 1}


def test_transfer_experiment_calls_through_the_hooks(calls):
    spec = training.TransferSpec(steps=1, train_windows=8, eval_windows=2, n_probe_docs=4,
                                 seq_len=32)
    training.transfer_experiment(spec)
    n = len(spec.policies)
    assert calls["training.cycle_batches"] == calls["training.train"] == n
    assert calls["model.forward"] >= n and calls["training.pack_stream"] >= 1
    assert not calls["corpus.ingest"] and not calls["packing.pack_stream"]
