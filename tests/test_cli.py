import argparse
import contextlib
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import xlda_kit
from xlda_kit import cli
from xlda_kit.cli import COMMANDS, RETIRED, SETTINGS, _UsageError, build_parser, dispatch
from xlda_kit.masks import MaskPolicy, MaskSpec, materialize_dense
from xlda_kit.packing import read_packed
from xlda_kit.schedule import ScheduleConfig, batch_size_at, lr_at


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corpus(path, n_en=30, n_ko=30, seed=0, scores=False, max_id=99, separators=None):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    lines = []
    for i in range(n_en):
        rec = {"id": f"e{i}", "lang": "en",
               "tokens": [int(t) for t in gen.integers(1, max_id, int(gen.integers(1, 8)))]}
        if scores:
            rec["score"] = float(np.round(gen.uniform(0, 5), 2))
        lines.append(json.dumps(rec, separators=separators))
    for i in range(n_ko):
        rec = {"id": f"k{i}", "lang": "ko",
               "tokens": [int(t) for t in gen.integers(1, max_id, int(gen.integers(1, 8)))]}
        if scores:
            rec["score"] = float(np.round(gen.uniform(0, 5), 2))
        lines.append(json.dumps(rec, separators=separators))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_no_args_usage_exit_1(capsys):
    code, out, err = run(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_subcommand_exit_1(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1


def test_help_exit_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "xlda-kit" in out


def test_advise_prints_reference_factors(capsys):
    code, out, err = run(
        capsys, "advise", "--params-from", "1.8e9", "--tokens-from", "1e11",
        "--params-to", "7e9", "--tokens-to", "2e12", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["result"]["lr_scale_factor"] - 0.57) <= 0.02
    assert abs(payload["result"]["vocab_scale_factor"] - 6.3) <= 0.15


def test_schedule_table_contains_anchor(capsys):
    code, out, err = run(
        capsys, "schedule", "--peak", "2e-4", "--warmup", "2000",
        "--total", "100000", "--csv",
    )
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("2000,")]
    assert rows and rows[0].split(",")[1] == "0.0002"


def test_schedule_json_has_lr_zero_at_origin(capsys):
    code, out, err = run(
        capsys, "schedule", "--total", "1000", "--warmup", "100", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    first = payload["result"]["rows"][0]
    assert first["step"] == 0 and first["lr"] == 0.0


@pytest.mark.parametrize("every", ["0", "-5"])
def test_schedule_every_below_one_is_usage_error(capsys, every):
    code, out, err = run(capsys, "schedule", "--total", "1000", f"--every={every}")
    assert code == 1 and not out
    assert f"--every: expected an integer >= 1, got '{every}'" in err


def test_schedule_every_sets_row_spacing(capsys):
    code, out, err = run(capsys, "schedule", "--total", "1000", "--warmup", "100",
                         "--every", "250", "--csv")
    assert code == 0
    steps = [int(line.split(",")[0]) for line in out.splitlines()[1:] if line[:1].isdigit()]
    assert steps == [0, 100, 250, 500, 750, 900, 1000]


def _walked_schedule_rows(config, steps):
    """Reference: every step's batch from the tokens seen before it."""
    rows, tokens_seen, wanted = [], 0, set(steps)
    for step in range(max(steps) + 1):
        batch = batch_size_at(config, tokens_seen)
        if step in wanted:
            rows.append({"step": step, "lr": lr_at(config, step),
                         "batch_tokens": batch, "tokens_seen": tokens_seen})
        tokens_seen += batch
    return rows


@pytest.mark.parametrize("argv, ini", [
    (["--peak", "2e-4", "--warmup", "2000", "--total", "3000000"], ""),
    ([], ""),
    (["--total", "5000", "--warmup", "10"],
     "batch_start_tokens = 1000\nbatch_end_tokens = 9000\n"
     "batch_ramp_tokens = 2000000\nseq_len = 100\n"),
    (["--total", "5000", "--warmup", "10", "--every", "7"],
     "batch_start_tokens = 1000\nbatch_end_tokens = 9000\n"
     "batch_ramp_tokens = 1000000000\nseq_len = 100\n"),
    (["--total", "5000", "--warmup", "10"],
     "batch_start_tokens = 4096\nbatch_end_tokens = 4096\n"
     "batch_ramp_tokens = 1000\nseq_len = 512\n"),
    (["--total", "20000", "--warmup", "10", "--every", "333"],
     "batch_start_tokens = 1000\nbatch_end_tokens = 5000\n"
     "batch_ramp_tokens = 3000000\nseq_len = 384\n"),
], ids=["data-4k", "defaults", "ramp-crossed", "ramp-not-reached", "flat",
        "seq-len-not-dividing"])
def test_schedule_rows_match_per_step_walk(tmp_path, capsys, argv, ini):
    cfg = tmp_path / "schedule.ini"
    cfg.write_text("[schedule]\n" + ini, encoding="utf-8")
    code, out, err = run(capsys, "schedule", *argv, "--config", str(cfg), "--json")
    assert code == 0
    payload = json.loads(out)
    floats = ("peak_lr", "decay_fraction", "final_ratio")
    config = ScheduleConfig(**{k: (float(v) if k in floats else int(v))
                               for k, v in payload["config"]["schedule"].items()})
    rows = payload["result"]["rows"]
    assert rows[0]["step"] == 0 and rows[-1]["step"] == config.total_steps
    assert rows == _walked_schedule_rows(config, [r["step"] for r in rows])


def test_filter_stage_preset_and_output(tmp_path, capsys):
    src = tmp_path / "scored.jsonl"
    out_file = tmp_path / "kept.jsonl"
    write_corpus(src, n_en=40, n_ko=0, scores=True)
    code, out, err = run(
        capsys, "filter", "--input", str(src), "--output", str(out_file),
        "--stage", "pretrain", "--class", "english", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["keep_fraction"] == 0.80
    assert payload["result"]["kept_documents"] == 32  # ceil(0.8 * 40)
    assert out_file.exists()


def test_filter_unscored_is_data_error(tmp_path, capsys):
    src = tmp_path / "raw.jsonl"
    out_file = tmp_path / "kept.jsonl"
    write_corpus(src, n_en=5, n_ko=0, scores=False)
    code, out, err = run(
        capsys, "filter", "--input", str(src), "--output", str(out_file),
        "--stage", "pretrain", "--class", "english",
    )
    assert code == 2
    assert "unscored" in err


def test_plan_from_corpus(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    write_corpus(src)
    code, out, err = run(
        capsys, "plan", "--corpus", str(src), "--alpha", "1.0", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    dist = payload["result"]["distribution"]
    assert abs(sum(dist.values()) - 1.0) <= 1e-12


def test_pack_single_language_rho_one_exit_2(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    write_corpus(src, n_en=10, n_ko=0)
    code, out, err = run(
        capsys, "pack", "--input", str(src), "--output", str(tmp_path / "o.xlda"),
        "--seq-len", "16", "--rho", "1",
    )
    assert code == 2
    assert "cross-lingual" in err


def test_pack_then_mask_roundtrip(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    packed = tmp_path / "batch.xlda"
    write_corpus(src)
    code, out, err = run(
        capsys, "pack", "--input", str(src), "--output", str(packed),
        "--seq-len", "16", "--rho", "1", "--seed", "7", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["report"]["sequences"] > 0
    code, out, err = run(
        capsys, "mask", "--policy", "intra", "--from", str(packed),
        "--index", "0", "--dense",
    )
    assert code == 0
    assert "P1" in out
    code, out, err = run(
        capsys, "mask", "--policy", "xlda", "--from", str(packed),
        "--index", "0", "--json",
    )
    payload = json.loads(out)
    assert payload["result"]["allowed_pairs"] > 0


def test_mask_index_at_or_past_count_exit_2(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    packed = tmp_path / "batch.xlda"
    write_corpus(src)
    run(capsys, "pack", "--input", str(src), "--output", str(packed), "--seq-len", "16")
    count = len(read_packed(packed)[0])
    for index in (count, count + 5):
        code, out, err = run(
            capsys, "mask", "--policy", "xlda", "--from", str(packed), "--index", str(index),
        )
        assert code == 2 and not out
        assert err == f"error: sequence index {index} outside [0, {count})\n"
    # a negative index never reaches the file: the flag's type refuses it
    code, out, err = run(
        capsys, "mask", "--policy", "xlda", "--from", str(packed), "--index", "-1",
    )
    assert code == 1 and not out
    assert err.endswith("error: argument --index: expected an integer >= 0, got '-1'\n")
    code, out, err = run(
        capsys, "mask", "--policy", "xlda", "--from", str(packed), "--index", str(count - 1),
    )
    assert code == 0


def test_dense_grid_matches_per_cell_formatting(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    packed = tmp_path / "batch.xlda"
    write_corpus(src)
    run(capsys, "pack", "--input", str(src), "--output", str(packed), "--seq-len", "16")
    sequences, config = read_packed(packed)
    padded = [i for i, seq in enumerate(sequences) if seq.pad_start < config.seq_len]
    assert padded, "the last window should be padded"
    for index in (0, padded[-1]):
        for policy in ("xlda", "intra", "bridge"):
            argv = ["mask", "--policy", policy, "--from", str(packed), "--index", str(index)]
            code, out, err = run(capsys, *argv, "--dense")
            assert code == 0, err
            spec = MaskSpec.for_sequence(sequences[index], MaskPolicy.parse(policy))
            dense = materialize_dense(spec, config.seq_len)
            grid = [" ".join("1" if cell else "0" for cell in row) for row in dense]
            head = out[: out.index("P1\n")]
            assert out == head + "\n".join(["P1", "16 16", *grid]) + "\n"
            code, out, err = run(capsys, *argv, "--dense", "--json")
            assert code == 0, err
            assert json.loads(out)["result"]["dense_true_cells"] == int(dense.sum())
            assert "P1" not in out


def _parse_with_every_command(argv):
    """Exit code of a newly built parser on ``argv``, for argvs that end in
    argparse: help, version or a usage error."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    raise AssertionError(f"{argv} parsed: it would run the command")


# never a bare `transfer` or `grad-check`: they run the full command
PARITY_ARGVS = [
    [], ["--help"], ["--version"], ["frobnicate"], ["-x", "mask"], ["mask"], ["mask", "--policy"],
    *([name, flag] for name in COMMANDS for flag in ("--help", "--bogus")),
]


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=" ".join)
def test_one_command_parser_reads_as_the_full_parser(capsys, argv):
    """The one parser ``dispatch`` shares across calls reads as a newly built
    one, with help and version at exit 0 and a usage error at exit 1."""
    got = run(capsys, *argv)
    code = _parse_with_every_command(argv)
    captured = capsys.readouterr()
    assert got == (code, captured.out, captured.err)
    assert got[2] or got[1]  # something was printed


def fresh_process(*argv, cwd=None, **env):
    """Exit code, stdout and stderr of ``xlda-kit argv`` in a new interpreter,
    run in ``cwd`` with ``env`` added to the environment."""
    result = subprocess.run(
        [sys.executable, "-m", "xlda_kit", *argv], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(xlda_kit.__file__).parents[1]), os.environ.get("PYTHONPATH")])),
            **env},
    )
    return result.returncode, result.stdout, result.stderr


def test_a_reused_parser_carries_nothing_to_the_next_call(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage text wrap at this width
    src, packed, ini = tmp_path / "corpus.jsonl", tmp_path / "batch.xlda", tmp_path / "s.ini"
    write_corpus(src)
    run(capsys, "pack", "--input", str(src), "--output", str(packed), "--seq-len", "16")
    ini.write_text("[schedule]\nwarmup_steps = 10\ntotal_steps = 500\n", encoding="utf-8")
    mask = ["mask", "--policy", "xlda", "--from", str(packed)]
    pairs = [  # (first call, second call)
        ([*mask, "--dense", "--json"], [*mask, "--json"]),
        (["schedule", "--config", str(ini), "--json"], ["schedule", "--json"]),
        ([*mask, "--index", "one"], [*mask, "--index", "1"]),
        (["mask", "--help"], mask),
    ]
    for first, second in pairs:
        run(capsys, *first)
        assert run(capsys, *second) == fresh_process(*second), second
    assert cli._parser() is cli._parser()  # the calls shared it


def test_json_output_is_one_line(tmp_path, capsys):
    src, packed = tmp_path / "corpus.jsonl", tmp_path / "batch.xlda"
    write_corpus(src)
    calls = {
        "pack": (["pack", "--input", str(src), "--output", str(packed), "--seq-len", "16"],
                 lambda result: result["report"]["sequences"] > 0),
        "mask": (["mask", "--policy", "xlda", "--from", str(packed)],
                 lambda result: result["allowed_pairs"] > 0 and result["spans"]),
        "schedule": (["schedule"], lambda result: result["rows"][0]["lr"] == 0.0),
        "plan": (["plan", "--corpus", str(src)],
                 lambda result: abs(sum(result["distribution"].values()) - 1.0) <= 1e-12),
    }
    for name, (argv, check) in calls.items():
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0, err
        assert out.endswith("\n") and out.count("\n") == 1, name
        assert check(json.loads(out)["result"]), name


def test_pack_byte_identical_across_runs(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    write_corpus(src, n_en=40, n_ko=40, seed=5)
    outputs = []
    for name in ("a.xlda", "b.xlda", "c.xlda"):
        out_path = tmp_path / name
        code, out, err = run(
            capsys, "pack", "--input", str(src), "--output", str(out_path),
            "--seq-len", "16", "--rho", "0.5", "--seed", "3", "--json",
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.xlda", "b.xlda", "c.xlda", "corpus.jsonl"]  # no sidecar files


def test_pack_cross_doc_labels_travel_in_the_file(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    write_corpus(src, seed=4, max_id=60)
    cfg = tmp_path / "cross.ini"
    cfg.write_text("[packer]\ncross_doc_labels = true\n", encoding="utf-8")
    packed = tmp_path / "batch.xlda"
    code, out, err = run(
        capsys, "pack", "--input", str(src), "--output", str(packed),
        "--seq-len", "16", "--config", str(cfg),
    )
    assert code == 0
    seqs, config = read_packed(packed)
    assert config.cross_doc_labels
    multi = next(s for s in seqs if len(s.spans) >= 2)
    boundary = multi.spans[0].end - 1  # target crosses into the next document
    assert multi.labels[boundary] == multi.tokens[boundary + 1]


def test_train_toy_runs_and_is_deterministic(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    packed = tmp_path / "batch.xlda"
    write_corpus(src, n_en=30, n_ko=30, seed=2, max_id=60)
    code, out, err = run(
        capsys, "pack", "--input", str(src), "--output", str(packed),
        "--seq-len", "16", "--seed", "1",
    )
    assert code == 0
    results = []
    for name in ("m1.csv", "m2.csv"):
        metrics = tmp_path / name
        code, out, err = run(
            capsys, "train-toy", "--packed", str(packed), "--policy", "xlda",
            "--steps", "5", "--metrics", str(metrics), "--seed", "11", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        results.append((metrics.read_bytes(), payload["result"]["params_sha256"]))
    assert results[0] == results[1]
    header = results[0][0].decode().splitlines()[0]
    assert header == "step,lr,batch_tokens,loss_ntp,loss_mtp,loss_total"


@pytest.mark.parametrize("batch_seqs", ["0", "-2"])
def test_train_toy_batch_seqs_below_one_is_usage_error(tmp_path, capsys, batch_seqs):
    src = tmp_path / "corpus.jsonl"
    packed = tmp_path / "batch.xlda"
    write_corpus(src, max_id=60)
    run(capsys, "pack", "--input", str(src), "--output", str(packed), "--seq-len", "16")
    code, out, err = run(
        capsys, "train-toy", "--packed", str(packed), "--policy", "xlda", "--steps", "2",
        "--batch-seqs", batch_seqs,
    )
    assert code == 1
    assert f"--batch-seqs: expected an integer >= 1, got '{batch_seqs}'" in err
    assert "Traceback" not in err


def test_train_toy_vocab_too_small_is_data_error(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    packed = tmp_path / "batch.xlda"
    write_corpus(src)  # token ids up to 98, default vocab 64
    run(capsys, "pack", "--input", str(src), "--output", str(packed), "--seq-len", "16")
    code, out, err = run(
        capsys, "train-toy", "--packed", str(packed), "--policy", "xlda", "--steps", "1",
    )
    assert code == 2
    assert "vocab" in err


def test_eval_consistency_cli(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        "\n".join(
            json.dumps({"item_id": f"q{i}", "src_correct": s, "tgt_correct": t})
            for i, (s, t) in enumerate(
                [(True, True), (True, True), (True, False), (False, True)]
            )
        )
        + "\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "eval-consistency", "--pairs", str(pairs), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["src_t_to_tgt_t"] == pytest.approx(2 / 3)
    code, out, err = run(capsys, "eval-consistency", "--pairs", str(pairs))
    assert code == 0
    assert "src(T)->tgt(T)" in out


def test_emit_config_reproduces_run(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    write_corpus(src, n_en=20, n_ko=20, seed=9)
    cfg = tmp_path / "effective.ini"
    first = tmp_path / "one.xlda"
    second = tmp_path / "two.xlda"
    code, out1, err = run(
        capsys, "pack", "--input", str(src), "--output", str(first),
        "--seq-len", "16", "--rho", "0.5", "--seed", "21",
        "--emit-config", str(cfg),
    )
    assert code == 0
    code, out2, err = run(
        capsys, "pack", "--input", str(src), "--output", str(second),
        "--config", str(cfg),
    )
    assert code == 0
    assert first.read_bytes() == second.read_bytes()

    # every command that reads settings: a run's emitted file, given back
    # without the setting flags, echoes the same settings and emits them again
    scored = tmp_path / "scored.jsonl"
    write_corpus(scored, n_en=10, n_ko=10, seed=2, scores=True)
    base = tmp_path / "base.ini"
    base.write_text("[model]\nvocab_size = 100\nd_model = 16\nn_heads = 2\n"
                    "[schedule]\nbatch_start_tokens = 64\n", encoding="utf-8")
    cases = {  # name: (setting flags, the other arguments)
        "filter": (["--stage", "anneal", "--class", "multilingual", "--seed", "3"],
                   ["filter", "--input", str(scored), "--output", str(tmp_path / "k.jsonl")]),
        "plan": (["--alpha", "0.5", "--rho", "0.25", "--beta", "en=0.7,ko=0.3"],
                 ["plan", "--corpus", str(src)]),
        "pack": (["--seq-len", "32", "--split", "drop", "--alpha", "0.5", "--seed", "4"],
                 ["pack", "--input", str(src), "--output", str(tmp_path / "p.xlda")]),
        "schedule": (["--peak", "3e-4", "--warmup", "10", "--total", "500",
                      "--decay-frac", "0.2", "--final-ratio", "0.05"],
                     ["schedule"]),
        "train-toy": (["--peak", "1e-3", "--seed", "5", "--config", str(base)],
                      ["train-toy", "--packed", str(first), "--policy", "bridge",
                       "--steps", "3", "--warmup", "1"]),
    }
    for name, (flags, argv) in cases.items():
        emitted, again = tmp_path / f"{name}.ini", tmp_path / f"{name}-again.ini"
        code, out, err = run(capsys, *argv, *flags, "--json", "--emit-config", str(emitted))
        assert code == 0, (name, err)
        settings_used = json.loads(out)["config"]
        code, out, err = run(capsys, *argv, "--config", str(emitted), "--json",
                             "--emit-config", str(again))
        assert code == 0, (name, err)
        assert json.loads(out)["config"] == settings_used, name
        assert again.read_bytes() == emitted.read_bytes(), name
    assert "vocab_size = 100" in (tmp_path / "train-toy.ini").read_text()


def test_missing_input_file_exit_2(tmp_path, capsys):
    code, out, err = run(
        capsys, "pack", "--input", str(tmp_path / "nope.jsonl"),
        "--output", str(tmp_path / "o.xlda"),
    )
    assert code == 2
    assert "no such file" in err


@pytest.mark.parametrize("argv, message", [
    (["plan", "--stats", "{missing}"], "no such file: {missing}"),
    (["plan", "--stats", "{dir}"], "is a directory, not a file: {dir}"),
    (["plan", "--corpus", "{dir}"], "is a directory, not a file: {dir}"),
    (["filter", "--input", "{dir}", "--output", "{out}"], "is a directory, not a file: {dir}"),
    (["pack", "--input", "{dir}", "--output", "{out}"], "is a directory, not a file: {dir}"),
    (["eval-consistency", "--pairs", "{dir}"], "is a directory, not a file: {dir}"),
    (["schedule", "--config", "{dir}"], "config file is a directory, not a file: {dir}"),
], ids=["stats-missing", "stats-directory", "corpus-directory", "filter-directory",
        "pack-directory", "pairs-directory", "config-directory"])
def test_missing_or_directory_input_path_is_a_named_error(tmp_path, capsys, argv, message):
    paths = {"missing": tmp_path / "nope.json", "dir": tmp_path / "d", "out": tmp_path / "o"}
    paths["dir"].mkdir()
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out, err) == (2, "", f"error: {message.format(**paths)}\n")


@pytest.mark.parametrize("argv, content, message", [
    (["plan", "--stats", "{input}"], '{"per_language": {}}',
     "the stats in {input} name no language"),
    (["plan", "--corpus", "{input}"], "", "the corpus {input} has no document"),
    (["pack", "--input", "{input}", "--output", "{out}"], "",
     "the corpus {input} has no document"),
], ids=["plan-stats", "plan-corpus", "pack"])
def test_empty_input_is_a_named_error(tmp_path, capsys, argv, content, message):
    paths = {"input": tmp_path / "input", "out": tmp_path / "o.xlda"}
    paths["input"].write_text(content, encoding="utf-8")
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out, err) == (2, "", f"error: {message.format(**paths)}\n")
    assert not paths["out"].exists()


def test_transfer_cli_small_run(tmp_path, capsys):
    report, emitted = tmp_path / "transfer.json", tmp_path / "run.ini"
    code, out, err = run(
        capsys, "transfer", "--steps", "3", "--train-windows", "16",
        "--eval-windows", "4", "--probe-docs", "16", "--seq-len", "64",
        "--report", str(report), "--json", "--emit-config", str(emitted),
    )
    assert code == 0
    payload = json.loads(out)["result"]
    assert set(payload["packed"]) == {
        "xlda_full_causal", "intra_document_causal"
    }
    saved = json.loads(report.read_text())
    assert saved["steps"] == 3
    assert set(saved["single_doc"]) == set(payload["single_doc"])
    # the emitted [transfer] section alone reproduces the run
    again = tmp_path / "again.json"
    code, out, err = run(capsys, "transfer", "--config", str(emitted), "--report", str(again))
    assert code == 0, err
    assert again.read_bytes() == report.read_bytes()


# the flags that take free text: paths, and a policy name the command parses
_TEXT_FLAGS = {"--config", "--emit-config", "--input", "--output", "--stats", "--corpus",
               "--from", "--packed", "--metrics", "--report", "--pairs", "--policy"}


def test_every_integer_flag_has_a_checked_type():
    """A bare ``type=int`` flag takes any integer and reports a bad one as
    argparse's "invalid int value"; a flag with no type passes a bad number
    or ``code=value`` map on to the command, whose error names no flag.
    Every flag that takes a number or a language map checks it with a
    ``cli._argument`` type, so a bad one is a usage error naming the flag;
    integer flags take their type, and their bound, from ``cli._integer``."""
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unchecked = []
    for name, sub in [("xlda-kit", parser), *commands.choices.items()]:
        for action in sub._actions:
            assert action.type is not int, (name, action.option_strings)
            if (action.nargs == 0 or action.choices or not action.option_strings
                    or _TEXT_FLAGS.intersection(action.option_strings)):
                continue
            if not getattr(action.type, "__qualname__", "").startswith("_argument."):
                unchecked.append((name, *action.option_strings))
    assert unchecked == []


def test_grad_check_cli(capsys):
    code, out, err = run(capsys, "grad-check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["passed"] is True
    assert payload["result"]["max_rel_error"] < 1e-6
    for alpha in ("0.0", "0.2"):
        assert set(payload["result"]["per_alpha"][alpha]) == {"coords_checked",
                                                              "max_rel_error"}


def test_grad_check_cli_fails_on_nan_gradients(capsys, monkeypatch):
    real = cli.toy.loss_and_grads

    def nan_gradients(*args, **kwargs):
        breakdown, grads = real(*args, **kwargs)
        grads.flat[:] = np.nan
        return breakdown, grads

    monkeypatch.setattr(cli.toy, "loss_and_grads", nan_gradients)
    code, out, err = run(capsys, "grad-check", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["result"]["passed"] is False
    assert payload["result"]["max_rel_error"] == math.inf


def test_plan_stats_file_and_upsample(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({
        "per_language": {
            "en": {"documents": 10, "tokens": 8500},
            "ko": {"documents": 10, "tokens": 1000},
            "other": {"documents": 10, "tokens": 500},
        }
    }), encoding="utf-8")
    code, out, err = run(
        capsys, "plan", "--stats", str(stats), "--alpha", "1.0",
        "--upsample", "ko=3,other=3", "--json",
    )
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["distribution"]["en"] == pytest.approx(0.85)
    shares = payload["token_shares"]
    assert shares["ko"] == pytest.approx(0.3 / (0.85 + 0.3 + 0.15), rel=1e-12)
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)


def _stats_with(code="ko", **entry):
    return json.dumps({"per_language": {"en": {"documents": 2, "tokens": 9},
                                        code: {"documents": 1, "tokens": 4, **entry}}})


@pytest.mark.parametrize("command, content, message", [
    ("plan", b'{"per_language": {"en": ', "not valid JSON"),
    ("plan", b'{"per_language": [1, 2]}', "'per_language' is not an object"),
    ("plan", b'{"per_language": {"en": 5}}', "en documents must be a non-negative integer"),
    ("plan", b'{"per_language": {"en": {"tokens": 9}}}', "got None"),
    ("plan", b"\xff\xfe{}", "not valid UTF-8"),
    ("plan", b"", "'per_language' is not an object"),
    ("plan", _stats_with(tokens=1.9).encode(), "ko tokens must be a non-negative integer, "
                                               "got 1.9"),
    ("plan", _stats_with(tokens=True).encode(), "got True"),
    ("plan", _stats_with(documents=-1).encode(), "ko documents must be a non-negative "
                                                 "integer, got -1"),
    ("plan", _stats_with(code="EN").encode(), "language code must be"),
    ("eval-consistency", b'{"item_id": "a", "src_correct": true, "tgt_correct": true}\n'
                         b'{"item_id": "b\xff", "src_correct": true, "tgt_correct": true}\n',
     "line 2: not valid UTF-8"),
    ("plan", b'{"per_language": {"en": {"documents": 2, "tokens": 1' + b"0" * 4999 + b"}}}",
     "not valid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    ("eval-consistency", b'{"item_id": "a", "src_correct": true, "tgt_correct": true}\n'
                         b'{"item_id": "b", "src_correct": true, "tgt_correct": true, "n": 1'
                         + b"0" * 4999 + b"}\n", "line 2: not valid JSON: Exceeds the limit"),
    ("plan", b'{"per_language": {"en": {"documents": 2, "tokens": 9}}, "m": '
             + b"[" * 100_000 + b"]" * 100_000 + b"}", "not valid JSON: nested too deeply"),
    ("eval-consistency", b'{"item_id": "a", "src_correct": true, "tgt_correct": true}\n'
                         b'{"item_id": "b", "src_correct": true, "tgt_correct": true, "m": '
                         + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
     "line 2: not valid JSON: nested too deeply"),
], ids=["stats-malformed-json", "stats-per-language-list", "stats-entry-not-object",
        "stats-count-missing", "stats-not-utf8", "stats-empty-file", "stats-float-count",
        "stats-bool-count", "stats-negative-count", "stats-uppercase-code", "pairs-not-utf8",
        "stats-long-integer", "pairs-long-integer", "stats-nested-too-deeply",
        "pairs-nested-too-deeply"])
def test_bad_json_input_is_a_named_error(tmp_path, capsys, command, content, message):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    flag = "--stats" if command == "plan" else "--pairs"
    code, out, err = run(capsys, command, flag, str(path))
    assert code == 2 and not out
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err


def test_invalid_utf8_line_is_skipped_by_filter(tmp_path, capsys):
    src = tmp_path / "raw.jsonl"
    write_corpus(src, n_en=5, n_ko=0, scores=True)
    with src.open("ab") as fh:
        fh.write(b"\xff\xfe\n")
    code, out, err = run(
        capsys, "filter", "--input", str(src), "--output", str(tmp_path / "k.jsonl"),
        "--keep", "1.0",
    )
    assert code == 0
    assert "malformed lines skipped: 1" in out


@pytest.mark.parametrize("argv", [
    ["pack", "--output", "OUT", "--seq-len", "16", "--input"],
    ["plan", "--corpus"],
])
def test_pack_and_plan_count_malformed_lines(tmp_path, capsys, argv):
    src = tmp_path / "raw.jsonl"
    write_corpus(src, n_en=5, n_ko=5)
    argv = [str(tmp_path / "o.xlda") if a == "OUT" else a for a in argv] + [str(src)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "malformed lines skipped: 0" in out
    clean = out
    with src.open("ab") as fh:  # a truncated record and an invalid byte
        fh.write(b'{"id":"k9","lang":"ko","tokens":[1,2\n\xff\n')
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == clean.replace("malformed lines skipped: 0", "malformed lines skipped: 2")
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    assert json.loads(out)["result"]["malformed_lines"] == 2


@pytest.mark.parametrize("argv", [
    ["filter", "--output", "OUT", "--keep", "1.0", "--input"],
    ["pack", "--output", "OUT", "--seq-len", "16", "--input"],
    ["plan", "--corpus"],
])
def test_an_integer_beyond_the_digit_limit_is_a_line_error(tmp_path, capsys, argv):
    src = tmp_path / "raw.jsonl"
    write_corpus(src, n_en=5, n_ko=5, scores=True)
    with src.open("ab") as fh:  # 5,000 digits: more than Python reads as an int
        fh.write(b'{"id":"a","lang":"en","tokens":[1],"score":1' + b"0" * 4999 + b"}\n")
    argv = [str(tmp_path / "o") if a == "OUT" else a for a in argv] + [str(src), "--json"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and "Traceback" not in err, err
    assert json.loads(out)["result"]["malformed_lines"] == 1


def test_leading_byte_order_mark_costs_no_record(tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    src = tmp_path / "raw.jsonl"
    src.write_bytes(bom + b'{"id":"e0","lang":"en","tokens":[1,2],"score":1.0}\n'
                    b'{"id":"e1","lang":"en","tokens":[3],"score":2.0}\n')
    code, out, err = run(
        capsys, "filter", "--input", str(src), "--output", str(tmp_path / "k.jsonl"),
        "--keep", "1.0",
    )
    assert code == 0, err
    assert "documents: 2 in, 2 kept" in out and "malformed lines skipped: 0" in out
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_bytes(bom + b'{"item_id":"a","src_correct":true,"tgt_correct":true}\n'
                      b'{"item_id":"b","src_correct":false,"tgt_correct":true}\n')
    code, out, err = run(capsys, "eval-consistency", "--pairs", str(pairs), "--json")
    assert code == 0, err
    assert json.loads(out)["result"]["n_items"] == 2


def test_leading_byte_order_mark_leaves_stats_and_config_unchanged(tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    stats = _stats_with().encode()
    config = b"[schedule]\npeak_lr = 0.002\nwarmup_steps = 7\n"
    runs = {"stats": lambda path: run(capsys, "plan", "--stats", str(path), "--json"),
            "config": lambda path: run(capsys, "schedule", "--config", str(path))}
    for (name, content), at in itertools.product((("stats", stats), ("config", config)),
                                                 ("plain", "marked", "doubled")):
        path = tmp_path / f"{name}-{at}"
        path.write_bytes({"plain": b"", "marked": bom, "doubled": 2 * bom}[at] + content)
        code, out, err = runs[name](path)
        if at == "plain":
            plain = (code, out, err)
            assert code == 0, err
        elif at == "marked":
            assert (code, out, err) == plain
        else:  # a mark is skipped only at the very start of the file
            assert code == 2 and not out and "Traceback" not in err
    assert "# warmup_steps = 7" in plain[1]


@pytest.mark.parametrize("command, flag", [("transfer", "--report"),
                                           ("train-toy", "--metrics"),
                                           ("transfer", "--emit-config")])
def test_unwritable_output_path_is_refused_before_training(settings_dir, tmp_path, capsys,
                                                           monkeypatch, command, flag):
    started = []
    monkeypatch.setattr(cli.training, "transfer_experiment", started.append)
    monkeypatch.setattr(cli.training, "train", lambda *args: started.append(args))
    argv = (["transfer", "--steps", "1"] if command == "transfer" else
            ["train-toy", "--packed", str(settings_dir / "batch.xlda"), "--policy", "xlda",
             "--steps", "1"])
    missing = tmp_path / "no" / "such" / "dir" / "out.json"
    for path, message in ((missing, f"no such directory {missing.parent}"),
                          (tmp_path, "is a directory")):
        code, out, err = run(capsys, *argv, flag, str(path))
        assert code == 2 and not out and not started
        assert err.startswith(f"error: {flag} {path}") and message in err, err
        assert "Traceback" not in err
    assert not (tmp_path / "no").exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [0xFFFFFFFF, 2**32])
def test_pack_token_id_outside_range_exit_2(tmp_path, capsys, bad):
    src = tmp_path / "corpus.jsonl"
    src.write_text('{"id":"e0","lang":"en","tokens":[1,2]}\n'
                   f'{{"id":"k0","lang":"ko","tokens":[3,{bad}]}}\n', encoding="utf-8")
    code, out, err = run(
        capsys, "pack", "--input", str(src), "--output", str(tmp_path / "o.xlda"),
        "--seq-len", "8",
    )
    assert code == 2
    assert err.startswith("error: document 'k0'")


def test_malformed_config_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("seed = 3\n", encoding="utf-8")  # no section header
    code, out, err = run(capsys, "schedule", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: malformed config file")
    assert "Traceback" not in err


def test_config_file_threads_key_is_ignored(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    write_corpus(src)
    cfg = tmp_path / "old.ini"
    cfg.write_text("[global]\nthreads = 0\n", encoding="utf-8")
    code, out, err = run(
        capsys, "pack", "--input", str(src), "--output", str(tmp_path / "o.xlda"),
        "--seq-len", "16", "--config", str(cfg),
    )
    assert code == 0
    assert "# threads" not in out  # not read, so not echoed


def test_python_dash_m_runs_the_cli():
    code, out, err = fresh_process("--version")
    assert code == 0
    assert out.strip() == xlda_kit.__version__


def _outputs_at_blas_threads(tmp_path, threads):
    """Exit codes, stdout and stderr of pack, train-toy and two transfer runs,
    each in a new interpreter whose BLAS pools hold ``threads`` threads, and
    the files they wrote."""
    work = tmp_path / f"threads{threads}"
    work.mkdir()
    write_corpus(work / "corpus.jsonl", n_en=400, n_ko=400, seed=3, max_id=60)
    blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                         str(threads))
    runs = [
        ("pack", "--input", "corpus.jsonl", "--output", "p.xlda", "--seq-len", "512",
         "--rho", "0.5", "--alpha", "0.3", "--seed", "1", "--json"),
        ("train-toy", "--packed", "p.xlda", "--policy", "bridge", "--batch-seqs", "4",
         "--steps", "12", "--metrics", "m.csv", "--seed", "3", "--json"),
        ("transfer", "--steps", "40", "--seq-len", "64", "--report", "r64.json"),
        ("transfer", "--steps", "20", "--seq-len", "128", "--report", "r128.json"),
    ]
    return ([fresh_process(*argv, cwd=work, **blas) for argv in runs],
            {f.name: f.read_bytes() for f in sorted(work.iterdir())})


def test_outputs_are_byte_identical_across_blas_thread_counts(tmp_path):
    """The packed file, train-toy's stdout (with ``params_sha256``) and
    metrics CSV, and the transfer reports do not depend on the BLAS thread
    count. About 8 s on a 2-core x86-64 VM; never more than two BLAS threads."""
    one, two = (_outputs_at_blas_threads(tmp_path, n) for n in (1, 2))
    assert [code for code, _, _ in one[0]] == [0, 0, 0, 0], one[0]
    assert '"params_sha256"' in one[0][1][1]
    assert {"p.xlda", "m.csv", "r64.json", "r128.json"} <= set(one[1])
    assert one == two


# --- the settings table: typed keys, unknown keys and non-finite values ---


@pytest.fixture(scope="module")
def settings_dir(tmp_path_factory):
    """A tiny corpus and a file packed from it at seq_len 16, ids below 64."""
    base = tmp_path_factory.mktemp("settings")
    write_corpus(base / "corpus.jsonl", n_en=12, n_ko=12, seed=3, max_id=60)
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["pack", "--input", str(base / "corpus.jsonl"),
                         "--output", str(base / "batch.xlda"), "--seq-len", "16"]) == 0
    return base


def settings_commands(base):
    corpus, packed = str(base / "corpus.jsonl"), str(base / "batch.xlda")
    return [
        ["pack", "--input", corpus, "--output", str(base / "out.xlda")],
        ["schedule"],
        ["plan", "--corpus", corpus],
        ["train-toy", "--packed", packed, "--policy", "xlda", "--steps", "1"],
    ]


_REAL_KEYS = sorted(set(SETTINGS) | RETIRED)
_JUNK_KEYS = st.tuples(
    st.sampled_from(sorted({s for s, _ in SETTINGS}) + ["DEFAULT", "pack", "Model", "x"]),
    st.sampled_from(sorted({k for _, k in SETTINGS}) + ["sequence_len", "pad", "SEED"]),
)
_VALUES = st.one_of(
    # small, so no drawn model shape or window length allocates more than a few MB
    st.integers(-3, 64).map(str),
    st.floats().map(repr),
    st.sampled_from(sorted({setting.default for setting in SETTINGS.values()})),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "1e309", "true", "off", "drop",
                     "split_across_sequences", "anneal", "math_code", "en=0.5,ko=0.5",
                     "en=nan,ko=0.5", "en=1", "5%"]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=8),
)


def _small(value: str) -> bool:
    try:
        return int(value) <= 64
    except ValueError:
        return True


# a model shape from a default string such as "1000000" or "4096" would
# start a training run of several GiB
_MODEL_SHAPES = {("model", key) for key in ("n_layers", "d_model", "d_ff", "n_heads",
                                            "vocab_size")}
_SHAPE_VALUES = _VALUES.filter(_small)


@settings(max_examples=120, deadline=None)
@given(entries=st.lists(
    st.one_of(st.sampled_from(_REAL_KEYS), st.sampled_from(_REAL_KEYS), _JUNK_KEYS).flatmap(
        lambda key: st.tuples(st.just(key),
                              _SHAPE_VALUES if key in _MODEL_SHAPES else _VALUES)),
    max_size=5))
def test_random_ini_file_exits_0_or_2(settings_dir, entries):
    sections: dict[str, dict[str, str]] = {}
    for (section, key), value in entries:
        sections.setdefault(section, {})[key] = value
    ini = settings_dir / "random.ini"
    ini.write_text("".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                           for s, kv in sections.items()), encoding="utf-8")
    for argv in settings_commands(settings_dir):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch([*argv, "--config", str(ini)])
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2), (argv, err.getvalue())
        assert (code == 2) == err.getvalue().startswith("error: "), (argv, err.getvalue())


@pytest.mark.parametrize("argv, ini, code, message", [
    (["schedule"], "[pack]\nseq_len = 16\n", 2, "unknown section [pack]"),
    (["pack", "--input", "CORPUS", "--output", "OUT"], "[packer]\nsequence_len = 16\n", 2,
     "unknown key 'sequence_len' in [packer]"),
    (["schedule"], "[DEFAULT]\nseed = 3\n", 2, "keys under [DEFAULT]"),
    (["schedule"], "[schedule]\npeak_lr = nan\n", 2,
     "[schedule] peak_lr must be a finite number, got 'nan'"),
    (["schedule"], "[schedule]\npeak_lr = 5%\n", 2, "peak_lr must be a finite number"),
    (["schedule"], "[model]\nd_model = 0\n", 2, "[model] d_model must be an integer >= 1"),
    (["pack", "--input", "CORPUS", "--output", "OUT"], "[packer]\ncross_doc_labels = maybe\n",
     2, "[packer] cross_doc_labels must be a boolean"),
    (["schedule", "--config", "DIR"], None, 2, "config file is a directory, not a file"),
    (["schedule", "--peak", "nan"], None, 1, "--peak: expected a finite number, got 'nan'"),
    (["train-toy", "--packed", "PACKED", "--policy", "intra", "--steps", "2", "--peak", "nan"],
     None, 1, "--peak: expected a finite number"),
    (["train-toy", "--packed", "PACKED", "--policy", "intra", "--steps", "2",
      "--weight-decay", "nan"], None, 1, "--weight-decay: expected a finite number"),
    (["grad-check", "--tolerance", "nan"], None, 1, "--tolerance: expected a finite number"),
    (["advise", "--params-from", "inf", "--tokens-from", "1e11", "--params-to", "7e9",
      "--tokens-to", "2e12"], None, 1, "--params-from: expected a finite number, got 'inf'"),
    # finite inputs whose compute ratio is not a positive finite float
    (["advise", "--params-from", "1e-200", "--tokens-from", "1e-200", "--params-to", "1",
      "--tokens-to", "1"], None, 2, "compute ratio out of float range for params_from=1e-200, "
     "tokens_from=1e-200, params_to=1.0, tokens_to=1.0"),
    (["advise", "--params-from", "1", "--tokens-from", "1", "--params-to", "1e200",
      "--tokens-to", "1e200", "--json"], None, 2, "compute ratio out of float range for "
     "params_from=1.0, tokens_from=1.0, params_to=1e+200, tokens_to=1e+200"),
    # a bad number in a code=value flag is a usage error naming the flag;
    # the same value in a config file is a config error naming the key
    (["plan", "--corpus", "CORPUS", "--beta", "en=nan,ko=0.5"], None, 1,
     "--beta: expected code=value pairs summing to 1, got 'en=nan,ko=0.5'"),
    (["plan", "--corpus", "CORPUS", "--upsample", "ko=nan"], None, 1,
     "--upsample: expected code=factor pairs, got 'ko=nan'"),
    (["plan", "--corpus", "CORPUS", "--upsample", "ko=inf"], None, 1,
     "--upsample: expected code=factor pairs, got 'ko=inf'"),
    (["pack", "--input", "CORPUS", "--output", "OUT", "--beta", "en=0.5"], None, 1,
     "--beta: expected code=value pairs summing to 1, got 'en=0.5'"),
    (["plan", "--corpus", "CORPUS"], "[sampler]\nbeta = en=nan,ko=0.5\n", 2,
     "[sampler] beta must be code=value pairs summing to 1, got 'en=nan,ko=0.5'"),
    (["plan", "--corpus", "CORPUS", "--upsample", "ko=-1"], None, 2,
     "share['ko'] is negative: "),
    (["plan", "--corpus", "CORPUS", "--upsample", "zz=2"], None, 2,
     "unknown language in upsample factors: 'zz'"),
    (["pack", "--input", "CORPUS", "--output", "OUT", "--alpha", "0.0", "--beta", "en=1.0"],
     None, 2, "languages in stats missing from beta: ['ko']"),
    (["train-toy", "--packed", "PACKED", "--policy", "intra", "--steps", "3"],
     "[schedule]\ntotal_steps = 500\n", 2,
     "[schedule] total_steps = 500 in the config file conflicts with 3, set by --steps"),
    (["train-toy", "--packed", "PACKED", "--policy", "intra", "--steps", "3", "--warmup", "1"],
     "[schedule]\nwarmup_steps = 50\n", 2,
     "[schedule] warmup_steps = 50 in the config file conflicts with 1, set by --warmup"),
    (["train-toy", "--packed", "PACKED", "--policy", "intra", "--steps", "3"],
     "[schedule]\nseq_len = 32\n", 2,
     "[schedule] seq_len = 32 in the config file conflicts with 16, set by the packed file"),
    (["train-toy", "--packed", "PACKED", "--policy", "intra", "--steps", "2"],
     "[model]\ndtype = float16\n", 2,
     "[model] dtype must be one of float32|float64, got 'float16'"),
    (["transfer", "--steps", "1"], "[model]\ndtype = double\n", 2,
     "[model] dtype must be one of float32|float64, got 'double'"),
    (["train-toy", "--packed", "PACKED", "--policy", "intra", "--steps", "-1"], None, 1,
     "--steps: expected an integer >= 0, got '-1'"),
    (["transfer", "--steps", "-1"], None, 1, "--steps: expected an integer >= 0, got '-1'"),
    (["transfer", "--steps", "2.5"], None, 1, "--steps: expected an integer >= 0, got '2.5'"),
    # an integer flag below its bound is a usage error naming the flag; the
    # same value in a config file is a config error naming the key
    (["pack", "--input", "CORPUS", "--output", "OUT", "--seq-len", "3"], None, 1,
     "--seq-len: expected an integer >= 8, got '3'"),
    (["pack", "--input", "CORPUS", "--output", "OUT"], "[packer]\nseq_len = 3\n", 2,
     "[packer] seq_len must be an integer >= 8, got '3'"),
    (["schedule", "--warmup", "-1"], None, 1, "--warmup: expected an integer >= 0, got '-1'"),
    (["schedule"], "[schedule]\nwarmup_steps = -1\n", 2,
     "[schedule] warmup_steps must be an integer >= 0, got '-1'"),
    (["schedule", "--total", "0"], None, 1, "--total: expected an integer >= 1, got '0'"),
    (["schedule"], "[schedule]\ntotal_steps = 0\n", 2,
     "[schedule] total_steps must be an integer >= 1, got '0'"),
    (["train-toy", "--packed", "PACKED", "--policy", "intra", "--steps", "2", "--warmup", "-1"],
     None, 1, "--warmup: expected an integer >= 0, got '-1'"),
    (["mask", "--policy", "xlda", "--from", "PACKED", "--index", "-1"], None, 1,
     "--index: expected an integer >= 0, got '-1'"),
    (["transfer", "--seq-len", "7"], None, 1, "--seq-len: expected an integer >= 8, got '7'"),
    (["transfer"], "[transfer]\nseq_len = 7\n", 2,
     "[transfer] seq_len must be an integer >= 8, got '7'"),
    (["transfer", "--train-windows", "3"], None, 1,
     "--train-windows: expected an integer >= 4, got '3'"),
    (["transfer"], "[transfer]\ntrain_windows = 3\n", 2,
     "[transfer] train_windows must be an integer >= 4, got '3'"),
    (["transfer", "--eval-windows", "0"], None, 1,
     "--eval-windows: expected an integer >= 1, got '0'"),
    (["transfer"], "[transfer]\neval_windows = 0\n", 2,
     "[transfer] eval_windows must be an integer >= 1, got '0'"),
    (["transfer", "--probe-docs", "1"], None, 1,
     "--probe-docs: expected an integer >= 2, got '1'"),
    (["transfer"], "[transfer]\nn_probe_docs = 1\n", 2,
     "[transfer] n_probe_docs must be an integer >= 2, got '1'"),
], ids=["unknown-section", "unknown-key", "default-section", "config-nan", "config-percent",
        "config-int-below-bound", "config-bool", "config-directory", "schedule-peak-nan",
        "train-peak-nan", "train-weight-decay-nan", "grad-check-tolerance-nan",
        "advise-inf", "advise-ratio-underflow", "advise-ratio-overflow", "plan-beta-nan",
        "plan-upsample-nan", "plan-upsample-inf",
        "pack-beta-sum-flag", "plan-beta-nan-config", "plan-upsample-negative",
        "plan-upsample-unknown",
        "pack-beta-misses-language", "train-total-steps-conflict",
        "train-warmup-conflict", "train-seq-len-conflict", "train-model-dtype",
        "transfer-model-dtype", "train-steps-negative", "transfer-steps-negative",
        "transfer-steps-fraction", "pack-seq-len-flag", "pack-seq-len-config",
        "schedule-warmup-flag", "schedule-warmup-config", "schedule-total-flag",
        "schedule-total-config", "train-warmup-flag", "mask-index-flag",
        "transfer-seq-len-flag", "transfer-seq-len-config", "transfer-train-windows-flag",
        "transfer-train-windows-config", "transfer-eval-windows-flag",
        "transfer-eval-windows-config", "transfer-probe-docs-flag",
        "transfer-probe-docs-config"])
def test_bad_setting_is_a_named_error(settings_dir, tmp_path, capsys, argv, ini, code, message):
    places = {"CORPUS": settings_dir / "corpus.jsonl", "PACKED": settings_dir / "batch.xlda",
              "OUT": tmp_path / "o.xlda", "DIR": tmp_path}
    argv = [str(places.get(a, a)) for a in argv]
    if ini is not None:
        (tmp_path / "bad.ini").write_text(ini, encoding="utf-8")
        argv += ["--config", str(tmp_path / "bad.ini")]
    got, out, err = run(capsys, *argv)
    assert got == code and not out
    assert message in err
    assert "Traceback" not in err


def test_window_too_large_to_allocate_is_a_named_error(settings_dir, tmp_path, capsys,
                                                       monkeypatch):
    # 10**13 uint32 tokens are 36.4 TiB; a 1 TiB address-space limit makes
    # the allocation fail at once whatever the host's overcommit policy
    argv = ["pack", "--input", str(settings_dir / "corpus.jsonl"),
            "--output", str(tmp_path / "o.xlda"), "--seq-len", "10000000000000"]
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1 << 40 if hard == resource.RLIM_INFINITY else min(1 << 40, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        # the memory estimate refuses the window before it is allocated
        refused = run(capsys, *argv)
        # a host that reports room for it gets as far as the allocation
        monkeypatch.setattr(cli, "_available_memory", lambda: 1 << 62)
        code, out, err = run(capsys, *argv)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert refused[0] == 2 and not refused[1]
    assert refused[2].startswith("error: packing needs about 74505.9 GiB, more than the ")
    assert code == 2 and not out
    assert err.startswith("error: out of memory: ")
    assert "Traceback" not in refused[2] + err
    assert not (tmp_path / "o.xlda").exists()


def test_train_toy_beyond_physical_memory_is_a_config_error(settings_dir, tmp_path, capsys,
                                                           monkeypatch):
    argv = ["train-toy", "--packed", str(settings_dir / "batch.xlda"), "--policy", "xlda",
            "--steps", "1"]
    # the default model needs about 67 MiB; a host reading of 32 MiB refuses it
    monkeypatch.setattr(cli, "_available_memory", lambda: 32 << 20)
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "training needs about 0.1 GiB, more than the 0.0 GiB of available memory" in err
    monkeypatch.undo()
    assert run(capsys, *argv)[0] == 0
    # 4e12 parameters: refused from the shapes, before anything is allocated
    (tmp_path / "wide.ini").write_text("[model]\nd_model = 1000000\n", encoding="utf-8")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--config", str(tmp_path / "wide.ini"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and not out
    assert err.startswith("error: training needs about ") and "Traceback" not in err
    assert peak < 16 << 20


@pytest.mark.parametrize("separators", [None, (",", ":"), (", ", " : ")],
                         ids=["default", "compact", "spaced"])
@pytest.mark.parametrize("seq_len", [16, 65536])
def test_pack_working_set_bounds_a_traced_run(tmp_path, capsys, monkeypatch, seq_len,
                                              separators):
    """The estimate charges the documents held, the longest one's parse, the
    windows with the writer's copy of their tokens, and their spans; it
    stays an upper bound on what a `pack` allocates. The records are written
    as `json.dumps` and `filter` write them, whose token arrays `ingest`
    reads as text, and with a spaced colon, which has every line parsed
    whole."""
    write_corpus(tmp_path / "corpus.jsonl", n_en=400, n_ko=400, seed=5, max_id=60,
                 separators=separators)
    argv = ["pack", "--input", str(tmp_path / "corpus.jsonl"),
            "--output", str(tmp_path / "o.xlda"), "--seq-len", str(seq_len)]
    assert run(capsys, *argv)[0] == 0  # imports and first-use caches stay out of the count
    needs = []
    real_check = cli._check_memory
    monkeypatch.setattr(cli, "_check_memory", lambda need, *rest: needs.append(need)
                        or real_check(need, *rest))
    tracemalloc.start()
    try:
        code = run(capsys, *argv)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(needs) == 1
    assert peak < needs[0] - (64 << 20)


def test_pack_beyond_available_memory_is_a_config_error(settings_dir, tmp_path, capsys,
                                                       monkeypatch):
    output = tmp_path / "o.xlda"
    argv = ["pack", "--input", str(settings_dir / "corpus.jsonl"), "--output", str(output)]
    # packing the tiny corpus needs about 64 MiB; a host reading of 32 MiB refuses it
    monkeypatch.setattr(cli, "_available_memory", lambda: 32 << 20)
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and not output.exists()
    assert ("packing needs about 0.1 GiB, more than the 0.0 GiB of available memory; "
            "shrink --seq-len or split the corpus") in err
    monkeypatch.undo()
    assert run(capsys, *argv)[0] == 0 and output.exists()


def test_model_dtype_reaches_train_toy_and_transfer(settings_dir, tmp_path, capsys,
                                                    monkeypatch):
    float64 = tmp_path / "float64.ini"
    float64.write_text("[model]\ndtype = float64\n", encoding="utf-8")
    inits = []
    real_init = cli.toy.init
    monkeypatch.setattr(cli.toy, "init", lambda config: inits.append(config.dtype)
                        or real_init(config))
    train = ["train-toy", "--packed", str(settings_dir / "batch.xlda"), "--policy", "xlda",
             "--steps", "1"]
    for extra, dtype in (([], "float32"), (["--config", str(float64)], "float64")):
        code, out, err = run(capsys, *train, *extra)
        assert code == 0, err
        assert f"# dtype = {dtype}" in out
    assert inits == ["float32", "float64"]
    specs = []

    def stop(spec):
        specs.append(spec)
        raise cli.XldaKitError("stopped before training")

    monkeypatch.setattr(cli.training, "transfer_experiment", stop)
    assert run(capsys, "transfer", "--steps", "1")[0] == 2
    assert run(capsys, "transfer", "--steps", "1", "--config", str(float64))[0] == 2
    assert [spec.dtype for spec in specs] == ["float32", "float64"]


def test_transfer_beyond_available_memory_is_a_config_error(capsys, monkeypatch):
    started = []
    monkeypatch.setattr(cli.training, "transfer_experiment", started.append)
    # the default transfer needs about 97 MiB; a host reading of 32 MiB refuses it
    monkeypatch.setattr(cli, "_available_memory", lambda: 32 << 20)
    code, out, err = run(capsys, "transfer", "--steps", "1")
    assert code == 2 and not out and not started
    assert ("training needs about 0.1 GiB, more than the 0.0 GiB of available memory; "
            "shrink --seq-len") in err
    monkeypatch.undo()
    monkeypatch.setattr(cli.training, "transfer_experiment", started.append)
    # 10**8-token windows: refused from the shapes, before anything is allocated
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "transfer", "--steps", "1", "--seq-len", "100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and not out and not started
    assert err.startswith("error: training needs about ") and "Traceback" not in err
    assert peak < 16 << 20


def test_available_memory_reads_meminfo_and_falls_back(tmp_path):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:        8000000 kB\nMemFree:          100000 kB\n"
                       "MemAvailable:     2048000 kB\n", encoding="ascii")
    assert cli._available_memory(str(meminfo)) == 2048000 * 1024
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert cli._available_memory(str(tmp_path / "missing")) == physical
    # kernels before 3.14 have no MemAvailable line
    meminfo.write_text("MemTotal:        8000000 kB\n", encoding="ascii")
    assert cli._available_memory(str(meminfo)) == physical
    meminfo.write_text("MemAvailable: many\n", encoding="ascii")
    assert cli._available_memory(str(meminfo)) == physical


@pytest.mark.parametrize("pad_token", ["-1", "100"])
def test_retired_pad_token_is_ignored(settings_dir, tmp_path, capsys, pad_token):
    cfg = tmp_path / "old.ini"
    cfg.write_text(f"[packer]\npad_token = {pad_token}\n", encoding="utf-8")
    corpus = str(settings_dir / "corpus.jsonl")
    code, out, err = run(capsys, "pack", "--input", corpus, "--output", str(tmp_path / "o.xlda"),
                         "--seq-len", "16", "--config", str(cfg))
    assert code == 0 and "# pad_token" not in out
    assert (tmp_path / "o.xlda").read_bytes() == (settings_dir / "batch.xlda").read_bytes()
    code, out, err = run(capsys, "train-toy", "--packed", str(tmp_path / "o.xlda"),
                         "--policy", "xlda", "--steps", "1")
    assert code == 0, err
