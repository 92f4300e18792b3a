import json

import numpy as np
import pytest

from xlda_kit.cli import dispatch
from xlda_kit.packing import read_packed
from xlda_kit.schedule import ScheduleConfig, batch_size_at, lr_at


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corpus(path, n_en=30, n_ko=30, seed=0, scores=False, max_id=99):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    lines = []
    for i in range(n_en):
        rec = {"id": f"e{i}", "lang": "en",
               "tokens": [int(t) for t in gen.integers(1, max_id, int(gen.integers(1, 8)))]}
        if scores:
            rec["score"] = float(np.round(gen.uniform(0, 5), 2))
        lines.append(json.dumps(rec))
    for i in range(n_ko):
        rec = {"id": f"k{i}", "lang": "ko",
               "tokens": [int(t) for t in gen.integers(1, max_id, int(gen.integers(1, 8)))]}
        if scores:
            rec["score"] = float(np.round(gen.uniform(0, 5), 2))
        lines.append(json.dumps(rec))
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
    assert multi.ntp_labels[boundary] == multi.tokens[boundary + 1]


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


def test_missing_input_file_exit_2(tmp_path, capsys):
    code, out, err = run(
        capsys, "pack", "--input", str(tmp_path / "nope.jsonl"),
        "--output", str(tmp_path / "o.xlda"),
    )
    assert code == 2
    assert "no such file" in err


def test_transfer_cli_small_run(tmp_path, capsys):
    report = tmp_path / "transfer.json"
    code, out, err = run(
        capsys, "transfer", "--steps", "3", "--train-windows", "16",
        "--eval-windows", "4", "--probe-docs", "16", "--seq-len", "64",
        "--report", str(report), "--json",
    )
    assert code == 0
    payload = json.loads(out)["result"]
    assert set(payload["packed"]) == {
        "xlda_full_causal", "intra_document_causal"
    }
    saved = json.loads(report.read_text())
    assert saved["steps"] == 3
    assert set(saved["single_doc"]) == set(payload["single_doc"])


def test_grad_check_cli(capsys):
    code, out, err = run(capsys, "grad-check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["passed"] is True
    assert payload["result"]["max_rel_error"] < 1e-6


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
