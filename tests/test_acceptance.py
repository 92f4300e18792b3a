"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines stream.
"""

import hashlib
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from xlda_kit import model as toy
from xlda_kit import rng
from xlda_kit.cli import dispatch
from xlda_kit.consistency import PredictionPair, consistency_metrics
from xlda_kit.corpus import Document, LanguageTag
from xlda_kit.masks import (
    MaskPolicy,
    MaskSpec,
    allowed_pair_count,
    is_allowed,
    materialize_dense,
    segment_ids,
    spans_from_lengths,
)
from xlda_kit.packing import IGNORE_LABEL, PackReport, PackerConfig, pack_stream
from xlda_kit.sampling import CategoricalDraw, SamplerConfig, language_distribution
from xlda_kit.schedule import ScheduleConfig, compute_ratio, lr_at, lr_scale_factor, vocab_scale_factor
from xlda_kit.corpus import CorpusStats, LanguageStats
from xlda_kit.training import TransferSpec, transfer_experiment

EN = LanguageTag("en", "english")
KO = LanguageTag("ko", "multilingual")
POLICIES = list(MaskPolicy)


@contextmanager
def criterion(n, description):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {n:2d} ({time.time() - t0:7.1f}s): {description}")
        raise
    print(f"PASS  criterion {n:2d} ({time.time() - t0:7.1f}s): {description}")


def philox(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def test_criterion_01_scaling_law_reproduction(capsys):
    with criterion(1, "advise reproduces the reference lr and vocab factors"):
        t0 = time.time()
        code = dispatch([
            "advise", "--params-from", "1.8e9", "--tokens-from", "1e11",
            "--params-to", "7e9", "--tokens-to", "2e12", "--json",
        ])
        elapsed = time.time() - t0
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)["result"]
        assert abs(payload["lr_scale_factor"] - 0.57) <= 0.02
        assert abs(payload["vocab_scale_factor"] - 6.3) <= 0.15
        assert elapsed < 1.0
        ratio = compute_ratio(1.8e9, 1e11, 7e9, 2e12)
        assert payload["lr_scale_factor"] == lr_scale_factor(ratio)
        assert payload["vocab_scale_factor"] == vocab_scale_factor(ratio)


def _random_schedule(gen):
    total = int(gen.integers(50, 4000))
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
        batch_end_tokens=2048,
        batch_ramp_tokens=1_000_000,
        seq_len=128,
    )


def test_criterion_02_scheduler_exactness():
    with criterion(2, "WSD scheduler anchors, continuity, monotonicity (1000 configs)"):
        defaults = ScheduleConfig()
        assert lr_at(defaults, 0) == 0.0
        assert lr_at(defaults, 2000) == 2.0e-4
        assert abs(lr_at(defaults, defaults.total_steps) - 2.0e-5) <= 1e-12 * 2.0e-5
        gen = philox(2)
        for _ in range(1000):
            cfg = _random_schedule(gen)
            peak = cfg.peak_lr
            # continuity at both breakpoints (exact equality of one-sided limits)
            assert lr_at(cfg, cfg.warmup_steps) == peak
            assert lr_at(cfg, cfg.decay_start) == peak
            # endpoint within 1e-12 relative
            end = lr_at(cfg, cfg.total_steps)
            assert abs(end - cfg.final_ratio * peak) <= 1e-12 * cfg.final_ratio * peak
            # warmup non-decreasing on sampled grid
            warm_grid = sorted({0, cfg.warmup_steps} | {
                int(x) for x in gen.integers(0, cfg.warmup_steps + 1, 8)
            })
            warm_vals = [lr_at(cfg, s) for s in warm_grid]
            assert warm_vals == sorted(warm_vals)
            # stable phase constant
            for s in gen.integers(cfg.warmup_steps, cfg.decay_start + 1, 4):
                assert lr_at(cfg, int(s)) == peak
            # decay strictly decreasing on sampled grid
            decay_grid = sorted({cfg.decay_start, cfg.total_steps} | {
                int(x) for x in gen.integers(cfg.decay_start, cfg.total_steps + 1, 8)
            })
            decay_vals = [lr_at(cfg, s) for s in decay_grid]
            assert all(b < a for a, b in zip(decay_vals, decay_vals[1:]))


def _compositions(n):
    if n == 0:
        yield []
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield [first] + rest


def _brute_cell(spec, doc, lang, q, k):
    if k > q or q >= spec.pad_start or k >= spec.pad_start:
        return False
    if spec.policy is MaskPolicy.XLDA_FULL_CAUSAL:
        return True
    if spec.policy is MaskPolicy.INTRA_DOCUMENT_CAUSAL:
        return doc[q] == doc[k]
    return doc[q] == doc[k] or lang[q] != lang[k]


def test_criterion_03_mask_oracle_equivalence():
    with criterion(3, "exhaustive mask oracle equivalence for L <= 12"):
        for L in range(1, 13):
            for lengths in _compositions(L):
                n_docs = len(lengths)
                patterns = [
                    [("en", "ko")[i % 2] for i in range(n_docs)],
                    [("en", "ko")[(i // 2) % 2] for i in range(n_docs)],
                ]
                for codes in patterns:
                    spans = spans_from_lengths(lengths, codes)
                    for policy in POLICIES:
                        spec = MaskSpec(policy, spans, L, L)
                        doc, lang = segment_ids(spec)
                        dense = materialize_dense(spec, L)
                        count = 0
                        for q in range(L):
                            for k in range(L):
                                brute = _brute_cell(spec, doc, lang, q, k)
                                assert dense[q, k] == brute
                                assert is_allowed(spec, q, k) == brute
                                count += brute
                        assert allowed_pair_count(spec) == count


def _random_mask_spec(gen, policy, max_len):
    L = int(gen.integers(2, max_len + 1))
    pad = int(gen.integers(1, L + 1))
    lengths = []
    left = pad
    while left > 0:
        n = int(gen.integers(1, left + 1))
        lengths.append(n)
        left -= n
    codes = [("en", "ko", "ja")[int(gen.integers(0, 3))] for _ in lengths]
    return MaskSpec(policy, spans_from_lengths(lengths, codes), pad, L)


def test_criterion_04_policy_monotonicity():
    with criterion(4, "intra <= bridge <= xlda allowed-pair subsets (10k specs)"):
        gen = philox(4)
        for i in range(10_000):
            base = _random_mask_spec(gen, MaskPolicy.XLDA_FULL_CAUSAL, 512)
            spans = base.spans
            # policies toggle whole span-pair regions, so pair-level
            # implication is set inclusion
            for qi, si in enumerate(spans):
                for ki in range(qi + 1):
                    sk = spans[ki]
                    same = qi == ki
                    intra_ok = same
                    bridge_ok = same or si.lang.code != sk.lang.code
                    xlda_ok = True
                    assert (not intra_ok) or bridge_ok
                    assert (not bridge_ok) or xlda_ok
            if i % 100 == 0 and base.seq_len <= 128:
                dense = {
                    p: materialize_dense(
                        MaskSpec(p, spans, base.pad_start, base.seq_len), base.seq_len
                    )
                    for p in POLICIES
                }
                intra = dense[MaskPolicy.INTRA_DOCUMENT_CAUSAL]
                bridge = dense[MaskPolicy.CROSS_LINGUAL_BRIDGE]
                xlda = dense[MaskPolicy.XLDA_FULL_CAUSAL]
                assert not (intra & ~bridge).any()
                assert not (bridge & ~xlda).any()


def test_criterion_05_sampler_correctness():
    with criterion(5, "sampling distribution sums, reductions, and frequencies"):
        gen = philox(5)
        for _ in range(10_000):
            m = int(gen.integers(1, 7))
            codes = [f"l{i}" for i in range(m)]
            sizes = {c: int(gen.integers(1, 100_000)) for c in codes}
            raw = gen.uniform(0.0, 1.0, m)
            raw /= raw.sum()
            beta = dict(zip(codes, raw))
            beta[codes[0]] += 1.0 - sum(beta.values())
            cfg = SamplerConfig(alpha_temp=float(gen.uniform(0, 1)), beta=beta)
            stats = CorpusStats(per_language={
                c: LanguageStats(1, t) for c, t in sizes.items()
            })
            dist = language_distribution(cfg, stats)
            assert abs(sum(dist.values()) - 1.0) <= 1e-12
        # exact reductions
        stats = CorpusStats(per_language={
            "en": LanguageStats(1, 8500),
            "ko": LanguageStats(1, 1000),
            "other": LanguageStats(1, 500),
        })
        beta = {"en": 0.2, "ko": 0.6, "other": 0.2}
        prop = language_distribution(SamplerConfig(alpha_temp=1.0, beta=beta), stats)
        assert prop == {"en": 0.85, "ko": 0.10, "other": 0.05}
        assert language_distribution(SamplerConfig(alpha_temp=0.0, beta=beta), stats) == beta
        # empirical frequencies over 100k seeded draws, each the packer's
        # first draw of a sequence (its STREAM_PACK stream, sorted languages)
        cfg = SamplerConfig(alpha_temp=1.0, beta=beta, seed=7)
        draw = CategoricalDraw(prop)
        draws = Counter(
            draw(sorted(prop), rng.stream(cfg.seed, rng.STREAM_PACK, i))
            for i in range(100_000)
        )
        for code, p in prop.items():
            assert abs(draws[code] / 100_000 - p) <= 0.01


def _random_corpus(gen, trial, two_lang_balanced):
    docs = []
    n = int(gen.integers(6, 36))
    for i in range(n):
        if two_lang_balanced:
            lang = (EN, KO)[i % 2]
        else:
            lang = (EN, KO)[int(gen.integers(0, 2))]
        toks = tuple(int(t) for t in gen.integers(1, 500, int(gen.integers(1, 28))))
        docs.append(Document(f"c{trial}-d{i}", lang, toks))
    return docs


def _token_hash(tokens_iterable):
    h = hashlib.blake2b(digest_size=16)
    for t in sorted(tokens_iterable):
        h.update(int(t).to_bytes(4, "little"))
    return h.hexdigest()


def test_criterion_06_packer_conservation():
    with criterion(6, "packer conservation, tiling, rho=1 multilinguality, labels"):
        gen = philox(6)
        for trial in range(1000):
            rho_one = trial % 3 == 0
            docs = _random_corpus(gen, trial, two_lang_balanced=rho_one)
            sampler = SamplerConfig(
                alpha_temp=1.0,
                beta={"en": 0.5, "ko": 0.5},
                rho=1.0 if rho_one else 0.0,
                seed=trial,
            )
            config = PackerConfig(seq_len=int(gen.integers(8, 40)))
            report = PackReport()
            seqs = list(pack_stream(docs, sampler, config, report=report))
            total_in = sum(len(d.tokens) for d in docs)
            # exact conservation accounting
            assert report.tokens_packed + report.tokens_dropped + report.tokens_unconsumed == total_in
            packed_tokens = [int(t) for s in seqs for t in s.tokens[: s.pad_start]]
            assert len(packed_tokens) == report.tokens_packed
            if not rho_one:
                # nothing can stop early, so the multisets match exactly
                assert report.tokens_unconsumed == 0
                in_bag = Counter(int(t) for d in docs for t in d.tokens)
                assert Counter(packed_tokens) == in_bag
                assert _token_hash(packed_tokens) == _token_hash(
                    t for d in docs for t in d.tokens
                )
            else:
                assert all(len({sp.lang.code for sp in s.spans}) >= 2 for s in seqs)
            for s in seqs:
                pos = 0
                for span in s.spans:
                    assert span.start == pos
                    pos = span.end
                assert pos == s.pad_start
                mtp_track = toy._mtp_labels(s.labels[None])[0]
                for t in range(s.seq_len):
                    ntp = int(s.labels[t])
                    mtp = int(mtp_track[t])
                    if ntp != IGNORE_LABEL:
                        assert ntp == int(s.tokens[t + 1])
                    if mtp != IGNORE_LABEL:
                        assert mtp == int(s.tokens[t + 2])
                    if t >= s.pad_start:
                        assert ntp == IGNORE_LABEL and mtp == IGNORE_LABEL


def test_criterion_07_quality_filter():
    from xlda_kit.quality import quantile_filter, stage_preset

    with criterion(7, "quantile filter vs sort-and-cut oracle, stage presets"):
        assert stage_preset("pretrain", "english") == 0.80
        assert stage_preset("pretrain", "multilingual") == 0.50
        assert stage_preset("anneal", "english") == 0.20
        assert stage_preset("anneal", "multilingual") == 0.10
        gen = philox(7)
        for trial in range(10_000):
            n = int(gen.integers(1, 25))
            scores = np.round(gen.uniform(0, 5, n), 1)
            keep = float(gen.uniform(0.05, 1.0))
            docs = [
                Document(f"d{i:03d}", EN, (1,), score=float(s))
                for i, s in enumerate(scores)
            ]
            kept = quantile_filter(docs, keep)
            k = math.ceil(keep * n)
            ranked = sorted(docs, key=lambda d: (-d.score, d.id))
            oracle = {d.id for d in ranked[:k]}
            assert {d.id for d in kept} == oracle
            assert len(kept) == k
            # retained docs keep input order
            assert kept == [d for d in docs if d.id in oracle]


def test_criterion_08_gradient_check():
    with criterion(8, "analytic gradients vs central differences (< 1e-6)"):
        cfg = toy.ModelConfig(
            n_layers=1, d_model=8, d_ff=16, n_heads=2, vocab_size=11,
            mtp_alpha=0.2, seed=0,
        )
        n_params = toy.init(cfg).flat.size
        assert n_params <= 5000
        for alpha in (0.0, 0.2):
            report = toy.grad_check(replace(cfg, mtp_alpha=alpha), tolerance=1e-6)
            assert report.max_rel_error < 1e-6, (alpha, report.max_rel_error)
            assert report.coords_checked == n_params


def test_criterion_09_causality_and_mask_faithfulness():
    with criterion(9, "future-token invariance and single-layer mask iff-probe"):
        cfg = toy.ModelConfig(
            n_layers=1, d_model=8, d_ff=16, n_heads=2, vocab_size=11,
            mtp_alpha=0.2, seed=0,
        )
        params = toy.init(cfg)
        gen = philox(9)
        L = 8
        tokens = gen.integers(0, cfg.vocab_size, size=L, dtype=np.int64)
        spans = spans_from_lengths([4, 4], ["en", "ko"])
        for policy in POLICIES:
            spec = MaskSpec(policy, spans, L, L)
            base = toy.forward(params, tokens, spec)
            # causality: perturbing positions > t never changes logits at <= t
            for t in range(L - 1):
                bumped = tokens.copy()
                bumped[t + 1:] = (bumped[t + 1:] + 1) % cfg.vocab_size
                out = toy.forward(params, bumped, spec)
                assert np.abs(
                    out.ntp_logits[0, : t + 1] - base.ntp_logits[0, : t + 1]
                ).max() <= 1e-12
            # faithfulness: token k moves logits at q iff the pair is allowed
            for k in range(L):
                bumped = tokens.copy()
                bumped[k] = (bumped[k] + 3) % cfg.vocab_size
                out = toy.forward(params, bumped, spec)
                for q in range(L):
                    if q == k:
                        continue
                    delta = float(
                        np.abs(out.ntp_logits[0, q] - base.ntp_logits[0, q]).max()
                    )
                    if is_allowed(spec, q, k):
                        assert delta > 1e-9
                    else:
                        assert delta <= 1e-12


def test_criterion_10_loss_wiring():
    with criterion(10, "loss linear in alpha; uniform-logit CE equals ln V"):
        cfg = toy.ModelConfig(
            n_layers=1, d_model=8, d_ff=16, n_heads=2, vocab_size=11,
            mtp_alpha=0.2, seed=1,
        )
        params = toy.init(cfg)
        gen = philox(10)
        tokens = gen.integers(0, cfg.vocab_size, size=(2, 8), dtype=np.int64)
        spec = MaskSpec(
            MaskPolicy.XLDA_FULL_CAUSAL, spans_from_lengths([8], ["en"]), 8, 8
        )
        out = toy.forward(params, tokens, [spec, spec])
        ign = np.int64(IGNORE_LABEL)
        ntp = np.full_like(tokens, ign)
        ntp[:, :-1] = tokens[:, 1:]
        l0 = toy.loss(out, ntp, mtp_alpha=0.0).total
        l1 = toy.loss(out, ntp, mtp_alpha=1.0).total
        for alpha in (0.1, 0.2, 0.5, 0.9):
            la = toy.loss(out, ntp, mtp_alpha=alpha).total
            assert la == l0 + alpha * (l1 - l0)
        v = 23
        uniform = toy.ForwardOutput(
            ntp_logits=np.full((1, 4, v), 3.7), mtp_logits=np.full((1, 4, v), -1.2)
        )
        labels = np.array([[0, 5, 9, 22]], dtype=np.int64)
        breakdown = toy.loss(uniform, labels, mtp_alpha=1.0)
        assert abs(breakdown.ntp - math.log(v)) <= 1e-12
        assert abs(breakdown.mtp - math.log(v)) <= 1e-12


@pytest.mark.slow
def test_criterion_11_transfer_smoke():
    with criterion(11, "transfer: XLDA low-resource held-out loss <= intra baseline"):
        report = transfer_experiment(TransferSpec())
        lo = report.languages[1]
        xlda = report.single_doc[MaskPolicy.XLDA_FULL_CAUSAL.value]
        intra = report.single_doc[MaskPolicy.INTRA_DOCUMENT_CAUSAL.value]
        assert xlda[lo] <= intra[lo], report.single_doc
        print(
            f"\n      held-out low-resource loss: xlda={xlda[lo]:.4f} "
            f"intra={intra[lo]:.4f}"
        )


def test_criterion_12_consistency_metrics():
    with criterion(12, "consistency metrics vs brute force on 10k random tables"):
        gen = philox(12)
        for _ in range(10_000):
            n = int(gen.integers(1, 40))
            rows = [(bool(gen.integers(0, 2)), bool(gen.integers(0, 2)))
                    for _ in range(n)]
            pairs = [PredictionPair(f"q{i}", s, t) for i, (s, t) in enumerate(rows)]
            rep = consistency_metrics(pairs)
            src_t = [t for s, t in rows if s]
            src_f = [t for s, t in rows if not s]
            tgt_f = [s for s, t in rows if not t]
            assert rep.src_t_to_tgt_t == (sum(src_t) / len(src_t) if src_t else None)
            assert rep.src_f_to_tgt_t == (sum(src_f) / len(src_f) if src_f else None)
            assert rep.tgt_f_to_src_t == (sum(tgt_f) / len(tgt_f) if tgt_f else None)
            if not src_t:
                assert rep.src_t_to_tgt_t is None
            if rep.src_t_to_tgt_t is not None and rep.src_f_to_tgt_t is not None:
                p = rep.src_accuracy
                lhs = rep.src_t_to_tgt_t * p + rep.src_f_to_tgt_t * (1 - p)
                assert abs(lhs - rep.tgt_accuracy) <= 1e-12


def test_criterion_13_determinism(tmp_path, capsys):
    with criterion(13, "pack and train-toy byte-identical across runs"):
        gen = philox(13)
        src = tmp_path / "corpus.jsonl"
        lines = []
        for i in range(60):
            code = ("en", "ko")[i % 2]
            toks = [int(t) for t in gen.integers(1, 60, int(gen.integers(1, 9)))]
            lines.append(json.dumps({"id": f"d{i}", "lang": code, "tokens": toks}))
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")

        pack_outputs = []
        for name in ("a", "b", "c"):
            out_path = tmp_path / f"{name}.xlda"
            code = dispatch([
                "pack", "--input", str(src), "--output", str(out_path),
                "--seq-len", "16", "--rho", "0.5", "--seed", "42", "--json",
            ])
            stdout = capsys.readouterr().out
            assert code == 0
            report = json.loads(stdout)["result"]["report"]
            pack_outputs.append((out_path.read_bytes(), report))
        assert pack_outputs[0] == pack_outputs[1] == pack_outputs[2]

        train_results = []
        for name in ("m1", "m2", "m3"):
            metrics = tmp_path / f"{name}.csv"
            code = dispatch([
                "train-toy", "--packed", str(tmp_path / "a.xlda"),
                "--policy", "xlda", "--steps", "8",
                "--metrics", str(metrics), "--seed", "5", "--json",
            ])
            stdout = capsys.readouterr().out
            assert code == 0
            digest = json.loads(stdout)["result"]["params_sha256"]
            train_results.append((metrics.read_bytes(), digest))
        assert train_results[0] == train_results[1] == train_results[2]
