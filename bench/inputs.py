"""Seeded synthetic inputs for the benchmark workloads.

Everything here depends on numpy alone, never on the package under test, so
the inputs and the expectations checked against the program's outputs are
derived independently of the code being measured.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# data-4k: 1M tokens in five languages with skewed token shares, lognormal
# document lengths (mean about 100 tokens), scores in [0, 5] and a fixed share
# of malformed lines that ingest must reject and skip.
DATA_LANGS = {"en": 0.55, "de": 0.20, "ko": 0.12, "ja": 0.09, "sw": 0.04}
DATA_TOKENS = 1_000_000
DATA_VOCAB = 50_000
MALFORMED_SHARE = 0.005
# keep fraction of `filter --stage pretrain --class multilingual`
PRETRAIN_MULTILINGUAL_KEEP = 0.5

# train-512-intra: short documents (mean about 40 tokens) in three languages,
# token ids below the reference model's vocabulary of 64.
SHORT_LANGS = {"en": 0.6, "ko": 0.25, "sw": 0.15}
SHORT_TOKENS = 26_000
SHORT_VOCAB = 64

_BAD_LINES = (
    '{"id": "broken-%d", "lang": "en", "tokens": [1, 2',
    '{"lang": "en", "tokens": [1, 2, 3], "score": 1.0, "n": %d}',
    '{"id": "empty-%d", "lang": "de", "tokens": [], "score": 2.0}',
    '{"id": "nonint-%d", "lang": "ko", "tokens": [1, "x"], "score": 2.0}',
    '{"id": "badscore-%d", "lang": "ja", "tokens": [4, 5], "score": "high"}',
    '["not", "an", "object", %d]',
)


def _generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _documents(gen, langs, total_tokens, mean_log, sigma, max_len, low, high):
    """Yield (id, lang, token array) until ``total_tokens`` is reached."""
    codes = sorted(langs)
    shares = np.array([langs[c] for c in codes])
    produced = 0
    serial = 0
    while produced < total_tokens:
        code = codes[int(gen.choice(len(codes), p=shares))]
        n = int(np.clip(round(gen.lognormal(mean_log, sigma)), 1, max_len))
        tokens = gen.integers(low, high, size=n)
        yield f"{code}-{serial:07d}", code, tokens
        produced += n
        serial += 1


def write_data_corpus(path: Path, seed: int) -> dict:
    """Write the data-4k corpus; return what a correct filter must keep."""
    gen = _generator(seed, 1)
    lines = []
    valid = []  # (score, id, n_tokens)
    for doc_id, code, tokens in _documents(
        gen, DATA_LANGS, DATA_TOKENS, math.log(60.0), 1.0, 8192, 1, DATA_VOCAB
    ):
        score = round(float(gen.uniform(0.0, 5.0)), 2)
        lines.append(
            f'{{"id":"{doc_id}","lang":"{code}","score":{score!r},'
            f'"tokens":[{",".join(map(str, tokens.tolist()))}]}}'
        )
        valid.append((score, doc_id, len(tokens)))
    n_bad = round(len(lines) * MALFORMED_SHARE)
    positions = np.sort(gen.choice(len(lines) + n_bad, size=n_bad, replace=False))
    for i, pos in enumerate(positions.tolist()):
        lines.insert(pos, _BAD_LINES[i % len(_BAD_LINES)] % i)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # quality.quantile_filter's documented rule: the top ceil(keep * n)
    # documents by score, ties broken by ascending id
    k = math.ceil(PRETRAIN_MULTILINGUAL_KEEP * len(valid))
    kept = sorted(valid, key=lambda r: (-r[0], r[1]))[:k]
    return {
        "documents": len(valid),
        "malformed_lines": n_bad,
        "kept_documents": k,
        "kept_tokens": sum(r[2] for r in kept),
    }


def write_short_corpus(path: Path, seed: int) -> dict:
    """Write the short-document corpus that train-512-intra packs."""
    gen = _generator(seed, 2)
    lines = []
    tokens_total = 0
    for doc_id, code, tokens in _documents(
        gen, SHORT_LANGS, SHORT_TOKENS, math.log(34.0), 0.55, 400, 1, SHORT_VOCAB
    ):
        lines.append(json.dumps({"id": doc_id, "lang": code, "tokens": tokens.tolist()}))
        tokens_total += len(tokens)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"documents": len(lines), "tokens": tokens_total}
