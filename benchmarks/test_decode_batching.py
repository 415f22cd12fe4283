"""Fused multi-request decode-round benchmark.

Part 1 — engine decode throughput, batch 8 vs served alone: 8 concurrent
PQCache requests, each sitting on a synthesized 16k-token KVCache (random
keys wrapped in a precomputed :class:`~repro.llm.PrefillResult`, the same
idiom the throughput microbenchmarks use — prefilling 16k tokens through the
causal substrate would dwarf the decode phase being measured).  The traffic
runs through one engine (one fused
:meth:`~repro.llm.TransformerLM.decode_step_batch` round per step over all
8 requests, grouped ADC scoring/top-k, grouped einsum attention), and the
same synthesized requests are then served one at a time, each alone on its
own engine (a batch of one through the same decode path).  The benchmark
asserts every request's tokens are byte-identical between the two, and
that the batched engine clears ``REPRO_DECODE_BATCHING_FLOOR`` (default
2.0, the CI acceptance gate at batch 8 / seq 16k / h_kv 8) over the
served-alone decode tokens/s.  The measured ratio is printed either way.

Smoke mode (the default) runs only the asserted batch-8 configuration; set
``REPRO_DECODE_BATCHING_BENCH=full`` for the batch 1/4/8 sweep.

Part 2 — ParisKV-style refresh knob, recall vs refresh cost: one long
generation (1k-token prompt, 96 decoded tokens) with
``PQCachePolicy(refresh_every=16)`` against the same run without refreshes.
A selection hook measures, at every decode step, the recall of the PQ-picked
middle tokens against the exact top-k by true key scores; the engine's
``pq_refreshes`` / ``pq_refresh_seconds`` counters price the refreshes on
the simulated clock.  The benchmark reports recall-with vs recall-without
alongside that cost so the knob's trade-off is visible in one table.
"""

import os
import time

import numpy as np
import pytest

from conftest import make_budget, print_series

from repro.core import PQCacheConfig
from repro.llm import KVCache, ModelConfig, PrefillResult, TransformerLM
from repro.serve import (
    InferenceEngine,
    PolicySpec,
    Request,
    SamplingParams,
    SchedulerConfig,
)
from repro.utils import topk_indices

# --------------------------------------------------------------------------
# Part 1: batched decode round vs each request served alone (the CI gate)
# --------------------------------------------------------------------------

#: pinned acceptance configuration: batch 8, seq 16k, h_kv=8.  The free
#: knobs use a serving-realistic dense geometry (hidden 2048, GQA 4): decode
#: is projection/FFN-dominated there, which is precisely where the fused
#: round's weight reuse (one fixed-shape GEMM per dense op per round instead
#: of one per request) pays.
BATCH_ASSERTED = 8
SEQ_LEN = 16384
H_KV = 8
GQA_GROUP = 4
HEAD_DIM = 64
TOKEN_RATIO = 0.05
#: decode rounds timed per engine (after one admission/warm-up step).
TIMED_STEPS = 5
#: acceptance floor on batched/served-alone decode tokens/s; CI pins 2.0
#: explicitly.
SPEEDUP_FLOOR = float(os.environ.get("REPRO_DECODE_BATCHING_FLOOR", "2.0"))

BENCH_PQ = PQCacheConfig(num_partitions=2, num_bits=6, max_kmeans_iters=2,
                         gpu_cache_tokens=0)


def _bench_batches():
    if os.environ.get("REPRO_DECODE_BATCHING_BENCH", "smoke") == "full":
        return (1, 4, BATCH_ASSERTED)
    return (BATCH_ASSERTED,)


def _bench_config() -> ModelConfig:
    h = H_KV * GQA_GROUP
    return ModelConfig(
        num_layers=1, hidden_dim=h * HEAD_DIM, num_heads=h, num_kv_heads=H_KV,
        ffn_dim=2 * h * HEAD_DIM, vocab_size=256,
        name=f"decode-batching-h{H_KV}",
    )


def _synth_prefill(config: ModelConfig, seed: int) -> PrefillResult:
    """A precomputed 16k-token prefill with random keys/values.

    Each engine run gets its own copy (decoding appends to the cache), built
    from the same seed so the batched and served-alone engines see
    bitwise-equal state.
    """
    rng = np.random.default_rng(seed)
    cache = KVCache(config.num_layers, config.num_kv_heads, config.head_dim)
    for layer in range(config.num_layers):
        keys = rng.normal(size=(config.num_kv_heads, SEQ_LEN, config.head_dim))
        values = rng.normal(size=(config.num_kv_heads, SEQ_LEN, config.head_dim))
        cache[layer].append(keys, values)
    return PrefillResult(
        kvcache=cache,
        last_hidden=np.zeros(config.hidden_dim),
        logits=rng.normal(size=config.vocab_size),
        aggregates=[],
        prompt_queries=None,
        seq_len=SEQ_LEN,
    )


def _serve_decode(model, indices):
    """Admit the synthesized requests ``indices`` together, time pure decode
    rounds; returns each request's tokens and the timed seconds."""
    budget = make_budget(token_ratio=TOKEN_RATIO, comm_ratio=1.0 / 128.0)
    engine = InferenceEngine(
        model,
        scheduler_config=SchedulerConfig(max_batch_size=len(indices),
                                         max_prefills_per_step=len(indices)),
    )
    for i in indices:
        engine.submit(Request(
            request_id=f"r{i}",
            prompt_ids=[0] * SEQ_LEN,
            sampling=SamplingParams(max_new_tokens=TIMED_STEPS + 4),
            policy_spec=PolicySpec.named("pqcache", budget, pq_config=BENCH_PQ),
            prefill=_synth_prefill(model.config, seed=100 + i),
        ))
    tokens: dict[str, list[int]] = {}

    def step():
        for out in engine.step():
            tokens.setdefault(out.request_id, []).extend(out.new_token_ids)

    # First step: admission + PQ build + the first decode round (warm-up).
    # Subsequent steps are pure decode rounds over the full batch.
    step()
    step()
    start = time.perf_counter()
    for _ in range(TIMED_STEPS):
        step()
    return {
        "tokens": tokens,
        "seconds": time.perf_counter() - start,
        "metrics": engine.metrics,
    }


def test_fused_decode_round_speedup(benchmark):
    model = TransformerLM(_bench_config(), seed=0)

    def run_all():
        rows = {}
        for batch_size in _bench_batches():
            fused = _serve_decode(model, range(batch_size))
            alone = [_serve_decode(model, [i]) for i in range(batch_size)]
            alone_tokens = {}
            for run in alone:
                alone_tokens.update(run["tokens"])
            assert fused["tokens"] == alone_tokens, (
                "batched decode round diverged from requests served alone"
            )
            fused_tok_s = batch_size * TIMED_STEPS / fused["seconds"]
            alone_tok_s = (
                batch_size * TIMED_STEPS / sum(run["seconds"] for run in alone)
            )
            metrics = fused["metrics"]
            rows[f"batch={batch_size}"] = {
                "fused_tok_s": fused_tok_s,
                "alone_tok_s": alone_tok_s,
                "speedup": fused_tok_s / alone_tok_s,
                "mean_batch": metrics.mean_decode_batch_size,
                "select_s": metrics.decode_select_seconds,
                "gather_s": metrics.decode_gather_seconds,
                "attention_s": metrics.decode_attention_seconds,
                "maintenance_s": metrics.decode_maintenance_seconds,
            }
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_series(
        "Batched decode round vs served alone (PQCache, seq 16384, h_kv 8)",
        rows,
    )

    asserted = rows[f"batch={BATCH_ASSERTED}"]
    assert asserted["mean_batch"] == pytest.approx(BATCH_ASSERTED)
    print(f"\nmeasured batched/served-alone decode speedup at batch "
          f"{BATCH_ASSERTED}: "
          f"{asserted['speedup']:.2f}x (floor {SPEEDUP_FLOOR:.1f}x)")
    assert asserted["speedup"] >= SPEEDUP_FLOOR


# --------------------------------------------------------------------------
# Part 2: refresh_every — retrieval recall vs refresh cost
# --------------------------------------------------------------------------

REFRESH_PROMPT_LEN = 1024
REFRESH_NEW_TOKENS = 96
REFRESH_EVERY = 16
REFRESH_TOKEN_RATIO = 0.1


def _refresh_config() -> ModelConfig:
    return ModelConfig(num_layers=1, hidden_dim=32, num_heads=2,
                       num_kv_heads=1, ffn_dim=64, vocab_size=128,
                       name="refresh-bench")


def _run_refresh(model, refresh_every):
    """Long generation with a recall-measuring selection hook."""
    budget = make_budget(token_ratio=REFRESH_TOKEN_RATIO, comm_ratio=1.0 / 128.0)
    recalls: list[float] = []

    def hook(layer_index, query, kvcache, normalised):
        keys = kvcache[layer_index].keys
        h_kv = keys.shape[0]
        group = query.shape[0] // h_kv
        kv_queries = query.reshape(h_kv, group, -1).mean(axis=1)
        segments = budget.segments(keys.shape[1])
        middle = segments.middle_indices
        if middle.size == 0 or normalised is None:
            return
        k = min(budget.middle_budget(REFRESH_PROMPT_LEN), middle.size)
        middle_set = set(middle.tolist())
        for head in range(h_kv):
            exact_scores = keys[head, middle, :] @ kv_queries[head]
            exact = set(middle[topk_indices(exact_scores, k)].tolist())
            approx = set(np.asarray(normalised[head]).tolist()) & middle_set
            if exact:
                recalls.append(len(exact & approx) / len(exact))

    rng = np.random.default_rng(7)
    prompt = rng.integers(4, model.config.vocab_size,
                          size=REFRESH_PROMPT_LEN).tolist()
    engine = InferenceEngine(model)
    request = Request(
        prompt_ids=prompt,
        sampling=SamplingParams(max_new_tokens=REFRESH_NEW_TOKENS),
        policy_spec=PolicySpec.named(
            "pqcache", budget, pq_config=BENCH_PQ, refresh_every=refresh_every,
        ),
        selection_hook=hook,
    )
    engine.run([request])
    return {
        "mean_recall": float(np.mean(recalls)),
        "pq_refreshes": engine.metrics.pq_refreshes,
        "refresh_cost_s": engine.metrics.pq_refresh_seconds,
        "decode_clock_s": engine.metrics.clock,
    }


def test_refresh_recall_vs_cost(benchmark):
    model = TransformerLM(_refresh_config(), seed=1)

    def run_both():
        return {
            "no refresh": _run_refresh(model, refresh_every=None),
            f"refresh_every={REFRESH_EVERY}": _run_refresh(
                model, refresh_every=REFRESH_EVERY
            ),
        }

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print_series(
        "PQ refresh knob: retrieval recall vs simulated refresh cost", rows
    )

    base = rows["no refresh"]
    refreshed = rows[f"refresh_every={REFRESH_EVERY}"]
    assert base["pq_refreshes"] == 0 and base["refresh_cost_s"] == 0.0
    assert refreshed["pq_refreshes"] == REFRESH_NEW_TOKENS // REFRESH_EVERY
    # Refreshes carry an honest simulated price (clustering timeline tasks).
    assert refreshed["refresh_cost_s"] > 0.0
    assert refreshed["decode_clock_s"] > base["decode_clock_s"]
    for row in rows.values():
        assert 0.0 <= row["mean_recall"] <= 1.0
