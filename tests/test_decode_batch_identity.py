"""The one decode path: byte-identity fuzz for the fused decode round.

Every engine step decodes its ``RUNNING`` requests through
:meth:`~repro.llm.TransformerLM.decode_step_batch`; under a bounded pool the
round is split at pressure points into consecutive fused runs.  Batching
and splitting are pure execution-plan choices, checked at three levels:

* **model level** — :meth:`~repro.llm.TransformerLM.decode_step_batch`
  (driven by :class:`~repro.serve.decode_batch.DecodeBatch`'s grouped policy
  kernels) is bitwise equal to :meth:`~repro.llm.TransformerLM.decode_step`
  called once per request with the per-request ``policy.select`` /
  ``on_decode_step`` hooks — logits, selections and post-step policy state —
  plus the fixed-shape :data:`~repro.llm.DECODE_ROW_BLOCK` contract that
  makes it so;
* **engine fuzz** — mixed policies, shared prefixes, forced decodes, chunked
  and monolithic prefill, staggered ``max_new_tokens`` (members finish
  mid-round), mid-run submissions and aborts, and bounded KV pools (swap and
  recompute preemption parking members mid-round, recompute-replay on
  resume).  Every finished request's tokens, logits, selections and
  selection-hook observations equal the same request served alone on a
  fresh, uncontended engine;
* **clock pins** — the simulated clock, every non-host
  :class:`~repro.serve.EngineMetrics` counter, each request's metrics and
  tokens, and the hook call sequence of every fuzz schedule (single engine
  and 3-worker cluster) are pinned to the values the former per-request
  decode loop produced, so splitting a round at pressure points provably
  bills the ladder (evictions, spills, swap-outs) exactly where that loop
  did.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from repro.baselines import SelectionBudget
from repro.core.pqcache import PQCacheConfig
from repro.llm import DECODE_ROW_BLOCK, ModelConfig, TransformerLM
from repro.llm.layers import Linear
from repro.serve import (
    InferenceEngine,
    PolicySpec,
    Request,
    SamplingParams,
    SchedulerConfig,
)
from repro.serve.cluster import ClusterFrontend
from repro.serve.decode_batch import DecodeBatch, DecodeMember

PQ_CONFIG = PQCacheConfig(
    num_partitions=2, num_bits=2, max_kmeans_iters=4,
    gpu_cache_tokens=64, gpu_cache_block=8,
)

POLICY_NAMES = [None, "pqcache", "snapkv", "h2o", "streaming-llm", "sparq"]


@pytest.fixture(scope="module")
def fuzz_model():
    config = ModelConfig(
        num_layers=2, hidden_dim=32, num_heads=4, num_kv_heads=2,
        ffn_dim=64, vocab_size=128, name="decode-batch-fuzz",
    )
    return TransformerLM(config, seed=11)


def _policy_spec(name):
    if name is None:
        return None
    budget = SelectionBudget(token_ratio=0.3, num_initial=2, num_local=8)
    if name == "pqcache":
        return PolicySpec.named("pqcache", budget, pq_config=PQ_CONFIG,
                                sketch_tokens=16)
    return PolicySpec.named(name, budget)


def _normalise(chosen, num_kv_heads):
    """A raw selection in the per-head form the engine records."""
    if chosen is None:
        return None
    if isinstance(chosen, (list, tuple)):
        return [np.asarray(c, dtype=np.int64) for c in chosen]
    return [np.asarray(chosen, dtype=np.int64)] * num_kv_heads


# ------------------------------------------------ the numerical contract


def test_decode_row_block_is_offset_and_content_independent():
    """The dense-op contract the fused round is built on.

    Within a fixed ``(DECODE_ROW_BLOCK, d)`` operand, each row's ``matmul``
    result must be bitwise independent of (a) the row's offset inside the
    block and (b) what the other rows contain — zero padding (a request
    decoded alone) or other requests' hidden states (the fused round).
    """
    rng = np.random.default_rng(0)
    for d_in, d_out in [(32, 64), (64, 128), (64, 32), (48, 96)]:
        proj = Linear.init(d_in, d_out, rng)
        row = rng.normal(size=d_in)
        alone = np.zeros((DECODE_ROW_BLOCK, d_in))
        alone[0] = row
        reference = proj(alone)[0]
        for offset in range(DECODE_ROW_BLOCK):
            packed = rng.normal(size=(DECODE_ROW_BLOCK, d_in))
            packed[offset] = row
            assert np.array_equal(proj(packed)[offset], reference), (
                f"({d_in},{d_out}) row at offset {offset} diverged"
            )


def _prefilled(model, prompt, name):
    """A fresh ``(cache, policy)`` pair after prefilling ``prompt``."""
    prefill = model.prefill(prompt, observation_window=8)
    spec = _policy_spec(name)
    policy = spec.build() if spec is not None else None
    if policy is not None:
        policy.finish_prefill(model.config, prefill)
    return prefill.kvcache, policy


@pytest.mark.parametrize("with_selectors", [False, True])
def test_decode_step_batch_matches_per_request_decode_step(
    fuzz_model, with_selectors
):
    """``decode_step_batch`` == ``decode_step`` once per request, bitwise.

    With selectors, the batch side runs the engine's own plan
    (:class:`DecodeBatch` grouped ``select_batch`` /
    ``on_decode_step_batch`` kernels) and the reference runs each request's
    ``policy.select`` / ``on_decode_step``; every policy of the fuzz (plus
    full attention) shares the round, with two same-class members per
    policy so the grouped kernels really group.  Logits and selections must
    match on every step of a multi-step run, which also pins the policies'
    post-step state.
    """
    model = fuzz_model
    num_kv_heads = model.config.num_kv_heads
    rng = np.random.default_rng(7)
    names = POLICY_NAMES * 2 if with_selectors else [None] * 6
    prompts = [
        rng.integers(4, model.config.vocab_size, size=int(rng.integers(24, 90))).tolist()
        for _ in names
    ]
    reference = [_prefilled(model, p, n) for p, n in zip(prompts, names)]
    batched = [_prefilled(model, p, n) for p, n in zip(prompts, names)]
    for step in range(6):
        tokens = rng.integers(4, model.config.vocab_size, size=len(names)).tolist()
        members = [
            DecodeMember(state=None, token=token, cache=cache, policy=policy,
                         hook=None, needs_selector=policy is not None)
            for token, (cache, policy) in zip(tokens, batched)
        ]
        batch = DecodeBatch(members, num_kv_heads)
        batch_logits = model.decode_step_batch(
            batch.tokens, batch.caches, batch.build_selector()
        )
        batch.run_policy_updates()

        for index, (token, (cache, policy)) in enumerate(zip(tokens, reference)):
            context = f"step={step} member={index} policy={names[index]}"
            selections = []
            selector = None
            if policy is not None:

                def selector(layer_index, query, kvcache, _policy=policy):
                    chosen = _policy.select(layer_index, query, kvcache)
                    selections.append(_normalise(chosen, num_kv_heads))
                    return chosen

            logits = model.decode_step(token, cache, selector)
            if policy is not None:
                policy.on_decode_step(cache)
            assert np.array_equal(batch_logits[index], logits), context
            _assert_selections_equal(
                [members[index].step_selections], [selections], context
            )


# ------------------------------------------------------ comparison helpers

#: fused-round shape counters and host wall-clock stage seconds — the only
#: :class:`EngineMetrics` fields the pins leave out (the shape counters
#: count the fused runs a round was split into, which the former
#: per-request loop never populated; host seconds are machine noise).
_SHAPE_AND_HOST_METRICS = {
    "decode_batch_rounds", "decode_batch_requests",
    "mean_decode_batch_size", "decode_batch_size_histogram",
    "decode_select_seconds", "decode_score_seconds", "decode_topk_seconds",
    "decode_gather_seconds", "decode_attention_seconds",
    "decode_maintenance_seconds",
}


def _assert_selections_equal(actual, expected, context):
    if expected is None or actual is None:
        assert actual is None and expected is None, context
        return
    assert len(actual) == len(expected), context
    for step, (a_step, e_step) in enumerate(zip(actual, expected)):
        assert len(a_step) == len(e_step), f"{context} step={step}"
        for a_sel, e_sel in zip(a_step, e_step):
            if e_sel is None:
                assert a_sel is None, f"{context} step={step}"
                continue
            assert len(a_sel) == len(e_sel), f"{context} step={step}"
            for a_head, e_head in zip(a_sel, e_sel):
                assert np.array_equal(a_head, e_head), f"{context} step={step}"


def _assert_matches_alone(output, alone, context):
    """Tokens, logits and selections of a contended run vs served alone."""
    assert output.token_ids == alone.token_ids, context
    assert output.finish_reason == alone.finish_reason, context
    if alone.logits is None:
        assert output.logits is None, context
    else:
        assert np.array_equal(output.logits, alone.logits), context
    _assert_selections_equal(output.selections, alone.selections, context)


def _assert_hooks_match_alone(log, alone_log, context):
    """Every hook observation equals the served-alone one at its position.

    Observations are keyed by ``(layer, cache length)``: a recompute-
    preempted request replays its decode steps, so the contended log may
    observe a position more than once, but always with the same query.
    """
    expected = {(layer, length): query for layer, length, query in alone_log}
    assert len(expected) == len(alone_log), f"{context} alone log repeats"
    seen = set()
    for layer, length, query in log:
        key = (layer, length)
        assert key in expected, f"{context} unexpected hook call {key}"
        assert np.array_equal(query, expected[key]), f"{context} hook {key}"
        seen.add(key)
    assert seen == set(expected), f"{context} hook calls missing"


def _schedule_digest(finals, metrics, hooks):
    """Fingerprint of everything a schedule bills, on the simulated clock.

    Covers every non-host engine counter (``clock`` included), each
    finished request's tokens, finish reason and raw metrics fields, and
    each hook's ``(layer, cache length)`` call sequence.  Logits are left to
    the served-alone comparison: their bits are checked there without
    pinning a platform's floating-point output.
    """
    payload = {
        "engine": {
            name: value
            for name, value in metrics.as_dict().items()
            if name not in _SHAPE_AND_HOST_METRICS
        },
        "requests": {
            rid: {
                "tokens": [int(t) for t in output.token_ids],
                "finish": output.finish_reason,
                "metrics": {
                    spec.name: getattr(output.metrics, spec.name)
                    for spec in fields(output.metrics)
                },
            }
            for rid, output in finals.items()
        },
        "hooks": {
            rid: [[layer, length] for layer, length, _ in log]
            for rid, log in hooks.items()
        },
    }
    encoded = json.dumps(payload, sort_keys=True, default=lambda o: o.item())
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]


# -------------------------------------------------------------- the fuzz


def _random_requests(model, rng, hook_log):
    """4-7 requests: mixed policies, shared prefixes, forced decodes, hooks."""
    vocab = model.config.vocab_size
    shared_pool = rng.integers(4, vocab, size=48).tolist()
    requests = []
    for index in range(int(rng.integers(4, 8))):
        plen = int(rng.integers(24, 90))
        if rng.random() < 0.4:
            shared = min(int(rng.integers(8, 41)), plen - 1)
            prompt = shared_pool[:shared] + rng.integers(
                4, vocab, size=plen - shared
            ).tolist()
        else:
            prompt = rng.integers(4, vocab, size=plen).tolist()
        name = POLICY_NAMES[int(rng.integers(0, len(POLICY_NAMES)))]
        forced = None
        if rng.random() < 0.2:
            forced = rng.integers(4, vocab, size=int(rng.integers(2, 6))).tolist()
        hook = None
        if name is not None and rng.random() < 0.3:
            rid = f"fuzz-{index}"
            log = hook_log.setdefault(rid, [])

            def hook(layer_index, query, kvcache, normalised, _log=log):
                _log.append((layer_index, len(kvcache[layer_index]), query.copy()))

        requests.append(
            Request(
                prompt_ids=prompt,
                request_id=f"fuzz-{index}",
                # Staggered budgets: members finish mid-batch on different
                # rounds, shrinking the fused batch as the schedule drains.
                sampling=SamplingParams(max_new_tokens=int(rng.integers(2, 9)),
                                        observation_window=8),
                policy_spec=_policy_spec(name),
                forced_decode_ids=forced,
                selection_hook=hook,
            )
        )
    return requests


def _min_pool_blocks(request, block_size):
    decoded = (
        len(request.forced_decode_ids)
        if request.forced_decode_ids is not None
        else request.sampling.max_new_tokens
    )
    tokens = len(request.prompt_ids) + decoded + 1
    return -(-tokens // block_size) + 1


def _fuzz_plan(model, seed):
    """The seeded request set and submit/abort schedule of one fuzz case."""
    rng = np.random.default_rng(seed)
    hook_log: dict = {}
    requests = _random_requests(model, rng, hook_log)
    block_size = 8
    pool = None
    mode = "swap" if rng.random() < 0.5 else "recompute"
    if rng.random() < 0.5:
        # Bounded pool: preemption parking (and recompute-replay on resume)
        # happens mid-schedule, and decode rounds split at pressure points.
        floor = max(_min_pool_blocks(r, block_size) for r in requests)
        pool = floor + int(rng.integers(0, 6))
    plan = {
        "max_batch_size": int(rng.integers(3, 7)),
        "chunk": [None, 24, 40][int(rng.integers(0, 3))],
        "mode": mode,
        "block_size": block_size,
        "pool": pool,
        "submit_at": {},
        "abort_at": {},
    }
    plan["submit_at"][0] = requests[:2]
    for request in requests[2:]:
        plan["submit_at"].setdefault(int(rng.integers(0, 12)), []).append(request)
    for request in requests:
        if rng.random() < 0.15:
            plan["abort_at"][int(rng.integers(1, 20))] = request.request_id
    return requests, plan, hook_log


def _drive(model, requests, plan, hook_log):
    """Run one engine over the seeded submit/abort schedule."""
    # The hook closures append to the lists inside ``hook_log``, which the
    # served-alone reruns share, so slice off this run's entries.
    marks = {rid: len(log) for rid, log in hook_log.items()}
    engine = InferenceEngine(
        model,
        scheduler_config=SchedulerConfig(
            max_batch_size=plan["max_batch_size"],
            max_prefill_chunk_tokens=plan["chunk"],
            preemption_mode=plan["mode"],
        ),
        enable_prefix_caching=True,
        kv_block_size=plan["block_size"],
        kv_pool_blocks=plan["pool"],
        max_retained_outputs=0,
    )
    finals = {}
    step_cap = 400 + 100 * len(requests)
    submit_at = dict(plan["submit_at"])
    for step_index in range(step_cap):
        for request in submit_at.pop(step_index, []):
            engine.submit(request)
        rid = plan["abort_at"].get(step_index)
        if rid is not None and rid in engine._states:
            engine.abort(rid)
        for output in engine.step():
            if output.finished:
                finals[output.request_id] = output
        if not submit_at and not engine.has_unfinished:
            break
    else:
        pytest.fail("engine made no progress within the step budget")
    return finals, engine.metrics.snapshot(), {
        rid: list(log[marks[rid]:]) for rid, log in hook_log.items()
    }


def _serve_alone(model, request, hook_log):
    """``request`` on a fresh engine with nothing else to contend with.

    The engine is paged like the contended ones (unbounded pool, empty
    prefix cache), so PQCache builds its index through the same
    incremental chunk hooks a paged prefill always takes.
    """
    log = hook_log.get(request.request_id)
    mark = len(log) if log is not None else 0
    engine = InferenceEngine(model, enable_prefix_caching=True)
    output = engine.run([request])[request.request_id]
    return output, (list(log[mark:]) if log is not None else [])


def _assert_all_match_alone(model, requests, finals, hooks, hook_log, context):
    for request in requests:
        rid = request.request_id
        output = finals.get(rid)
        if output is None or output.finish_reason == "aborted":
            continue
        alone, alone_hooks = _serve_alone(model, request, hook_log)
        _assert_matches_alone(output, alone, f"{context} rid={rid}")
        if rid in hooks:
            _assert_hooks_match_alone(hooks[rid], alone_hooks, f"{context} rid={rid}")


#: ``seed -> (simulated clock, _schedule_digest)`` of every fuzz schedule,
#: as produced by the former per-request decode loop (every decode member
#: reserved its blocks, ran ``decode_step`` and was billed one at a time).
#: Seeds with a bounded pool (``pool`` is not ``None``) exercise the
#: pressure ladder between members of one round.
_FUZZ_PINS: dict[int, tuple[float, str]] = {
    0: (0.0011714541313962877, 'e6177582c609200f'),
    1: (0.0016494040093861283, '4c8f1440e3284318'),
    2: (0.0015697103422653272, 'f6d1dd6e3555953e'),
    3: (0.0006468371351089588, '3350bdff4dc07dcc'),
    4: (0.0032111528045520596, '930fc4149973457b'),
    5: (0.0012158706282082324, '9cad74914dfc4223'),
    6: (0.0037677133022167505, 'dcdda6b168f195c7'),
    7: (0.0012797854596249077, 'f70a5a2cc1ab78b6'),
    8: (0.003241817675948346, '54718dfa13872e38'),
    9: (0.0008501638046004842, 'ef5fc30f44f99f73'),
    10: (0.0008451427355932202, '0922be4a0e7e9b54'),
    11: (0.001864425884784367, 'c3ee55c013493334'),
    12: (0.0014049201719531883, '48697575c222ccfc'),
    13: (0.0040689898373688456, '76041e8e227125d4'),
    14: (0.0013652660271589998, '942c984b1366ce15'),
    15: (0.0018683531015890034, '4696c8301a5f20aa'),
    16: (0.0021967540601291356, '46e4013322bbe8bd'),
    17: (0.001173140826392252, '1839366f5fd6a74e'),
    18: (0.0010437996725111377, '74ddeef8033e9eae'),
    19: (0.004200218245789616, '070a1715323630b3'),
    20: (0.0012446538362119995, 'f24e577b2eecb8c1'),
    21: (0.0012381397033327433, '782b3c4ee58684e6'),
    22: (0.002107267947336563, '7ae9aef2be18316e'),
    23: (0.0007229778574656981, '218464016115fb23'),
    24: (0.001255482094430993, '26c478da630d1653'),
    25: (0.0008003571183212266, 'c07f623171138b6b'),
    26: (0.001035067992897498, '469eef681143c6b4'),
    27: (0.001255631030790961, 'f24bc513ea21b5d4'),
    28: (0.0008805070971751412, '0bbf7f2679c67428'),
    29: (0.002009519339609943, '211add42276edf0a'),
    30: (0.0013290441244552063, '123cdba10e0be304'),
    31: (0.0008902928999192897, 'c1da35c3359bffab'),
}

#: the bounded-pool fuzz seeds, and those among them that preempt
_BOUNDED_SEEDS = {4, 5, 6, 7, 8, 12, 13, 14, 15, 16, 19, 22, 27, 30}
_PREEMPTING_SEEDS = {4, 5, 6, 7, 8, 13, 14, 15, 16, 19, 22, 27, 30}


def _run_fuzz_seed(model, seed):
    requests, plan, hook_log = _fuzz_plan(model, seed)
    context = (f"seed={seed} mode={plan['mode']} pool={plan['pool']} "
               f"chunk={plan['chunk']}")
    finals, metrics, hooks = _drive(model, requests, plan, hook_log)

    # Every decode member-step goes through a fused run — there is no
    # other decode path left.
    assert metrics.decode_batch_requests == metrics.decode_rounds, context
    assert (plan["pool"] is not None) == (seed in _BOUNDED_SEEDS), context
    assert (metrics.preemptions > 0) == (seed in _PREEMPTING_SEEDS), context

    clock, digest = _FUZZ_PINS[seed]
    assert metrics.clock == clock, f"{context}: clock {metrics.clock!r} != {clock!r}"
    assert _schedule_digest(finals, metrics, hooks) == digest, context

    _assert_all_match_alone(model, requests, finals, hooks, hook_log, context)


@pytest.mark.parametrize("case", range(4))
def test_fused_vs_looped_randomized_fuzz(fuzz_model, case):
    """Fused rounds vs one-request-at-a-time decoding: the bytes against
    each request served alone, the clocks against the deleted loop's pins."""
    for seed in range(case * 8, (case + 1) * 8):
        _run_fuzz_seed(fuzz_model, seed)


def test_engine_has_no_decode_batching_switch(fuzz_model):
    """The fused round is the only decode path: no option selects another."""
    with pytest.raises(TypeError):
        InferenceEngine(fuzz_model, decode_batching=False)


def test_fuzz_pins_cover_bounded_pool_preemption():
    """The pinned seeds really exercise splitting rounds under pressure."""
    assert set(_FUZZ_PINS) == set(range(32))
    assert _PREEMPTING_SEEDS <= _BOUNDED_SEEDS
    assert len(_BOUNDED_SEEDS) >= 8 and len(_PREEMPTING_SEEDS) >= 4


# ------------------------------------------------------------ cluster fuzz


def _run_cluster(model, requests, swap_codec):
    cluster = ClusterFrontend(
        model,
        num_workers=3,
        placement="cache_aware",
        scheduler_config=SchedulerConfig(max_prefill_chunk_tokens=32),
        kv_swap_codec=swap_codec,
        kv_spill_codec=swap_codec,
    )
    for request in requests:
        cluster.submit(request)
    finals = cluster.run()
    return finals, cluster.fleet_metrics()


#: ``seed -> (fleet clock, _schedule_digest)`` of the cluster fuzz, as
#: produced by workers running the former per-request decode loop.
_CLUSTER_PINS: dict[int, tuple[float, str]] = {
    0: (0.0004801197817594834, '859995d5233c3c81'),
    1: (0.0007643897784492971, '14ac023ce1b695f9'),
    2: (0.0005112672676620929, 'fa25f4b323d3f845'),
}


def test_cluster_fused_vs_looped_byte_identity(fuzz_model):
    """Same traffic over a 3-worker fleet, against one-at-a-time decoding.

    Alternates the lossless swap/spill codec per seed: placement, batching
    and codec config may only move wire bytes and clocks, never tokens —
    and the fleet's clocks and counters stay pinned."""
    for seed in (0, 1, 2):
        rng = np.random.default_rng(1000 + seed)
        hook_log: dict = {}
        requests = _random_requests(fuzz_model, rng, hook_log)
        swap_codec = ["raw", "byteplane"][seed % 2]
        finals, fleet = _run_cluster(fuzz_model, requests, swap_codec)
        hooks = {rid: list(log) for rid, log in hook_log.items()}
        context = f"cluster seed={seed}"
        assert fleet.decode_batch_rounds > 0, context
        assert fleet.decode_batch_requests == fleet.decode_rounds, context
        clock, digest = _CLUSTER_PINS[seed]
        assert fleet.clock == clock, f"{context}: clock {fleet.clock!r} != {clock!r}"
        assert _schedule_digest(finals, fleet, hooks) == digest, context
        _assert_all_match_alone(
            fuzz_model, requests, finals, hooks, hook_log, context
        )
