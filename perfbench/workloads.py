"""The benchmark's three workloads, built only on the library's public API.

Each workload generates its inputs from a seed in its constructor (the
benchmark's set-up) and then serves them once per :meth:`Workload.run_pass`
on a fresh engine, so every pass of one run computes the same bytes and the
same simulated clocks.  All requests use the ``pqcache`` policy, and every
engine prices its schedule with the paper testbed's latency model at
LLaMA-3-8B scale (:func:`paper_latency`).

* ``longctx-qa`` — InfiniteBench-like samples, two per task, teacher-forced
  through their probe tokens as an offline batch on the evaluation harness's
  model; a selection hook scores every selection against the sample's
  evidence (prefill-bound).
* ``decode-long`` — concurrent requests sitting on synthesized long KV
  caches that generate many tokens; no model prefill runs (decode- and
  retrieval-bound).
* ``multiturn-pressure`` — multi-user conversations arriving open-loop on
  the simulated clock at a two-worker cache-aware cluster whose bounded
  block pools evict and spill cached prefixes through the byte-plane codec,
  and preempt running requests when bursts overrun them (serving-bound).

A pass keeps only token ids, simulated token times and the
:class:`~repro.serve.RequestMetrics` of each finished request; the engines
keep their default retention, so peak memory shows what they retain.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.baselines import SelectionBudget
from repro.core import PQCacheConfig
from repro.eval.metrics import StepObservation, attention_recall_at_k, score_step
from repro.llm import KVCache, ModelConfig, PrefillResult, TransformerLM
from repro.memory import HardwareSpec, LatencyModel
from repro.serve import (
    ClusterFrontend,
    InferenceEngine,
    PolicySpec,
    Request,
    RequestMetrics,
    SamplingParams,
    SchedulerConfig,
)
from repro.workloads import infinitebench_suite, multi_turn_conversation, poisson_arrivals

#: finish reasons of requests that completed normally
DONE_REASONS = ("length", "stop")


@dataclass
class Record:
    """What the benchmark keeps of one request."""

    due: float
    token_ids: list[int] = field(default_factory=list)
    #: simulated time each output position became available; teacher-forced
    #: requests emit no tokens, so their positions are the decode rounds
    token_times: list[float] = field(default_factory=list)
    metrics: RequestMetrics | None = None
    finish_reason: str | None = None
    decode_steps_seen: int = 0

    @property
    def done(self) -> bool:
        return self.finish_reason in DONE_REASONS


@dataclass
class PassResult:
    """One pass over a workload's inputs."""

    records: dict[str, Record]
    wall_s: float
    makespan_s: float
    #: fleet-merged engine counters at the end of the pass
    engine_metrics: object
    #: per-sample quality scores in [0, 1] recorded during the pass
    quality: list[float] = field(default_factory=list)
    #: simulated submit time minus due time of each open-loop arrival
    lateness: list[float] = field(default_factory=list)
    #: routing decisions (cluster workloads only)
    placements: list = field(default_factory=list)

    def digest(self) -> str:
        """SHA-256 over every request's output token ids."""
        payload = json.dumps(
            sorted((rid, rec.token_ids) for rid, rec in self.records.items())
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _eval_budget(token_ratio: float, comm_ratio: float) -> SelectionBudget:
    return SelectionBudget(token_ratio=token_ratio, comm_ratio=comm_ratio,
                           num_initial=4, num_local=16)


def _observation(config: ModelConfig, budget: SelectionBudget, layer_index,
                 query, cache, selected) -> StepObservation:
    """The evaluation harness's view of one selection decision."""
    layer_cache = cache[layer_index]
    kv_queries = query.reshape(
        config.num_kv_heads, config.gqa_group_size, config.head_dim
    ).mean(axis=1)
    return StepObservation(
        layer=layer_index, kv_queries=kv_queries, keys=layer_cache.keys,
        selected=selected, segments=budget.segments(len(layer_cache)),
    )


def _aggregate_quality(layer_scores: list[float], num_layers: int) -> float:
    """Max over layers within a step, mean over steps (``evaluate``'s rule)."""
    steps = [max(layer_scores[i:i + num_layers])
             for i in range(0, len(layer_scores), num_layers)]
    return float(np.mean(steps)) if steps else 0.0


def paper_latency(pq: PQCacheConfig, budget: SelectionBudget) -> LatencyModel:
    """Simulated clock of the paper's testbed serving LLaMA-3-8B.

    The NumPy substrate is small so the host runs stay short; the simulated
    clock prices the same schedule at the paper's model scale.
    """
    return LatencyModel(HardwareSpec.paper_testbed(), ModelConfig.llama3_8b(), pq,
                        token_ratio=budget.token_ratio, comm_ratio=budget.comm_ratio)


def _warm_up(model: TransformerLM) -> None:
    """Run one short prefill and decode so lazy NumPy/BLAS set-up is paid."""
    prefill = model.prefill(list(range(8, 72)))
    model.decode_step(9, prefill.kvcache)


class _Collector:
    """Folds streamed outputs into :class:`Record` objects."""

    def __init__(self, records: dict[str, Record], forced: bool = False) -> None:
        self.records = records
        self.forced = forced

    def observe(self, outputs, clock: float) -> None:
        for out in outputs:
            rec = self.records[out.request_id]
            if self.forced:
                fresh = out.metrics.decode_steps - rec.decode_steps_seen
                rec.decode_steps_seen = out.metrics.decode_steps
            else:
                fresh = len(out.new_token_ids)
            for _ in range(fresh):
                rec.token_times.append(
                    out.metrics.first_token_time if not rec.token_times else clock
                )
            if out.finished:
                rec.metrics = out.metrics
                rec.finish_reason = out.finish_reason
                if self.forced and out.logits is not None and len(out.logits):
                    # Teacher-forced requests emit no tokens; their output is
                    # the greedy token the model predicts at each probe.
                    rec.token_ids = [int(t) for t in np.argmax(out.logits, axis=1)]
                else:
                    rec.token_ids = list(out.token_ids)


def _drain(engine, collector: _Collector) -> None:
    while engine.has_unfinished:
        collector.observe(engine.step(), engine.metrics.clock)


class Workload:
    """Interface of a benchmark workload (constructor = set-up)."""

    name = ""
    #: requests re-served alone on a fresh engine by the output check
    num_reserved = 2

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError

    def reserve_alone(self, request_id: str) -> tuple[list[int], float]:
        """Serve one request alone; return its tokens and quality in [0, 1]."""
        raise NotImplementedError

    def reserve_candidates(self, result: PassResult) -> list[str]:
        return sorted(result.records)[: self.num_reserved]


def _reserve_with_recall(workload, engine, request_id: str):
    """Serve one request alone on ``engine``, scoring every selection by the
    recall of the exact top-k middle tokens (``k`` = the policy's budget)."""
    config, budget = workload.config, workload.budget
    request = workload._request(request_id)
    k = budget.middle_budget(len(request.prompt_ids))
    scores: list[float] = []

    def recall(layer_index, query, cache, selected):
        obs = _observation(config, budget, layer_index, query, cache, selected)
        scores.append(attention_recall_at_k(obs, k))

    request.selection_hook = recall
    records = {request_id: Record(due=0.0)}
    engine.submit(request)
    _drain(engine, _Collector(records))
    return records[request_id].token_ids, _aggregate_quality(scores, config.num_layers)


# ---------------------------------------------------------------- longctx-qa


class LongContextQA(Workload):
    """InfiniteBench-like quality setting: one offline batch, prefill-bound."""

    name = "longctx-qa"
    TASKS = ("en.sum", "en.qa", "en.mc", "en.dia", "math.find",
             "retr.passkey", "retr.number", "retr.kv")
    SIZES = {"full": {"seq_len": 384, "tasks": 8, "per_task": 2},
             "smoke": {"seq_len": 160, "tasks": 2, "per_task": 1}}
    PQ = PQCacheConfig(num_partitions=4, num_bits=6, max_kmeans_iters=12,
                       gpu_cache_tokens=0)
    #: the offline batch: requests served this many at a time
    BATCH = 8

    def __init__(self, seed: int, scale: str = "full") -> None:
        size = self.SIZES[scale]
        self.config = ModelConfig.tiny()
        self.model = TransformerLM(self.config, seed=0, qk_coupling=1.0,
                                   rope_base=1e6)
        self.budget = _eval_budget(token_ratio=0.1, comm_ratio=1.0 / 64.0)
        self.latency = paper_latency(self.PQ, self.budget)
        rng = np.random.default_rng(seed)
        base = size["seq_len"]
        self.samples = {}
        for index, task in enumerate(self.TASKS[: size["tasks"]]):
            # Per-task lengths (a narrow spread keeps the work per run level)
            # and the suite's own per-task seed derivation.
            seq_len = int(rng.integers(base * 97 // 100, base * 103 // 100 + 1))
            (dataset,) = infinitebench_suite(seq_len=seq_len, num_samples=size["per_task"],
                                             seed=seed + 131 * index, tasks=(task,))
            for number, sample in enumerate(dataset.samples):
                self.samples[f"{task}/{number}"] = (dataset.metric, sample)
        _warm_up(self.model)

    def _engine(self, batch: int) -> InferenceEngine:
        return InferenceEngine(
            self.model,
            scheduler_config=SchedulerConfig(max_batch_size=batch,
                                             max_prefills_per_step=batch),
            latency_model=self.latency,
            enable_prefix_caching=True,
        )

    def _request(self, request_id: str, scores: list[float], tracer) -> Request:
        metric, sample = self.samples[request_id]

        def score(layer_index, query, cache, selected):
            obs = _observation(self.config, self.budget, layer_index, query,
                               cache, selected)
            scores.append(score_step(metric, obs, sample.evidence_positions))

        return Request(
            request_id=request_id,
            prompt_ids=list(sample.prompt_ids),
            forced_decode_ids=list(sample.probe_ids),
            policy_spec=PolicySpec.named("pqcache", self.budget, pq_config=self.PQ),
            selection_hook=score if tracer is None else tracer.wrap("eval.score", score),
        )

    def run_pass(self, tracer=None) -> PassResult:
        scores = {rid: [] for rid in self.samples}
        requests = [self._request(rid, scores[rid], tracer) for rid in self.samples]
        start = perf_counter()
        engine = self._engine(self.BATCH)
        records = {r.request_id: Record(due=0.0) for r in requests}
        for request in requests:
            engine.submit(request)
        _drain(engine, _Collector(records, forced=True))
        wall = perf_counter() - start
        layers = self.config.num_layers
        return PassResult(
            records=records, wall_s=wall, makespan_s=engine.metrics.clock,
            engine_metrics=engine.metrics.snapshot(),
            quality=[_aggregate_quality(scores[rid], layers) for rid in self.samples],
        )

    def reserve_alone(self, request_id):
        scores: list[float] = []
        engine = self._engine(1)
        records = {request_id: Record(due=0.0)}
        engine.submit(self._request(request_id, scores, tracer=None))
        _drain(engine, _Collector(records, forced=True))
        return records[request_id].token_ids, _aggregate_quality(
            scores, self.config.num_layers)


# --------------------------------------------------------------- decode-long


class DecodeLong(Workload):
    """Concurrent long generations over synthesized KV caches (no prefill)."""

    name = "decode-long"
    SIZES = {"full": {"requests": 8, "context": 2048, "new_tokens": 96},
             "smoke": {"requests": 2, "context": 256, "new_tokens": 6}}
    PQ = PQCacheConfig(num_partitions=2, num_bits=6, max_kmeans_iters=4)

    def __init__(self, seed: int, scale: str = "full") -> None:
        size = self.SIZES[scale]
        self.config = ModelConfig.tiny()
        self.model = TransformerLM(self.config, seed=0)
        self.budget = _eval_budget(token_ratio=0.1, comm_ratio=1.0 / 128.0)
        self.latency = paper_latency(self.PQ, self.budget)
        self.new_tokens = size["new_tokens"]
        rng = np.random.default_rng(seed)
        base = size["context"]
        cfg = self.config
        self.inputs = {}
        for index in range(size["requests"]):
            seq_len = int(rng.integers(base * 9 // 10, base * 11 // 10 + 1))
            shape = (cfg.num_layers, cfg.num_kv_heads, seq_len, cfg.head_dim)
            self.inputs[f"r{index}"] = {
                "prompt": rng.integers(4, cfg.vocab_size, size=seq_len).tolist(),
                "keys": rng.normal(size=shape),
                "values": rng.normal(size=shape),
                "logits": rng.normal(size=cfg.vocab_size),
            }
        _warm_up(self.model)

    def _prefill(self, request_id: str) -> PrefillResult:
        """A fresh precomputed prefill (decoding appends to the cache)."""
        cfg = self.config
        data = self.inputs[request_id]
        cache = KVCache(cfg.num_layers, cfg.num_kv_heads, cfg.head_dim)
        for layer in range(cfg.num_layers):
            cache[layer].append(data["keys"][layer], data["values"][layer])
        return PrefillResult(
            kvcache=cache, last_hidden=np.zeros(cfg.hidden_dim),
            logits=data["logits"], aggregates=[], prompt_queries=None,
            seq_len=len(data["prompt"]),
        )

    def _engine(self, batch: int) -> InferenceEngine:
        return InferenceEngine(
            self.model,
            scheduler_config=SchedulerConfig(max_batch_size=batch,
                                             max_prefills_per_step=batch),
            latency_model=self.latency,
        )

    def _request(self, request_id: str) -> Request:
        return Request(
            request_id=request_id,
            prompt_ids=self.inputs[request_id]["prompt"],
            sampling=SamplingParams(max_new_tokens=self.new_tokens),
            policy_spec=PolicySpec.named("pqcache", self.budget, pq_config=self.PQ),
            prefill=self._prefill(request_id),
        )

    def run_pass(self, tracer=None) -> PassResult:
        requests = [self._request(rid) for rid in self.inputs]
        start = perf_counter()
        engine = self._engine(len(requests))
        records = {r.request_id: Record(due=0.0) for r in requests}
        for request in requests:
            engine.submit(request)
        _drain(engine, _Collector(records))
        wall = perf_counter() - start
        return PassResult(records=records, wall_s=wall,
                          makespan_s=engine.metrics.clock,
                          engine_metrics=engine.metrics.snapshot())

    def reserve_alone(self, request_id):
        return _reserve_with_recall(self, self._engine(1), request_id)


# -------------------------------------------------------- multiturn-pressure


class MultiTurnPressure(Workload):
    """Open-loop conversations on a two-worker cluster under pool pressure."""

    name = "multiturn-pressure"
    num_reserved = 16
    #: ``cohorts`` groups of ``users`` conversations arrive one after the
    #: other, each as ``requests`` Poisson arrivals at ``rate`` per simulated
    #: second, so the offered load stays level while the sample grows
    SIZES = {"full": {"cohorts": 2, "users": 24, "requests": 120, "rate": 4.5,
                      "system": 192, "turn": 32, "answer": 16,
                      "pool": 72, "cpu": 16, "disk": 64},
             "smoke": {"cohorts": 1, "users": 2, "requests": 6, "rate": 6.0,
                       "system": 96, "turn": 16, "answer": 4,
                       "pool": 24, "cpu": 4, "disk": 16}}
    PQ = PQCacheConfig(max_kmeans_iters=2, gpu_cache_tokens=512)
    BLOCK = 32
    #: a small substrate, so the serving layers carry a visible host share
    MODEL = ModelConfig(num_layers=1, hidden_dim=64, num_heads=4, num_kv_heads=2,
                        ffn_dim=128, vocab_size=512, name="serving-bench")

    def __init__(self, seed: int, scale: str = "full") -> None:
        size = self.size = self.SIZES[scale]
        self.config = self.MODEL
        self.model = TransformerLM(self.config, seed=0)
        self.budget = _eval_budget(token_ratio=0.2, comm_ratio=1.0 / 64.0)
        self.latency = paper_latency(self.PQ, self.budget)
        rng = np.random.default_rng(seed)
        #: request id -> (due time, prompt): the user's system prompt plus
        #: their turns so far, independent of earlier answers
        self.prompts = {}
        conversations = {}
        offset = 0.0
        for cohort in range(size["cohorts"]):
            events = poisson_arrivals(size["requests"], rate=size["rate"],
                                      num_users=size["users"], seed=[seed, cohort])
            turns = 1 + max(event.turn for event in events)
            for event in events:
                user = cohort * size["users"] + event.user
                if user not in conversations:
                    system = int(rng.integers(size["system"] * 3 // 4,
                                              size["system"] * 5 // 4 + 1))
                    conversations[user] = multi_turn_conversation(
                        num_turns=turns, system_tokens=system,
                        turn_tokens=size["turn"], seed=[seed, user])
                conv = conversations[user]
                prompt = list(conv.system_ids)
                for message in conv.turn_ids[: event.turn + 1]:
                    prompt.extend(message)
                self.prompts[f"u{user}t{event.turn}"] = (offset + event.time, prompt)
            offset += events[-1].time
        _warm_up(self.model)

    def _scheduler(self) -> SchedulerConfig:
        return SchedulerConfig(max_batch_size=8, max_prefill_chunk_tokens=256)

    def _request(self, request_id: str) -> Request:
        return Request(
            request_id=request_id,
            prompt_ids=self.prompts[request_id][1],
            sampling=SamplingParams(max_new_tokens=self.size["answer"]),
            policy_spec=PolicySpec.named("pqcache", self.budget, pq_config=self.PQ),
        )

    def run_pass(self, tracer=None) -> PassResult:
        size = self.size
        start = perf_counter()
        cluster = ClusterFrontend(
            self.model, num_workers=2, placement="cache_aware",
            scheduler_config=self._scheduler(), kv_block_size=self.BLOCK,
            latency_model=self.latency,
            kv_pool_blocks=size["pool"], swap_cpu_blocks=size["cpu"],
            swap_disk_blocks=size["disk"],
        )
        workers = cluster.workers
        records: dict[str, Record] = {}
        collector = _Collector(records)
        lateness: list[float] = []

        def step_busy(until: float) -> None:
            """Step the busy worker with the lowest clock while it is < until."""
            while True:
                busy = [w for w in workers
                        if w.has_unfinished and w.metrics.clock < until]
                if not busy:
                    return
                worker = min(busy, key=lambda w: w.metrics.clock)
                collector.observe(worker.step(), worker.metrics.clock)

        for request_id, (due, _) in self.prompts.items():
            step_busy(due)
            for worker in workers:
                if not worker.has_unfinished and worker.metrics.clock < due:
                    worker.metrics.clock = due  # idle until this arrival
            records[request_id] = Record(due=due)
            cluster.submit(self._request(request_id))
            lateness.append(cluster.worker_of(request_id).metrics.clock - due)
        step_busy(float("inf"))
        wall = perf_counter() - start
        return PassResult(
            records=records, wall_s=wall,
            makespan_s=max(w.metrics.clock for w in workers),
            engine_metrics=cluster.fleet_metrics(), lateness=lateness,
            placements=list(cluster.placements),
        )

    def reserve_candidates(self, result: PassResult) -> list[str]:
        """Preempted requests first (pressure touched them most), then
        requests spread evenly over the arrival order."""
        stride = max(1, len(result.records) // self.num_reserved)
        ranked = sorted(enumerate(result.records), key=lambda item: (
            -result.records[item[1]].metrics.preemptions, item[0] % stride, item[0]))
        return [rid for _, rid in ranked[: self.num_reserved]]

    def reserve_alone(self, request_id):
        engine = InferenceEngine(
            self.model, scheduler_config=self._scheduler(),
            enable_prefix_caching=True, kv_block_size=self.BLOCK,
            latency_model=self.latency,
        )
        return _reserve_with_recall(self, engine, request_id)


WORKLOADS = {cls.name: cls for cls in (LongContextQA, DecodeLong, MultiTurnPressure)}
