"""The request-centric inference engine.

:class:`InferenceEngine` is the serving front-end of the reproduction: it
accepts :class:`~repro.serve.Request` objects, runs a continuous-batching
loop (admit → prefill → interleaved decode rounds → finish/evict) over the
shared :class:`~repro.llm.TransformerLM`, instantiates one KVCache policy per
request from its :class:`~repro.serve.PolicySpec`, and emits
:class:`~repro.serve.RequestOutput` objects with incrementally streamed
tokens plus per-request serving metrics.

Decode math is *identical* to the legacy single-sequence loop: each request
owns its prefill/KVCache and its policy, and tokens are picked by masked
argmax — so a batched run produces byte-identical tokens to sequential
:func:`repro.llm.greedy_generate` calls (which is itself a thin wrapper over
a one-request engine).

The decode hot path is fused across *requests* as well as KV heads: by
default one engine step issues one :meth:`TransformerLM.decode_step_batch`
round over every ``RUNNING`` request (planned by
:class:`~repro.serve.decode_batch.DecodeBatch`).  The round's dense ops pack
all requests' token rows into the model's fixed-shape decode blocks — each
weight matrix streams once per round instead of once per request — and
policy selection dispatches per policy class to cross-request batch kernels:
ADC scoring/top-k (:func:`~repro.core.pqcache.topk_middle_grouped`), grouped
PQ encoding (:func:`~repro.core.pqcache.append_tokens_grouped`), grouped
sort-dedup assembly for the dropping baselines, and length-grouped einsum
attention over ``(request, kv_head)`` entries.  It is the only decode
path, byte-identical to decoding each request alone.  Under a bounded pool
the round is split at pressure points (see :meth:`InferenceEngine.step`),
so pool-pressure charges land on the simulated clock exactly where
decoding the requests one at a time would put them.

Prefilling runs in one of two modes.  By default an admitted request
prefills its whole prompt during the admission step (monolithic).  With
``SchedulerConfig.max_prefill_chunk_tokens`` set, prefill is *chunked*: each
step processes at most that many prompt tokens, split fairly across the
batch's ``PREFILLING`` requests via :meth:`TransformerLM.prefill_chunk`, so a
16k-token prompt no longer head-of-line-blocks a short prompt's TTFT.  The
clock is charged per chunk (GPU compute of the chunk), with the residual of
the overlapped construction timeline
(:meth:`~repro.memory.LatencyModel.chunked_prefill_timeline`) settled at
completion; policies that support it (PQCache) build their state
incrementally from the same chunks (sketch fit → stream encode → refine).
Chunked and monolithic prefill produce bitwise-identical model outputs.

Paged KV and the shared-prefix cache
------------------------------------
With ``enable_prefix_caching=True`` every request's KVCache is a
:class:`~repro.llm.kvcache.PagedKVCache` drawing fixed-size token blocks from
a shared refcounted :class:`~repro.llm.kvcache.BlockAllocator`, and a
:class:`~repro.serve.PrefixCache` hash-matches each incoming prompt against
previously served block chains.  On a hit the matched blocks are attached
copy-on-write, prefill resumes from the first divergent token
(:meth:`TransformerLM.begin_prefill` with ``prefix_len``), reusable PQ
artifacts (sketch codebooks + codes) are adopted by reference through the
policy's ``attach_prefix`` hook, and the simulated clock charges **zero**
prefill or clustering cost for the cache-hit tokens.  Decode outputs are
byte-identical between the cache-hit and cold paths: the reused keys/values
are the exact arrays an earlier request computed, resumed reductions are
strictly-sequential continuations of snapshotted state, and policies whose
selection depends on prefill aggregates only reuse up to a boundary where
those aggregates were snapshotted exactly
(``KVCachePolicy.needs_prefill_aggregates``).

Preemption and tiered KV under pool pressure
--------------------------------------------
With a *bounded* block pool (``kv_pool_blocks``) the engine degrades
gracefully instead of failing: before any allocation-bearing step (a prefill
chunk, a decode append, a swap-in) it reserves the blocks that step will
write.  When the pool cannot supply them it first asks the prefix cache to
evict — which, with the disk spill tier, demotes cold chains to NVMe instead
of dropping them — and then *preempts* a victim request
(``SchedulerConfig.victim_policy``, LIFO by default).  Two victim fates
exist (``SchedulerConfig.preemption_mode``):

* ``"swap"`` — the victim's blocks are copied to the CPU tier of the
  :class:`~repro.llm.kvcache.SwapSpace` (cold entries cascade to disk), the
  pool blocks are freed, and on re-admission the chain is restored bitwise
  and decoding continues exactly where it stopped.
* ``"recompute"`` — the victim's blocks are dropped and the request is
  re-enqueued; on re-admission it re-prefills its prompt through the normal
  resumable-prefill machinery (often a prefix-cache hit on its own earlier
  chain) and *replays* its already-generated tokens through the ordinary
  decode path.  Because every stage is deterministic, the replayed logits,
  selections and subsequent tokens are byte-identical to an uninterrupted
  run; replayed tokens are not re-emitted or re-counted.

Swap and spill traffic is charged to the simulated clock as
dependency-linked PCIe/NVMe transfers
(:meth:`~repro.memory.LatencyModel.swap_out_timeline` /
:meth:`~repro.memory.LatencyModel.swap_in_timeline`) and surfaces in
:class:`~repro.serve.EngineMetrics` (``swap_*``/``spill_*`` counters), so
TTFT/TPOT honestly reflect pool pressure.  A :class:`CapacityError` is
raised only when a request's demand exceeds what the pool can offer even
with every other request preempted and every cold chain spilled.

Wall-clock is *simulated*: the engine advances a clock using the analytical
:class:`~repro.memory.LatencyModel` (prefill makespans and per-step TPOT for
the request's method profile), so TTFT/TPOT/throughput come out in the
paper's hardware terms even though the substrate runs in NumPy.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..baselines.base import KVCachePolicy
from ..errors import ConfigurationError
from ..llm.kvcache import (
    BlockAllocator,
    BlockTable,
    PagedKVCache,
    SwapSpace,
)
from ..llm.kvcodec import KVBlockCodec, get_codec
from ..llm.model import PrefillResult, PrefillState, TransformerLM
from ..memory.devices import HardwareSpec
from ..memory.latency import LatencyModel, resolve_method
from .decode_batch import DecodeBatch
from .metrics import EngineMetrics
from .prefix_cache import PrefixCache
from .pressure import PoolPressureMixin
from .request import Request, RequestOutput, RequestStatus
from .scheduler import ContinuousBatchingScheduler, SchedulerConfig
from .slo import SLOTuner
from .state import RequestState

__all__ = ["InferenceEngine"]


class InferenceEngine(PoolPressureMixin):
    """Continuous-batching serving engine over the PQCache policy stack.

    Args:
        model: shared transformer substrate (stateless across requests —
            every request owns its KVCache through its prefill result).
        scheduler_config: batching knobs; defaults to an 8-slot batch.
        latency_model: analytical model driving the simulated clock; when
            ``None`` one is built from ``hardware`` (default: the paper's
            RTX 4090 + PCIe 1.0 testbed) and the substrate's geometry.
        hardware: hardware spec for the default latency model.
        max_retained_outputs: retention bound on finished outputs.
        enable_prefix_caching: allocate every request's KVCache from a shared
            paged block pool and reuse matching prompt prefixes (KV blocks,
            accumulated-score snapshots, PQ artifacts) across requests.
        kv_block_size: tokens per KV block (prefix granularity).
        kv_pool_blocks: bound on the block pool; ``None`` grows on demand.
            When the pool runs dry the engine first evicts/spills cold
            prefix-cache chains, then preempts running requests
            (``SchedulerConfig.preemption_mode``); a pool that cannot serve
            a request even with everything else preempted raises
            :class:`~repro.errors.CapacityError`.
        swap_cpu_blocks: capacity (in blocks) of the CPU swap tier backing
            swap-preemption; ``None`` (default) is unbounded.  When the CPU
            tier fills, its oldest parked chains demote to the disk tier.
        swap_disk_blocks: capacity of the disk tier (swap overflow + prefix
            spill); ``None`` is unbounded.
        enable_disk_spill: spill cold evicted prefix-cache chains (KV blocks
            plus their PQ-snapshot/aggregate payloads) to the disk tier
            instead of freeing them, restoring them bitwise on later hits.
            PQ codes are ~1/64th the KV bytes, so snapshot spill is nearly
            free.  Only meaningful with ``enable_prefix_caching``.
        kv_swap_codec: KV block codec (name or
            :class:`~repro.llm.kvcodec.KVBlockCodec` instance) applied on
            every downward tier transition the byte-identity invariant
            covers: preemption swap-out and CPU→disk demotion.  Must be
            lossless (``"raw"`` or the default ``"byteplane"``); transfers
            are billed at the encoded *wire* size with the codec's CPU
            stages on the timeline, while the ``swap_*_bytes`` metrics keep
            counting logical bytes.
        kv_spill_codec: codec for cold prefix chains spilled to the disk
            tier; defaults to ``kv_swap_codec``.  This is the opt-in lossy
            surface: ``"int8"``/``"int4"``/``"int4-outlier"`` trade exact
            restores on spilled-chain cache hits for NVMe bandwidth, within
            the codec's declared per-element error bound.
        cache_decoded_blocks: also cache the blocks a request fills while
            *decoding*, so a follow-up turn embedding the answer reuses them.
            **Approximate reuse — off by default**: decoded tokens' KV was
            computed through the decode kernel under the request's (possibly
            sparse) attention policy, so it is not bitwise equal to what a
            cold full-attention prefill of the same tokens would produce;
            enabling this trades the byte-identity guarantee on the decoded
            region for a higher hit rate (prompt-region reuse stays exact).
        slo_tuner: opt-in SLO feedback loop (:class:`~repro.serve.SLOTuner`).
            The tuner observes finished requests and, every few steps,
            compares each targeted class's windowed TTFT quantile against
            its target, nudging the live proactive swap-out threshold and
            the scheduler's tenant-weight overrides.  Scheduling-only, like
            every QoS knob: tokens and logits stay byte-identical.
    """

    def __init__(
        self,
        model: TransformerLM,
        scheduler_config: SchedulerConfig | None = None,
        latency_model: LatencyModel | None = None,
        hardware: HardwareSpec | None = None,
        max_retained_outputs: int | None = None,
        enable_prefix_caching: bool = False,
        kv_block_size: int = 64,
        kv_pool_blocks: int | None = None,
        cache_decoded_blocks: bool = False,
        swap_cpu_blocks: int | None = None,
        swap_disk_blocks: int | None = None,
        enable_disk_spill: bool = True,
        kv_swap_codec: "str | KVBlockCodec | None" = "byteplane",
        kv_spill_codec: "str | KVBlockCodec | None" = None,
        slo_tuner: "SLOTuner | None" = None,
    ) -> None:
        self.model = model
        self.scheduler: ContinuousBatchingScheduler[RequestState] = (
            ContinuousBatchingScheduler(scheduler_config)
        )
        self.latency = latency_model or LatencyModel(
            hardware or HardwareSpec.paper_testbed(), model.config
        )
        self.metrics = EngineMetrics()
        #: live proactive swap-out threshold, seeded from the scheduler
        #: config; mutable so the opt-in SLO feedback loop can move it at
        #: runtime without thawing the frozen config (scheduling-only: it
        #: never changes what any request computes)
        self.proactive_swap_free_fraction = (
            self.scheduler.config.proactive_swap_free_fraction
        )
        #: opt-in SLO feedback loop (see :class:`~repro.serve.SLOTuner`):
        #: observes finished requests and nudges the proactive threshold /
        #: tenant weights toward the configured per-class TTFT targets
        self.slo_tuner = slo_tuner
        #: oldest finished outputs (which pin their request's KVCache and
        #: per-step logits) are evicted beyond this count; ``None`` retains
        #: everything — fine for batch jobs, set a bound for long-lived
        #: serving loops or call :meth:`release` per request.  Under a
        #: *bounded* pool, retained outputs do not block progress either
        #: way: their pool references are reclaimed automatically under
        #: pressure (the outputs stay readable via the assembled mirrors).
        self.max_retained_outputs = max_retained_outputs
        self.block_allocator: BlockAllocator | None = None
        self.prefix_cache: PrefixCache | None = None
        self.swap_space: SwapSpace | None = None
        self.kv_swap_codec: KVBlockCodec | None = None
        self.kv_spill_codec: KVBlockCodec | None = None
        self.cache_decoded_blocks = cache_decoded_blocks
        #: prefix-cache spill counters already charged to the clock (the
        #: spill/restore work happens inside eviction hooks and lookups, so
        #: the engine settles its transfer time from stat deltas)
        self._spill_settled = {"out_blocks": 0, "in_blocks": 0,
                               "out_payload": 0, "in_payload": 0,
                               "out_wire": 0, "in_wire": 0}
        if enable_prefix_caching:
            config = model.config
            swap_codec = get_codec(kv_swap_codec, config.dtype_bytes)
            if not swap_codec.lossless:
                raise ConfigurationError(
                    f"kv_swap_codec {swap_codec.name!r} is lossy: preemption "
                    "swap and CPU→disk demotion must restore bitwise (the "
                    "byte-identity invariant) — lossy codecs are only "
                    "allowed on spilled prefix chains (kv_spill_codec) and "
                    "migration"
                )
            spill_codec = (
                get_codec(kv_spill_codec, config.dtype_bytes)
                if kv_spill_codec is not None else swap_codec
            )
            self.kv_swap_codec = swap_codec
            self.kv_spill_codec = spill_codec
            self.block_allocator = BlockAllocator(
                config.num_layers,
                config.num_kv_heads,
                config.head_dim,
                block_size=kv_block_size,
                capacity_blocks=kv_pool_blocks,
                dtype_bytes=config.dtype_bytes,
            )
            self.swap_space = SwapSpace(
                cpu_capacity_blocks=swap_cpu_blocks,
                disk_capacity_blocks=swap_disk_blocks,
                codec=swap_codec,
            )
            self.prefix_cache = PrefixCache(
                self.block_allocator,
                spill_store=self.swap_space if enable_disk_spill else None,
                spill_codec=spill_codec,
            )
            self.block_allocator.eviction_hook = self.prefix_cache.evict
        self._states: dict[str, RequestState] = {}
        self._seen_ids: set[str] = set()
        self._final_outputs: dict[str, RequestOutput] = {}
        #: shed-at-submit finals awaiting delivery through the next step()
        #: (so run()/stream() observe them like any other finished output)
        self._pending_shed_outputs: list[RequestOutput] = []
        #: opt-in preemption witness: assign a list and every successful
        #: claimant→victim preemption appends ``(claimant_priority,
        #: claimant_seq, victim_priority, victim_seq)`` — the QoS fuzz
        #: suite's no-priority-inversion / within-class-age-rule oracle.
        self.victim_log: list[tuple[int, int, int, int]] | None = None

    # ------------------------------------------------------------- intake

    def submit(self, request: Request) -> str:
        """Queue a request for admission; returns its id."""
        if request.request_id in self._seen_ids:
            raise ConfigurationError(
                f"duplicate request id {request.request_id!r}"
            )
        state = RequestState(
            request,
            arrival_time=self.metrics.clock,
            seq=self.metrics.requests_submitted,
        )
        self._seen_ids.add(request.request_id)
        self._states[request.request_id] = state
        self.scheduler.submit(state)
        self.metrics.requests_submitted += 1
        self.metrics.class_bucket(state.priority).requests_submitted += 1
        self.metrics.tenant_bucket(state.tenant).requests_submitted += 1
        self._admission_control(state)
        return request.request_id

    #: never-admitted predicate for shed-victim ranking — re-queued
    #: preemption victims already hold generated tokens and are never shed
    @staticmethod
    def _never_admitted(item: RequestState) -> bool:
        return item.status is RequestStatus.WAITING

    def min_ttft_lower_bound(self, num_prompt_tokens: int) -> float:
        """Provable lower bound on the uncontended TTFT of a prompt.

        The bound is the GPU prefill compute alone: every serving method
        must run the prompt through all layers before the first token, the
        layers chain sequentially on the prefill timeline, and chunked
        prefill's per-chunk FLOPs telescope to at least the monolithic
        total — offload, clustering, and queueing only add to it.  With
        prefix caching enabled a full-prefix hit could serve all but one
        token from cached blocks, so the provable bound shrinks to the
        one-token suffix and admission-time deadline shedding effectively
        defers to the mid-wait clock sweep.
        """
        if self.prefix_cache is not None:
            num_prompt_tokens = 1
        return (
            self.latency.layer_prefill_compute_seconds(num_prompt_tokens)
            * self.model.config.num_layers
        )

    def _admission_control(self, state: RequestState) -> None:
        """Apply the opt-in load-shedding rules to a just-submitted request.

        ``shed_missed_deadlines`` sheds a deadline-tagged request whose
        deadline is *provably* unmeetable — :meth:`min_ttft_lower_bound` of
        its prompt alone exceeds the relative deadline, so even an idle
        engine could not produce the first token in time
        (``finish_reason="deadline"``).  ``shed_infeasible`` sheds a
        request whose *prompt alone* needs more
        pool blocks than the whole pool holds — no schedule could ever
        complete it, so failing fast beats a guaranteed
        :class:`CapacityError` later.  ``max_waiting`` bounds the waiting
        queue: on overflow the lowest-ranked *never-admitted* waiting
        request (lowest priority class, newest within it — possibly the
        incoming one itself) is shed; preemption victims re-queued for
        resume are never shed, they already hold generated tokens.
        """
        config = self.scheduler.config
        if (
            config.shed_missed_deadlines
            and state.request.qos.deadline is not None
            and self.min_ttft_lower_bound(len(state.request.prompt_ids))
            > state.request.qos.deadline
        ):
            self._shed(state, reason="deadline")
            return
        if (
            config.shed_infeasible
            and self.block_allocator is not None
            and self.block_allocator.capacity_blocks is not None
        ):
            block = self.block_allocator.block_size
            needed = -(-len(state.request.prompt_ids) // block)
            if needed > self.block_allocator.capacity_blocks:
                self._shed(state)
                return
        if (
            config.max_waiting is not None
            and self.scheduler.num_waiting > config.max_waiting
        ):
            victim = self.scheduler.lowest_ranked_waiting(self._never_admitted)
            if victim is not None:
                self._shed(victim)

    def _shed_missed_deadlines(self) -> int:
        """Shed never-admitted waiting requests whose deadline has passed.

        Runs at the start of every step: a request still ``WAITING`` (never
        admitted — re-queued preemption victims hold generated tokens and
        are never shed) whose resolved deadline lies strictly behind the
        simulated clock can no longer meet it, so it finishes immediately
        with ``finish_reason="deadline"`` instead of burning prefill
        compute on an already-lost SLO.  Returns the number shed.
        """
        if not self.scheduler.config.shed_missed_deadlines:
            return 0
        clock = self.metrics.clock
        expired = [
            item
            for item in self.scheduler.waiting_items()
            if self._never_admitted(item)
            and item.deadline_time is not None
            and clock > item.deadline_time
        ]
        for state in expired:
            self._shed(state, reason="deadline")
        return len(expired)

    def _shed(self, state: RequestState, reason: str = "shed") -> RequestOutput:
        """Refuse a waiting request (``finish_reason="shed"`` for load
        shedding, ``"deadline"`` for a missed or unmeetable deadline).

        Shed requests have never been admitted, so they hold no pool blocks,
        swap handles, or policy state — only their queue slot and state
        entry are dropped.  The final output is delivered through the next
        :meth:`step` so streaming consumers observe it.
        """
        self.scheduler.remove(state)
        self._finish(state, reason)
        output = self._make_output(state, [])
        del self._states[state.request.request_id]
        self._final_outputs[state.request.request_id] = output
        self.metrics.requests_shed += 1
        self._record_qos_finish(state, "requests_shed")
        if reason == "deadline":
            self.metrics.deadline_misses += 1
            self.metrics.class_bucket(state.priority).deadline_misses += 1
            self.metrics.tenant_bucket(state.tenant).deadline_misses += 1
        self._pending_shed_outputs.append(output)
        self._trim_retained_outputs()
        return output

    #: alias matching the common serving-engine vocabulary
    add_request = submit

    @property
    def has_unfinished(self) -> bool:
        return self.scheduler.has_work or bool(self._pending_shed_outputs)

    @property
    def num_waiting(self) -> int:
        return self.scheduler.num_waiting

    @property
    def num_running(self) -> int:
        return self.scheduler.num_running

    # --------------------------------------------------------------- step

    def step(self) -> list[RequestOutput]:
        """Run one engine step: admissions + prefill work + one decode round.

        Unchunked: admitted requests prefill their whole prompt.  Chunked:
        the scheduler's per-step token budget is spread over the batch's
        ``PREFILLING`` requests and each allocation advances that request by
        one chunk.  Either way, every fully-prefilled running request then
        gets a decode round.

        Returns one :class:`RequestOutput` per touched request, carrying the
        tokens that became available during this step (streaming deltas).
        """
        self._shed_missed_deadlines()
        self._proactive_swap_out()
        shed_outputs = self._pending_shed_outputs
        self._pending_shed_outputs = []
        decision = self.scheduler.schedule()
        if not decision.decodes and not decision.admitted and not decision.prefill_chunks:
            return shed_outputs
        self.metrics.steps += 1
        new_tokens: dict[str, list[int]] = {}
        chunked = self.scheduler.config.chunked_prefill_enabled

        touched: list[RequestState] = []

        def touch(state: RequestState) -> None:
            if state not in touched:
                touched.append(state)

        for state in decision.admitted:
            if not self.scheduler.contains_running(state):
                # An earlier admission's memory reservation preempted this
                # request before it was processed; it is back in the waiting
                # queue and will be re-admitted on a later step.
                continue
            if state.status is RequestStatus.SWAPPED:
                # Re-admission of a swap-preempted request: restore its block
                # chain first, then let the chunk/decode phases pick it up.
                # A request parked mid-prefill resumes as PREFILLING; without
                # chunking no later phase would prefill it, so finish its
                # monolithic prefill here.
                if self._resume_swapped(state):
                    touch(state)
                    if not chunked and state.status is RequestStatus.PREFILLING:
                        self._run_monolithic_prefill(state, new_tokens)
                continue
            if state.status is RequestStatus.PREEMPTED:
                # Recompute-preempted: restart through the normal admission
                # path (fresh policy, fresh prefill, possibly a prefix-cache
                # hit on its own earlier chain); generated tokens replay.
                state.status = RequestStatus.WAITING
            self._begin_prefill(state)
            touch(state)
            if not chunked:
                self._run_monolithic_prefill(state, new_tokens)
            elif state.remaining_prefill_tokens == 0 and state.prefill is None:
                # Precomputed prefill (e.g. the eval harness): nothing to
                # chunk, the request completes its prefill phase immediately.
                self._complete_prefill(state, self._resolve_prefill(state), new_tokens)

        for state, num_tokens in decision.prefill_chunks:
            if state.status is not RequestStatus.PREFILLING:
                continue  # preempted (or resume failed) earlier this step
            self._run_prefill_chunk(state, num_tokens, new_tokens)
            touch(state)

        # Decode: members gather into fused runs while their append demand
        # (an upper bound — earlier copy-on-write copies only shrink it) fits
        # the free pool.  A member that does not fit flushes the pending run,
        # then reserves its own blocks through the pressure ladder (or parks)
        # and starts the next run, so every ladder charge lands between the
        # same two members' decode charges as when each is decoded alone.
        allocator = self.block_allocator
        bounded = allocator is not None and allocator.capacity_blocks is not None
        run: list[RequestState] = []
        pending = 0
        for state in decision.decodes:
            if state.status is not RequestStatus.RUNNING:
                continue  # finished or parked earlier this step
            touch(state)
            needed = 0
            if bounded and state.paged is not None and not state.paged.released:
                needed = self._append_blocks_needed(state, 1)
            if needed and pending + needed > allocator.num_available:
                if run:
                    self._run_decode_batch(run, new_tokens)
                    run, pending = [], 0
                needed = self._append_blocks_needed(state, 1)
                if not self._ensure_blocks(state, needed):
                    self._preempt_victim(state)
                    continue
            pending += needed
            run.append(state)
        if run:
            self._run_decode_batch(run, new_tokens)

        # Backstop settlement: spills triggered by allocation hooks inside
        # the model's own appends (rare — reservations normally cover them).
        self._settle_spill_traffic()

        outputs: list[RequestOutput] = []
        for state in touched:
            output = self._make_output(state, new_tokens.get(state.request.request_id, []))
            outputs.append(output)
            if state.finished:
                self._cache_decoded_blocks(state)
                self.scheduler.finish(state)
                # The heavyweight per-request state (KVCache, logits) now
                # lives only in the final output, subject to the retention
                # bound below.
                del self._states[state.request.request_id]
                self._final_outputs[state.request.request_id] = output
                self.metrics.requests_finished += 1
                self._record_qos_finish(state, "requests_finished")
        self._trim_retained_outputs()
        if self.slo_tuner is not None:
            self.slo_tuner.on_step(self)
        return shed_outputs + outputs

    def _trim_retained_outputs(self) -> None:
        """Evict the oldest retained finals beyond the retention bound."""
        if self.max_retained_outputs is None:
            return
        while len(self._final_outputs) > self.max_retained_outputs:
            output = self._final_outputs.pop(next(iter(self._final_outputs)))
            self._release_blocks(output)

    @staticmethod
    def _release_blocks(output: RequestOutput | None) -> None:
        """Return a retained output's shared KV blocks to the pool.

        The assembled per-layer mirrors stay readable, so the output itself
        remains fully usable; only the refcounts on the shared block pool are
        dropped (cached prefix entries keep their own references).
        """
        if output is None or output.prefill is None:
            return
        kvcache = output.prefill.kvcache
        if isinstance(kvcache, PagedKVCache):
            kvcache.release()

    def stream(self) -> Iterator[RequestOutput]:
        """Drive the engine to completion, yielding every streamed output."""
        while self.has_unfinished:
            yield from self.step()

    def run(
        self, requests: Iterable[Request] | None = None
    ) -> dict[str, RequestOutput]:
        """Submit ``requests`` (if given), drain the engine, return finals.

        Returns a mapping ``request_id -> final RequestOutput`` for every
        request that finished during this call (independently of the
        ``max_retained_outputs`` bound, which only governs what the engine
        keeps pinned afterwards).
        """
        if requests is not None:
            for request in requests:
                self.submit(request)
        finals: dict[str, RequestOutput] = {}
        while self.has_unfinished:
            for output in self.step():
                if output.finished:
                    finals[output.request_id] = output
        return finals

    def final_output(self, request_id: str) -> RequestOutput:
        """Final output of a finished request."""
        try:
            return self._final_outputs[request_id]
        except KeyError:
            raise ConfigurationError(
                f"request {request_id!r} has not finished (or does not exist)"
            ) from None

    def release(self, request_id: str) -> None:
        """Drop a finished request's retained output (frees its KVCache)."""
        self._release_blocks(self._final_outputs.pop(request_id, None))

    def abort(self, request_id: str) -> RequestOutput | None:
        """Cancel an unfinished request and free its scheduler slot.

        Works on requests in any pre-finished state: still waiting, mid-way
        through a chunked prefill (the partially-filled KVCache is dropped),
        or decoding.  The request finishes immediately with
        ``finish_reason="aborted"`` and the returned final
        :class:`RequestOutput` carries whatever tokens were generated before
        the abort.

        Aborting a request that already reached a terminal state — it
        finished, was shed, or was aborted before, e.g. an abort racing a
        same-step shed or finish — is an idempotent no-op: the terminal
        outcome stands, no counter moves, and the retained final output is
        returned unchanged (``None`` once the retention bound evicted it).

        Args:
            request_id: id of the request to cancel.

        Returns:
            The final output — freshly aborted, or the unchanged terminal
            output of an already-finished request (``None`` if no longer
            retained).

        Raises:
            ConfigurationError: if the request id was never submitted.
        """
        state = self._states.get(request_id)
        if state is None:
            if request_id in self._seen_ids:
                return self._final_outputs.get(request_id)
            raise ConfigurationError(
                f"request {request_id!r} was never submitted"
            )
        self.scheduler.discard(state)
        if state.swap_handle is not None:
            # Aborted while swapped out: the parked chain will never be
            # restored, so drop it from the swap space.
            assert self.swap_space is not None
            self.swap_space.discard(state.swap_handle)
            state.swap_handle = None
        state.prefill_state = None  # drop the partial KVCache
        if state.paged is not None and state.prefill is None:
            # Aborted mid-prefill: the partial paged cache will never be
            # retained, so return its blocks to the pool right away.
            state.paged.release()
        self._finish(state, "aborted")
        output = self._make_output(state, [])
        del self._states[request_id]
        self._final_outputs[request_id] = output
        self.metrics.requests_aborted += 1
        self._record_qos_finish(state, "requests_aborted")
        self._trim_retained_outputs()
        return output

    # ------------------------------------------------------------ prefill

    def _begin_prefill(self, state: RequestState) -> None:
        """Admission bookkeeping: build the policy, resolve its profile.

        Also the re-entry point after recompute-preemption: the policy is
        rebuilt from its spec (deterministically equal to the original) and
        the prefix lookup runs again, typically hitting the chain this
        request itself inserted before being preempted.
        """
        state.status = RequestStatus.PREFILLING
        if state.metrics.prefill_start is None:
            state.metrics.prefill_start = self.metrics.clock
        if state.request.policy_spec is not None and state.policy is None:
            state.policy = state.request.policy_spec.build()
        state.method = resolve_method(
            state.policy.name if state.policy is not None else None,
            is_dropping=state.policy.is_dropping if state.policy is not None else False,
        )
        if self.prefix_cache is not None and state.request.prefill is None:
            self._setup_prefix(state)

    def _setup_prefix(self, state: RequestState) -> None:
        """Prefix-cache lookup + paged-KVCache construction for one request.

        Decides the reuse length ``R``:

        * policies that read prefill aggregates (and full attention, whose
          final output exposes them) may only resume at a boundary where the
          accumulated-score state was snapshotted exactly, capped so the
          SnapKV-style observation window stays entirely in the recomputed
          suffix — both conditions keep the resumed aggregates bitwise equal
          to a cold prefill's;
        * aggregate-free policies (PQCache) reuse every matched full block,
          up to ``len(prompt) - 1`` (at least one token must be processed to
          produce the first-token logits).

        Then forks the matched block chain copy-on-write and, when the
        policy can, attaches the cached PQ artifacts.
        """
        assert self.prefix_cache is not None and self.block_allocator is not None
        request = state.request
        policy = state.policy
        prompt_len = len(request.prompt_ids)
        block = self.block_allocator.block_size
        observation = request.sampling.observation_window
        fingerprint = policy.prefix_fingerprint() if policy is not None else None
        needs_aggregates = (
            policy.needs_prefill_aggregates if policy is not None else True
        )

        # Cap the lookup at what this request could actually attach, so a
        # long spilled chain is never restored from disk past the usable
        # prefix: aggregate-reading policies can resume at most before their
        # observation window; aggregate-free ones reuse up to all but the
        # last prompt token.
        useful_cap = (
            prompt_len - observation if needs_aggregates else prompt_len - 1
        )
        match = self.prefix_cache.match(
            request.prompt_ids, fingerprint,
            max_useful_tokens=max(useful_cap, 0),
        )
        # The lookup may have restored spilled chains from the disk tier;
        # charge that traffic before this request's TTFT accrues.
        self._settle_spill_traffic()
        self.metrics.prefix_cache_queries += 1
        self.metrics.prefix_prompt_tokens += prompt_len

        reuse = 0
        acc_scores = None
        if match is not None:
            if needs_aggregates:
                limit = min(match.matched_tokens, prompt_len - observation)
                candidates = [b for b in match.acc_boundaries if b <= limit]
                if candidates:
                    reuse = max(candidates)
                    acc_scores = match.acc_boundaries[reuse]
            else:
                reuse = min(match.matched_tokens, prompt_len - 1)
                acc_scores = match.acc_boundaries.get(reuse)

        if reuse > 0:
            num_blocks = -(-reuse // block)
            table = BlockTable.fork_from(
                self.block_allocator, match.block_ids[:num_blocks]
            )
            state.paged = PagedKVCache(
                self.block_allocator, prefix_table=table, prefix_len=reuse
            )
            state.cached_prefix = reuse
            state.prefix_acc = acc_scores
            self.metrics.prefix_cache_hits += 1
            self.metrics.prefix_cache_hit_tokens += reuse
            if match.pq_snapshot is not None and policy is not None:
                policy.attach_prefix(
                    self.model.config, state.paged, match.pq_snapshot, reuse
                )
        else:
            state.paged = PagedKVCache(self.block_allocator)
        state.metrics.cached_prefix_tokens = reuse

        # Boundary at which this request's own accumulated-score state will
        # be snapshotted for future consumers: the largest block-aligned
        # point that leaves the observation window in the suffix, if it
        # covers queries this request actually computes.  A request that
        # resumed *without* an exact accumulated-score init (the
        # aggregate-free long-reuse path) must not capture at all — its scan
        # is missing the cached-prefix queries' contributions, and caching
        # that snapshot would poison later aggregate-consuming resumes.
        capture = ((prompt_len - observation) // block) * block
        if capture > state.cached_prefix and (
            state.cached_prefix == 0 or state.prefix_acc is not None
        ):
            state.acc_capture = capture

    def _resolve_prefill(self, state: RequestState) -> PrefillResult:
        """Prefill result of a request that needs no (more) model work."""
        assert state.request.prefill is not None
        return state.request.prefill

    def _make_prefill_state(self, state: RequestState) -> PrefillState:
        """Begin the model-side prefill, resuming from a cached prefix."""
        request = state.request
        kwargs: dict = {}
        if state.paged is not None:
            kwargs["kvcache"] = state.paged
            if state.cached_prefix > 0:
                kwargs["prefix_len"] = state.cached_prefix
                kwargs["prefix_acc_scores"] = state.prefix_acc
            if state.acc_capture:
                kwargs["acc_snapshot_boundaries"] = [state.acc_capture]
        return self.model.begin_prefill(
            request.prompt_ids,
            observation_window=request.sampling.observation_window,
            **kwargs,
        )

    def _run_monolithic_prefill(
        self, state: RequestState, new_tokens: dict[str, list[int]]
    ) -> None:
        """Legacy unchunked path: the whole prompt in the admission step."""
        request = state.request
        if request.prefill is not None:
            prefill = request.prefill
        elif state.paged is not None:
            # Paged/prefix-cached requests always run through the resumable
            # API so cache-hit tokens are skipped; without chunking the whole
            # remainder is one chunk (charged through the chunk clock, which
            # telescopes to the monolithic charge on a cold cache).
            self._run_prefill_chunk(
                state, state.remaining_prefill_tokens, new_tokens
            )
            return
        else:
            prefill = self.model.prefill(
                request.prompt_ids,
                observation_window=request.sampling.observation_window,
            )
        self._complete_prefill(state, prefill, new_tokens)

    def _run_prefill_chunk(
        self, state: RequestState, num_tokens: int, new_tokens: dict[str, list[int]]
    ) -> None:
        """Advance a chunked-prefill request by one scheduled chunk."""
        request = state.request
        if state.prefill_state is None:
            state.prefill_state = self._make_prefill_state(state)
        prefix = state.prefill_state.num_processed
        if state.paged is not None:
            # Reserve the blocks this chunk will write before the model
            # starts appending — under pool pressure this evicts/spills cold
            # prefix chains and preempts younger victims, so the chunk
            # itself can never fail half-written.  When an older request
            # needs the pool more, this request parks itself instead.
            take = min(num_tokens, state.prefill_state.remaining_tokens)
            if not self._ensure_blocks(state, self._append_blocks_needed(state, take)):
                self._preempt_victim(state)
                return
        processed = self.model.prefill_chunk(state.prefill_state, num_tokens)
        state.chunk_lens.append(processed)
        state.metrics.prefill_chunks += 1
        self.metrics.prefill_chunks += 1

        # Per-chunk clock charge: the chunk's GPU compute.  Offload and PQ
        # construction overlap on other resources; their non-hidable residual
        # is settled at completion from the overlapped chunk timeline.
        seconds = self.latency.prefill_chunk_seconds(processed, prefix, state.method)
        self.metrics.clock += seconds
        state.chunk_seconds += seconds
        state.metrics.prefill_seconds += seconds

        if state.policy is not None and state.policy.supports_incremental_prefill:
            state.policy.on_prefill_chunk(
                self.model.config,
                state.prefill_state.kvcache,
                prefix,
                prefix + processed,
                state.prefill_state.seq_len,
            )

        if state.prefill_state.is_complete:
            prefill = self.model.finish_prefill(state.prefill_state)
            timeline = self.latency.chunked_prefill_timeline(
                state.chunk_lens,
                state.method,
                cached_prefix_tokens=state.cached_prefix,
            )
            # Split the overlap residual at the first-token-ready point: the
            # prompt's logits exist once the last GPU compute task ends, so
            # only the compute-side residual precedes TTFT; the construction
            # tail beyond it (offload/encode/refine that compute could not
            # hide) gates the first *retrieval* and is charged after the
            # first token is stamped (the paper's TT2T argument — this is
            # also what makes a prefix-cache hit's TTFT reflect the skipped
            # prefix compute rather than the full-prompt refine, which both
            # hit and cold paths still pay before their first decode step).
            gpu_ready = max(
                timeline.resource_makespan("gpu"), state.chunk_seconds
            )
            compute_residual = gpu_ready - state.chunk_seconds
            if compute_residual > 0.0:
                self.metrics.clock += compute_residual
                state.metrics.prefill_seconds += compute_residual
            state.construction_tail = max(timeline.makespan - gpu_ready, 0.0)
            state.prefill_state = None
            self._complete_prefill(state, prefill, new_tokens)

    def _complete_prefill(
        self,
        state: RequestState,
        prefill: PrefillResult,
        new_tokens: dict[str, list[int]],
    ) -> None:
        """Shared tail of both prefill modes: policy state, clock, first token."""
        request = state.request
        state.prefill = prefill
        state.status = RequestStatus.RUNNING

        if state.policy is not None:
            # finish_prefill refines incrementally-built state (PQCache under
            # chunked prefill) and defers to on_prefill for everything else.
            state.policy.finish_prefill(self.model.config, prefill)

        if self.prefix_cache is not None and state.paged is not None:
            # Cache the prompt's full blocks plus the reusable artifacts:
            # the accumulated-score snapshot at its capture boundary and the
            # policy's pre-refine PQ state (both shared by reference).
            acc_scores = (
                prefill.acc_snapshots.get(state.acc_capture)
                if state.acc_capture
                else None
            )
            fingerprint = (
                state.policy.prefix_fingerprint()
                if state.policy is not None
                else None
            )
            snapshot = (
                state.policy.prefix_snapshot()
                if state.policy is not None
                else None
            )
            self.prefix_cache.insert(
                request.prompt_ids,
                state.paged.table.block_ids,
                acc_boundary=state.acc_capture if acc_scores is not None else 0,
                acc_scores=acc_scores,
                pq_fingerprint=fingerprint,
                pq_snapshot=snapshot,
            )

        if not state.chunk_lens:
            # Monolithic prefill charges the whole overlapped makespan once.
            seconds = self.latency.prefill_timeline(
                prefill.seq_len, state.method
            ).makespan
            self.metrics.clock += seconds
            state.metrics.prefill_seconds = seconds
            state.metrics.prefill_chunks = 1
        self.metrics.prefills += 1

        # The first token exists as soon as prefilling ends — for sampled
        # requests it is emitted right away; for teacher-forced requests it
        # is the externally-supplied token that the first decode round will
        # process, so TTFT is the same point on the clock (this used to be
        # skipped, reporting TTFT as 0 for every eval-harness run).  A
        # recompute-preempted request keeps its original TTFT: the client
        # received that token before the preemption.
        if state.metrics.first_token_time is None:
            state.metrics.first_token_time = self.metrics.clock

        if state.construction_tail > 0.0:
            # The non-hidable construction tail (chiefly the full-prompt PQ
            # refinement) completes after the first token exists but before
            # the first retrieval, so it lands on the clock *after* TTFT was
            # stamped and before any decode round — and before a stop-token
            # finish stamps finish_time, keeping e2e >= prefill_seconds.
            self.metrics.clock += state.construction_tail
            state.metrics.prefill_seconds += state.construction_tail
            state.construction_tail = 0.0

        if state.forced is None:
            first = state.pick_token(prefill.logits)
            if state.generated:
                # Recompute-resume replay: the first token was emitted before
                # the preemption; determinism requires the re-prefill to
                # reproduce it bit for bit.
                if first != state.generated[0]:
                    raise ConfigurationError(
                        "recompute replay diverged on the first token: "
                        f"{first} != {state.generated[0]}"
                    )
                return
            state.generated.append(first)
            state.metrics.num_generated_tokens += 1
            self.metrics.generated_tokens += 1
            new_tokens.setdefault(request.request_id, []).append(first)
            if state.is_stop(first):
                # The stop token is emitted but never decoded.
                self._finish(state, "stop")

    # ------------------------------------------------------------- decode

    def _run_decode_batch(
        self, states: "list[RequestState]", new_tokens: dict[str, list[int]]
    ) -> None:
        """One fused decode round over ``states`` (all ``RUNNING``).

        Byte-identical to decoding each member alone, in order: the model
        computes the round layer-major across requests (per-request state
        is isolated, so the arithmetic cannot differ), policy hooks run
        through their grouped batch kernels (contractually bitwise equal to
        the per-request hooks), and the billing phase below runs each
        member's tail — counters, attended means, GPU-cache hit rate,
        communication bytes, simulated TPOT, maintenance billing,
        forced/replay/stop handling — member by member in decode order.

        :meth:`step` has already made every member's append fit the free
        pool, so no block reservation can fail and no member can be
        preempted mid-round.
        """
        batch = DecodeBatch.plan(states, self.model.config.num_kv_heads)
        members = batch.members
        logits_list = self.model.decode_step_batch(
            batch.tokens, batch.caches, batch.build_selector(),
            timings=batch.timings,
        )
        batch.run_policy_updates()

        num_layers = self.model.config.num_layers
        for member, logits in zip(members, logits_list):
            state = member.state
            request = state.request
            policy = member.policy
            cache = member.cache
            self._bill_maintenance(state, policy)
            state.num_decoded += 1
            state.step_logits.append(logits)
            state.selections.append(member.step_selections)
            self.metrics.decode_rounds += 1
            state.metrics.decode_steps += 1
            attended = member.attended
            if not member.needs_selector:
                # Full attention without a policy: every cached token
                # participates.
                attended = [float(cache.seq_len)] * num_layers
            state.metrics.attended_tokens += (
                float(np.mean(attended)) if attended else 0.0
            )

            seq_len = cache.seq_len
            hit_rate = self._gpu_cache_hit_rate(policy)
            if policy is not None:
                comm = policy.step_communication_bytes(seq_len)
                state.metrics.comm_overlappable_bytes += comm.get("overlappable", 0.0)
                state.metrics.comm_blocking_bytes += comm.get("blocking", 0.0)
            seconds = self.latency.tpot(seq_len, state.method, cache_hit_rate=hit_rate)
            self.metrics.clock += seconds
            state.metrics.decode_seconds += seconds

            if state.forced is not None:
                if state.num_decoded >= len(state.forced):
                    self._finish(state, "length")
                continue

            next_token = state.pick_token(logits)
            if state.num_decoded >= request.sampling.max_new_tokens:
                self._finish(state, "length")
                continue
            if state.num_decoded < len(state.generated):
                # Recompute-resume replay: this round re-derived a token
                # that was already emitted before the preemption — verify
                # determinism and do not re-emit or re-count it.
                if next_token != state.generated[state.num_decoded]:
                    raise ConfigurationError(
                        f"recompute replay diverged at decode step "
                        f"{state.num_decoded}: {next_token} != "
                        f"{state.generated[state.num_decoded]}"
                    )
                continue
            state.generated.append(next_token)
            state.metrics.num_generated_tokens += 1
            self.metrics.generated_tokens += 1
            new_tokens.setdefault(request.request_id, []).append(next_token)
            if state.is_stop(next_token):
                self._finish(state, "stop")

        self.metrics.observe_decode_batch(len(members))
        timings = batch.timings
        self.metrics.decode_select_seconds += timings.get("select", 0.0)
        self.metrics.decode_score_seconds += timings.get("score", 0.0)
        self.metrics.decode_topk_seconds += timings.get("topk", 0.0)
        self.metrics.decode_gather_seconds += timings.get("gather", 0.0)
        self.metrics.decode_attention_seconds += timings.get("attention", 0.0)
        self.metrics.decode_maintenance_seconds += timings.get("maintenance", 0.0)

    def _bill_maintenance(
        self, state: RequestState, policy: KVCachePolicy | None
    ) -> None:
        """Bill a decode step's deferred index maintenance to the clock.

        Policies report periodic maintenance (PQCache's ``refresh_every``
        codebook refresh) through
        :meth:`~repro.baselines.base.KVCachePolicy.consume_maintenance`; the
        engine charges it as a clustering timeline task — the same
        analytical cost model the prefill-time PQ build uses, once per layer
        — so the refresh knob has an honest simulated-latency price.  Runs
        for every decode member, immediately after the policy's post-append
        hook and before the step's TPOT charge.
        """
        if policy is None:
            return
        pending = policy.consume_maintenance()
        if pending is None:
            return
        seconds = self.model.config.num_layers * self.latency.layer_clustering_seconds(
            int(pending["tokens"]), iterations=pending["iterations"]
        )
        self.metrics.clock += seconds
        state.metrics.decode_seconds += seconds
        self.metrics.pq_refreshes += 1
        self.metrics.pq_refresh_seconds += seconds

    # ------------------------------------------------------------- finish

    def _cache_decoded_blocks(self, state: RequestState) -> None:
        """Extend the request's cached chain with its decoded tokens.

        Opt-in (``cache_decoded_blocks``): a follow-up turn's prompt usually
        embeds this request's answer, so the blocks filled during decoding
        are prefix material too — but only *approximately*.  Decoded tokens'
        KV went through the decode kernel under this request's attention
        policy, so reusing it is not bitwise equal to a cold prefill of the
        same tokens; the engine therefore never caches the decoded region
        unless explicitly asked to.  Only KV content is cached (no aggregate
        or PQ payloads — those are prompt-prefix artifacts).
        """
        if (
            not self.cache_decoded_blocks
            or self.prefix_cache is None
            or state.paged is None
            or state.prefill is None
            or state.num_decoded == 0
        ):
            return
        decoded = (
            state.forced if state.forced is not None else state.generated
        )[: state.num_decoded]
        chain_ids = list(state.request.prompt_ids) + [int(t) for t in decoded]
        self.prefix_cache.insert(chain_ids, state.paged.table.block_ids)

    def _finish(self, state: RequestState, reason: str) -> None:
        state.status = RequestStatus.FINISHED
        state.finish_reason = reason
        state.metrics.finish_time = self.metrics.clock
        if state.policy is not None:
            state.policy.release_prefix()

    def _record_qos_finish(self, state: RequestState, kind: str) -> None:
        """Fold one terminal event into the per-class/per-tenant buckets.

        ``kind`` names the bucket counter (``requests_finished`` /
        ``requests_aborted`` / ``requests_shed``); normally-finished
        requests also contribute their TTFT/TPOT to the bucket's latency
        accumulators.
        """
        buckets = (
            self.metrics.class_bucket(state.priority),
            self.metrics.tenant_bucket(state.tenant),
        )
        for bucket in buckets:
            setattr(bucket, kind, getattr(bucket, kind) + 1)
            if kind == "requests_finished":
                bucket.observe_finish(state.metrics)
        if kind == "requests_finished" and self.slo_tuner is not None:
            self.slo_tuner.observe(state)

    @staticmethod
    def _gpu_cache_hit_rate(policy: KVCachePolicy | None) -> float:
        """GPU block-cache hit rate of the *current* decode step.

        Uses the per-step hit/miss split aggregated over this step's
        retrievals across all layers (not the cumulative lifetime rate) so
        the simulated TPOT reflects the PCIe traffic this step actually
        incurs; the cumulative rate stays available on ``stats.hit_rate``
        for reporting.
        """
        manager = getattr(policy, "manager", None)
        gpu_cache = getattr(manager, "gpu_cache", None)
        if gpu_cache is None or not gpu_cache.stats.lookups:
            return 0.0
        return float(gpu_cache.stats.step_hit_rate)

    def _make_output(self, state: RequestState, fresh: list[int]) -> RequestOutput:
        final = state.finished
        return RequestOutput(
            request_id=state.request.request_id,
            new_token_ids=list(fresh),
            token_ids=list(state.generated),
            finished=final,
            finish_reason=state.finish_reason,
            metrics=state.metrics,
            logits=state.stacked_logits(self.model.config.vocab_size) if final else None,
            selections=list(state.selections) if final else None,
            prefill=state.prefill if final else None,
        )
