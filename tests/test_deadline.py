"""Deadline-aware EDF scheduling, deadline shedding, quantile digests, and
the SLO feedback loop.

Directed companions to the randomized coverage in ``test_preemption.py``
(per-step EDF waiting-order oracle, genuine-miss shed audit) and
``test_cluster.py`` (edf_aware routing, cluster deadline fuzz):

* :class:`~repro.serve.RequestQoS` deadline validation and resolution
  against the simulated clock;
* EDF ordering inside the scheduler's waiting queue — within a priority
  class, deadline-tagged items in earliest-deadline order ahead of the
  untagged FCFS tail, preemption victims re-entering at the front of their
  rank;
* the unified shed-victim ranking (``lowest_ranked_waiting``) and its
  never-shed-preemption-victims filter;
* deadline-miss shedding, at admission (provably unmeetable) and mid-wait
  (clock passed the deadline), with ``finish_reason="deadline"`` and the
  miss counters;
* :class:`~repro.serve.QuantileDigest` accuracy/merge/delta/bound
  semantics;
* :class:`~repro.serve.SLOTuner` control moves (tighten/relax/hysteresis)
  and the engine integration's byte-identity.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    EngineMetrics,
    InferenceEngine,
    QuantileDigest,
    Request,
    RequestQoS,
    SamplingParams,
    SchedulerConfig,
    SLOTuner,
)
from repro.serve.cluster import Worker
from repro.serve.scheduler import ContinuousBatchingScheduler


def make_request(rid, prompt, deadline=None, priority=0, tenant="default",
                 weight=1.0, max_new=3):
    return Request(
        request_id=rid,
        prompt_ids=list(prompt),
        sampling=SamplingParams(max_new_tokens=max_new),
        qos=RequestQoS(priority=priority, tenant=tenant, weight=weight,
                       deadline=deadline),
    )


def make_prompt(rng, n=60, vocab=256):
    return rng.integers(4, vocab, size=n).tolist()


# ---------------------------------------------------------------------------
# RequestQoS deadline field
# ---------------------------------------------------------------------------


class TestDeadlineQoS:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RequestQoS(deadline=0.0)
        with pytest.raises(ConfigurationError):
            RequestQoS(deadline=-1.0)
        assert RequestQoS(deadline=None).deadline is None
        assert RequestQoS(deadline=0.5).deadline == 0.5

    def test_deadline_resolves_against_submit_clock(self, model, rng):
        """The relative deadline is anchored at the *simulated* submit
        instant, not at zero."""
        engine = InferenceEngine(model)
        engine.metrics.clock = 5.0
        rid = engine.submit(make_request("d0", make_prompt(rng), deadline=2.0))
        state = engine._states[rid]
        assert state.deadline_time == pytest.approx(7.0)
        assert state.metrics.deadline == pytest.approx(7.0)
        engine.run()

    def test_untagged_request_has_no_deadline_time(self, model, rng):
        engine = InferenceEngine(model)
        rid = engine.submit(make_request("d1", make_prompt(rng)))
        state = engine._states[rid]
        assert state.deadline_time is None
        assert state.metrics.deadline is None
        engine.run()


# ---------------------------------------------------------------------------
# Scheduler-level EDF ordering (duck-typed items)
# ---------------------------------------------------------------------------


class _Item(SimpleNamespace):
    """Minimal scheduler item: the duck-typed QoS protocol attributes."""

    def __init__(self, name, priority=0, seq=0, deadline_time=None):
        super().__init__(name=name, priority=priority, seq=seq,
                         deadline_time=deadline_time)

    def __repr__(self):
        return self.name


def _waiting_names(scheduler):
    return [item.name for item in scheduler.waiting_items()]


class TestEDFOrdering:
    def test_deadlines_order_within_class_ahead_of_fcfs_tail(self):
        scheduler = ContinuousBatchingScheduler()
        scheduler.submit(_Item("plain-a", seq=0))
        scheduler.submit(_Item("late", seq=1, deadline_time=9.0))
        scheduler.submit(_Item("plain-b", seq=2))
        scheduler.submit(_Item("early", seq=3, deadline_time=2.0))
        assert _waiting_names(scheduler) == [
            "early", "late", "plain-a", "plain-b"
        ]

    def test_priority_classes_never_mix(self):
        """EDF is strictly *within* a class — a tight deadline never lifts a
        request over a higher class."""
        scheduler = ContinuousBatchingScheduler()
        scheduler.submit(_Item("hi-plain", priority=2, seq=0))
        scheduler.submit(_Item("lo-urgent", priority=0, seq=1,
                               deadline_time=0.001))
        scheduler.submit(_Item("hi-late", priority=2, seq=2,
                               deadline_time=50.0))
        assert _waiting_names(scheduler) == [
            "hi-late", "hi-plain", "lo-urgent"
        ]

    def test_no_deadlines_degenerates_to_per_class_fcfs(self):
        scheduler = ContinuousBatchingScheduler()
        for seq, (name, priority) in enumerate(
            [("b0", 0), ("a0", 1), ("b1", 0), ("a1", 1)]
        ):
            scheduler.submit(_Item(name, priority=priority, seq=seq))
        assert _waiting_names(scheduler) == ["a0", "a1", "b0", "b1"]

    def test_untagged_victim_reenters_ahead_of_fcfs_tail_only(self):
        """A preempted deadline-less victim resumes before newer untagged
        arrivals of its class but still behind its class's EDF head."""
        scheduler = ContinuousBatchingScheduler()
        victim = _Item("victim", seq=0)
        scheduler.submit(victim)
        decision = scheduler.schedule()
        assert victim in decision.admitted
        scheduler.submit(_Item("urgent", seq=1, deadline_time=1.0))
        scheduler.submit(_Item("newer", seq=2))
        scheduler.preempt(victim)
        assert _waiting_names(scheduler) == ["urgent", "victim", "newer"]

    def test_tagged_victim_reenters_at_its_edf_rank(self):
        """A preempted deadline-tagged victim re-enters in EDF position —
        ahead of equal-deadline peers, behind strictly earlier ones."""
        scheduler = ContinuousBatchingScheduler()
        victim = _Item("victim", seq=0, deadline_time=5.0)
        scheduler.submit(victim)
        scheduler.schedule()
        scheduler.submit(_Item("earlier", seq=1, deadline_time=2.0))
        scheduler.submit(_Item("peer", seq=2, deadline_time=5.0))
        scheduler.submit(_Item("later", seq=3, deadline_time=8.0))
        scheduler.preempt(victim)
        assert _waiting_names(scheduler) == [
            "earlier", "victim", "peer", "later"
        ]


# ---------------------------------------------------------------------------
# Unified shed-victim ranking (satellite 1)
# ---------------------------------------------------------------------------


class TestShedVictimRanking:
    def test_lowest_class_newest_within_it(self):
        scheduler = ContinuousBatchingScheduler()
        items = [
            _Item("hi-old", priority=2, seq=0),
            _Item("lo-old", priority=0, seq=1),
            _Item("lo-new", priority=0, seq=2),
            _Item("mid", priority=1, seq=3),
        ]
        for item in items:
            scheduler.submit(item)
        victim = scheduler.lowest_ranked_waiting()
        assert victim.name == "lo-new"

    def test_eligibility_filter_excludes_and_may_empty(self):
        scheduler = ContinuousBatchingScheduler()
        protected = _Item("protected", priority=0, seq=5)
        other = _Item("other", priority=1, seq=1)
        scheduler.submit(protected)
        scheduler.submit(other)
        victim = scheduler.lowest_ranked_waiting(
            lambda item: item is not protected
        )
        assert victim is other
        assert scheduler.lowest_ranked_waiting(lambda item: False) is None
        assert ContinuousBatchingScheduler().lowest_ranked_waiting() is None

    def test_overflow_never_sheds_a_requeued_preemption_victim(self, model):
        """Regression: the ``max_waiting`` overflow path ranks victims
        through the same never-admitted filter as the deadline sweep, so a
        preemption victim parked in the waiting queue — lowest class,
        newest seq, exactly what the dead ``lowest_ranked_waiting`` helper
        used to return — is never shed."""
        rng = np.random.default_rng(3)
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(
                max_batch_size=1, preemption_mode="swap", max_waiting=1,
            ),
            enable_prefix_caching=True,
            kv_block_size=16,
            kv_pool_blocks=12,
            max_retained_outputs=0,
        )
        victim = make_request("victim", make_prompt(rng, 100), max_new=6)
        engine.submit(victim)
        for _ in range(200):
            engine.step()
            if engine._states["victim"].status.name in ("RUNNING",
                                                        "PREFILLING"):
                break
        claimant = make_request("claimant", make_prompt(rng, 100),
                                priority=1, max_new=6)
        engine.submit(claimant)
        # force the victim out: it re-enters the waiting queue as a
        # re-queued preemption victim (lowest class, newest-looking rank)
        state = engine._states["victim"]
        assert engine._preempt_victim(state)
        assert not engine._never_admitted(state)
        # overflow the waiting queue with fresh lowest-class arrivals: the
        # shed victim must be one of them, never the preemption victim
        engine.submit(make_request("fresh-a", make_prompt(rng, 30)))
        engine.submit(make_request("fresh-b", make_prompt(rng, 30)))
        assert engine.metrics.requests_shed >= 1
        assert "victim" in engine._states
        finals = engine.run()
        assert finals["victim"].finish_reason == "length"


# ---------------------------------------------------------------------------
# Deadline shedding
# ---------------------------------------------------------------------------


class TestDeadlineShedding:
    def test_mid_wait_miss_is_shed_with_counters(self, model, rng):
        """A request still waiting when the clock passes its deadline
        finishes with ``finish_reason="deadline"`` and bumps the miss
        counters at every level."""
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(max_batch_size=1),
            enable_prefix_caching=True,
        )
        # above the (one-token, prefix-cached) admission bound so it passes
        # the gate, far below the blocker's makespan so it expires mid-wait;
        # the blocker outranks it so the tagged request genuinely waits
        deadline = 4.0 * engine.min_ttft_lower_bound(60)
        blocker = make_request("blocker", make_prompt(rng, 120), max_new=8,
                               priority=3)
        doomed = make_request("doomed", make_prompt(rng, 60),
                              deadline=deadline, priority=1, tenant="chat")
        engine.submit(blocker)
        engine.submit(doomed)
        finals = engine.run()
        assert finals["blocker"].finish_reason == "length"
        out = finals["doomed"]
        assert out.finish_reason == "deadline"
        assert out.finished and out.token_ids == []
        assert out.metrics.finish_time > out.metrics.deadline
        assert engine.metrics.deadline_misses == 1
        assert engine.metrics.requests_shed == 1
        assert engine.metrics.per_class[1].deadline_misses == 1
        assert engine.metrics.per_tenant["chat"].deadline_misses == 1
        assert engine.metrics.as_dict()["deadline_misses"] == 1

    def test_admission_shed_when_provably_unmeetable(self, model, rng):
        """Without prefix caching the TTFT lower bound covers the whole
        prompt's prefill compute; a deadline below it is shed at submit,
        before any other request even runs."""
        engine = InferenceEngine(model, enable_prefix_caching=False)
        prompt = make_prompt(rng, 200)
        bound = engine.min_ttft_lower_bound(len(prompt))
        assert bound > 0.0
        engine.submit(make_request("hopeless", prompt, deadline=bound / 2))
        assert "hopeless" not in engine._states  # refused at the gate
        finals = engine.run()
        assert finals["hopeless"].finish_reason == "deadline"
        assert engine.metrics.deadline_misses == 1

    def test_prefix_caching_weakens_bound_to_one_token(self, model):
        """With prefix caching a full-prefix hit could serve all but one
        token, so the admission bound must not assume cold prefill."""
        cached = InferenceEngine(model, enable_prefix_caching=True)
        cold = InferenceEngine(model, enable_prefix_caching=False)
        assert cached.min_ttft_lower_bound(200) == (
            cached.min_ttft_lower_bound(999)
        )
        assert cold.min_ttft_lower_bound(200) > cached.min_ttft_lower_bound(200)

    def test_meetable_deadline_is_not_shed_at_admission(self, model, rng):
        engine = InferenceEngine(model, enable_prefix_caching=False)
        prompt = make_prompt(rng, 60)
        engine.submit(make_request("fine", prompt, deadline=10.0))
        finals = engine.run()
        assert finals["fine"].finish_reason == "length"
        assert engine.metrics.deadline_misses == 0

    def test_shedding_disabled_keeps_edf_but_completes(self, model, rng):
        """``shed_missed_deadlines=False``: deadlines still steer ordering,
        but every request runs to completion (the A/B comparison mode)."""
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(
                max_batch_size=1, shed_missed_deadlines=False,
            ),
        )
        engine.submit(make_request("blocker", make_prompt(rng, 120),
                                   max_new=8))
        engine.submit(make_request("plain", make_prompt(rng, 40)))
        engine.submit(make_request("urgent", make_prompt(rng, 40),
                                   deadline=1e-12))
        # EDF still orders the hopeless-deadline request ahead of the
        # untagged FCFS tail...
        names = [s.request.request_id
                 for s in engine.scheduler.waiting_items()]
        assert names == ["urgent", "blocker", "plain"]
        # ...but nothing is shed
        finals = engine.run()
        assert all(out.finish_reason == "length" for out in finals.values())
        assert engine.metrics.deadline_misses == 0

    def test_deadline_steering_never_changes_bytes(self, model, rng):
        """The invariant, directed: same requests with and without
        deadlines produce byte-identical tokens and logits for everything
        that completes."""
        prompts = [make_prompt(rng, 60 + 20 * i) for i in range(3)]
        plain = [make_request(f"r{i}", p) for i, p in enumerate(prompts)]
        tagged = [
            make_request(f"r{i}", p, deadline=10.0 - 3 * i)
            for i, p in enumerate(prompts)
        ]
        config = SchedulerConfig(max_batch_size=2,
                                 max_prefill_chunk_tokens=32)
        refs = InferenceEngine(model, scheduler_config=config).run(plain)
        outs = InferenceEngine(model, scheduler_config=config).run(tagged)
        for rid, ref in refs.items():
            assert outs[rid].token_ids == ref.token_ids
            assert np.array_equal(outs[rid].logits, ref.logits)


# ---------------------------------------------------------------------------
# Idempotent abort (satellite 2) — shed/abort race
# ---------------------------------------------------------------------------


class TestAbortShedRace:
    def test_abort_after_deadline_shed_is_noop(self, model, rng):
        """An abort that loses the race against a deadline shed returns the
        shed final instead of raising — the caller cannot know the request
        was dropped a step earlier."""
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(max_batch_size=1),
        )
        engine.submit(make_request("blocker", make_prompt(rng, 120),
                                   max_new=8))
        engine.submit(make_request("doomed", make_prompt(rng, 60),
                                   deadline=1e-12))
        finals = engine.run()
        assert finals["doomed"].finish_reason == "deadline"
        out = engine.abort("doomed")
        assert out is not None and out.finish_reason == "deadline"
        assert engine.metrics.requests_aborted == 0
        # and still raises for ids that were never submitted at all
        with pytest.raises(ConfigurationError):
            engine.abort("ghost")


# ---------------------------------------------------------------------------
# QuantileDigest
# ---------------------------------------------------------------------------


class TestQuantileDigest:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QuantileDigest(relative_error=0.0)
        with pytest.raises(ConfigurationError):
            QuantileDigest(relative_error=1.0)
        with pytest.raises(ConfigurationError):
            QuantileDigest(max_buckets=1)
        with pytest.raises(ConfigurationError):
            QuantileDigest().quantile(1.5)

    def test_empty_digest_reports_none(self):
        digest = QuantileDigest()
        assert digest.count == 0
        assert digest.mean is None
        assert digest.quantile(0.5) is None
        assert digest.as_dict()["p99"] is None
        digest.observe(None)  # optional metrics fold None away
        assert digest.count == 0

    def test_quantiles_match_numpy_within_relative_error(self):
        """The digest's contract: every quantile within ``relative_error``
        of ``numpy.percentile(..., method="nearest")`` on the raw stream."""
        rng = np.random.default_rng(11)
        samples = rng.lognormal(mean=-6.0, sigma=1.5, size=5000)
        digest = QuantileDigest(relative_error=0.01)
        for value in samples:
            digest.observe(float(value))
        for p in (1, 10, 25, 50, 75, 90, 99, 99.9):
            exact = float(np.percentile(samples, p, method="nearest"))
            approx = digest.percentile(p)
            assert approx == pytest.approx(exact, rel=0.011), f"p{p}"
        assert digest.mean == pytest.approx(float(samples.mean()))

    def test_merge_equals_concatenated_stream(self):
        rng = np.random.default_rng(12)
        a_samples = rng.exponential(0.01, size=400)
        b_samples = rng.exponential(0.5, size=600)
        a, b, both = QuantileDigest(), QuantileDigest(), QuantileDigest()
        for value in a_samples:
            a.observe(float(value))
            both.observe(float(value))
        for value in b_samples:
            b.observe(float(value))
            both.observe(float(value))
        merged = a.merge(b)
        assert merged is a
        assert a._counts == both._counts
        assert a.count == both.count == 1000
        assert a.quantile(0.9) == both.quantile(0.9)
        # identical streams ⇒ value-equal digests (what engine-metrics
        # identity comparisons rely on)
        assert a == both
        both.observe(1.0)
        assert a != both

    def test_merge_rejects_mismatched_error(self):
        with pytest.raises(ConfigurationError):
            QuantileDigest(relative_error=0.01).merge(
                QuantileDigest(relative_error=0.05)
            )

    def test_snapshot_detaches_and_reset_zeroes(self):
        digest = QuantileDigest()
        digest.observe(1.0)
        snap = digest.snapshot()
        digest.observe(100.0)
        assert snap.count == 1 and digest.count == 2
        assert snap.quantile(1.0) == pytest.approx(1.0, rel=0.011)
        digest.reset()
        assert digest.count == 0 and digest.quantile(0.5) is None

    def test_delta_reads_a_window_without_reset(self):
        digest = QuantileDigest()
        for value in (0.001, 0.002, 0.003):
            digest.observe(value)
        mark = digest.snapshot()
        for value in (1.0, 2.0, 3.0):
            digest.observe(value)
        window = digest.delta(mark)
        assert window.count == 3
        # the window holds only the post-mark samples
        assert window.quantile(0.0) == pytest.approx(1.0, rel=0.011)
        assert digest.delta(None).count == digest.count == 6

    def test_memory_bound_collapses_low_buckets(self):
        rng = np.random.default_rng(13)
        samples = 10.0 ** rng.uniform(-9, 2, size=2000)
        # the hard bound holds even under absurd pressure (8 buckets over
        # 11 decades): only the max clamp is still trustworthy there
        tiny = QuantileDigest(relative_error=0.01, max_buckets=8)
        for value in samples:
            tiny.observe(float(value))
        assert len(tiny._counts) <= 8
        assert tiny.quantile(1.0) == pytest.approx(
            float(samples.max()), rel=0.011)
        # with headroom above the upper tail, collapse degrades only the
        # low quantiles — the SLO-bearing p99 keeps its error bound
        digest = QuantileDigest(relative_error=0.01, max_buckets=256)
        for value in samples:
            digest.observe(float(value))
        assert len(digest._counts) <= 256
        exact = float(np.percentile(samples, 99, method="nearest"))
        assert digest.percentile(99) == pytest.approx(exact, rel=0.011)

    def test_zero_and_subfloor_values_land_in_zero_bucket(self):
        digest = QuantileDigest()
        digest.observe(0.0)
        digest.observe(1e-15)
        digest.observe(5.0)
        assert digest.count == 3
        assert digest.quantile(0.0) == 0.0
        assert digest.quantile(1.0) == pytest.approx(5.0, rel=0.011)


# ---------------------------------------------------------------------------
# SLOTuner
# ---------------------------------------------------------------------------


def _fake_engine(baseline=None):
    """The slice of the engine surface the tuner touches."""
    scheduler = ContinuousBatchingScheduler(
        SchedulerConfig(proactive_swap_free_fraction=baseline)
    )
    return SimpleNamespace(
        metrics=EngineMetrics(),
        scheduler=scheduler,
        proactive_swap_free_fraction=baseline,
    )


def _feed(engine, priority, tenant, ttft, count):
    bucket = engine.metrics.class_bucket(priority)
    for _ in range(count):
        bucket.ttft.observe(ttft)


class TestSLOTuner:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SLOTuner({})
        with pytest.raises(ConfigurationError):
            SLOTuner({2: 0.0})
        with pytest.raises(ConfigurationError):
            SLOTuner({2: 0.01}, quantile=0.0)
        with pytest.raises(ConfigurationError):
            SLOTuner({2: 0.01}, weight_gain=1.0)
        with pytest.raises(ConfigurationError):
            SLOTuner({2: 0.01}, weight_gain=2.0, max_weight_gain=1.5)

    def _tick(self, tuner, engine, times):
        for _ in range(times):
            tuner.on_step(engine)

    def test_tighten_raises_threshold_and_boosts_tenants(self):
        tuner = SLOTuner({2: 0.001}, adjust_every=4, min_samples=2,
                         fraction_step=0.2, weight_gain=2.0)
        engine = _fake_engine(baseline=None)
        tuner.observe(SimpleNamespace(priority=2, tenant="chat", weight=4.0))
        _feed(engine, 2, "chat", ttft=0.01, count=3)  # p90 over target
        self._tick(tuner, engine, 4)
        assert engine.proactive_swap_free_fraction == pytest.approx(0.2)
        assert engine.scheduler.tenant_weights["chat"] == pytest.approx(8.0)
        assert engine.metrics.slo_tunings == 1
        assert tuner.history[-1]["action"] == "tighten"
        # the scheduler's weight lookup now sees the boosted override
        item = SimpleNamespace(tenant="chat", weight=4.0)
        assert engine.scheduler._weight(item) == pytest.approx(8.0)

    def test_tighten_caps_threshold_and_boost(self):
        tuner = SLOTuner({0: 0.001}, adjust_every=1, min_samples=1,
                         fraction_step=0.6, max_free_fraction=0.9,
                         weight_gain=4.0, max_weight_gain=6.0)
        engine = _fake_engine()
        tuner.observe(SimpleNamespace(priority=0, tenant="t", weight=1.0))
        for _ in range(3):
            _feed(engine, 0, "t", ttft=1.0, count=1)
            self._tick(tuner, engine, 1)
        assert engine.proactive_swap_free_fraction == pytest.approx(0.9)
        assert engine.scheduler.tenant_weights["t"] == pytest.approx(6.0)

    def test_relax_walks_back_to_baseline_and_removes_boosts(self):
        tuner = SLOTuner({2: 1.0}, adjust_every=1, min_samples=1,
                         fraction_step=0.25, weight_gain=2.0,
                         relax_margin=0.5)
        engine = _fake_engine(baseline=0.3)
        tuner.observe(SimpleNamespace(priority=2, tenant="chat", weight=1.0))
        # one violation arms the knobs
        _feed(engine, 2, "chat", ttft=5.0, count=1)
        self._tick(tuner, engine, 1)
        assert engine.proactive_swap_free_fraction == pytest.approx(0.55)
        assert "chat" in engine.scheduler.tenant_weights
        # two comfortable windows walk everything back
        for _ in range(2):
            _feed(engine, 2, "chat", ttft=0.01, count=1)
            self._tick(tuner, engine, 1)
        assert engine.proactive_swap_free_fraction == pytest.approx(0.3)
        assert engine.scheduler.tenant_weights == {}
        assert engine.metrics.slo_tunings >= 2
        assert tuner.history[-1]["action"] == "relax"

    def test_relax_restores_none_when_unconfigured(self):
        tuner = SLOTuner({0: 1.0}, adjust_every=1, min_samples=1,
                         fraction_step=0.2, relax_margin=0.5)
        engine = _fake_engine(baseline=None)
        _feed(engine, 0, "default", ttft=5.0, count=1)
        self._tick(tuner, engine, 1)
        assert engine.proactive_swap_free_fraction == pytest.approx(0.2)
        _feed(engine, 0, "default", ttft=0.01, count=1)
        self._tick(tuner, engine, 1)
        assert engine.proactive_swap_free_fraction is None

    def test_hysteresis_holds_between_margin_and_target(self):
        """Measured between relax_margin*target and target: neither move."""
        tuner = SLOTuner({0: 1.0}, adjust_every=1, min_samples=1,
                         relax_margin=0.5)
        engine = _fake_engine()
        _feed(engine, 0, "default", ttft=0.8, count=1)  # under target,
        self._tick(tuner, engine, 1)                    # over the margin
        assert engine.proactive_swap_free_fraction is None
        assert tuner.history == []

    def test_small_windows_are_not_trusted(self):
        tuner = SLOTuner({0: 0.001}, adjust_every=1, min_samples=10)
        engine = _fake_engine()
        _feed(engine, 0, "default", ttft=5.0, count=9)
        self._tick(tuner, engine, 1)
        assert engine.proactive_swap_free_fraction is None
        assert tuner.history == []

    def test_windows_are_deltas_not_cumulative(self):
        """A consumed violation window does not re-trigger: the next tick
        reads only post-mark samples."""
        tuner = SLOTuner({0: 0.1}, adjust_every=1, min_samples=1,
                         fraction_step=0.1)
        engine = _fake_engine()
        _feed(engine, 0, "default", ttft=5.0, count=4)
        self._tick(tuner, engine, 1)
        assert engine.proactive_swap_free_fraction == pytest.approx(0.1)
        # no new finishes: the window is empty, nothing moves
        self._tick(tuner, engine, 1)
        assert engine.proactive_swap_free_fraction == pytest.approx(0.1)
        assert len(tuner.history) == 1

    def test_engine_integration_tunes_without_touching_bytes(self, model, rng):
        """Wired into a real contended engine: the tuner fires (slo_tunings
        advances, the live threshold moves) and the run stays byte-identical
        to the same schedule without a tuner."""
        prompts = [make_prompt(rng, 80 + 10 * i) for i in range(4)]

        def requests():
            return [
                make_request(f"q{i}", p, priority=2, tenant="chat",
                             max_new=4)
                for i, p in enumerate(prompts)
            ]

        config = SchedulerConfig(max_batch_size=2,
                                 max_prefill_chunk_tokens=32)
        refs = InferenceEngine(model, scheduler_config=config,
                               enable_prefix_caching=True,
                               kv_block_size=16).run(requests())
        tuner = SLOTuner({2: 1e-9}, adjust_every=2, min_samples=1)
        engine = InferenceEngine(model, scheduler_config=config,
                                 enable_prefix_caching=True,
                                 kv_block_size=16, slo_tuner=tuner)
        finals = engine.run(requests())
        assert engine.metrics.slo_tunings > 0
        assert engine.metrics.as_dict()["slo_tunings"] > 0
        assert engine.proactive_swap_free_fraction is not None
        assert engine.scheduler.tenant_weights.get("chat", 1.0) > 1.0
        for rid, ref in refs.items():
            assert finals[rid].token_ids == ref.token_ids
            assert np.array_equal(finals[rid].logits, ref.logits)


# ---------------------------------------------------------------------------
# Worker deadline signals (router inputs)
# ---------------------------------------------------------------------------


class TestWorkerDeadlineSignals:
    def test_backlog_and_slack_track_scheduled_deadlines(self, model, rng):
        worker = Worker(0, model, enable_prefix_caching=True)
        worker.submit(make_request("a", make_prompt(rng), deadline=5.0))
        worker.submit(make_request("b", make_prompt(rng), deadline=1.0))
        worker.submit(make_request("c", make_prompt(rng)))  # untagged
        assert worker.deadline_backlog() == 2
        # an incoming request with 3s of slack queues behind only the
        # 1s-deadline request
        assert worker.deadline_backlog(before_slack=3.0) == 1
        assert worker.deadline_backlog(before_slack=0.5) == 0
        assert worker.nearest_deadline_slack == pytest.approx(
            1.0 - worker.metrics.clock
        )
        worker.run()
        assert worker.deadline_backlog() == 0
        assert worker.nearest_deadline_slack == math.inf
