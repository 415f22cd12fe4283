"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each run sets up its workload several times (the median is ``setup_s``),
then serves the workload's inputs in repeated passes on fresh engines for
``--seconds`` seconds.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced passes with traced
ones and reports the per-layer metrics, writing the spans of the first
traced pass to ``--out`` as Chrome trace-event JSON.  Metrics prefixed
``host_`` use the host wall clock; those prefixed ``sim_`` (and the
``sim.`` per-layer split) use the engine's deterministic simulated clock.

Outside the timed passes the run checks the outputs: every request sent is
accounted for, every pass produced the same tokens and simulated clocks,
the tokens match the digest recorded for the seed (``digests.json``), and a
few requests re-served alone on a fresh engine give the same tokens.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in its own process and prints each one's report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = HERE / "digests.json"
#: BLAS threads, fixed before NumPy loads and never above the core count
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
SETUP_REPEATS = 7

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.path.insert(0, str(ROOT / "src"))

from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, instrumented  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def slo_limits(spec: dict, workload: str) -> tuple[float, float]:
    """TTFT and TPOT limits in seconds, stated once in the workload's why.

    A workload whose why states no SLO is an offline job without latency
    limits: every request that finishes meets them.
    """
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    match = re.search(r"SLO: TTFT <= ([\d.]+) ms and TPOT <= ([\d.]+) ms", why)
    if match is None:
        return float("inf"), float("inf")
    return float(match.group(1)) / 1e3, float(match.group(2)) / 1e3


# ------------------------------------------------------------------ memory


def _status_kb(field: str) -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise KeyError(field)


def reset_peak_rss() -> int:
    """Reset the kernel's peak-RSS mark; return the current RSS in kB."""
    Path("/proc/self/clear_refs").write_text("5")
    return _status_kb("VmRSS")


# ----------------------------------------------------------------- metrics


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def sim_summary(result, ttft_limit_s: float, tpot_limit_s: float) -> dict:
    """Simulated-clock end-to-end figures of one pass (deterministic)."""
    done = [rec for rec in result.records.values() if rec.done]
    ttft = [rec.metrics.first_token_time - rec.due for rec in done]
    gaps = [b - a for rec in done for a, b in zip(rec.token_times, rec.token_times[1:])]
    met = sum(
        1 for rec in done
        if rec.metrics.first_token_time - rec.due <= ttft_limit_s
        and (rec.metrics.tpot or 0.0) <= tpot_limit_s
    )
    sent = len(result.records)
    return {
        "sim_ttft_p50_ms": 1e3 * percentile(ttft, 50),
        "sim_ttft_p90_ms": 1e3 * percentile(ttft, 90),
        "sim_itl_p50_ms": 1e3 * percentile(gaps, 50),
        "sim_itl_p99_ms": 1e3 * percentile(gaps, 99),
        "sim_req_s": len(done) / result.makespan_s,
        "slo_met_frac": met / sent,
        "done_frac": len(done) / sent,
        "ttft_samples": len(ttft),
        "itl_samples": len(gaps),
    }


def layer_metrics(result, tracer: Tracer, overhead_frac: float) -> dict:
    """Per-layer figures of one traced pass."""
    spans = tracer.summary()
    em = result.engine_metrics
    done = [rec for rec in result.records.values() if rec.metrics is not None]
    out = {}
    for name in ("model.prefill", "model.decode", "pq.select", "pq.append", "pq.build",
                 "prefix.match", "prefix.insert", "prefix.evict", "codec.encode",
                 "codec.decode", "router.place", "sched.schedule", "engine.step",
                 "eval.score"):
        out[f"{name}.self_s"] = spans[name]["self_s"]
    for name in ("model.prefill", "pq.select", "pq.build", "prefix.match",
                 "prefix.insert", "prefix.evict", "codec.encode", "codec.decode",
                 "alloc.allocate"):
        out[f"{name}.calls"] = spans[name]["calls"]
    prefill_tokens = spans["model.prefill"]["work"]
    out["model.prefill.tok_s"] = _rate(prefill_tokens, spans["model.prefill"]["self_s"])
    out["model.decode.rounds"] = spans["model.decode"]["calls"]
    out["pq.build.keys_per_s"] = _rate(spans["pq.build"]["work"], spans["pq.build"]["self_s"])
    out["sched.decode_batch_mean"] = em.mean_decode_batch_size
    out["prefix.token_hit_frac"] = _rate(em.prefix_cache_hit_tokens, em.prefix_prompt_tokens)
    out["pressure.preempt_swap"] = em.preemptions_swap
    out["pressure.preempt_recompute"] = em.preemptions_recompute
    out["pressure.recompute_waste_frac"] = _rate(
        sum(rec.metrics.recomputed_tokens for rec in done), prefill_tokens)
    out["pressure.swap_out_blocks"] = em.swap_out_blocks
    out["pressure.spill_out_mb"] = em.spill_out_bytes / 1e6
    logical = em.swap_out_bytes + em.spill_out_bytes
    wire = em.swap_out_wire_bytes + em.spill_out_wire_bytes
    out["codec.wire_ratio"] = _rate(wire, logical)
    placements = result.placements
    out["router.prefix_hit_frac"] = _rate(
        sum(1 for p in placements if p.matched_tokens > 0), len(placements))
    out["sched.queue_wait_p50_ms"] = 1e3 * percentile(
        [rec.metrics.prefill_start - rec.due for rec in done
         if rec.metrics.prefill_start is not None], 50)
    out["gen.lateness_p50_ms"] = 1e3 * percentile(result.lateness, 50)
    out["gen.lateness_max_ms"] = 1e3 * max(result.lateness, default=0.0)
    out["sim.prefill_s"] = sum(rec.metrics.prefill_seconds for rec in done)
    out["sim.decode_s"] = sum(rec.metrics.decode_seconds for rec in done)
    out["sim.swap_s"] = sum(rec.metrics.swap_seconds for rec in done)
    out["trace.attributed_frac"] = tracer.covered_seconds() / result.wall_s
    out["trace.overhead_frac"] = overhead_frac
    return out


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ------------------------------------------------------------------ checks


def check_outputs(workload, passes, sims, digest_key: str, seed: int):
    """Output checks outside the timed passes.

    Returns the problems found (empty when correct) and the quality scores
    of the requests re-served alone.
    """
    problems = []
    first = passes[0]
    for result in passes:
        missing = [rid for rid, rec in result.records.items() if rec.finish_reason is None]
        if missing:
            problems.append(f"requests never finished: {missing[:5]}")
    if any(result.digest() != first.digest() for result in passes):
        problems.append("passes produced different tokens")
    if any(sim != sims[0] for sim in sims):
        problems.append("passes produced different simulated clocks")
    recorded = load_digests().get(digest_key, {}).get(str(seed))
    if recorded is not None and recorded != first.digest():
        problems.append(f"token digest {first.digest()[:12]} != recorded {recorded[:12]}")
    qualities = []
    for request_id in workload.reserve_candidates(first):
        tokens, quality = workload.reserve_alone(request_id)
        qualities.append(quality)
        if tokens != first.records[request_id].token_ids:
            problems.append(f"{request_id} re-served alone gave different tokens")
    return problems, qualities


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}


def record_digest(digest_key: str, seed: int, digest: str) -> None:
    digests = load_digests()
    digests.setdefault(digest_key, {})[str(seed)] = digest
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


# -------------------------------------------------------------------- main


def measure(workload, seconds: float, trace: bool):
    """Serve passes until ``seconds`` would be overrun (at least one round).

    Returns the untraced passes and the traced ``(pass, tracer)`` pairs; with
    ``trace`` every round runs one untraced and one traced pass.
    """
    passes, traced = [], []
    start = perf_counter()
    rounds = 0
    while True:
        passes.append(workload.run_pass())
        gc.collect()  # free the finished pass's engine before the next one
        if trace:
            tracer = Tracer()
            with instrumented(tracer):
                traced.append((workload.run_pass(tracer), tracer))
            gc.collect()
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return passes, traced


def run_one(args) -> dict:
    spec = load_spec()
    ttft_limit, tpot_limit = slo_limits(spec, args.workload)
    cls = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = None  # drop the previous set-up before timing the next
        gc.collect()
        start = perf_counter()
        workload = cls(args.seed, args.scale)
        setups.append(perf_counter() - start)
    base_kb = reset_peak_rss()
    passes, traced = measure(workload, args.seconds, bool(args.trace))
    peak_mb = (_status_kb("VmHWM") - base_kb) / 1024.0

    every = passes + [result for result, _ in traced]
    sims = [sim_summary(r, ttft_limit, tpot_limit) for r in every]
    first, sim = passes[0], sims[0]
    digest_key = f"{args.workload}@{args.scale}"
    problems, reserved_quality = check_outputs(workload, every, sims, digest_key, args.seed)
    if args.record and not problems:
        record_digest(digest_key, args.seed, first.digest())

    if args.trace:
        result, tracer = traced[0]
        overhead = (median(r.wall_s for r, _ in traced)
                    / median(r.wall_s for r in passes) - 1.0)
        metrics = layer_metrics(result, tracer, overhead)
        out_dir = Path(args.out)
        tracer.write_chrome_trace(out_dir / f"trace-{args.workload}-{args.seed}.json")
        table = spec["per_layer"]
    else:
        metrics = {
            "setup_s": median(setups),
            "host_req_s": median(
                sum(rec.done for rec in r.records.values()) / r.wall_s for r in passes),
            "host_peak_mb": peak_mb,
            # 0-100: the pass's own selection scores where the workload
            # records them, else those of the requests re-served alone
            "quality_score": 100.0 * float(np.mean(first.quality or reserved_quality)),
            **{k: v for k, v in sim.items() if not k.endswith("_samples")},
        }
        table = spec["end_to_end"]

    attempted = sum(len(r.records) for r in every)
    failed = sum(not rec.done for r in every for rec in r.records.values())
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"traced={len(traced)} digest={first.digest()[:16]} "
          f"ttft_samples={sim['ttft_samples']} itl_samples={sim['itl_samples']}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    for entry in table:
        print(f"{entry['name']:32s} {metrics[entry['name']]:14.6g} {entry['unit']}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {e["name"]: {"value": float(metrics[e["name"]]), "unit": e["unit"]}
                    for e in table},
    }


def run_all(args) -> dict:
    """Run every workload in a fresh process; merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale, "--out", args.out]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for traced runs' span files")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's token digest in digests.json")
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
