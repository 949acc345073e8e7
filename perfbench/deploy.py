"""The deploy-lenet workload: a cold then a warm ``repro deploy``.

Both deploys run as their own process (``deploy_phase.py``) against one
fresh artifact store, as a user's two ``repro deploy`` runs would: the
cold one trains and fills the store, the warm one replays it. The pair
always outlasts ``--seconds``, so a run measures exactly one pair.

Checks (each failure fails the trials it concerns):

* cold and warm trial accuracies are bitwise equal (cached == uncached);
* the cold deploy sees no cache hit, the warm one no cache miss.

With ``--trace 1`` both deploys run traced, a third, untraced warm
deploy gives the tracing overhead, and a short traced serve-small
session (``serve.serve_layers``) measures the serve layer, so the run
reports every per-layer metric.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (HERE, Spans, child_env, median, percentile, run_child,
                    self_times)
from repro.obs.analysis import load_trace

#: Fresh processes timed to measure ``setup_s``, before the cold
#: deploy, between the deploys and after the warm one (a slow spell of
#: a shared host then moves a few of the samples, not all).
SETUP_REPEATS = 3

#: Programming trials per deploy (``repro deploy --trials``).
TRIALS = 2

#: Timed window (s) of the serve-small session a traced run adds.
SERVE_SESSION_S = 3

#: The modules ``repro deploy`` imports before it does any work.
_IMPORTS = ("import repro.cli, repro.core, repro.eval, "
            "repro.eval.experiments, repro.parallel")


def _setup_samples() -> List[float]:
    """Wall times of fresh processes importing the deploy path."""
    env = child_env()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _IMPORTS], env=env,
                       check=True, timeout=120, capture_output=True)
        times.append(time.perf_counter() - t0)
    return times


def _phase(run_dir: Path, name: str, seed: int, store: Path,
           traced: bool = False, probes: bool = False,
           trials: int = TRIALS) -> Dict[str, Any]:
    argv = [str(HERE / "deploy_phase.py"), "--seed", str(seed),
            "--trials", str(trials)]
    if traced:
        argv += ["--trace", "1", "--probes", str(int(probes)),
                 "--spans", str(run_dir / f"{name}-spans.jsonl")]
    started = time.perf_counter()
    result = run_child(argv, child_env(store, obs=traced),
                       run_dir / f"{name}.log")
    result["started"] = started
    return result


def cache_check(cold: Dict[str, Any], warm: Dict[str, Any]) -> List[str]:
    """Failed trial labels under the cache contract: the cold deploy
    sees no cache hit, the warm one no cache miss."""
    failed: List[str] = []
    for name, phase, key in (("cold", cold, "cache_hits"),
                             ("warm", warm, "cache_misses")):
        if phase[key] != 0:
            failed += [f"{name}{i}" for i in
                       range(len(phase["accuracies"]))] or [name]
    return failed


def _check(cold: Dict[str, Any], warm: Dict[str, Any]) -> List[str]:
    """Failed trial labels ("cold0", "warm1", ...) under the checks."""
    failed = set(cache_check(cold, warm))
    for i, (a, b) in enumerate(zip(cold["accuracies"], warm["accuracies"])):
        if a != b:
            failed.add(f"warm{i}")
    if len(cold["accuracies"]) != len(warm["accuracies"]):
        failed.add("warm")
    return sorted(failed)


def run(seed: int, trace: bool, run_dir: Path) -> Dict[str, Any]:
    store = run_dir / "store"
    if not trace:
        setup = _setup_samples()
        cold = _phase(run_dir, "cold", seed, store)
        setup += _setup_samples()
        warm = _phase(run_dir, "warm", seed, store)
        setup += _setup_samples()
        failed = _check(cold, warm)
        trials = cold["trial_s"] + warm["trial_s"]
        metrics = {
            "setup_s": (median(setup), "s"),
            "deploy_cold_s": (cold["wall_s"], "s"),
            "deploy_warm_s": (warm["wall_s"], "s"),
            "accuracy": (sum(cold["accuracies"]) / len(cold["accuracies"]),
                         "fraction"),
            "requests_per_s": (len(trials) / sum(trials), "1/s"),
            "latency_p50_ms": (percentile(trials, 50) * 1e3, "ms"),
            "latency_p90_ms": (percentile(trials, 90) * 1e3, "ms"),
        }
        return {"attempted": len(trials), "failed": len(failed),
                "failures": failed, "metrics": metrics}
    return _run_traced(seed, run_dir, store)


def _run_traced(seed: int, run_dir: Path, store: Path) -> Dict[str, Any]:
    """Both deploys traced, a third untraced warm one for the overhead,
    and a short traced serve-small session for the serve layer."""
    import serve

    spans = Spans(trace_id=f"deploy-lenet-{seed}")
    m, cold, warm = deploy_layers(run_dir, seed, store, spans)
    plain = _phase(run_dir, "warm-untraced", seed, store)
    failed = _check(cold, warm)
    if plain["accuracies"] != warm["accuracies"]:
        failed.append("traced!=untraced")
    session = serve.serve_layers(run_dir, "serve-small", seed,
                                 SERVE_SESSION_S, spans)
    m = {**session["metrics"], **m}
    # Overhead: the traced warm deploy minus its deliberate extra probes
    # against the same deploy untraced.
    traced_warm = warm["wall_s"] - warm["probes_s"]
    m["trace.overhead_pct"] = ((traced_warm - plain["wall_s"])
                               / plain["wall_s"] * 100.0, "%")
    for layer, secs in self_times(spans.records).items():
        m[f"self_s.{layer}"] = (secs, "s")
    trace_path = spans.write(run_dir.parent / "traces" /
                             f"deploy-lenet-seed{seed}.jsonl")
    n = len(cold["per_trial"]) + len(warm["per_trial"])
    return {"attempted": n + session["attempted"],
            "failed": len(failed) + session["failed"],
            "failures": failed + session["failures"],
            "metrics": m, "trace": str(trace_path)}


def deploy_layers(run_dir: Path, seed: int, store: Path, spans: Spans,
                  trials: Tuple[int, int] = (TRIALS, TRIALS),
                  ) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """A traced cold then warm deploy of ``trials`` programming trials
    each on ``store``; their spans go under ``spans``. Returns the
    deploy-path per-layer metrics (``data``, ``eval``, ``nn``,
    ``backend``, ``core``, ``cache``) and both phase results. The probes
    run in the last phase with a trial."""
    probe_cold = trials[1] == 0
    cold = _phase(run_dir, "cold", seed, store, traced=True,
                  probes=probe_cold, trials=trials[0])
    warm = _phase(run_dir, "warm", seed, store, traced=True,
                  probes=not probe_cold, trials=trials[1])
    probed = cold if probe_cold else warm
    for name, phase in (("cold", cold), ("warm", warm)):
        root = spans.add("bench.process", phase["started"],
                         phase["started"] + phase["wall_s"], phase=name)
        spans.extend(load_trace(run_dir / f"{name}-spans.jsonl"),
                     parent=root, epoch=phase["epoch"])

    per_trial = cold["per_trial"] + warm["per_trial"]
    n = len(per_trial)

    def per_trial_mean(key: str) -> float:
        return sum(t[key] for t in per_trial) / n

    def counter_per_trial(name: str) -> float:
        return sum(t["counters"].get(name, 0) for t in per_trial) / n

    backend = next((k.split(".")[1] for k in cold["counters"]
                    if k.startswith("backend.")), "vectorized")
    pwt_batches = counter_per_trial("pwt.batches")
    cold_spans = load_trace(run_dir / "cold-spans.jsonl")
    m: Dict[str, Any] = {
        "data.render_s": (probed["data.render_s"], "s"),
        "eval.build_workload_s.cold": (cold["eval.build_workload_s"], "s"),
        "eval.build_workload_s.warm": (warm["eval.build_workload_s"], "s"),
        "eval.accuracy_s": (per_trial_mean("accuracy_s"), "s"),
        "nn.train_s": (_span_total(cold_spans, "workload.train"), "s"),
        "nn.train_batches": (cold["counters"].get("train.batches", 0),
                             "count"),
        "nn.forward_ms.b64": (probed["nn.forward_ms.b64"], "ms"),
        "nn.backward_ms.b64": (probed["nn.backward_ms.b64"], "ms"),
        "backend.im2col_ms": (probed["backend.im2col_ms"], "ms"),
        "backend.col2im_ms": (probed["backend.col2im_ms"], "ms"),
        "backend.pool_windows_ms": (probed["backend.pool_windows_ms"], "ms"),
        "core.deployer_init_s.cold": (cold["core.deployer_init_s"], "s"),
        "core.deployer_init_s.warm": (warm["core.deployer_init_s"], "s"),
        "core.vawo_search_s": (_span_total(cold_spans, "deploy.vawo"), "s"),
        "core.gradients_s": (_span_total(cold_spans, "deploy.gradients"),
                             "s"),
        "core.calibrate_s": (_span_total(cold_spans, "deploy.calibrate"),
                             "s"),
        "core.program_s": (per_trial_mean("program_s"), "s"),
        "core.pwt_s": (per_trial_mean("pwt_s"), "s"),
        "pwt.batches": (pwt_batches, "count"),
        "core.pwt_batch_ms": (per_trial_mean("pwt_s") / pwt_batches * 1e3
                              if pwt_batches else 0.0, "ms"),
        "cache.hits.cold": (cold["counters"].get("cache.hits", 0), "count"),
        "cache.misses.cold": (cold["counters"].get("cache.misses", 0),
                              "count"),
        "cache.hits.warm": (warm["counters"].get("cache.hits", 0), "count"),
        "cache.misses.warm": (warm["counters"].get("cache.misses", 0),
                              "count"),
        "cache.store_bytes": (cold["store_bytes"], "bytes"),
    }
    for kernel in ("im2col", "col2im", "pool_windows"):
        m[f"backend.{kernel}_calls"] = (
            counter_per_trial(f"backend.{backend}.{kernel}"), "count")
    return m, cold, warm


def _span_total(records: List[Dict[str, Any]], name: str) -> float:
    return sum(r["duration_s"] or 0.0 for r in records if r["name"] == name)
