"""One deploy of the deploy-lenet workload, run in its own process.

Does what ``repro deploy --workload lenet --preset quick --method
"vawo*+pwt" --sigma 0.5 -m 16 --cell-bits 1 --trials T --jobs 1 --seed S``
does, through the same public calls, against the artifact store named
by ``REPRO_CACHE``; the parent times the process from spawn to exit.
Each programming trial is timed, and every ``CacheStore.get`` is
counted as a hit or a miss, so the parent can check the cold/warm cache
contract without turning observability on.

With ``--trace 1`` (and ``REPRO_OBS=1`` in the environment) the same
flow runs with a span around every public call, the programming trial
split into ``Deployer.program(..., run_pwt_tuning=False)`` and
``run_pwt`` (the same random stream, so the same accuracies), and, with
``--probes 1``, direct timings of one forward/backward and of the
window kernels at LeNet's PWT shapes. Spans go to ``--spans`` as JSONL.

The last stdout line is one JSON object.

``--trials`` sets the number of programming trials (default 2; with
``--probes 1`` at least one, whose deployed model the probes time).

    PYTHONPATH=src REPRO_CACHE=DIR python perfbench/deploy_phase.py --seed 0
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

TRIALS = 2
PWT_BATCH = 64          # PWTConfig.batch_size: the batch PWT trains on
PROBE_REPEATS = 7


def _count_cache_gets() -> Dict[str, int]:
    """Count artifact-store lookups by outcome (benchmark-side)."""
    from repro.cache import CacheStore

    counts = {"hits": 0, "misses": 0}
    get = CacheStore.get

    def counted(self: Any, key: str, stage: str = "") -> Any:
        found = get(self, key, stage)
        counts["hits" if found is not None else "misses"] += 1
        return found

    CacheStore.get = counted
    return counts


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--probes", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spans", default=None)
    parser.add_argument("--trials", type=int, default=TRIALS)
    args = parser.parse_args(argv)

    cache_gets = _count_cache_gets()
    from repro.cache import active_store
    from repro.core import DeployConfig, Deployer
    from repro.device.cell import SLC
    from repro.eval import ideal_accuracy
    from repro.eval.experiments import _default_pwt, build_workload
    from repro.parallel import run_trials

    import repro.obs as obs
    from repro.obs.trace import TRACER

    traced = bool(args.trace)
    if traced:
        obs.enable()
    # Untraced, obs stays off and each span below costs one flag read.
    out: Dict[str, Any] = {}

    with obs.span("bench.deploy", seed=args.seed):
        with obs.span("eval.build_workload"):
            wl, out["eval.build_workload_s"] = _timed(
                lambda: build_workload("lenet", "quick", args.seed))
        config = DeployConfig.from_method(
            "vawo*+pwt", sigma=0.5, granularity=16, cell=SLC,
            pwt=_default_pwt("quick"), bn_recalibrate=True)
        with obs.span("core.deployer_init"):
            deployer, out["core.deployer_init_s"] = _timed(
                lambda: Deployer(wl.model, wl.train, config,
                                 rng=args.seed + 10))
        with obs.span("eval.ideal_accuracy"):
            out["ideal_accuracy"] = ideal_accuracy(deployer, wl.test)
        last: Dict[str, Any] = {}
        trial_fn = (_traced_trial(deployer, wl, out, last) if traced
                    else _plain_trial(deployer, wl))
        results = (run_trials(trial_fn, args.trials, seed=args.seed + 20,
                              jobs=1).results() if args.trials else [])
        # What the CLI prints after the trials (cheap, kept for parity).
        deployer.total_registers()
        deployer.crossbar_count()

    out["accuracies"] = [acc for acc, _ in results]
    out["trial_s"] = [secs for _, secs in results]
    out["cache_hits"] = cache_gets["hits"]
    out["cache_misses"] = cache_gets["misses"]
    store = active_store()
    out["store_bytes"] = store.size_bytes() if store is not None else 0
    if traced:
        out["probes_s"] = 0.0
        if args.probes:
            t0 = time.perf_counter()
            out.update(_probes(last["deployed"], wl, args.seed))
            out["probes_s"] = time.perf_counter() - t0
        counters = obs.metrics.REGISTRY.snapshot()["counters"]
        out["counters"] = counters
        out["epoch"] = time.perf_counter() - TRACER.now_s()
        obs.write_spans_jsonl(args.spans, TRACER.records())
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def _plain_trial(deployer: Any, wl: Any) -> Callable:
    from repro.nn.trainer import evaluate_accuracy

    def trial(index: int, rng: Any) -> Tuple[float, float]:
        t0 = time.perf_counter()
        deployed = deployer.program(rng=rng)
        acc = evaluate_accuracy(deployed, wl.test, 256)
        return acc, time.perf_counter() - t0

    return trial


def _traced_trial(deployer: Any, wl: Any, out: Dict[str, Any],
                  last: Dict[str, Any]) -> Callable:
    """Program, PWT and score as three spans under one trial span.

    ``Deployer.program`` runs PWT last on the stream it programmed and
    recalibrated with, so splitting it this way consumes the same
    random numbers as the untraced trial.
    """
    import repro.obs as obs
    from repro.core.pwt import run_pwt
    from repro.nn.trainer import evaluate_accuracy

    per_trial = out.setdefault("per_trial", [])

    def trial(index: int, rng: Any) -> Tuple[float, float]:
        before = dict(obs.metrics.REGISTRY.snapshot()["counters"])
        t0 = time.perf_counter()
        with obs.span("bench.trial", trial=index):
            with obs.span("core.program"):
                deployed, program_s = _timed(
                    lambda: deployer.program(rng=rng, run_pwt_tuning=False))
            with obs.span("core.pwt"):
                _, pwt_s = _timed(lambda: run_pwt(
                    deployed, deployer.train_data, deployer.config.pwt, rng))
            with obs.span("eval.accuracy"):
                acc, acc_s = _timed(
                    lambda: evaluate_accuracy(deployed, wl.test, 256))
        wall = time.perf_counter() - t0
        after = obs.metrics.REGISTRY.snapshot()["counters"]
        per_trial.append({
            "program_s": program_s, "pwt_s": pwt_s, "accuracy_s": acc_s,
            "counters": {k: v - before.get(k, 0) for k, v in after.items()
                         if v != before.get(k, 0)}})
        last["deployed"] = deployed
        return acc, wall

    return trial


def _probes(model: Any, wl: Any, seed: int) -> Dict[str, Any]:
    """Direct timings: rendering the workload's digits, one forward and
    one backward of the deployed ``model``, and the window kernels at
    the shapes a PWT step of LeNet runs them (median of repeats)."""
    import numpy as np

    import repro.obs as obs
    from repro.backend import get_backend
    from repro.data.synthetic import synthetic_digits
    from repro.nn import functional as F
    from repro.nn.tensor import Tensor
    from repro.utils.rng import make_rng

    images = wl.train.images[:PWT_BATCH]
    labels = wl.train.labels[:PWT_BATCH]
    model.eval()

    def forward() -> Any:
        return model(Tensor(images))

    def backward_ms() -> float:
        model.zero_grad()
        loss = F.cross_entropy(forward(), labels)
        t0 = time.perf_counter()
        loss.backward()
        return (time.perf_counter() - t0) * 1e3

    probes: Dict[str, Any] = {}
    with obs.span("data.render", probe=True,
                  n=len(wl.train) + len(wl.test)):
        _, probes["data.render_s"] = _timed(lambda: synthetic_digits(
            len(wl.train) + len(wl.test), rng=make_rng(seed)))
    with obs.span("nn.forward", probe=True, batch=PWT_BATCH):
        probes["nn.forward_ms.b64"] = _median_ms(forward)
    with obs.span("nn.backward", probe=True, batch=PWT_BATCH):
        probes["nn.backward_ms.b64"] = float(np.median(
            [backward_ms() for _ in range(PROBE_REPEATS)]))
    model.zero_grad()

    backend = get_backend()
    # LeNet conv1 on a PWT batch: 1x28x28, 5x5 kernel, pad 2 -> 6x28x28,
    # then 2x2 max-pool; conv2: 6x14x14, 5x5 kernel -> 16x10x10.
    x1 = np.asarray(images, dtype=np.float64)
    x2 = make_rng(0).random((PWT_BATCH, 6, 14, 14))
    conv1_out = make_rng(1).random((PWT_BATCH, 6, 28, 28))
    cols1, _, _ = backend.im2col(x1, 5, 5, 1, 2)
    cols2, _, _ = backend.im2col(x2, 5, 5, 1, 0)

    def im2col() -> Any:
        backend.im2col(x1, 5, 5, 1, 2)
        return backend.im2col(x2, 5, 5, 1, 0)

    def col2im() -> Any:
        backend.col2im(cols1, x1.shape, 5, 5, 1, 2)
        return backend.col2im(cols2, x2.shape, 5, 5, 1, 0)

    def pool() -> Any:
        return np.ascontiguousarray(backend.pool_windows(conv1_out, 2, 2))

    with obs.span("backend.im2col", probe=True):
        probes["backend.im2col_ms"] = _median_ms(im2col)
    with obs.span("backend.col2im", probe=True):
        probes["backend.col2im_ms"] = _median_ms(col2im)
    with obs.span("backend.pool_windows", probe=True):
        probes["backend.pool_windows_ms"] = _median_ms(pool)
    return probes


def _median_ms(fn: Callable[[], Any]) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[len(times) // 2]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
