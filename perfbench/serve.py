"""The serve-bulk (and serve-small) workloads: ``repro serve`` under load.

The server under test is a ``repro serve`` process of its own; this
process only generates load, through two closed-loop client threads,
each with its own connection (a client sends its next request when the
previous reply arrives). Requests name test-set rows by index, so no
image bytes cross the wire; which rows is drawn from ``--seed``.

Per run:

1. the one-off registry fill (``serve_fill.py``) is made once per
   checkout and source digest, outside every timing; the run copies its
   trained weights and programmed chip state into a store of its own;
2. three *cold* launches, each against a fresh copy, recompute the
   derived deployment stages (LUT, quantize, calibrate, gradients, VAWO)
   before they can serve (median spawn -> ready: ``deploy_cold_s``);
3. nine *warm* launches, three after each cold one on the store it
   completed, time spawn -> ready (``deploy_warm_s``) and spawn -> first
   answered ``infer`` (``setup_s``), medians again; the last one after
   the middle cold launch serves the timed window of ``--seconds``
   after a short warm-up.

With ``--trace 1`` a run instead serves that window untraced and then
traced (``--profile``) from warm launches on a full copy of the fill,
times the serve path in-process, and adds a traced one-trial cold and
a trial-less warm deploy (``deploy.deploy_layers``), so it reports
every per-layer metric.

Every reply's logits must bitwise-equal the fill's offline
``InferenceService.run_batch`` forward of the same rows at the same
padded shape (served == ``repro deploy`` trial 0). Error replies
(400/429/504), socket errors and mismatches count as failed requests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (BenchError, HERE, MODEL_ARGS, ROOT, WORK, Spans,
                    child_env, median, percentile, run_child,
                    self_times, src_digest)
from repro.obs.analysis import load_trace
from repro.serve.client import (ServeClient, ServeRequestError,
                                read_endpoint_file)
from repro.utils.rng import make_rng

#: max_batch per workload, and samples per request.
SHAPES = {"serve-small": (8, 1), "serve-bulk": (256, 256)}
CLIENTS = 2
COLD_LAUNCHES = 3
WARM_LAUNCHES = 9
#: Untimed requests per client before the window opens.
WARMUP = {"serve-small": 25, "serve-bulk": 1}
#: Latency percentiles are taken over each run of this many consecutive
#: timed requests (p90 then has 10 samples beyond it), and the median
#: over those slices is reported: a host hiccup moves one slice, not all.
LATENCY_SLICE = 100
#: ``accuracy`` is scored on the stream's first this-many samples; the
#: clients keep sending past the window (untimed) until they are served.
ACCURACY_SAMPLES = 1024
#: The stages a fresh ``repro serve`` start can find in the store for a
#: cold launch; every other stage is recomputed.
COLD_KEEP = ("workload", "serve_program")
LAUNCH_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# the registry fill
# ----------------------------------------------------------------------
def ensure_fill() -> Dict[str, Any]:
    """The checkout's registry fill, made on first use (untimed)."""
    fill = WORK / f"fill-{src_digest()[:16]}"
    if not (fill / "fill.json").exists():
        tmp = WORK / f".fill-{time.time_ns()}"
        tmp.mkdir(parents=True)
        try:
            info = run_child(
                [str(HERE / "serve_fill.py"), str(tmp), "8", "256"],
                child_env(tmp / "store"), tmp / "fill.log")
            (tmp / "fill.json").write_text(json.dumps(info))
            if fill.exists():
                shutil.rmtree(fill)
            tmp.rename(fill)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    info = json.loads((fill / "fill.json").read_text())
    with np.load(fill / "refs.npz") as refs:
        info["refs"] = {k: refs[k] for k in refs.files}
    info["dir"] = fill
    return info


def _copy_store(fill: Dict[str, Any], dest: Path,
                keep: Optional[Sequence[str]] = COLD_KEEP) -> None:
    """Copy the fill's artifacts of the ``keep`` stages (all: ``None``,
    a store a launch warm-starts from)."""
    for rel, stage in fill["stages"].items():
        if keep is None or stage in keep:
            target = dest / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(fill["dir"] / "store" / rel, target)


# ----------------------------------------------------------------------
# server processes
# ----------------------------------------------------------------------
@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    spawned: float
    ready_s: float
    first_infer_s: float
    log: Any


def launch(run_dir: Path, name: str, store: Path, max_batch: int,
           obs_dir: Optional[Path] = None) -> Server:
    """Start ``repro serve``; time spawn -> ping answered -> first infer."""
    port_file = run_dir / f"{name}.port"
    argv = [sys.executable, "-m", "repro", "serve", *MODEL_ARGS,
            "--seed", "0", "--port", "0", "--port-file", str(port_file),
            "--max-batch", str(max_batch), "--cache-dir", str(store)]
    if obs_dir is not None:
        argv += ["--profile", "--obs-dir", str(obs_dir)]
    log = (run_dir / f"{name}.log").open("w")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=str(ROOT), env=child_env(),
                            stdout=log, stderr=subprocess.STDOUT)
    try:
        host, port = _await_endpoint(proc, port_file)
        with ServeClient(host, port, timeout_s=LAUNCH_TIMEOUT_S) as client:
            client.ping()
            ready = time.perf_counter() - t0
            client.infer(indices=[0])
            first = time.perf_counter() - t0
    except BaseException:  # noqa: BLE001 — cleanup only; the failure is re-raised
        _kill(proc)
        log.close()
        raise
    return Server(proc, host, port, t0, ready, first, log)


def _await_endpoint(proc: subprocess.Popen, port_file: Path,
                    ) -> Tuple[str, int]:
    deadline = time.monotonic() + LAUNCH_TIMEOUT_S
    while not port_file.exists() or not port_file.read_text().strip():
        if proc.poll() is not None:
            raise BenchError(f"repro serve exited {proc.returncode} "
                             "before binding")
        if time.monotonic() > deadline:
            raise BenchError("repro serve did not bind in time")
        time.sleep(0.005)
    return read_endpoint_file(port_file, timeout_s=1.0)


def stop(server: Server) -> None:
    """Graceful shutdown; wait for the process to end."""
    try:
        with ServeClient(server.host, server.port, timeout_s=30) as client:
            client.shutdown()
        server.proc.wait(timeout=30)
    except (OSError, ConnectionError, ServeRequestError,
            subprocess.TimeoutExpired):
        _kill(server.proc)
    finally:
        server.log.close()


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
class Stream:
    """Request ``j`` reads the ``j``-th draw of ``size`` test rows from a
    generator seeded with ``seed``; ids go out in draw order to whichever
    client asks next, so each id names the same rows on every run."""

    def __init__(self, seed: int, size: int, n_test: int) -> None:
        self.size, self.n_test = size, n_test
        self._rng = make_rng(seed)
        self._next = 0
        self._lock = threading.Lock()

    @property
    def issued(self) -> int:
        return self._next

    def take(self) -> Tuple[int, np.ndarray]:
        with self._lock:
            j = self._next
            self._next += 1
            rows = self._rng.choice(self.n_test, size=self.size,
                                    replace=False)
        return j, rows


@dataclass(eq=False)
class Record:
    request: int
    indices: np.ndarray
    t0: float
    t1: float
    timed: bool
    reply: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


@dataclass
class Load:
    records: List[Record] = field(default_factory=list)
    window: Tuple[float, float] = (0.0, 0.0)


def drive(server: Server, stream: Stream, warmup: int,
          seconds: float) -> Load:
    """Run :data:`CLIENTS` closed-loop clients: ``warmup`` untimed
    requests each, then requests until ``seconds`` have passed."""
    load = Load()
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS + 1)
    window: Dict[str, float] = {}
    errors: List[BaseException] = []

    def client_loop() -> None:
        try:
            with ServeClient(server.host, server.port,
                             timeout_s=60) as client:
                for _ in range(warmup):
                    _one(client, stream, False, load, lock)
                barrier.wait()
                barrier.wait()
                while True:
                    timed = time.perf_counter() < window["end"]
                    if not timed and stream.issued * stream.size \
                            >= ACCURACY_SAMPLES:
                        break
                    if not _one(client, stream, timed, load, lock):
                        break
        except (OSError, ConnectionError, threading.BrokenBarrierError) \
                as exc:
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client_loop, daemon=True)
               for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    try:
        barrier.wait()
        window["start"] = time.perf_counter()
        window["end"] = window["start"] + seconds
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for t in threads:
        t.join(timeout=seconds + 120)
    if any(t.is_alive() for t in threads):
        raise BenchError("a load-generator client did not finish")
    if errors and not load.records:
        raise BenchError(f"load generator failed: {errors[0]!r}")
    timed = [r for r in load.records if r.timed]
    load.window = (window.get("start", 0.0),
                   max((r.t1 for r in timed), default=0.0))
    return load


def _one(client: ServeClient, stream: Stream, timed: bool, load: Load,
         lock: threading.Lock) -> bool:
    """Send one request; False when the connection is gone."""
    j, indices = stream.take()
    t0 = time.perf_counter()
    reply, error, alive = None, None, True
    try:
        reply = client.infer(indices=indices.tolist())
    except ServeRequestError as exc:
        error = f"code {exc.code}"
    except (OSError, ConnectionError, ValueError) as exc:
        error, alive = f"socket {type(exc).__name__}", False
    t1 = time.perf_counter()
    with lock:
        load.records.append(Record(j, indices, t0, t1, timed, reply, error))
    return alive


def verify(records: Sequence[Record], reference: np.ndarray,
           labels: np.ndarray) -> List[Record]:
    """The records that failed: error replies, or a reply whose logits,
    predictions or labels differ from the offline reference."""
    bad = []
    for rec in records:
        if rec.error is not None or not _matches(rec, reference, labels):
            bad.append(rec)
    return bad


def _matches(rec: Record, reference: np.ndarray, labels: np.ndarray,
             ) -> bool:
    reply = rec.reply or {}
    outputs = np.asarray(reply.get("outputs", ()), dtype=np.float64)
    expected = reference[rec.indices]
    if outputs.shape != expected.shape:
        return False
    return (np.array_equal(outputs.view(np.int64), expected.view(np.int64))
            and reply.get("predictions") == expected.argmax(1).tolist()
            and reply.get("labels") == labels[rec.indices].tolist())


def sliced_percentile(latencies: Sequence[float], q: float) -> float:
    """Median over consecutive :data:`LATENCY_SLICE`-request slices of
    the ``q``-th percentile (one slice when the window holds fewer)."""
    n = max(1, len(latencies) // LATENCY_SLICE)
    size = len(latencies) // n
    return median([percentile(latencies[i * size:(i + 1) * size], q)
                   for i in range(n)])


def accuracy(records: Sequence[Record], labels: np.ndarray) -> float:
    """Share of correct predictions over the stream's first
    :data:`ACCURACY_SAMPLES` samples (the same rows for a given seed)."""
    correct = total = 0
    for rec in sorted(records, key=lambda r: r.request):
        if total >= ACCURACY_SAMPLES:
            break
        preds = (rec.reply or {}).get("predictions") or [-1] * len(
            rec.indices)
        for pred, idx in zip(preds, rec.indices):
            if total < ACCURACY_SAMPLES:
                correct += int(pred == labels[idx])
                total += 1
    if total < ACCURACY_SAMPLES:
        raise BenchError(f"only {total} samples served; accuracy needs "
                         f"{ACCURACY_SAMPLES}")
    return correct / total


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: int, trace: bool,
        run_dir: Path) -> Dict[str, Any]:
    max_batch, size = SHAPES[workload]
    fill = ensure_fill()
    if trace:
        return _run_traced(workload, seed, seconds, run_dir, fill)
    reference = fill["refs"][f"logits_b{max_batch}"]
    labels = fill["refs"]["labels"]
    colds: List[Server] = []
    warm: List[Server] = []
    live: Optional[Server] = None
    try:
        # Each cold launch is followed by warm ones on the store it
        # completed, and the middle round's last warm launch serves the
        # window: on a shared host slow spells last seconds, so samples
        # spread over the whole run move each median less.
        for i in range(COLD_LAUNCHES):
            store = run_dir / f"store{i}"
            _copy_store(fill, store)
            for j in range(1 + WARM_LAUNCHES // COLD_LAUNCHES):
                if live is not None:
                    stop(live)
                    live = None
                live = launch(run_dir, f"launch{i}-{j}", store, max_batch)
                (warm if j else colds).append(live)
            if i == COLD_LAUNCHES // 2:
                load = drive(live, Stream(seed, size, fill["n_test"]),
                             WARMUP[workload], seconds)
                stats = _stats(live)
    finally:
        if live is not None:
            stop(live)
    result = _summarise(load, stats, reference, labels)
    result["metrics"].update({
        "setup_s": (median([s.first_infer_s for s in warm]), "s"),
        "deploy_cold_s": (median([s.ready_s for s in colds]), "s"),
        "deploy_warm_s": (median([s.ready_s for s in warm]), "s"),
    })
    return result


def _stats(server: Server) -> Dict[str, Any]:
    with ServeClient(server.host, server.port, timeout_s=30) as client:
        return client.stats()


def _summarise(load: Load, stats: Dict[str, Any], reference: np.ndarray,
               labels: np.ndarray) -> Dict[str, Any]:
    bad = verify(load.records, reference, labels)
    good_timed = sorted((r for r in load.records if r.timed and r not in bad),
                        key=lambda r: r.t0)
    lat = [(r.t1 - r.t0) * 1e3 for r in good_timed]
    if not lat:
        raise BenchError("no request completed in the timed window")
    start, end = load.window
    metrics = {
        "accuracy": (accuracy(load.records, labels), "fraction"),
        "requests_per_s": (len(good_timed) / (end - start), "1/s"),
        "latency_p50_ms": (sliced_percentile(lat, 50), "ms"),
        "latency_p90_ms": (sliced_percentile(lat, 90), "ms"),
    }
    return {"attempted": len(load.records), "failed": len(bad),
            "failures": sorted({r.error or "mismatch" for r in bad}),
            "metrics": metrics, "stats": stats}


def _run_traced(workload: str, seed: int, seconds: int, run_dir: Path,
                fill: Dict[str, Any]) -> Dict[str, Any]:
    """An untraced window on a warm launch, the same window traced
    (:func:`serve_layers`), then a traced one-trial cold and a
    trial-less warm deploy for the deploy-path layers."""
    import deploy

    max_batch, size = SHAPES[workload]
    store = run_dir / "store"
    _copy_store(fill, store, keep=None)
    server = launch(run_dir, "plain", store, max_batch)
    try:
        load = drive(server, Stream(seed, size, fill["n_test"]),
                     WARMUP[workload], seconds)
        stats = _stats(server)
    finally:
        stop(server)
    plain = _summarise(load, stats, fill["refs"][f"logits_b{max_batch}"],
                       fill["refs"]["labels"])

    spans = Spans(trace_id=f"{workload}-{seed}")
    session = serve_layers(run_dir, workload, seed, seconds, spans, fill)
    m, cold, warm = deploy.deploy_layers(run_dir, seed, run_dir / "deploy",
                                         spans, trials=(1, 0))
    failed = deploy.cache_check(cold, warm)
    m.update(session["metrics"])
    plain_p50 = plain["metrics"]["latency_p50_ms"][0]
    m["trace.overhead_pct"] = ((session["latency_p50_ms"] - plain_p50)
                               / plain_p50 * 100.0, "%")
    for layer, secs in self_times(spans.records).items():
        m[f"self_s.{layer}"] = (secs, "s")
    trace_path = spans.write(run_dir.parent / "traces" /
                             f"{workload}-seed{seed}.jsonl")
    return {"attempted": plain["attempted"] + session["attempted"]
            + len(cold["per_trial"]),
            "failed": plain["failed"] + session["failed"] + len(failed),
            "failures": plain["failures"] + session["failures"] + failed,
            "metrics": m, "trace": str(trace_path)}


def serve_layers(run_dir: Path, workload: str, seed: int, seconds: float,
                 spans: Spans, fill: Optional[Dict[str, Any]] = None,
                 ) -> Dict[str, Any]:
    """Serve a ``workload`` window from a warm ``repro serve --profile``
    launch with client spans recorded, then time the serve path
    in-process (:func:`_serve_probes`). Returns the serve-path per-layer
    metrics (``serve``, ``data``), the session's request accounting and
    its client p50 (ms); the server's spans go under ``spans``."""
    fill = fill or ensure_fill()
    max_batch, size = SHAPES[workload]
    reference = fill["refs"][f"logits_b{max_batch}"]
    labels = fill["refs"]["labels"]
    store = run_dir / "serve-store"
    _copy_store(fill, store, keep=None)
    obs_dir = run_dir / "obs"
    server = launch(run_dir, "traced", store, max_batch, obs_dir=obs_dir)
    try:
        stream = Stream(seed, size, fill["n_test"])
        load = drive(server, stream, WARMUP[workload], seconds)
        stats = _stats(server)
    finally:
        stop(server)
    traced = _summarise(load, stats, reference, labels)
    exited = time.perf_counter()

    manifest = json.loads((obs_dir / "serve-manifest.json").read_text())
    hists = manifest["metrics"]["histograms"]
    counters = manifest["metrics"]["counters"]

    for rec in load.records:
        spans.add("client.request", rec.t0, rec.t1, request=rec.request,
                  samples=len(rec.indices), timed=rec.timed,
                  ok=rec.error is None)
    root = spans.add("bench.server", server.spawned, exited)
    # The server's span clock starts as it imports, just after spawn;
    # its spans are placed from the spawn (early by that import time).
    spans.extend(load_trace(obs_dir / "serve-spans.jsonl"), parent=root,
                 epoch=server.spawned)
    probes = _serve_probes(store, max_batch, spans)

    def hist_ms(name: str, q: float) -> float:
        res = hists.get(name, {}).get("reservoir") or [0.0]
        return percentile(res, q) * 1e3

    live = sum(len(r.indices) for r in load.records)
    batches = traced["stats"]["batches"]
    client_p50 = traced["metrics"]["latency_p50_ms"][0]
    m: Dict[str, Any] = {
        "data.render_s": (probes["data.render_s"], "s"),
        "serve.prepare_s": (probes["serve.prepare_s"], "s"),
        "serve.run_batch_ms": (probes["serve.run_batch_ms"], "ms"),
        "serve.queue_wait_ms.p50": (hist_ms("serve.queue_wait_s", 50), "ms"),
        "serve.queue_wait_ms.p90": (hist_ms("serve.queue_wait_s", 90), "ms"),
        "serve.request_wall_ms.p50": (
            hist_ms("serve.request_wall_s", 50), "ms"),
        "serve.request_wall_ms.p90": (
            hist_ms("serve.request_wall_s", 90), "ms"),
        "serve.wire_ms.p50": (client_p50 - hist_ms("serve.request_wall_s",
                                                   50), "ms"),
        "serve.batches": (counters.get("serve.batches", 0), "count"),
        "serve.batch_size.mean": (
            hists.get("serve.batch_size", {}).get("mean", 0.0), "count"),
        # The traced server answered the launch probe and every load
        # request; live samples over the padded rows it computed.
        "serve.pad_efficiency": ((live + 1) / (batches * max_batch)
                                 if batches else 0.0, "fraction"),
        "serve.shed": (counters.get("serve.shed", 0), "count"),
        "serve.expired": (counters.get("serve.expired", 0), "count"),
        "serve.errors": (traced["failed"], "count"),
    }
    return {"metrics": m, "latency_p50_ms": client_p50,
            "attempted": traced["attempted"], "failed": traced["failed"],
            "failures": traced["failures"]}


def _serve_probes(store: Path, max_batch: int, spans: Spans,
                  ) -> Dict[str, float]:
    """Direct timings in this process, after the server is gone: a warm
    ``InferenceService.prepare`` over the run's store, ``run_batch`` at
    the padded shape, and rendering the workload's digits."""
    from repro.cache import CacheStore
    from repro.data.synthetic import synthetic_digits
    from repro.serve import InferenceService, ModelRegistry, ServeConfig
    from repro.utils.rng import make_rng

    out: Dict[str, float] = {}
    service = InferenceService(ServeConfig(max_batch=max_batch),
                               registry=ModelRegistry(CacheStore(store)))
    previous = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = str(store)
    try:
        t0 = time.perf_counter()
        prepared = service.prepare()
        t1 = time.perf_counter()
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE", None)
        else:
            os.environ["REPRO_CACHE"] = previous
    if not prepared.warm_start:
        raise BenchError("in-process prepare did not warm-start")
    spans.add("serve.prepare", t0, t1, probe=True)
    out["serve.prepare_s"] = t1 - t0
    batch = np.ascontiguousarray(prepared.test_images[:max_batch])
    times = []
    for _ in range(7):
        a = time.perf_counter()
        service.run_batch(batch)
        b = time.perf_counter()
        spans.add("serve.run_batch", a, b, probe=True, batch=max_batch)
        times.append((b - a) * 1e3)
    out["serve.run_batch_ms"] = median(times)
    n = 1600
    a = time.perf_counter()
    synthetic_digits(n, rng=make_rng(0))
    b = time.perf_counter()
    spans.add("data.render", a, b, probe=True, n=n)
    out["data.render_s"] = b - a
    return out
