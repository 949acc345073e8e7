"""Long-lived inference serving over a programmed crossbar deployment.

The paper's end state is a chip that *serves traffic*: the crossbars
are written once, the digital offsets are tuned once, and then the
deployment answers inference requests for as long as the chip lives.
This package is that serving layer, split along Component / Controller /
Application lines:

Components (:mod:`repro.serve.batcher`, :mod:`repro.serve.registry`)
    :class:`MicroBatcher` coalesces concurrently queued requests into
    fixed-shape batches through the vectorized kernels' batched path —
    with results **bitwise identical** to serving each request alone
    (every dispatch is zero-padded to exactly ``max_batch`` samples, so
    the BLAS kernels see one constant problem shape regardless of how
    requests happened to coalesce). It also owns admission control: a
    bounded queue with 429-style load shedding and per-request
    deadlines. :class:`ModelRegistry` stores programmed deployments in
    the content-addressed artifact cache under ``serve_program`` stage
    keys, so a restarted server warm-starts from the exact chip state
    it served before instead of re-programming.

Controller (:mod:`repro.serve.service`)
    :class:`InferenceService` builds (or cache-loads) the workload,
    runs the deployer, resolves the programmed model through the
    registry, and exposes the fixed-shape batch forward the batcher
    drives.

Application (:mod:`repro.serve.server`, :mod:`repro.serve.client`)
    An asyncio TCP server speaking newline-delimited JSON (``repro
    serve``), and a stdlib blocking loopback client used by tests, CI
    and the benchmarks.

Observability flows through :mod:`repro.obs`: ``serve.requests`` /
``serve.batches`` / ``serve.shed`` counters, ``serve.queue_wait_s`` /
``serve.batch_size`` / ``serve.request_wall_s`` histograms (reservoir
p50/p95/p99), and one ``serve.batch`` span per dispatch — all nested
under the CLI's ``run.serve`` root span.
"""

from repro.serve.batcher import (DeadlineExceededError, MicroBatcher,
                                 QueueFullError, pad_batch)
from repro.serve.client import (ServeClient, ServeRequestError,
                                read_endpoint_file, wait_for_server)
from repro.serve.registry import ModelRegistry, serve_program_key
from repro.serve.server import ServeServer
from repro.serve.service import InferenceService, ServeConfig

__all__ = [
    "MicroBatcher", "QueueFullError", "DeadlineExceededError", "pad_batch",
    "ModelRegistry", "serve_program_key",
    "InferenceService", "ServeConfig",
    "ServeServer",
    "ServeClient", "ServeRequestError", "wait_for_server",
    "read_endpoint_file",
]
