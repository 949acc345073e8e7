"""Shared plumbing for the repository benchmark (see ``run.py``).

Paths, child-process helpers, the environment fingerprint, percentile
helpers and the benchmark-side span recorder live here so the workload
modules stay about *what* they measure.

Everything the benchmark writes goes under ``.bench_build/perfbench``
inside the checkout it runs from; nothing touches the repo-root
``.cache/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"

#: The deployment every workload measures: ``repro deploy`` / ``repro
#: serve`` CLI defaults for LeNet (quick preset, VAWO*+PWT, sigma 0.5,
#: m = 16, SLC). ``--seed`` is added per workload.
MODEL_ARGS = ["--workload", "lenet", "--preset", "quick",
              "--method", "vawo*+pwt", "--sigma", "0.5",
              "--granularity", "16", "--cell-bits", "1"]

#: Seconds any single child process may take before the run fails.
CHILD_TIMEOUT_S = 170.0

#: Environment variables that change how many threads numeric code uses.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed correctness check)."""


def child_env(store: Optional[Path] = None, obs: bool = False,
              ) -> Dict[str, str]:
    """Environment for a ``repro`` child: ``src`` on the path, the run's
    own artifact store, observability on or off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("REPRO_OBS", None)
    if obs:
        env["REPRO_OBS"] = "1"
    if store is not None:
        env["REPRO_CACHE"] = str(store)
    return env


def run_child(argv: Sequence[str], env: Mapping[str, str],
              log: Path) -> Dict[str, Any]:
    """Run a Python child to completion; return the JSON on its last
    stdout line plus ``wall_s`` (spawn to exit, as a user would time it).

    The child's full output goes to ``log`` so a failure can be read.
    """
    log.parent.mkdir(parents=True, exist_ok=True)
    with log.open("w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=str(ROOT),
                                env=dict(env), stdout=subprocess.PIPE,
                                stderr=out, text=True)
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{argv[0]} timed out; see {log}") from None
        wall = time.perf_counter() - t0
        out.write(stdout)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv[:2])} exited {proc.returncode}; "
                         f"see {log}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def src_digest() -> str:
    """Content digest of the program's sources (``src/**/*.py``): names
    the code a fill or a result was made from, git or not."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    """HEAD of the checkout, if it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def fingerprint() -> Dict[str, Any]:
    """What two sets of runs must share to be compared like for like."""
    import numpy
    import scipy

    from repro.backend import default_backend_name

    return {
        "nproc": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV
                       if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": default_backend_name(),
        "git_sha": git_sha(),
        "src_digest": src_digest()[:16],
    }


# ----------------------------------------------------------------------
# benchmark-side spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder for the benchmark's own process.

    Records use the program's span schema (``id``/``parent_id``/
    ``name``/``start_s``/``duration_s``/``attrs``/``trace_id``/``pid``),
    so the JSONL written at the end reads with ``repro obs flame`` and
    ``repro obs critical-path``. Parenting is explicit (``parent=``)
    because load-generator threads interleave.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.records: List[Dict[str, Any]] = []
        self._epoch = time.perf_counter()
        self._next = 0

    def add(self, name: str, t0: float, t1: float,
            parent: Optional[int] = None, **attrs: Any) -> int:
        """Record a finished span from ``perf_counter`` stamps."""
        span_id = self._next
        self._next += 1
        self.records.append({
            "id": span_id, "parent_id": parent, "name": name,
            "depth": 0, "start_s": t0 - self._epoch,
            "duration_s": t1 - t0, "attrs": attrs, "status": "ok",
            "error": None, "trace_id": self.trace_id, "pid": os.getpid()})
        return span_id

    def extend(self, records: Sequence[Mapping[str, Any]],
               parent: Optional[int] = None, epoch: float = 0.0) -> None:
        """Graft another process's span records under ``parent``.

        ``epoch`` is the other recorder's ``perf_counter`` zero; the
        clock is system-wide, so its spans land at their true offsets.
        """
        offset = self._next
        shift = epoch - self._epoch
        for rec in records:
            moved = dict(rec)
            moved["start_s"] = rec["start_s"] + shift
            moved["id"] = rec["id"] + offset
            moved["parent_id"] = (parent if rec.get("parent_id") is None
                                  else rec["parent_id"] + offset)
            moved["trace_id"] = self.trace_id
            self.records.append(moved)
            self._next = max(self._next, moved["id"] + 1)

    def write(self, path: Path) -> Path:
        from repro.obs import write_spans_jsonl
        return write_spans_jsonl(path, self.records)


#: Span-name prefix -> the ``repro`` layer its self time is reported as.
LAYER_OF = {"eval": "eval", "nn": "nn", "workload": "nn", "train": "nn",
            "core": "core", "deploy": "core", "pwt": "core", "vawo": "core",
            "serve": "serve"}


def self_times(records: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Per-layer self time (s) of the program's flow: each span's
    duration minus its children's, summed by the layer its name prefix
    maps to in :data:`LAYER_OF`. Probe spans (``attrs.probe``) and
    prefixes not in the map are left out."""
    from repro.obs.analysis import build_tree

    totals = {layer: 0.0 for layer in LAYER_OF.values()}
    flow = [r for r in records if not (r.get("attrs") or {}).get("probe")]
    nodes = list(build_tree(flow).roots)
    while nodes:
        node = nodes.pop()
        nodes.extend(node.children)
        layer = LAYER_OF.get(node.name.split(".")[0])
        if layer is not None:
            totals[layer] += node.self_s
    return totals
