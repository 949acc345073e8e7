"""The repository benchmark: deploy and serve LeNet on the simulated chip.

One command runs any workload, checks its outputs and prints its
metrics by name and unit::

    python3 perfbench/run.py --workload deploy-lenet --seed 1 --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` names those measured, and why):

``deploy-lenet``
    a cold ``repro deploy`` into an empty artifact store, then a warm
    one against it (``deploy.py``);
``serve-bulk`` / ``serve-small``
    ``repro serve`` with ``max_batch`` 256 / 8 under two closed-loop
    clients sending 256 / 1-sample requests (``serve.py``). serve-small
    is not in ``BENCHMARK.json`` (the run budget holds two workloads);
    its shape is the serve session of deploy-lenet's traced run.

``--trace 0`` prints the end-to-end metrics, measured with tracing
off. ``--trace 1`` is a separate, traced run that prints the per-layer
metrics (spans around the calls into each layer, plus the counters the
program emits under ``REPRO_OBS=1``) and writes its spans as JSONL
under ``.bench_build/perfbench/traces/`` for ``repro obs
flame|critical-path``.

Every operation that fails a check counts in ``failed`` and makes
``correct`` false; the exit code is then 1. The last stdout line is the
result object; the line before it is the environment fingerprint.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("deploy-lenet", "serve-bulk", "serve-small")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def result_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The contract's result object from a workload's raw result."""
    return {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit)
                    in sorted(result["metrics"].items())},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure under "
                         f"{ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import common

    common.WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=common.WORK))
    try:
        # The serve registry fill (made by a checkout's first run,
        # whatever its workload, and untimed): no later run pays for it.
        import serve
        serve.ensure_fill()
        if args.workload == "deploy-lenet":
            import deploy
            result = deploy.run(args.seed, bool(args.trace), run_dir)
        else:
            result = serve.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), run_dir)
        fingerprint = common.fingerprint()
    except common.BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    line = result_line(result)
    for name, metric in line["metrics"].items():
        sys.stdout.write(f"{name:<28} {metric['value']:>14.6g} "
                         f"{metric['unit']}\n")
    sys.stdout.write(f"operations: {line['attempted']} attempted, "
                     f"{line['attempted'] - line['failed']} succeeded, "
                     f"{line['failed']} failed"
                     + (f" ({', '.join(result['failures'])})"
                        if result["failures"] else "") + "\n")
    if result.get("trace"):
        sys.stdout.write(f"spans: {result['trace']}\n")
    sys.stdout.write(json.dumps({"fingerprint": fingerprint}) + "\n")
    sys.stdout.write(json.dumps(line) + "\n")
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
