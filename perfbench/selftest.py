"""Self-test of the benchmark (takes a few minutes).

1. Every workload, at minimal length, runs correct and prints exactly
   the end-to-end metrics ``BENCHMARK.json`` names (``--trace 0``) and
   exactly the per-layer metrics it names (``--trace 1``).
2. The serve output check trips on a reply whose logits differ from the
   offline reference in one bit, and on an error reply.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int) -> Dict[str, object]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, named in ((0, end_to_end), (1, per_layer)):
            line = _run(workload, trace)
            assert line["correct"] and line["failed"] == 0, line
            assert line["attempted"] >= 1, line
            got = line["metrics"]
            unknown = set(got) - set(named)
            assert not unknown, f"{workload}: unnamed metrics {unknown}"
            missing = set(named) - set(got)
            assert not missing, f"{workload}: missing {missing}"
            for name, metric in got.items():
                assert metric["unit"] == named[name], (workload, name)
            if trace == 0:
                assert all(m["value"] > 0 for m in got.values()), got
        print(f"ok  {workload}")


def check_serve_output_check() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import serve

    fill = serve.ensure_fill()
    reference = fill["refs"]["logits_b8"]
    labels = fill["refs"]["labels"]
    indices = np.array([3, 1, 4])

    def record(outputs: np.ndarray, error: object = None) -> serve.Record:
        reply = {"outputs": outputs.tolist(),
                 "predictions": outputs.argmax(1).tolist(),
                 "labels": labels[indices].tolist()}
        return serve.Record(0, indices, 0.0, 0.0, True,
                            None if error else reply, error)

    good = record(reference[indices].copy())
    corrupt = reference[indices].copy()
    corrupt[1, 2] = np.nextafter(corrupt[1, 2], np.inf)
    bad = record(corrupt)
    refused = record(reference[indices].copy(), error="code 429")
    failed: List[serve.Record] = serve.verify([good, bad, refused],
                                              reference, labels)
    assert [id(r) for r in failed] == [id(bad), id(refused)], failed
    print("ok  serve output check")


if __name__ == "__main__":
    check_serve_output_check()
    check_metrics()
    print("selftest passed")
