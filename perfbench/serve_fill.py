"""One-off registry fill for the serve workloads, run in its own process.

Programs the served deployment (``repro serve`` defaults: LeNet quick,
VAWO*+PWT, seed 0) into the artifact store named by ``REPRO_CACHE``,
exactly as a first ``repro serve`` start would, then records the
reference every served response is checked against: the logits of the
freshly programmed model (trial 0 of ``repro deploy --seed 0``) for every
test row, forwarded by ``InferenceService.run_batch`` at each padded
batch shape the workloads serve. Also lists each stored artifact's
pipeline stage, so a run can start from a store that lacks some.

    PYTHONPATH=src REPRO_CACHE=DIR python perfbench/serve_fill.py OUT_DIR 8 256
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

import numpy as np


def main(argv: List[str]) -> int:
    out_dir = Path(argv[0])
    batch_sizes = [int(b) for b in argv[1:]]
    from repro.cache import active_store
    from repro.serve import InferenceService, ServeConfig
    from repro.serve.batcher import pad_batch

    service = InferenceService(ServeConfig())
    prepared = service.prepare()
    if prepared.warm_start:
        raise SystemExit("registry fill expected an empty store")
    images = prepared.test_images
    refs = {"labels": prepared.test_labels}
    for size in batch_sizes:
        rows = []
        for start in range(0, len(images), size):
            chunk = images[start:start + size]
            rows.append(service.run_batch(pad_batch(chunk, size))[:len(chunk)])
        refs[f"logits_b{size}"] = np.concatenate(rows, axis=0)
    np.savez(out_dir / "refs.npz", **refs)

    store = active_store()
    stages = {}
    for path in store.artifacts():
        meta = store.metadata(path.stem) or {}
        stages[str(path.relative_to(store.directory))] = meta.get("stage", "")
    sys.stdout.write(json.dumps({
        "model_key": prepared.model_key, "n_test": int(len(images)),
        "stages": stages}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
