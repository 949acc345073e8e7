"""Benchmark-regression gate over ``repro.bench.sidecar/v1`` JSON files.

Compares the wall-clock time (``elapsed_s``) of each benchmark sidecar
in ``--current`` against the same-named sidecar in ``--baseline`` and
fails (exit 1) when any bench slowed down by more than
``--max-slowdown``x. CI runs this against the previous main-branch
sidecars restored from the actions cache, so a PR that regresses the
benchmark suite's runtime is flagged before merge.

Design points:

- stdlib only — the gate must run on a bare CI python before any
  project dependency is installed.
- A missing baseline directory (first run, cache eviction) is not an
  error unless ``--require-baseline`` is passed: the gate reports
  "no baseline" and exits 0 so bootstrap runs stay green.
- Benches shorter than ``--min-baseline-s`` in the baseline are
  compared but never fail the gate — sub-second runs are dominated by
  interpreter startup noise, not by the code under test.
- New benches (no baseline entry) and removed benches (baseline entry
  with no current run) are reported informationally, never fatally.
- Sidecars are only gated against a baseline recorded on the **same
  compute backend**: vectorized-vs-reference timings differ by orders
  of magnitude, so a backend switch would read as a huge (and bogus)
  regression. Mismatched pairs are reported as ``backend-skip``;
  sidecars predating the ``backend`` field compare against anything.

Besides the pairwise gate, ``--trend HISTORY.jsonl`` reads the
append-only run log ``benchmarks/_common.py`` maintains
(``repro.bench.history/v1`` rows) and flags **monotonic multi-run
slowdowns**: a bench whose last ``--trend-window`` runs each got at
least ``--trend-step`` slower and whose cumulative drift exceeds
``--max-slowdown`` — creep that no single-commit comparison crosses the
threshold on. The two modes compose: pass ``--trend`` alone for a pure
trend check, or together with ``--baseline``/``--current`` to run both
gates (either failing fails the build).

Usage::

    python -m tools.bench_diff --baseline DIR --current DIR \
        [--max-slowdown 1.5] [--min-baseline-s 2.0] [--require-baseline]
    python -m tools.bench_diff --trend benchmarks/results/history.jsonl \
        [--trend-window 4] [--trend-step 1.02]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

#: Sidecar schema this tool understands (see benchmarks/_common.py).
SIDECAR_SCHEMA = "repro.bench.sidecar/v1"

#: History row schema the --trend gate understands.
HISTORY_SCHEMA = "repro.bench.history/v1"


@dataclass
class BenchEntry:
    """One parsed sidecar: the bench name and its wall-clock seconds."""

    name: str
    elapsed_s: float
    preset: str
    backend: Optional[str]
    path: Path


@dataclass
class Comparison:
    """Baseline-vs-current verdict for one bench."""

    name: str
    baseline_s: float
    current_s: float
    ratio: float
    skipped_short: bool
    skipped_backend: bool
    regressed: bool


def load_sidecars(directory: Path) -> Dict[str, BenchEntry]:
    """Parse every ``*.json`` sidecar under ``directory`` (recursively).

    Files that are not valid sidecars (wrong schema, missing fields,
    broken JSON) are skipped with a note on stderr — artifact
    directories often carry unrelated JSON.
    """
    entries: Dict[str, BenchEntry] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"bench-diff: skipping unreadable {path}: {exc}",
                  file=sys.stderr)
            continue
        if not isinstance(payload, dict) \
                or payload.get("schema") != SIDECAR_SCHEMA:
            continue
        name = payload.get("name")
        elapsed = payload.get("elapsed_s")
        if not isinstance(name, str) \
                or not isinstance(elapsed, (int, float)):
            print(f"bench-diff: skipping malformed sidecar {path}",
                  file=sys.stderr)
            continue
        backend = payload.get("backend")
        entries[name] = BenchEntry(
            name=name, elapsed_s=float(elapsed),
            preset=str(payload.get("preset", "?")),
            backend=str(backend) if isinstance(backend, str) else None,
            path=path)
    return entries


def _backends_comparable(baseline: BenchEntry, current: BenchEntry) -> bool:
    """Whether two sidecars were recorded on the same compute backend.

    Sidecars written before the ``backend`` field existed (``None``)
    are comparable with anything — a missing tag must not silently drop
    every comparison after an upgrade.
    """
    return baseline.backend is None or current.backend is None \
        or baseline.backend == current.backend


def compare(baseline: Dict[str, BenchEntry],
            current: Dict[str, BenchEntry],
            max_slowdown: float,
            min_baseline_s: float) -> List[Comparison]:
    """Compare every bench present in both sets; sorted worst-first."""
    out: List[Comparison] = []
    for name in sorted(set(baseline) & set(current)):
        base_s = baseline[name].elapsed_s
        cur_s = current[name].elapsed_s
        ratio = cur_s / base_s if base_s > 0 else float("inf")
        skipped_short = base_s < min_baseline_s
        skipped_backend = not _backends_comparable(baseline[name],
                                                   current[name])
        out.append(Comparison(
            name=name, baseline_s=base_s, current_s=cur_s, ratio=ratio,
            skipped_short=skipped_short, skipped_backend=skipped_backend,
            regressed=(not skipped_short and not skipped_backend
                       and ratio > max_slowdown)))
    out.sort(key=lambda c: c.ratio, reverse=True)
    return out


def _fmt_row(c: Comparison) -> str:
    flag = "REGRESSED" if c.regressed else \
        ("backend-skip" if c.skipped_backend else
         "short-skip" if c.skipped_short else "ok")
    return (f"  {c.name:<20}{c.baseline_s:>10.2f}s{c.current_s:>10.2f}s"
            f"{c.ratio:>8.2f}x  {flag}")


def run_diff(baseline_dir: Path, current_dir: Path, max_slowdown: float,
             min_baseline_s: float, require_baseline: bool,
             out=None) -> int:
    """Execute the gate; returns the process exit code."""
    out = out if out is not None else sys.stdout
    if not current_dir.is_dir():
        print(f"bench-diff: current dir {current_dir} does not exist",
              file=sys.stderr)
        return 2
    current = load_sidecars(current_dir)
    if not current:
        print(f"bench-diff: no sidecars found under {current_dir}",
              file=sys.stderr)
        return 2

    if not baseline_dir.is_dir():
        if require_baseline:
            print(f"bench-diff: baseline dir {baseline_dir} missing and "
                  "--require-baseline set", file=sys.stderr)
            return 2
        print(f"bench-diff: no baseline at {baseline_dir} — "
              f"nothing to compare ({len(current)} current benches); "
              "passing.", file=out)
        return 0
    baseline = load_sidecars(baseline_dir)
    if not baseline:
        if require_baseline:
            print(f"bench-diff: no baseline sidecars under {baseline_dir} "
                  "and --require-baseline set", file=sys.stderr)
            return 2
        print(f"bench-diff: baseline dir {baseline_dir} has no sidecars; "
              "passing.", file=out)
        return 0

    comparisons = compare(baseline, current, max_slowdown, min_baseline_s)
    new = sorted(set(current) - set(baseline))
    gone = sorted(set(baseline) - set(current))

    backend_skips = sum(1 for c in comparisons if c.skipped_backend)
    print(f"bench-diff: {len(comparisons)} compared, "
          f"{len(new)} new, {len(gone)} missing, "
          f"{backend_skips} backend-skipped "
          f"(max-slowdown {max_slowdown:.2f}x, "
          f"short floor {min_baseline_s:.1f}s)", file=out)
    if comparisons:
        print(f"  {'bench':<20}{'baseline':>11}{'current':>11}"
              f"{'ratio':>9}", file=out)
        for c in comparisons:
            print(_fmt_row(c), file=out)
    for name in new:
        print(f"  {name:<20} new bench — no baseline, not gated", file=out)
    for name in gone:
        print(f"  {name:<20} in baseline but not in current run", file=out)

    regressions = [c for c in comparisons if c.regressed]
    if regressions:
        worst = regressions[0]
        print(f"bench-diff: FAIL — {len(regressions)} regression(s); "
              f"worst {worst.name} at {worst.ratio:.2f}x "
              f"(limit {max_slowdown:.2f}x)", file=out)
        return 1
    print("bench-diff: OK — no benchmark regressions.", file=out)
    return 0


@dataclass
class TrendVerdict:
    """The trailing-window drift verdict for one bench series."""

    name: str
    preset: str
    backend: Optional[str]
    window: List[float]          # elapsed_s, oldest first
    shas: List[Optional[str]]
    flagged: bool
    skipped_short: bool

    @property
    def cumulative(self) -> float:
        first = self.window[0]
        return self.window[-1] / first if first > 0 else float("inf")


def load_history(path: Path) -> List[dict]:
    """Parse history rows, skipping non-history lines with a note."""
    rows: List[dict] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            print(f"bench-diff: skipping malformed history line "
                  f"{path}:{lineno}", file=sys.stderr)
            continue
        if not isinstance(row, dict) \
                or row.get("schema") != HISTORY_SCHEMA:
            continue
        if not isinstance(row.get("name"), str) \
                or not isinstance(row.get("elapsed_s"), (int, float)):
            print(f"bench-diff: skipping malformed history row "
                  f"{path}:{lineno}", file=sys.stderr)
            continue
        rows.append(row)
    return rows


def trend_verdicts(rows: List[dict], window: int, step_ratio: float,
                   max_slowdown: float,
                   min_baseline_s: float) -> List[TrendVerdict]:
    """Per-series drift verdicts over each series' trailing window.

    A series is one ``(name, preset, backend)`` group — a preset or
    backend switch must not read as a slowdown. A series is flagged
    when its last ``window`` runs each slowed by at least
    ``step_ratio`` *and* the cumulative first→last drift exceeds
    ``max_slowdown`` — exactly the creep the pairwise gate is blind to.
    Series whose every point sits under ``min_baseline_s`` are noise
    and never flag.
    """
    groups: Dict[tuple, List[dict]] = {}
    for row in rows:
        key = (row["name"], row.get("preset"), row.get("backend"))
        groups.setdefault(key, []).append(row)
    verdicts: List[TrendVerdict] = []
    for (name, preset, backend), series in sorted(
            groups.items(), key=lambda kv: kv[0][0]):
        series.sort(key=lambda r: r.get("created_unix", 0.0))
        tail = series[-window:]
        elapsed = [float(r["elapsed_s"]) for r in tail]
        shas = [r.get("git_sha") for r in tail]
        skipped_short = max(elapsed) < min_baseline_s
        flagged = False
        if len(elapsed) >= 3 and not skipped_short:
            steps_up = all(b >= a * step_ratio
                           for a, b in zip(elapsed, elapsed[1:]))
            cumulative = elapsed[-1] / elapsed[0] if elapsed[0] > 0 \
                else float("inf")
            flagged = steps_up and cumulative > max_slowdown
        verdicts.append(TrendVerdict(
            name=name, preset=str(preset), backend=backend,
            window=elapsed, shas=shas, flagged=flagged,
            skipped_short=skipped_short))
    return verdicts


def _short_sha(sha: Optional[str]) -> str:
    return sha[:9] if isinstance(sha, str) else "?"


def run_trend(history_path: Path, window: int, step_ratio: float,
              max_slowdown: float, min_baseline_s: float,
              out=None) -> int:
    """Execute the trend gate; returns the process exit code."""
    out = out if out is not None else sys.stdout
    if not history_path.is_file():
        print(f"bench-diff: no history at {history_path} — "
              "nothing to trend; passing.", file=out)
        return 0
    rows = load_history(history_path)
    if not rows:
        print(f"bench-diff: {history_path} holds no history rows; "
              "passing.", file=out)
        return 0
    verdicts = trend_verdicts(rows, window, step_ratio, max_slowdown,
                              min_baseline_s)
    print(f"bench-diff: trend over last {window} run(s) of "
          f"{len(verdicts)} series (step {step_ratio:.2f}x, "
          f"cumulative limit {max_slowdown:.2f}x)", file=out)
    for v in verdicts:
        shape = " -> ".join(f"{e:.2f}s" for e in v.window)
        flag = "TRENDING UP" if v.flagged else \
            ("short-skip" if v.skipped_short else "ok")
        print(f"  {v.name:<20}[{v.preset}/{v.backend or '?'}] "
              f"{shape}  ({v.cumulative:.2f}x)  {flag}", file=out)
        if v.flagged:
            print(f"  {'':<20}shas: "
                  f"{' -> '.join(_short_sha(s) for s in v.shas)}", file=out)
    trending = [v for v in verdicts if v.flagged]
    if trending:
        print(f"bench-diff: FAIL — {len(trending)} series trending up "
              f"monotonically past {max_slowdown:.2f}x cumulative.",
              file=out)
        return 1
    print("bench-diff: OK — no monotonic slowdown trends.", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.bench_diff",
        description="Fail when benchmark sidecars regress vs a baseline.")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="directory of previous-run sidecar JSONs")
    parser.add_argument("--current", type=Path, default=None,
                        help="directory of this run's sidecar JSONs")
    parser.add_argument("--trend", type=Path, default=None,
                        metavar="HISTORY",
                        help="history.jsonl to scan for monotonic "
                             "multi-run slowdowns (repro.bench.history/v1)")
    parser.add_argument("--trend-window", type=int, default=4,
                        help="trailing runs per series the trend gate "
                             "inspects (default 4)")
    parser.add_argument("--trend-step", type=float, default=1.02,
                        help="minimum per-run ratio for a step to count "
                             "as 'slower' (default 1.02)")
    parser.add_argument("--max-slowdown", type=float, default=1.5,
                        help="fail when current/baseline exceeds this "
                             "ratio (default 1.5)")
    parser.add_argument("--min-baseline-s", type=float, default=2.0,
                        help="baselines shorter than this are reported "
                             "but never gate (default 2.0)")
    parser.add_argument("--require-baseline", action="store_true",
                        help="treat a missing/empty baseline as an error "
                             "instead of passing")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_slowdown <= 0:
        print("bench-diff: --max-slowdown must be > 0", file=sys.stderr)
        return 2
    if args.min_baseline_s < 0:
        print("bench-diff: --min-baseline-s must be >= 0", file=sys.stderr)
        return 2
    pairwise = args.baseline is not None or args.current is not None
    if pairwise and (args.baseline is None or args.current is None):
        parser.error("--baseline and --current go together")
    if not pairwise and args.trend is None:
        parser.error("pass --baseline/--current, --trend, or both")
    if args.trend_window < 3:
        print("bench-diff: --trend-window must be >= 3 (a trend needs "
              "at least two steps)", file=sys.stderr)
        return 2
    code = 0
    if pairwise:
        code = run_diff(args.baseline, args.current, args.max_slowdown,
                        args.min_baseline_s, args.require_baseline)
    if args.trend is not None and code in (0, 1):
        trend_code = run_trend(args.trend, args.trend_window,
                               args.trend_step, args.max_slowdown,
                               args.min_baseline_s)
        code = max(code, trend_code)
    return code


if __name__ == "__main__":
    sys.exit(main())
