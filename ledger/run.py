"""Layer-ledger benchmark: one workload, one seed, every metric by name.

Usage (from the repository root)::

    python3 ledger/run.py --workload theta-adaptive --seed 0 --seconds 20 --trace 0
    python3 ledger/run.py --workload theta-adaptive --seed 0 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` makes the same untraced pass, then replays the same
segments with the layer wrappers of ``spans.py`` installed, and reports
per-layer self times; the traced and untraced outputs must be
identical. Workloads and segments are described in ``workloads.py``,
recorded digests and the written predictions in ``spec.json``.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Traced runs also write their layer totals to
``ledger/out/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())


def _import_program() -> None:
    """Put the simulator and the shared bench helpers on the path."""
    for path in (HERE, ROOT / "benchmarks", ROOT / "src"):
        sys.path.insert(0, str(path))
    try:
        import repro  # noqa: F401
        import run_bench  # noqa: F401
    except ImportError as exc:
        sys.exit(f"ledger: cannot import the simulator from {ROOT}: {exc}")


def run_segments(wl: Any, seconds: float, one: Callable[[int], Any]) -> List[Any]:
    """Call ``one(k)`` for segments ``k = 0, 1, ...`` until time is up.

    Segment 0 is an untimed warm-up when the workload has one; then
    segments run until ``seconds`` have passed, and never fewer than
    the workload's digest segments or one timed segment.
    """
    segments = [one(0)] if wl.warmup else []
    k = len(segments)
    start = time.perf_counter()
    while (k < wl.digest_segments or time.perf_counter() - start < seconds
           or k == int(wl.warmup)):
        segments.append(one(k))
        k += 1
    return segments


def combined_digest(wl: Any, segments: List[Any]) -> str:
    """Digest over the workload's first ``digest_segments`` segments."""
    pinned = segments[: wl.digest_segments]
    return "sha256:" + hashlib.sha256(
        "|".join(s.digest for s in pinned).encode()
    ).hexdigest()


def peak_rss_mb(pool: bool) -> Tuple[float, float]:
    """This process's peak RSS and (pool workloads) the largest worker's."""
    from repro.obs.runtime import peak_rss_bytes

    own = peak_rss_bytes() / 1e6
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    return own, workers if pool else 0.0


def check_output(name: str, wl: Any, seed: int, segments: List[Any]) -> Dict[str, Any]:
    """Unstarted jobs and digest against the recorded one, if any."""
    digest = combined_digest(wl, segments)
    recorded = SPEC["digests"].get(name, {}).get(str(seed))
    attempted = sum(s.jobs for s in segments)
    failed = sum(s.unstarted for s in segments)
    if recorded is not None:
        attempted += 1
        failed += int(recorded != digest)
    return {"digest": digest, "recorded": recorded, "attempted": attempted,
            "failed": failed}


def end_to_end(wl: Any, segments: List[Any]) -> Dict[str, float]:
    """The untraced metrics of one run.

    ``peak_rss_mb`` is the larger of this process's peak and, for pool
    workloads, the largest worker's.
    """
    timed = segments[int(wl.warmup):]
    return {
        "jobs_per_s": sum(s.jobs for s in timed) / sum(s.run_s for s in timed),
        "setup_s": statistics.median(s.setup_s for s in timed),
        "peak_rss_mb": max(peak_rss_mb(pool=bool(timed[0].calls))),
        "sim_exec_h": sum(s.exec_h for s in segments[: wl.digest_segments]),
    }


def percentile_us(samples: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) * 1e6 if samples else 0.0


def per_layer(wl: Any, ledger: Any, traced: List[Any], untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics from the traced pass's ledger.

    Pool workloads record layer seconds inside the workers, where two
    cells run at once; for coverage and shares those count as
    ``seconds / workers`` of wall time. ``runs.dispatch`` is the wall
    time of each ``continuous_runs`` call that the cells' recorded work
    does not fill: pool start, pickling, and the idle tail.
    """
    from workloads import TABLE3_JOBS, TABLE3_LOGS, TABLE3_WORKERS

    s, calls, ctr = ledger.self_s, ledger.calls, ledger.counters
    wall = sum(seg.wall_s for seg in traced)
    pool = bool(traced[0].calls)
    workers = TABLE3_WORKERS if pool else 1
    worker_s: Dict[str, float] = {}
    dispatch = 0.0
    cells = 0
    for seg in traced:
        for call in seg.calls:
            covered = 0.0
            for cell in call["cells"]:
                cells += 1
                for layer, sec in cell["delta"]["self_s"].items():
                    worker_s[layer] = worker_s.get(layer, 0.0) + sec
                    covered += sec
            dispatch += call["wall_s"] - covered / workers

    def equiv(layer: str) -> float:
        return s.get(layer, 0.0) - worker_s.get(layer, 0.0) * (1 - 1 / workers)

    covered_wall = sum(equiv(layer) for layer in s) + dispatch
    scanned = ctr.get("policy.jobs_scanned", 0)
    hits, misses = ctr.get("cost.cache_hits", 0), ctr.get("cost.cache_misses", 0)
    kernel_nodes = ctr.get("cost.kernel_nodes", 0)
    generated = (len(TABLE3_LOGS) * TABLE3_JOBS * len(traced) if pool
                 else sum(seg.jobs for seg in traced))
    starts = ledger.start_job_s
    return {
        "workloads.s": s.get("workloads", 0.0),
        "workloads.jobs": generated,
        "scheduler.events.s": s.get("scheduler.events", 0.0),
        "scheduler.events.calls": calls.get("scheduler.events", 0),
        "scheduler.queue_policy.s": s.get("scheduler.queue_policy", 0.0),
        "scheduler.queue_policy.passes": calls.get("scheduler.queue_policy", 0),
        "scheduler.queue_policy.pick_ratio": (
            ctr.get("policy.jobs_picked", 0) / scanned if scanned else 0.0),
        "scheduler.engine.self_s": s.get("scheduler.engine", 0.0),
        "scheduler.engine.start_us_p50": percentile_us(starts, 50),
        "scheduler.engine.start_us_p99": percentile_us(starts, 99),
        "scheduler.engine.start_samples": len(starts),
        "allocation.s": s.get("allocation", 0.0),
        "allocation.calls": calls.get("allocation", 0),
        "allocation.counterfactual_share": equiv("allocation.counterfactual") / wall,
        "allocation.counterfactual_calls": calls.get("allocation.counterfactual", 0),
        "cost.s": s.get("cost", 0.0),
        "cost.calls": calls.get("cost", 0),
        "cost.share": equiv("cost") / wall,
        "cost.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cost.ns_per_node": s.get("cost", 0.0) * 1e9 / kernel_nodes if kernel_nodes else 0.0,
        "cluster.state.write_s": s.get("cluster.state.write", 0.0),
        "cluster.state.write_calls": calls.get("cluster.state.write", 0),
        "cluster.state.overlay_s": s.get("cluster.state.overlay", 0.0),
        "cluster.state.overlay_calls": calls.get("cluster.state.overlay", 0),
        "topology.s": s.get("topology", 0.0),
        "sink.share": equiv("sink") / wall,
        "runs.dispatch_share": dispatch / wall,
        "runs.cells": cells,
        "trace.overhead_ratio": wall / untraced_wall,
        "trace.other_share": 1.0 - covered_wall / wall,
    }


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, float],
         units: Dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:38s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def main(argv: Optional[List[str]] = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _import_program()

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print(f"ledger: {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}", flush=True)
    if args.trace:
        from repro.obs.runtime import PerfRecorder, collecting
        from run_bench import records_identical
        from spans import Ledger, instrumented

        recorder = PerfRecorder()
        ledger = Ledger(recorder)
        first = int(wl.warmup)
        traced: List[Any] = []

        def one(k: int) -> Any:
            """Segment k untraced and, after warm-up, traced; in turns
            which goes first, so drift in host speed cancels out."""
            if k < first:
                return wl.segment(args.seed, k)

            def plain() -> Any:
                return wl.segment(args.seed, k, keep=k == first)

            def spanned() -> Any:
                with collecting(recorder), instrumented(ledger):
                    traced.append(wl.segment(args.seed, k, ledger, keep=k == first))

            if k % 2:
                untraced_seg = plain()
                spanned()
            else:
                spanned()
                untraced_seg = plain()
            return untraced_seg
    else:
        def one(k: int) -> Any:
            return wl.segment(args.seed, k)

    untraced = run_segments(wl, args.seconds, one)
    check = check_output(wl.name, wl, args.seed, untraced)
    e2e = end_to_end(wl, untraced)
    own_rss, worker_rss = peak_rss_mb(pool=bool(untraced[-1].calls))
    pinned = untraced[: wl.digest_segments]
    print(f"  segments={len(untraced)} warmup={int(wl.warmup)} "
          f"digest={check['digest']} recorded={check['recorded']}")
    print(f"  failed_ratio={check['failed'] / check['attempted']:.6g} "
          f"({check['failed']}/{check['attempted']}) "
          f"sim_wait_h={sum(s.wait_h for s in pinned):.6f} "
          f"own_rss_mb={own_rss:.1f} worker_rss_mb={worker_rss:.1f}")

    if not args.trace:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        metrics = {name: e2e[name] for name in units}
        emit(check["failed"] == 0, check["attempted"], check["failed"], metrics, units)
        return 0

    timed = untraced[first:]
    for seg in traced:
        for call in seg.calls:
            for cell in call["cells"]:
                ledger.merge(cell["delta"])
    mismatches = sum(a.digest != b.digest for a, b in zip(timed, traced))
    same_records = records_identical(timed[0].records, traced[0].records)
    attempted = check["attempted"] + len(traced) + 1
    failed = check["failed"] + mismatches + int(not same_records)
    print(f"  traced segments={len(traced)} digest_mismatches={mismatches} "
          f"records_identical={same_records}")
    layers = per_layer(wl, ledger, traced, sum(s.wall_s for s in timed))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{wl.name}-seed{args.seed}.json").write_text(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "metrics": layers,
        "self_s": ledger.self_s,
        "calls": ledger.calls,
        "counters": ledger.counters,
    }, indent=2, sort_keys=True) + "\n")
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emit(failed == 0, attempted, failed, {n: layers[n] for n in units}, units)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
