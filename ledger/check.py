"""Steadiness and prediction checks over ``run.py`` results.

``spread``: run one workload on several seeds (untraced) and print, per
end-to-end metric, the median and the quartile spread as a share of the
median, next to the metric's bound::

    python3 ledger/check.py spread --workload mira-adaptive --seeds 1 2 3 4 5

``predictions``: read the traced results in ``ledger/out/`` (one per
workload, written by ``run.py --trace 1``) and check the predictions
written in ``spec.json``::

    python3 ledger/check.py predictions --seed 0
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, seconds: str) -> Dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cmd_spread(args: argparse.Namespace) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(args.seconds or bench["run_seconds"])
    values: Dict[str, List[float]] = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds)
        line = {n: m["value"] for n, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{n}={v:.6g}" for n, v in line.items()), flush=True)
        for name, value in line.items():
            values.setdefault(name, []).append(value)
    ok = True
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        share = spread(vals)
        steady = share <= metric["bound"] / 3
        ok &= steady or metric["name"] == "setup_s"
        print(f"{metric['name']:12s} median={statistics.median(vals):.6g} "
              f"spread={share:.4f} bound={metric['bound']} "
              f"{'steady' if steady else 'NOT steady'}")
    return 0 if ok else 1


def cmd_predictions(args: argparse.Namespace) -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    layers = {}
    for workload in spec["workloads"]:
        path = HERE / "out" / f"{workload}-seed{args.seed}.json"
        layers[workload] = json.loads(path.read_text())["metrics"]
    failures = 0
    for check in spec["checks"]:
        name, kind = check["metric"], check["kind"]
        got = {w: m[name] for w, m in layers.items()}
        if kind == "highest_on":
            ok = max(got, key=got.get) == check["workload"]
        elif kind == "below":
            ok = got[check["workload"]] < check["value"]
        elif kind == "below_everywhere":
            ok = all(v <= check["value"] for v in got.values())
        elif kind == "zero_on":
            ok = got[check["workload"]] == 0
        elif kind == "nonzero_only_on":
            ok = all((v != 0) == (w == check["workload"]) for w, v in got.items())
        else:
            raise ValueError(f"unknown check kind {kind!r}")
        failures += not ok
        shown = " ".join(f"{w}={v:.4g}" for w, v in got.items())
        print(f"{'ok  ' if ok else 'FAIL'} {check['text']}: {shown}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int)
    p = sub.add_parser("predictions")
    p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    return cmd_spread(args) if args.command == "spread" else cmd_predictions(args)


if __name__ == "__main__":
    raise SystemExit(main())
