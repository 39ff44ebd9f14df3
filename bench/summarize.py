"""Summarise a set of benchmark runs: median, quartiles and spread per workload and metric.

    python3 bench/summarize.py [--out SUMMARY.json] [RESULT.json ...]

Without result files it reads every `.bench_out/*/result_seed*_trace*.json`.
The spread is (Q3 - Q1) / median, with the quartiles of
`statistics.quantiles(values, n=4)`; a steady benchmark keeps it well below
each end-to-end metric's bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stats(values: list) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values), "n": len(values)}


def summarize(records: list) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    named = defaultdict(lambda: defaultdict(list))
    named_wall = defaultdict(lambda: defaultdict(list))
    by_command = defaultdict(lambda: defaultdict(list))
    units, env, seeds = {}, {}, defaultdict(list)
    for rec in records:
        wl = rec["workload"]
        seeds[(wl, rec["trace"])].append(rec["seed"])
        env.setdefault(wl, rec["environment"])
        for name, m in rec["metrics"].items():
            values[wl][name].append(m["value"])
            units[name] = m["unit"]
        if not rec["trace"]:
            for name, v in rec.get("named_s", {}).items():
                named[wl][name].append(v)
            for name, v in rec.get("named_wall_s", {}).items():
                named_wall[wl][name].append(v)
        for command, layers in rec["worker"].get("layers_by_command", {}).items():
            for name, v in layers.items():
                by_command[wl][f"{command}/{name}"].append(v)
    out = {}
    for wl in sorted(values):
        out[wl] = {
            "seeds": {("traced" if t else "untraced"): s for (w, t), s in seeds.items() if w == wl},
            "environment": env[wl],
            "metrics": {name: {"unit": units[name], **stats(v)} for name, v in values[wl].items()},
            "named_s": {name: stats(v) for name, v in named[wl].items()},
            "named_wall_s": {name: stats(v) for name, v in named_wall[wl].items()},
            "layers_by_command": {name: statistics.median(v) for name, v in by_command[wl].items()},
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("results", nargs="*", type=Path)
    parser.add_argument("--out", type=Path, help="write the summary as JSON")
    args = parser.parse_args()
    paths = args.results or sorted(ROOT.glob(".bench_out/*/result_seed*_trace*.json"))
    if not paths:
        print("no result files", file=sys.stderr)
        return 1
    summary = summarize([json.loads(p.read_text()) for p in paths])
    for wl, s in summary.items():
        print(f"{wl}  (seeds {s['seeds']})")
        for name, m in s["metrics"].items():
            spread = f"spread {m['spread']:.3f}" if "spread" in m else ""
            print(f"  {name:36s} {m['median']:>14.6g} {m['unit']:12s} n={m['n']:<3d} {spread}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
