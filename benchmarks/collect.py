#!/usr/bin/env python3
"""Summarize run records from .bench_out/results into one BENCH_*.json.

    python3 benchmarks/collect.py --out BENCH_after.json

For every workload and metric it reports the median over runs, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread (third minus first quartile) as a share of the median.  Only
records made by the current library sources and benchmark files are
read.
"""

import argparse
import glob
import json
import statistics
import sys

import run


def summarize(records: list[dict]) -> dict:
    groups: dict = {}
    for r in records:
        key = f"{r['workload']}/trace{r['trace']}"
        g = groups.setdefault(key, {"runs": 0, "seeds": [], "failed": 0, "loadavg_1m": [],
                                    "values": {}, "units": {}})
        g["runs"] += 1
        g["seeds"].append(r["seed"])
        g["failed"] += r["failed"]
        env = r["environment"]
        g["loadavg_1m"] += [env["loadavg_1m_start"], env["loadavg_1m_end"]]
        for name, m in r["metrics"].items():
            g["values"].setdefault(name, []).append(m["value"])
            g["units"][name] = m["unit"]
    out = {}
    for key, g in sorted(groups.items()):
        metrics = {}
        for name, values in g["values"].items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"unit": g["units"][name], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0, "values": values}
        out[key] = {"runs": g["runs"], "seeds": g["seeds"], "failed": g["failed"],
                    "loadavg_1m_max": max(g["loadavg_1m"]),
                    "metrics": metrics}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write (default: print only)")
    args = parser.parse_args(argv)
    source = run.source_digest(run.SRC / "tensortree")
    benchmark = run.source_digest(run.HERE)
    records = []
    for path in sorted(glob.glob(str(run.OUT / "results" / "*.json"))):
        with open(path, encoding="utf-8") as fh:
            r = json.load(fh)
        env = r["environment"]
        if env["source_sha256"] == source and env.get("benchmark_sha256") == benchmark:
            records.append(r)
    if not records:
        print(f"error: no records for sources {source[:12]}", file=sys.stderr)
        return 1
    env = records[-1]["environment"]
    summary = {"source_sha256": source, "benchmark_sha256": benchmark, "commit": env["commit"],
               "machine": {k: env[k] for k in ("python", "numpy", "blas", "nproc", "cpu_model")},
               "groups": summarize(records)}
    for key, g in summary["groups"].items():
        print(f"{key}: {g['runs']} runs, {g['failed']} failed ops, "
              f"max 1-minute load {g['loadavg_1m_max']:.2f}")
        for name, m in g["metrics"].items():
            print(f"  {name:36s} {m['median']:>14.6g} {m['unit']:14s} spread {m['spread']:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
