#!/usr/bin/env python3
"""Record each model's test MSE per workload and seed into reference.json.

    python3 benchmarks/record_reference.py --seeds 0-31

The benchmark fails any predict operation whose test MSE departs from the
value recorded here for its workload and seed, so record only from a
commit whose results are known to be right.  Seeds not listed are still
checked for finite predictions and for identical results across the
iterations of a run.
"""

import argparse
import json
import shutil
import sys

import run  # pins BLAS threads before NumPy is imported


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-31"),
                        help="inclusive range such as 0-31")
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES, action="append",
                        help="workload to record (default: all)")
    args = parser.parse_args(argv)
    run.load_library()
    import workloads

    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    workdir = run.OUT / "work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workload or run.WORKLOAD_NAMES:
            for seed in args.seeds:
                samples = [run.iterate(case)
                           for case in workloads.WORKLOADS[name](seed, str(workdir))]
                failures = [f for s in samples for f in s.failures]
                if failures:
                    print(f"error: {name} seed {seed}: {failures}", file=sys.stderr)
                    return 1
                reference.setdefault(name, {})[str(seed)] = [s.mse for s in samples]
                print(f"{name} seed {seed}: {[s.mse for s in samples]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ordered = {w: dict(sorted(reference[w].items(), key=lambda kv: int(kv[0])))
               for w in sorted(reference)}
    path.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
