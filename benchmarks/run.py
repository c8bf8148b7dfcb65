#!/usr/bin/env python3
"""Run one tensortree benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sse_ensemble --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 25

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation; with ``--trace 1`` it alternates untraced and traced
iterations and reports the per-layer metrics (see README.md).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes a record
(environment, every sample, failures) under ``.bench_out/results/``, and
a traced run writes its spans under ``.bench_out/traces/``.
"""

import os

# BLAS must be pinned before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sse_ensemble", "lre_tree", "lae_tree", "tensor_output")
SETUP_REPEATS = 5
MIN_SAMPLES = 3
MIN_TRACED = 2  # traced iterations whose counters must agree
# Median time of calibrate() on the reference machine (2-vCPU Intel Xeon,
# Python 3.11, NumPy 2.4); a run's timings are scaled by its own median
# calibration time over this one.
CALIBRATION_REF_S = 0.071
# test_mse on a seed listed in reference.json must match it to this relative tolerance.
REFERENCE_RTOL = 1e-9

END_TO_END_UNITS = {
    "fit_s": "s",
    "predict_rows_per_s": "rows/s",
    "test_mse": "mse",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import tensortree.cli; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import the library in a fresh interpreter (BLAS pinning is inherited)."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], check=True,
                          stdout=subprocess.PIPE, text=True, timeout=120)
    return float(proc.stdout)


def load_library() -> None:
    """Put ``src`` on the path; exits with an error when the sources are missing."""
    if not (SRC / "tensortree" / "__init__.py").is_file():
        raise SystemExit(f"error: no tensortree sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


# --- environment record ----------------------------------------------------


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(directory: Path) -> str:
    """SHA-256 over the names and contents of a directory's Python files."""
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": source_digest(SRC / "tensortree"),
        "benchmark_sha256": source_digest(HERE),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# --- machine speed ---------------------------------------------------------

_CAL_RNG = np.random.default_rng(20240801)
_CAL_COLUMNS = _CAL_RNG.standard_normal((2000, 32))
_CAL_SYSTEM = _CAL_RNG.standard_normal((40, 6))
# 12.8 MB, well past a core's L2 cache, like a 50k-row test batch.
_CAL_BATCH = _CAL_RNG.standard_normal((25_000, 64))
# Bound now, so that a traced iteration's patches never reach the kernel.
_LSTSQ, _SVD = np.linalg.lstsq, np.linalg.svd


def calibrate() -> float:
    """Time a fixed kernel that calls no library code.

    The speed of a shared host drifts by tens of percent over minutes, and
    every timing of a run drifts with it.  The kernel has a compute part
    that does what fits do (stable argsorts and prefix sums, small
    least-squares and SVD solves, a Python loop) and a memory part that
    does what routing a large batch does (masks and gathers over strided
    columns of an array that does not fit in cache), whose drift differs.
    Its time tracks the drift, while no change to the library can move it.
    """
    start = time.perf_counter()
    acc = 0.0
    for j in range(128):
        order = np.argsort(_CAL_COLUMNS[:, j % 32], kind="stable")
        acc += float(np.cumsum(_CAL_COLUMNS[order, 0])[-1])
    for j in range(200):
        coef = _LSTSQ(_CAL_SYSTEM, _CAL_SYSTEM[:, j % 6], rcond=None)[0]
        acc += float(coef[0] + _SVD(_CAL_SYSTEM, compute_uv=False)[0])
    for i in range(150_000):
        acc += i * 0.5
    for j in range(48):
        mask = _CAL_BATCH[:, (j * 5) % 64] > 0.1
        acc += float(_CAL_BATCH[mask, j % 64].sum())
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel gave a non-finite result")
    return time.perf_counter() - start


# --- one iteration ---------------------------------------------------------


@dataclass
class Sample:
    fit_s: float = 0.0
    fit_by_model: dict = field(default_factory=dict)
    predict_s: float = 0.0
    rows: int = 0
    mse: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)


def iterate(case) -> Sample:
    """Fit, publish and predict every model of ``case`` once.

    Each fit and each predict is one operation.  An operation that raises
    or predicts non-finite values fails; the iteration carries on.
    """
    s = Sample()
    for model in case.models:
        s.attempted += 2
        try:
            start = time.perf_counter()
            handle = model.fit()
            s.fit_by_model[model.name] = time.perf_counter() - start
            s.fit_s += s.fit_by_model[model.name]
        except Exception as exc:  # a failed fit is counted, not fatal
            s.failures += [f"fit {model.name}: {exc!r}", f"predict {model.name}: no model"]
            continue
        try:
            payload = model.publish(handle)
            start = time.perf_counter()
            preds = [model.predict(payload) for _ in range(model.passes)]
            elapsed = time.perf_counter() - start
            pred = preds[0]
            if pred.shape != case.y_test.shape:
                raise ValueError(f"predictions have shape {pred.shape}, not {case.y_test.shape}")
            if not np.all(np.isfinite(pred)):
                raise ValueError("non-finite predictions")
            if any(not np.array_equal(p, pred) for p in preds[1:]):
                raise ValueError("repeated predictions differ")
            s.predict_s += elapsed
            s.rows += pred.shape[0] * model.passes
            s.mse[model.name] = float(np.mean((pred - case.y_test) ** 2))
        except Exception as exc:  # a failed predict is counted, not fatal
            s.failures.append(f"predict {model.name}: {exc!r}")
    return s


def check_mse(sample: Sample, first: Sample, reference: dict | None) -> None:
    """Fail predict ops whose test MSE moved from the first iteration or the reference."""
    for name, mse in list(sample.mse.items()):
        want = first.mse.get(name, mse)
        if mse != want:
            sample.failures.append(f"predict {name}: test_mse {mse!r} != first iteration {want!r}")
        elif reference is not None and name in reference:
            ref = reference[name]
            if not math.isclose(mse, ref, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
                sample.failures.append(f"predict {name}: test_mse {mse!r} != reference {ref!r}")


def load_reference(workload: str, seed: int) -> dict | None:
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


# --- a whole run -----------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _replica_mean(plain: list, replicas: int, value) -> float:
    """Mean over replicas of the median of ``value`` over each replica's iterations.

    Replicas differ in cost (their trees have other shapes), so a median
    over all iterations would jump between replicas' levels as the count
    of iterations per replica changes.
    """
    medians = []
    for r in range(replicas):
        values = [value(s) for s in plain[r::replicas]]
        values = [v for v in values if v is not None]
        if values:
            medians.append(statistics.median(values))
    return statistics.fmean(medians) if medians else math.nan


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_start = os.getloadavg()[0]
    load_library()
    import tracing
    import workloads

    run_id = f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    workdir = OUT / "work" / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(name, seed, seconds, trace, run_id, str(workdir),
                        load_start, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(name, seed, seconds, trace, run_id, workdir, load_start,
             tracing, workloads) -> dict:
    build = workloads.WORKLOADS[name]
    # The calibration kernel runs before set-up and after every set-up and
    # iteration, so that it samples the machine all through the run.
    setup_times, generate_times, spans = [], [], []
    calibrations = [calibrate()]
    for k in range(SETUP_REPEATS):
        # Set-up is a fresh import, then data generation and warm-up in process.
        cases = None
        tracer = tracing.Tracer(f"{run_id}-setup{k}")
        fresh_import_s = import_seconds()
        start = time.perf_counter()
        if trace:
            with tracing.installed(tracer):
                cases = build(seed, workdir)
        else:
            cases = build(seed, workdir)
        setup_times.append(fresh_import_s + time.perf_counter() - start)
        calibrations.append(calibrate())
        generate_times.append(tracing.generate_seconds(tracer.spans))
        spans += tracer.spans
    if trace:
        # Counters must repeat exactly, so every traced iteration runs one replica.
        cases = cases[:1]

    reference = load_reference(name, seed)
    first: dict[int, Sample] = {}
    plain: list[Sample] = []
    traced: list[tuple[Sample, dict]] = []
    start = time.perf_counter()
    while True:
        replica = len(plain) % len(cases)
        case = cases[replica]
        if trace and len(plain) > len(traced):
            tracer = tracing.Tracer(f"{run_id}-it{len(plain) + len(traced)}")
            with tracing.installed(tracer):
                sample = iterate(case)
            traced.append((sample, tracing.layer_metrics(
                tracer.spans, tracer.counts, workloads.CLI_THREADS)))
            spans += tracer.spans
        else:
            sample = iterate(case)
            plain.append(sample)
        calibrations.append(calibrate())
        check_mse(sample, first.setdefault(replica, sample),
                  reference[replica] if reference else None)
        # Once every replica has run, stop at the iteration that ends nearest
        # the time asked for.
        elapsed = time.perf_counter() - start
        if len(plain) >= max(len(cases), MIN_SAMPLES) and len(traced) >= (
                MIN_TRACED if trace else 0):
            iteration = elapsed / (len(plain) + len(traced))
            if elapsed + iteration / 2 > seconds:
                break
    measured_s = time.perf_counter() - start

    samples = plain + [t[0] for t in traced]
    attempted = sum(s.attempted for s in samples)
    failures = [f for s in samples for f in s.failures]
    for check in cases[0].checks:
        ops, check_failures = check()
        attempted += ops
        failures += check_failures

    mismatches = []
    # End-to-end timings are scaled to the reference machine's speed by the
    # run's slowdown; the raw ones stay in the record.
    slowdown = statistics.median(calibrations) / CALIBRATION_REF_S
    fit = [s.fit_s for s in plain]
    rates = [s.rows / s.predict_s for s in plain if s.predict_s > 0]
    scaled_fit = _replica_mean(plain, len(cases), lambda s: s.fit_s) / slowdown
    scaled_predict = _replica_mean(
        plain, len(cases), lambda s: s.predict_s / s.rows if s.rows else None) / slowdown
    scaled_setup = [t / slowdown for t in setup_times]
    mse_by_replica = [first[r].mse for r in sorted(first)]
    mse_values = [v for mse in mse_by_replica for v in mse.values()]
    metrics = {
        "fit_s": scaled_fit,
        "predict_rows_per_s": 1.0 / scaled_predict,
        # geometric, because the models' MSEs differ in scale
        "test_mse": statistics.geometric_mean(mse_values) if mse_values else math.nan,
        "setup_s": _median(scaled_setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END_UNITS)
    layer_summary = {}
    if trace:
        layers = [t[1] for t in traced]
        for key in tracing.EXACT:
            values = {layer[key] for layer in layers}
            if len(values) > 1:
                mismatches.append(f"counter {key} differs between traced iterations: "
                                  f"{sorted(values)}")
        metrics = {key: layers[0][key] for key in tracing.EXACT}
        metrics.update({key: _median([layer[key] for layer in layers]) for key in tracing.TIMED})
        metrics["data.generate.s"] = _median(generate_times)
        metrics["trace.overhead_s"] = _median([t[0].fit_s for t in traced]) - _median(fit)
        units = {**tracing.EXACT, **tracing.TIMED, "data.generate.s": "s", "trace.overhead_s": "s"}
        layer_summary = {key: _quartiles([layer[key] for layer in layers]) for key in tracing.TIMED}

    env = environment()
    env["loadavg_1m_start"] = load_start
    env["loadavg_1m_end"] = os.getloadavg()[0]
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "measured_s": measured_s,
        "environment": env,
        "reference_checked": reference is not None,
        "setup_s_samples": setup_times,
        "calibrations": calibrations,
        "slowdown": slowdown,
        "fit_s_samples": fit,
        "predict_rows_per_s_samples": rates,
        "traced_fit_s_samples": [t[0].fit_s for t in traced],
        "fit_s_by_model": {m.name: _median([s.fit_by_model[m.name] for s in plain
                                            if m.name in s.fit_by_model]) for m in cases[0].models},
        "test_mse_by_replica": mse_by_replica,
        "failures": failures,
        "counter_mismatches": mismatches,
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "layer_quartiles": layer_summary,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{run_id}-{stamp}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracing.write_spans(spans, OUT / "traces" / f"{run_id}-{stamp}.jsonl")
    return record


def _print_report(record: dict) -> None:
    env = record["environment"]
    print(f"# workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['fit_s_samples'])} untraced + {len(record['traced_fit_s_samples'])} "
          f"traced iterations in {record['measured_s']:.1f} s")
    print(f"# commit {env['commit']} source {env['source_sha256'][:12]} python {env['python']} "
          f"numpy {env['numpy']} blas {env['blas']} nproc {env['nproc']} cpu {env['cpu_model']}")
    print(f"# loadavg 1m start {env['loadavg_1m_start']:.2f} end {env['loadavg_1m_end']:.2f}; "
          f"reference checked: {record['reference_checked']}")
    print(f"# slowdown against the reference machine: {record['slowdown']:.3f}")
    for key, m in record["metrics"].items():
        print(f"{key:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':40s} {record['failed'] / record['attempted']:>16.6g} ratio")
    for failure in record["failures"] + record["counter_mismatches"]:
        print(f"! {failure}", file=sys.stderr)


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return _run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
