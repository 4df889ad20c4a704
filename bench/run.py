"""fewmeta benchmark: one seeded workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload report_stream --seed 1 --seconds 20 --trace 0

Workloads (bench/workloads.json holds their records): report_stream,
select_wide, grid_wide. Each runs in its own process with one caller and one
BLAS/OpenMP thread, importing fewmeta from the checkout's `src`. Every op's
output is checked; failed checks count as failed ops.

--trace 0 prints the end-to-end metrics. The ops run in blocks that repeat
the same op shapes; each op's time is the fastest of its repeats, scaled to
the host's speed as a fixed reference loop gauges it, and throughput and
latencies are taken over these (bench/worker.py says why and how).
Set-up is timed in fresh
interpreters from start to the end of the warm-up op, nine times, four
before the measured run, once in it and four after; the median is
reported. --trace 1 runs untraced and then traced blocks and prints the
per-layer metrics (bench/tracer.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON `detail` object
with the machine, the workload record, the tail percentile and op count,
the output digest and the failure ratio. Digests and exact counts of each
(workload, seed, program) are kept under .bench_out/records; a later run of
the same seed on the same code must reproduce them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer  # the benchmark's own module; it does not import fewmeta

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORDS = {r["name"]: r for r in json.loads((BENCH / "workloads.json").read_text())}

SETUP_PROBES = 4  # probe processes before and again after the measuring process
PROCESS_TIMEOUT_S = 170.0

# end-to-end metrics: (name, unit)
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def start_worker(args, mode):
    """Start one worker process; returns (seconds until its ready line, result or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    env = {**os.environ, **SINGLE_THREAD_ENV}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "ready":
        raise BenchError(f"{mode} worker exited with code {code}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def code_hash() -> str:
    """sha256 over the program and the benchmark, so records of one version
    are never compared with another's."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "src").rglob("*.csv"))
    files += sorted(BENCH.glob("*.py")) + sorted(BENCH.glob("*.json"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_record(args, key, values) -> list:
    """Store `values` for (workload, seed, code) or compare with the stored ones."""
    records = ROOT / ".bench_out" / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-{code_hash()}-{key}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        return [f"{key} {name}: {stored.get(name)!r} before, {value!r} now"
                for name, value in values.items() if stored.get(name) != value]
    path.write_text(json.dumps(values, sort_keys=True))
    return []


def measure(args):
    setup = [start_worker(args, "probe")[0] for _ in range(SETUP_PROBES)]
    ready_s, result = start_worker(args, "measure")
    setup.append(ready_s)
    setup += [start_worker(args, "probe")[0] for _ in range(SETUP_PROBES)]
    phase = result["phase"]
    if phase["op_tail_ms"] is None:
        raise BenchError(f"{phase['ops']} ops leave fewer than 10 beyond p{phase['tail_percentile']}")
    metrics = {
        "ops_per_s": phase["ops_per_s"],
        "op_p50_ms": phase["op_p50_ms"],
        "op_tail_ms": phase["op_tail_ms"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {"setup_samples_s": setup}
    mismatches = check_record(args, "digest", {"outputs": phase["digest"]})
    return result, [phase], metrics, detail, mismatches


def trace(args):
    _, result = start_worker(args, "trace")
    layers = result["layers"]
    metrics = {name: layers[name] for name, _, _ in tracer.PER_LAYER}
    exact = {name: layers[name] for name in tracer.EXACT}
    mismatches = check_record(args, "digest", {"outputs": result["phase"]["digest"]})
    mismatches += check_record(args, "counts", exact)
    if result["untraced"]["digest"] != result["phase"]["digest"]:
        mismatches.append("traced and untraced passes wrote different outputs")
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    detail = {"missing_hooks": result["missing_hooks"], "exact_counts": exact}
    return result, [result["untraced"], result["phase"]], metrics, detail, mismatches, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(RECORDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fewmeta" / "__init__.py").is_file():
        sys.exit(f"bench: no fewmeta source tree at {ROOT / 'src' / 'fewmeta'}")
    try:
        if args.trace:
            result, phases, metrics, detail, mismatches, units = trace(args)
        else:
            result, phases, metrics, detail, mismatches = measure(args)
            units = dict(END_TO_END)
    except BenchError as exc:
        sys.exit(f"bench: {exc}")

    attempted = sum(p["ops"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    for message in mismatches:
        print(f"bench: not reproduced: {message}", file=sys.stderr)
    phase = result["phase"]
    detail.update({
        "workload": RECORDS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
            **result["versions"],
        },
        "ops": phase["ops"],
        "blocks": phase["blocks"],
        "tail_percentile": phase["tail_percentile"],
        "reference_ms": phase["reference_ms"],
        "host_scale": phase["host_scale"],
        "fastest_unscaled": phase["fastest_unscaled"],
        "as_run": phase["as_run"],
        "op_failure_ratio": {"value": failed / attempted, "unit": "fraction"},
        "failures": {k: v for p in phases for k, v in p["failures"].items()},
        "output_digest": phase["digest"],
        "stats": result["stats"],
        "reproduced": not mismatches,
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
