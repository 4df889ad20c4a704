"""One workload process of the benchmark; started by run.py, not by hand.

The process imports fewmeta from the checkout's `src`, runs the warm-up op,
prints a `ready` line (run.py times set-up up to it), then runs its phase and
prints one JSON result line:

- `probe`: stop after the ready line (a set-up sample);
- `measure`: untraced blocks of ops for --seconds, at least min_blocks;
- `trace`: `trace_blocks` untraced blocks, then the same blocks traced.

Every block of a workload runs the same op shapes in the same order, each
on fresh values, so op j of every block does the same work. A shared host's
CPU speed drifts by a third or more within seconds, so the time of an op is
taken as the fastest of its repeats in the run, as timeit takes the fastest
of its repeats. The host also has slow spells lasting minutes, in which even
these fastest repeats run 10-25 % slower. The process therefore also times
`reference_loop`, fixed work that calls nothing in fewmeta, at
REFERENCE_SLOTS points spread through every block, takes each point's
fastest repeat as it does for an op, and scales the op times by REFERENCE_MS
over the mean of these: the reported times are those of a host on which the
loop takes REFERENCE_MS.
The p50 and tail are taken over the scaled per-op times, and ops_per_s is
the block's op count over their sum plus the fastest end-of-block step.
The unscaled figures, and those over all ops as they ran, are reported
beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

TAIL_BEYOND = 10  # ops a tail percentile must leave beyond it
# fastest repeat of reference_loop on the 2-vCPU host the bounds were set on,
# in a quiet spell; in its slow spells the mean over the points measured
# 2.9-4.2 ms
REFERENCE_MS = 2.5
REFERENCE_SLOTS = 8
REFERENCE_VALUES = np.random.default_rng(0).standard_normal((1000, 5))


def reference_loop(values=REFERENCE_VALUES):
    """Fixed work that gauges the host's speed: interpreter-bound float and
    dict updates, then small numpy medians and sorts, as fewmeta's ops mix
    them. It calls nothing in fewmeta."""
    total, table = 0.0, {}
    for i in range(3000):
        total += (i * 7 % 13) * 0.5
        table[i & 63] = total
    for _ in range(30):
        x = values * 1.5 + 0.1
        total += float(np.median(x, axis=0).sum()) + float(np.sort(x[:, 0])[500])
    return total


def checked(check, *args):
    """A check that cannot read the output fails; it does not stop the run."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"], b""


def run_phase(wl, min_blocks, seconds=0.0):
    """Run whole blocks of ops 0, 1, ... until at least `min_blocks` ran and
    `seconds` passed. The outputs of the first block go into the digest."""
    blocks, failed_ops = [], set()
    reasons = Counter()
    digest = hashlib.sha256()
    clock = time.perf_counter
    marks = {(s + 1) * wl.block // REFERENCE_SLOTS - 1 for s in range(REFERENCE_SLOTS)}
    start = clock()
    i = 0
    while len(blocks) < min_blocks or clock() - start < seconds:
        latencies, reference_s = [], []
        for j in range(wl.block):
            case = wl.prepare(i)
            t0 = clock()
            try:
                out = wl.run(case)
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a harness error
                error = f"raised {type(exc).__name__}: {exc}"
            latencies.append(clock() - t0)
            fails, blob = ([error], b"") if error else checked(wl.check, case, out)
            if fails:
                failed_ops.add(i)
                reasons[fails[0]] += 1
            if not blocks:
                digest.update(blob)
            i += 1
            if j in marks:
                t0 = clock()
                reference_loop()
                reference_s.append(clock() - t0)
        t0 = clock()
        wl.end_block()
        end_s = clock() - t0
        fails, blob = checked(wl.check_block)
        if fails:
            failed_ops.update(range(i - wl.block, i))
            reasons[fails[0]] += 1
        if not blocks:
            digest.update(blob)
        blocks.append({"latencies": latencies, "end_s": end_s, "reference_s": reference_s})
    return {
        "ops": i,
        "failed": len(failed_ops),
        "blocks": blocks,
        "digest": digest.hexdigest(),
        "failures": dict(reasons.most_common(5)),
    }


def tail(latencies, percentile):
    """Nearest-rank percentile; None when fewer than TAIL_BEYOND ops lie beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    if len(ordered) - rank < TAIL_BEYOND:
        return None
    return ordered[rank - 1]


def timings(latencies, end_s, percentile, scale=1.0):
    """Throughput and latencies of op times plus `end_s` seconds of
    end-of-block steps, all times multiplied by `scale`."""
    tail_s = tail(latencies, percentile)
    return {
        "ops_per_s": len(latencies) / (sum(latencies) + end_s) / scale,
        "op_p50_ms": statistics.median(latencies) * 1e3 * scale,
        "op_tail_ms": None if tail_s is None else tail_s * 1e3 * scale,
    }


def summarize(wl, phase):
    blocks = phase["blocks"]
    best = [min(repeats) for repeats in zip(*(b["latencies"] for b in blocks))]
    as_run = [dt for b in blocks for dt in b["latencies"]]
    end_s = [b["end_s"] for b in blocks]
    reference_s = statistics.mean(min(slot) for slot in zip(*(b["reference_s"] for b in blocks)))
    scale = REFERENCE_MS / 1e3 / reference_s
    return {
        **timings(best, min(end_s), wl.tail_percentile, scale),
        "reference_ms": reference_s * 1e3,
        "host_scale": scale,
        "fastest_unscaled": timings(best, min(end_s), wl.tail_percentile),
        "ops": phase["ops"],
        "failed": phase["failed"],
        "blocks": len(blocks),
        "busy_s": sum(as_run) + sum(end_s),
        "as_run": timings(as_run, sum(end_s), wl.tail_percentile),
        "tail_percentile": wl.tail_percentile,
        "digest": phase["digest"],
        "failures": phase["failures"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import fewmeta.cli  # noqa: F401  (set-up includes importing the CLI)

    if not Path(fewmeta.__file__).resolve().is_relative_to(src):
        sys.exit(f"fewmeta imported from {fewmeta.__file__}, not from {src}")
    import numpy as np
    import tracer
    import workloads

    work = root / ".bench_out" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        wl = workloads.make(args.workload, args.seed, root)
        wl.warm_up()
        reference_loop()
        print("ready", flush=True)
        if args.mode == "probe":
            return
        result = {"mode": args.mode}
        if args.mode == "measure":
            result["phase"] = summarize(wl, run_phase(wl, wl.min_blocks, args.seconds))
        else:
            untraced = summarize(wl, run_phase(wl, wl.trace_blocks))
            wl.stats.clear()
            with tracer.Tracer() as tr:
                traced = summarize(wl, run_phase(wl, wl.trace_blocks))
            layers = tr.metrics(traced["busy_s"], wl.stats)
            layers["trace.ops"] = traced["ops"]
            layers["trace.untraced_ops_per_s"] = untraced["ops"] / untraced["busy_s"]
            layers["trace.traced_ops_per_s"] = traced["ops"] / traced["busy_s"]
            layers["trace.overhead_ratio"] = (layers["trace.untraced_ops_per_s"]
                                              / layers["trace.traced_ops_per_s"])
            traces = root / ".bench_out" / "traces"
            traces.mkdir(exist_ok=True)
            tr.write_spans(traces / f"{args.workload}-seed{args.seed}.jsonl")
            result.update(untraced=untraced, phase=traced, layers=layers, missing_hooks=tr.missing)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["stats"] = dict(wl.stats)
        result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__}
        print(json.dumps(result), flush=True)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
