#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source, runs one workload
and prints its metrics, ending with one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # the benchmark's own self-test

Run from the repository root.  --trace 0 runs the untraced binary and
reports the end-to-end metrics.  --trace 1 spends half the budget in the
untraced binary and half in the traced one (spans around the benchmark's
calls into the runtime, counting operator new) and reports the per-layer
metrics, each printed with the end-to-end metric it should move, plus
trace.overhead_frac (traced vs untraced wall_s).
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
PKG = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")

WORKLOADS = ("pingpong-shm", "flood-commthread", "taskbench-smp")

# name -> unit.  failed_frac is printed too, but is not a metric of the
# result object: on a correct run it is 0, and `failed` carries it.
END_TO_END = {
    "setup_s": "s",
    "teardown_s": "s",
    "wall_s": "s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "latency_4k_p50_us": "us",
    "msg_rate_mmsgs": "Mmsg/s",
    "overhead_ns_per_msg": "ns",
    "cpu_us_per_msg": "us",
    "peak_rss_mib": "MiB",
}

PP, FL, TB = WORKLOADS
# name -> (unit, end-to-end metrics it should move, workloads where it does)
PER_LAYER = {
    "converse.alloc_message_ns.p50": ("ns", "msg_rate_mmsgs", (FL,)),
    "converse.send_message_ns.p50": ("ns", "latency_p50_us, msg_rate_mmsgs", (PP, FL)),
    "converse.free_message_ns.p50": ("ns", "msg_rate_mmsgs", (FL,)),
    "converse.deliver_ns.p50": ("ns", "latency_p50_us", (PP, FL)),
    "converse.deliver_ns.p99": ("ns", "latency_p99_us", (PP, FL)),
    "converse.self_ns_per_msg": ("ns", "latency_p50_us, msg_rate_mmsgs", (PP, FL)),
    "bench.self_ns_per_msg": ("ns", "wall_s (the benchmark's own share)", WORKLOADS),
    "converse.machine_ctor_s": ("s", "setup_s", WORKLOADS),
    "converse.first_message_s": ("s", "setup_s", WORKLOADS),
    "converse.run_return_s": ("s", "teardown_s", WORKLOADS),
    "converse.machine_dtor_s": ("s", "teardown_s", WORKLOADS),
    "pe.idle.probes_per_msg": ("count", "cpu_us_per_msg", WORKLOADS),
    "pe.msgs.executed_per_msg": ("count", "overhead_ns_per_msg", (TB,)),
    "pe.busy_frac": ("frac", "overhead_ns_per_msg", (TB,)),
    "comm.parks_per_msg": ("count", "msg_rate_mmsgs, cpu_us_per_msg", (FL,)),
    "comm.sweeps_per_msg": ("count", "msg_rate_mmsgs, cpu_us_per_msg", (FL,)),
    "comm.backpressure_stalls": ("count", "msg_rate_mmsgs", (FL,)),
    "net.fifo.spills_per_msg": ("count", "msg_rate_mmsgs", (FL,)),
    "net.transport.polls_per_msg": ("count", "cpu_us_per_msg", (PP,)),
    "net.transport.ring_full": ("count", "latency_p99_us", (PP,)),
    "heap.allocs_per_msg": ("count", "latency_p50_us, msg_rate_mmsgs, peak_rss_mib", (PP, FL)),
    "heap.bytes_per_msg": ("B", "latency_p50_us, msg_rate_mmsgs, peak_rss_mib", (PP, FL)),
    "alloc.heap.allocs_per_msg": ("count", "msg_rate_mmsgs", (FL,)),
    "alloc.pool.hits_per_msg": ("count", "msg_rate_mmsgs", (FL,)),
    "alloc.slab.hits_per_msg": ("count", "msg_rate_mmsgs", (FL,)),
    "tram.batched_frac": ("frac", "msg_rate_mmsgs up; overhead_ns_per_msg not worse", (FL, TB)),
    "tram.flush.timeout_per_batch": ("count", "msg_rate_mmsgs up; overhead_ns_per_msg not worse", (FL, TB)),
    "taskbench.compute_frac": ("frac", "context for overhead_ns_per_msg", (TB,)),
    "trace.overhead_frac": ("frac", "none: cost of tracing itself", WORKLOADS),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build both binaries; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PKG, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=840)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"perfbench: build step failed: {exc}")
            return False
        if r.returncode != 0:
            log(f"perfbench: build failed: {' '.join(cmd)}")
            return False
    return True


def run_binary(binary, workload, seed, seconds, inject_fault):
    """Run one binary; returns (metrics, units, attempted, failed, rc)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, binary), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--out-dir", OUT]
    if inject_fault:
        cmd.append("--inject-fault")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=seconds * 1.5 + 55)
    except subprocess.TimeoutExpired:
        # The binary's own watchdog should have fired first: take down
        # the whole process group (the forked peer rank too) and reap it.
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log("perfbench: run timed out")
        remove_leftover_segments(proc.pid)
        return {}, {}, 0, 0, -1
    remove_leftover_segments(proc.pid)
    metrics, units, attempted, failed = {}, {}, 0, 0
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            metrics[parts[1]] = float(parts[2])
            units[parts[1]] = parts[3]
        elif len(parts) == 3 and parts[0] == "ops":
            attempted, failed = int(parts[1]), int(parts[2])
        elif parts and parts[0] == "info":
            log(f"  {binary}: {' '.join(parts[1:])}")
    return metrics, units, attempted, failed, proc.returncode


def remove_leftover_segments(pid):
    """A killed run may leave its shm segments (named after its pid)."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return
    for name in names:
        if name.startswith(f"bgq-pb{pid}x"):
            log(f"perfbench: removing leftover segment {name}")
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass


def measure(workload, seed, seconds, trace, inject_fault):
    """Run the workload; returns (result dict, ok)."""
    if trace:
        half = max(seconds / 2.0, 1.0)
        base, _, att0, fail0, rc0 = run_binary("perfbench", workload, seed,
                                               half, inject_fault)
        traced, units, att1, fail1, rc1 = run_binary(
            "perfbench_traced", workload, seed, half, inject_fault)
        rc = rc0 or rc1
        attempted, failed = att0 + att1, fail0 + fail1
        if base.get("wall_s") and "wall_s" in traced:
            traced["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0
            units["trace.overhead_frac"] = "frac"
        wanted = {k: v[0] for k, v in PER_LAYER.items()}
        metrics = traced
    else:
        metrics, units, attempted, failed, rc = run_binary(
            "perfbench", workload, seed, seconds, inject_fault)
        wanted = END_TO_END
    if rc != 0 or attempted == 0:
        log(f"perfbench: {workload} exited with code {rc}")
        if attempted:
            log(f"perfbench: failed_frac = {failed / attempted:.6g} "
                f"({failed} of {attempted} operations, unfinished ones included)")
        return None, False
    result = {}
    complete = True
    for name, unit in wanted.items():
        v = metrics.get(name)
        if v is None or not math.isfinite(v) or units.get(name) != unit:
            log(f"perfbench: metric {name} missing or malformed")
            complete = False
            continue
        result[name] = {"value": v, "unit": unit}
    if not trace:
        for name in END_TO_END:
            if name in result and result[name]["value"] <= 0:
                log(f"perfbench: metric {name} is not positive")
                complete = False
    return {"correct": complete and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": result}, complete


def report(workload, trace, res):
    frac = res["failed"] / res["attempted"]
    print(f"workload {workload}  trace {int(trace)}")
    print(f"  failed_frac = {frac:.6g} ({res['failed']} of {res['attempted']} operations)")
    for name, m in res["metrics"].items():
        line = f"  {name} = {m['value']:.6g} {m['unit']}"
        if trace:
            _, moves, where = PER_LAYER[name]
            line += f"   -> {moves} [{', '.join(where)}]"
        print(line)


def smoke():
    """Every metric appears with its unit, a clean run has no failures,
    and a deliberately wrong expectation is reported as failures."""
    ok = True
    for w in WORKLOADS:
        for trace in (False, True):
            res, complete = measure(w, 1, 2.0, trace, False)
            good = res is not None and complete and res["failed"] == 0
            log(f"smoke {w} trace={int(trace)} clean: {'ok' if good else 'FAIL'}")
            ok = ok and good
        res, _ = measure(w, 1, 2.0, False, True)
        good = res is not None and res["failed"] > 0 and not res["correct"]
        log(f"smoke {w} injected fault detected: {'ok' if good else 'FAIL'}")
        ok = ok and good
    print("smoke: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one expected payload/digest per episode")
    ap.add_argument("--smoke", action="store_true",
                    help="run the benchmark's self-test")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: run from the repository root (src/ not found)")
        return 1
    if not build():
        return 1
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    start = time.monotonic()
    res, _ = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.inject_fault)
    if res is None:
        return 1
    report(args.workload, bool(args.trace), res)
    log(f"perfbench: {args.workload} took {time.monotonic() - start:.1f} s")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
