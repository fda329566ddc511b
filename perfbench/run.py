#!/usr/bin/env python3
"""End-to-end benchmark of the GeoShuffle simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) in Release mode, then runs the
named workload through the library's public API in child processes of the
geobench binary, one process per pass, so each pass's peak RSS and CPU
time are its own:

  * with --trace 0, untraced passes repeat while the next one is expected
    to end within --seconds (at least MIN_PASSES); host metrics are the
    median over passes;
  * with --trace 1, one untraced and one traced pass run; the traced pass
    adds the per-layer metrics and the layer replays.

The first pass also computes every job's expected Save acks from the same
inputs without the engine, after its timed run and before its timed
teardown. Every job's acks are compared with that reference, and every
pass's simulated results must be identical, traced or not. A job that
fails either check, or whose pass aborts or times out, counts as failed.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. The line before it ("meta: {...}") records the host
and build. Build output and diagnostics go to stderr.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("wordcount-agg", "terasort-spark", "pagerank-service",
             "sort-coded-faults")
MIN_PASSES = 3
# Every process must end within this many seconds of the start of a run
# that did not have to build.
RUN_BUDGET_S = 170.0
MIB = 1024.0 * 1024.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
    "sim_jct_p50_s": "s", "sim_jct_p80_s": "s", "sim_makespan_s": "s",
    "cross_dc_mib": "MiB", "egress_usd": "USD",
}

PER_LAYER_UNITS = {
    "workloads.build_s": "s", "workloads.input_mib": "MiB",
    "workloads.mib_per_s": "MiB/s",
    "exec.compute_s": "s", "exec.records_in": "count",
    "exec.records_out": "count", "exec.combine_ratio": "ratio",
    "exec.shuffle_mib": "MiB", "exec.ns_per_record": "ns",
    "threadpool.replay_speedup": "ratio", "threadpool.parallelism": "ratio",
    "engine.run_s": "s", "engine.teardown_s": "s", "engine.report_s": "s",
    "engine.tasks": "count", "engine.task_failures": "count",
    "engine.fetch_failures": "count", "engine.map_resubmissions": "count",
    "engine.coded_groups": "count",
    "sched.replay_s": "s", "sched.us_per_assign": "us",
    "sched.tasks_assigned": "count", "sched.peak_queue_depth": "count",
    "sched.queue_wait_p50_s": "s",
    "netsim.replay_s": "s", "netsim.flows": "count",
    "netsim.peak_active_flows": "count", "netsim.rate_recomputes": "count",
    "netsim.solver_flows": "count", "netsim.flow_reschedules": "count",
    "netsim.parallel_solves": "count", "netsim.us_per_recompute": "us",
    "simcore.events": "count", "simcore.cancelled_ratio": "ratio",
    "simcore.heap_compactions": "count", "simcore.us_per_event": "us",
    "storage.puts": "count", "storage.mib": "MiB", "disk.write_mib": "MiB",
    "trace.overhead_ratio": "ratio",
}

# Metrics computed from a replay, withheld when that replay diverges.
REPLAY_METRICS = {
    "exec": ("exec.compute_s", "exec.records_in", "exec.records_out",
             "exec.combine_ratio", "exec.shuffle_mib", "exec.ns_per_record",
             "threadpool.replay_speedup"),
    "sched": ("sched.replay_s", "sched.us_per_assign", "sched.tasks_assigned",
              "sched.peak_queue_depth", "sched.queue_wait_p50_s"),
    "netsim": ("netsim.replay_s", "netsim.flows", "netsim.us_per_recompute"),
}

# Simulated per-job results that must repeat exactly across passes.
SIM_JOB_KEYS = ("submitted", "started", "completed", "cross_dc_bytes")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build(threads):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("GeoShuffle sources not found: %s is missing"
                         % os.path.join("src", "CMakeLists.txt"))
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(threads)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    binary = os.path.join(out, "geobench")
    if not os.access(binary, os.X_OK):
        raise BenchError("build produced no geobench binary")
    return binary


def cxx_flags_from_cache():
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_FLAGS:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over src/ and perfbench/, identifying the code measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


class Runner:
    def __init__(self, binary, workload, seed, threads, deadline):
        self.binary = binary
        self.args = ["--workload=" + workload, "--seed=%d" % seed,
                     "--threads=%d" % threads]
        self.deadline = deadline

    def child(self, mode, check=False):
        """Runs one geobench process; returns its JSON, or None on failure."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            log("no time left for a %s pass" % mode)
            return None
        cmd = [self.binary, "--mode=" + mode] + self.args
        if check:
            cmd.append("--check=1")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            log("%s pass timed out after %.0f s" % (mode, timeout))
            return None
        if proc.stderr:
            sys.stderr.write(proc.stderr[-4000:])
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log("%s pass failed with exit code %d" % (mode, proc.returncode))
            return None
        return json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    v = sorted(values)
    pos = q / 100.0 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] * (1 - (pos - lo)) + v[hi] * (pos - lo)


def check_passes(passes, reference):
    """Counts attempted and failed jobs over all passes.

    A job fails when its pass did not complete, its acks differ from the
    reference, or its simulated results differ from the first completed
    pass (or from any earlier pass, traced or not)."""
    num_jobs = len(reference)
    attempted = failed = 0
    baseline = None
    for p in passes:
        attempted += num_jobs
        if p is None or len(p["jobs"]) != num_jobs:
            failed += num_jobs
            continue
        sims = [tuple(j[k] for k in SIM_JOB_KEYS) for j in p["jobs"]]
        totals = (p["egress_usd"], p["makespan_s"])
        if baseline is None:
            baseline = (sims, totals)
        for i, job in enumerate(p["jobs"]):
            ok = job["acks"] == reference[i] and sims[i] == baseline[0][i]
            ok = ok and totals == baseline[1]
            failed += 0 if ok else 1
    return attempted, failed


def end_to_end(passes):
    done = [p for p in passes if p is not None]
    first = done[0]
    jcts = [j["completed"] - j["started"] for j in first["jobs"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in done),
        "wall_s": statistics.median(p["wall_s"] for p in done),
        "cpu_s": statistics.median(p["cpu_s"] for p in done),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in done),
        "sim_jct_p50_s": percentile(jcts, 50),
        "sim_jct_p80_s": percentile(jcts, 80),
        "sim_makespan_s": first["makespan_s"],
        "cross_dc_mib": sum(j["cross_dc_bytes"] for j in first["jobs"]) / MIB,
        "egress_usd": first["egress_usd"],
    }


def per_layer(untraced, traced):
    layers = dict(traced["layers"])
    layers["threadpool.parallelism"] = untraced["cpu_s"] / (
        untraced["setup_s"] + untraced["wall_s"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"] - 1
    print("sched peak queue depth: replay %d, run %d"
          % (layers["sched.peak_queue_depth"], traced["run_peak_queue_depth"]))
    diverged = []
    for layer, error in sorted(traced["replay_errors"].items()):
        print("replay diverged: %s: %s (its metrics are withheld)"
              % (layer, error))
        diverged.append(layer)
        for name in REPLAY_METRICS[layer]:
            layers.pop(name, None)
    return layers, diverged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    threads = cpu_count()
    try:
        binary = build(threads)
        start = time.monotonic()
        meta = json.loads(subprocess.run(
            [binary, "--mode=meta"], capture_output=True, text=True,
            check=True).stdout.strip().splitlines()[-1])
        flags = cxx_flags_from_cache()
        if meta["sanitizer"] != "none" or "-fsanitize" in flags:
            raise BenchError("refusing to report timings from a sanitizer "
                             "build (%s %s)" % (meta["sanitizer"], flags))
        if meta["build_type"] != "Release":
            raise BenchError("refusing to report timings from a %s build"
                             % meta["build_type"])
        meta.update(workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, nproc=threads,
                    cxx_flags=flags, git_commit=git_commit(),
                    source_sha256=source_digest())
        print("meta: " + json.dumps(meta, sort_keys=True), flush=True)

        runner = Runner(binary, args.workload, args.seed, threads,
                        start + RUN_BUDGET_S)
        if args.trace:
            untraced = runner.child("run", check=True)
            traced = runner.child("traced")
            passes = [untraced, traced]
            if untraced is None or traced is None:
                raise BenchError("the untraced or traced pass failed")
            metrics, diverged = per_layer(untraced, traced)
            units = PER_LAYER_UNITS
        else:
            passes = []
            measure_start = time.monotonic()
            while True:
                passes.append(runner.child("run", check=not passes))
                spent = time.monotonic() - measure_start
                per_pass = spent / len(passes)
                if passes[-1] is None or (len(passes) >= MIN_PASSES and
                                          spent + per_pass > args.seconds):
                    break
            if all(p is None for p in passes):
                raise BenchError("no pass completed")
            metrics, diverged = end_to_end(passes), []
            units = END_TO_END_UNITS
            print("passes: %d" % len(passes))
    except (BenchError, subprocess.CalledProcessError) as e:
        log("error: %s" % e)
        return 1

    reference = next(([j["expected"] for j in p["jobs"]] for p in passes
                      if p is not None and "expected" in p["jobs"][0]), None)
    if reference is None:
        log("error: no pass computed the reference")
        return 1
    attempted, failed = check_passes(passes, reference)
    for name in sorted(metrics):
        print("%-28s %16.6f %s" % (name, metrics[name], units[name]))
    print("jobs_failed %d/%d" % (failed, attempted))
    result = {
        "correct": failed == 0 and not diverged,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
