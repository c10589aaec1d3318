#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call builds the harness
(perfbench/CMakeLists.txt, which compiles the library from src/) into
.bench_build/perfbench. Every operation then runs as its own perfbench_run
process, so a crash or abort costs one failed operation instead of the
benchmark; nothing is retried.

--trace 0 repeats untimed-set-up + timed-run repetitions for --seconds and
reports the end-to-end metrics as medians over the repetitions. --trace 1
makes one untraced run, traced runs for --seconds (the bench-side wrappers
of perfbench/wrappers.h plus the library's obs counters and spans) and one
traced single-thread run, and reports the per-layer metrics (medians over
the traced runs). Every repetition's output is checked: finite loss, the
materialized-worker ceiling on the pop workloads, one result hash across
all repetitions, traced runs and thread counts, and on async_straggler the
sync-policy anchor before anything is timed.

The last line of stdout is the JSON result; the line before it is the full
report (host fingerprint, per-repetition values, sample counts), also
written to .bench_build/results/. README.md explains the workloads.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")

WORKLOADS = ("cnn_dense", "pop_1m", "pop_revisit", "async_straggler")

# name -> unit. Must match BENCHMARK.json (checked by test_run.py).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MiB",
    "final_loss": "nats",
    "sim_s": "modeled_s",
}
PER_LAYER = {
    "data.synth_s": "s",
    "data.partition_s": "s",
    "fl.engine_build_s": "s",
    "fl.eval_s": "s",
    "fl.eval_points": "count",
    "fl.engine_self_s": "s",
    "core.local_step_s": "s",
    "core.local_steps": "count",
    "core.edge_sync_s": "s",
    "core.edge_syncs": "count",
    "core.cloud_sync_s": "s",
    "core.cloud_syncs": "count",
    "core.absent_sync_s": "s",
    "core.stale_sync_s": "s",
    "core.init_worker_s": "s",
    "nn.cohort_s": "s",
    "nn.conv_fwd_s": "s",
    "nn.conv_bwd_s": "s",
    "nn.dense_fwd_s": "s",
    "nn.dense_bwd_s": "s",
    "nn.relu_pool_s": "s",
    "nn.loss_s": "s",
    "nn.im2col_bytes": "bytes",
    "tensor.gemm_gflops": "GFLOP/s",
    "tensor.gemm_peak_gflops": "GFLOP/s",
    "tensor.gemm_util": "ratio",
    "pop.store_build_s": "s",
    "pop.sample_s": "s",
    "pop.turnover_s": "s",
    "pop.spills": "count",
    "pop.restores": "count",
    "pop.spill_bytes": "bytes",
    "pop.restore_bytes": "bytes",
    "pop.restore_share": "ratio",
    "pop.slab_peak_bytes": "bytes",
    "pop.slab_file_bytes": "bytes",
    "pop.materialized_peak": "count",
    "sim.oracle_s": "s",
    "sim.oracle_queries": "count",
    "sim.plan_build_s": "s",
    "evt.self_s": "s",
    "evt.admitted": "count",
    "evt.dropped": "count",
    "evt.useful_ratio": "ratio",
    "evt.downloads_superseded": "count",
    "evt.queue_depth_max": "count",
    "evt.mean_staleness": "versions",
    "net.overlap_s": "modeled_s",
    "comm.wire_bytes": "bytes",
    "comm.messages": "count",
    "common.pool_busy_s": "s",
    "common.pool_util": "ratio",
    "common.thread_speedup": "ratio",
    "obs.trace_overhead": "ratio",
    "recon.residual_s": "s",
    "recon.residual_share": "ratio",
    "recon.overlap_s": "s",
}

MIN_REPS = 3
# Every operation must end within this many seconds of the first launch, so
# the whole call stays inside its 180 s budget (the first call's build is
# extra and not counted).
DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result (build failure, no run)."""


# ---- statistics -----------------------------------------------------------

def median(values):
    return statistics.median(values)


def highest_percentile(n):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (100.0 - p) >= 1000.0 - 1e-6:  # n·(1 − p/100) ≥ 10
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile (p in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values):
    out = {"n": len(values), "median": median(values),
           "min": min(values), "max": max(values)}
    p = highest_percentile(len(values))
    if p is not None:
        out["p%g" % p] = percentile(values, p)
    return out


# ---- build and launch -----------------------------------------------------

def build(target):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build of %s failed" % target)
    return os.path.join(BUILD_DIR, target)


class Launcher:
    """Runs perfbench_run operations and counts failures."""

    def __init__(self, binary, opts, scratch):
        self.binary = binary
        self.opts = opts
        self.scratch = scratch
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0  # exits with an error (a check or a throw)
        self.errors = []
        # Host CPU time stolen by the hypervisor during each operation, as a
        # share of all CPU time (diagnostic: wall-clock noise on shared VMs).
        self.steal_shares = []
        self.last_crashed = False  # the last operation died by signal/timeout

    def __call__(self, mode, threads, traced=False):
        args = [self.binary, mode, "--workload", self.opts.workload,
                "--seed", str(self.opts.seed), "--threads", str(threads),
                "--scratch", self.scratch]
        if traced:
            args.append("--traced")
        self.attempted += 1
        self.last_crashed = True
        timeout = self.remaining()
        steal0 = cpu_steal()
        try:
            p = subprocess.run(args, capture_output=True, text=True,
                               timeout=max(timeout, 1.0))
            steal1 = cpu_steal()
            if steal0 and steal1 and steal1[1] > steal0[1]:
                self.steal_shares.append(
                    (steal1[0] - steal0[0]) / (steal1[1] - steal0[1]))
        except subprocess.TimeoutExpired:
            return self._fail("%s timed out after %.0f s" % (mode, timeout))
        finally:
            # A crashed repetition may leave its spill file behind.
            for name in os.listdir(self.scratch):
                os.remove(os.path.join(self.scratch, name))
        if p.returncode != 0:
            if p.returncode > 0:
                self.last_crashed = False
                self.check_failures += 1
                how = "exit %d" % p.returncode
            else:
                how = "signal %d" % -p.returncode
            return self._fail("%s %s: %s" % (mode, how, p.stderr.strip()[-400:]))
        self.last_crashed = False
        return json.loads(p.stdout.strip().splitlines()[-1])

    def until_done(self, mode, threads, traced=False):
        """Launch again after a crash, which stays counted as failed; a
        failed check is final."""
        for _ in range(MIN_REPS):
            r = self(mode, threads, traced)
            if r is not None or not self.last_crashed:
                return r
        return None

    def remaining(self):
        return self.deadline - time.monotonic()

    def _fail(self, reason):
        self.failed += 1
        self.errors.append(reason)
        return None


def cpu_steal():
    """(steal ticks, total ticks) of the host CPU line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
        return (ticks[7], sum(ticks)) if len(ticks) > 7 else None
    except (OSError, ValueError):
        return None


def host_fingerprint():
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown",
            "cpu_avx2": False, "cpu_fma": False, "git_commit": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and info["cpu_model"] == "unknown":
                    info["cpu_model"] = value.strip()
                elif key == "flags":
                    flags = value.split()
                    info["cpu_avx2"] = "avx2" in flags
                    info["cpu_fma"] = "fma" in flags
    except OSError:
        pass
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            info["git_commit"] = p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return info


# ---- the two modes --------------------------------------------------------

def check_agreement(reps, report):
    """Every repetition must reproduce the same result bit for bit."""
    hashes = [r["hash"] for r in reps]
    majority = max(set(hashes), key=hashes.count)
    outliers = [h for h in hashes if h != majority]
    report["hashes"] = hashes
    for key in ("samples", "final_loss", "sim_s"):
        if len({r[key] for r in reps}) != 1:
            report.setdefault("disagree", []).append(key)
    return len(outliers), not outliers and "disagree" not in report


def measure_untraced(launch, opts, threads, report):
    reps = []
    start = time.monotonic()
    last = 0.0
    while len(reps) < MIN_REPS or time.monotonic() - start < opts.seconds:
        if launch.remaining() < 2 * last or launch.attempted > 200:
            break
        t0 = time.monotonic()
        r = launch("rep", threads)
        last = time.monotonic() - t0
        if r is not None:
            reps.append(r)
        elif len(reps) == 0 and launch.failed >= MIN_REPS:
            break
    if not reps:
        raise BenchError("every repetition failed: %s" % launch.errors[-1])
    mismatched, agree = check_agreement(reps, report)
    launch.failed += mismatched
    values = {
        "setup_s": [r["setup_s"] for r in reps],
        "run_s": [r["run_s"] for r in reps],
        "run_cpu_s": [r["run_cpu_s"] for r in reps],
        "samples_per_s": [r["samples"] / r["run_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "final_loss": [r["final_loss"] for r in reps],
        "sim_s": [r["sim_s"] for r in reps],
    }
    report["samples_per_run"] = reps[0]["samples"]
    report["repetitions"] = values
    report["summary"] = {k: summarize(v) for k, v in values.items()}
    metrics = {k: median(v) for k, v in values.items() if k in END_TO_END}
    return metrics, agree


def measure_traced(launch, opts, threads, report):
    start = time.monotonic()
    base = launch.until_done("rep", threads)
    traced = []
    while not traced or time.monotonic() - start < opts.seconds:
        # Leave room for the single-thread run (~4x a pool-size run).
        if launch.remaining() < 60 or launch.attempted > 50:
            break
        r = launch("rep", threads, traced=True)
        if r is None and launch.failed >= MIN_REPS:
            break
        if r is not None:
            traced.append(r)
    single = launch.until_done("rep", 1, traced=True)
    if base is None or not traced or single is None:
        raise BenchError("traced measurement incomplete: %s"
                         % "; ".join(launch.errors))
    reps = [base] + traced + [single]
    mismatched, agree = check_agreement(reps, report)
    launch.failed += mismatched
    layers = {k: median([r["layers"][k] for r in traced])
              for k in PER_LAYER if k in traced[0]["layers"]}
    traced_run_s = median([r["run_s"] for r in traced])
    layers["common.thread_speedup"] = single["run_s"] / traced_run_s
    layers["obs.trace_overhead"] = traced_run_s / base["run_s"]
    report["traced_runs"] = len(traced)
    report["untraced_run_s"] = base["run_s"]
    report["single_thread_run_s"] = single["run_s"]
    missing = [k for k in PER_LAYER if k not in layers]
    if missing:
        raise BenchError("per-layer metrics missing: %s" % ", ".join(missing))
    return layers, agree


def run_benchmark(opts):
    binary = build("perfbench_run")
    threads = len(os.sched_getaffinity(0))
    scratch = os.path.join(SCRATCH_DIR, str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    report = {"workload": opts.workload, "seed": opts.seed,
              "seconds": opts.seconds, "trace": opts.trace,
              "threads": threads, "host": host_fingerprint()}
    build_info = subprocess.run([binary, "build-info"], capture_output=True,
                                text=True, timeout=30)
    report["build"] = json.loads(build_info.stdout)
    launch = Launcher(binary, opts, scratch)
    try:
        anchor_ok = True
        if opts.workload == "async_straggler":
            # Checked before timing: a speed over a broken baseline is void.
            anchor_ok = launch.until_done("anchor", threads) is not None
            report["sync_anchor_identical"] = anchor_ok
        if opts.trace:
            metrics, agree = measure_traced(launch, opts, threads, report)
            units = PER_LAYER
        else:
            metrics, agree = measure_untraced(launch, opts, threads, report)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["errors"] = launch.errors
    report["host_steal_share"] = launch.steal_shares
    result = {
        # Crashes and timeouts count as failed operations; `correct` is
        # about the outputs: every check passed and all results agree.
        "correct": bool(anchor_ok and agree and not launch.check_failures),
        "attempted": launch.attempted,
        "failed": launch.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    report["result"] = result
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (opts.workload, opts.seed, opts.trace)
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))


def run_selftest():
    binary = build("perfbench_selftest")
    code = subprocess.run([binary]).returncode
    tests = subprocess.run([sys.executable, "-m", "unittest", "-v", "test_run"],
                           cwd=HERE).returncode
    return 1 if code or tests else 0


def terminate(signum, frame):
    # Raising inside subprocess.run kills and reaps the running child, and
    # run_benchmark's cleanup removes the scratch directory.
    raise BenchError("terminated by signal %d" % signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness self-tests")
    opts = ap.parse_args(argv)
    try:
        if opts.selftest:
            return run_selftest()
        if opts.workload is None:
            ap.error("--workload is required")
        if opts.seed < 0 or opts.seconds < 1:
            ap.error("--seed must be >= 0 and --seconds >= 1")
        run_benchmark(opts)
        return 0
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
