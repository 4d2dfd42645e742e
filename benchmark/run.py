#!/usr/bin/env python3
"""Repo benchmark entry point: builds AFEX from source, runs one workload in
a fresh pinned process on an in-memory sandbox, checks every campaign's
record digest, and prints the metrics as one JSON line (last line of
stdout).

  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 benchmark/run.py --self-test
  python3 benchmark/run.py --record-goldens --seeds 1-10 [--seconds S]

See benchmark/README.md for the workloads, metrics and run hygiene.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
GOLDEN_FILE = os.path.join(BENCH_DIR, "golden.json")

WORKLOADS = ["sim-docstore-resume", "real-walutil-persistent", "real-txengine-recovery"]

END_TO_END = {
    "tests_per_sec": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "unique_failures": "count",
    "time_to_bugs_s": "s",
}

PER_LAYER = {
    "core.session.step_s": "s",
    "core.session.other_s": "s",
    "core.explorer.next_s": "s",
    "core.explorer.report_s": "s",
    "core.explorer.calls": "count",
    "core.trigger_share": "share",
    "sim.run_s": "s",
    "sim.steps_per_s": "1/s",
    "exec.run_s": "s",
    "exec.run_p50_ms": "ms",
    "exec.run_p99_ms": "ms",
    "exec.run_samples": "count",
    "exec.afex_cpu_s": "s",
    "exec.target_cpu_s": "s",
    "exec.forkserver_restarts": "count",
    "exec.timeouts": "count",
    "exec.start_errors": "count",
    "exec.phase.plan_write_s": "s",
    "exec.phase.fork_exec_s": "s",
    "exec.phase.child_wait_s": "s",
    "exec.phase.feedback_read_s": "s",
    "exec.phase.scratch_cleanup_s": "s",
    "exec.phase.fs_roundtrip_s": "s",
    "exec.phase.fs_restart_s": "s",
    "exec.phase.recovery_run_s": "s",
    "exec.phase.verify_s": "s",
    "campaign.append_s": "s",
    "campaign.append_calls": "count",
    "campaign.bytes_per_record": "B",
    "campaign.open_s": "s",
    "campaign.replay_s": "s",
    "campaign.replay_records_per_s": "1/s",
    "analysis.profile_s": "s",
    "host.steal_share": "share",
    "trace.overhead_share": "share",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(REPO_ROOT, target)


def build():
    """Configures and builds campaign_bench; returns its path."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no AFEX sources next to the benchmark (expected src/)")
    cmake_dir = os.path.join(build_dir(), "cmake")
    configure = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", cmake_dir, "-j", jobs, "--target", "campaign_bench"]
    for cmd in (configure, compile_cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "campaign_bench")


def pin_cpu():
    """Pins this process (and every child it starts) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tmpfs_wrapper(mount_dir):
    """Command prefix that runs a child in a private mount namespace with a
    tmpfs mounted on mount_dir (inside the checkout); [] when the host does
    not allow it, and the sandbox stays on the checkout's file system."""
    if not shutil.which("unshare"):
        return []
    script = 'mount -t tmpfs -o size=256m,mode=0700 afex-bench "$0" && exec "$@"'
    prefix = ["unshare", "--user", "--map-root-user", "--mount", "sh", "-c", script, mount_dir]
    try:
        probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return []
    return prefix if probe.returncode == 0 else []


def read_steal():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs campaign_bench once; returns (its parsed JSON line, host info)."""
    work_dir = os.path.join(build_dir(), "work", workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cpu = pin_cpu()
    cmd = tmpfs_wrapper(work_dir) + [
        binary, "--workload=" + workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
        "--trace=%d" % trace, "--work-dir=" + work_dir,
        "--trace-dir=" + os.path.join(build_dir(), "traces")]
    steal0, total0 = read_steal()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=170)
    steal1, total1 = read_steal()
    shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError("campaign_bench exited with status %d" % done.returncode)
    raw = done.stdout.strip().splitlines()[-1]
    result = json.loads(raw)
    results_dir = os.path.join(build_dir(), "results")
    os.makedirs(results_dir, exist_ok=True)
    raw_name = "%s-seed%d-trace%d.json" % (workload, seed, trace)
    with open(os.path.join(results_dir, raw_name), "w") as f:
        f.write(raw + "\n")
    host = {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "pinned_cpu": cpu,
        "sandbox_fs": result["sandbox_fs"],
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
    }
    return result, host


def load_goldens():
    with open(GOLDEN_FILE) as f:
        return json.load(f)


def check_digests(result, goldens):
    """Returns (campaigns whose digest mismatched, digests with no golden)."""
    table = goldens.get(result["workload"], {})
    mismatched, unknown = [], []
    for c in result["campaigns"]:
        want = table.get(str(c["seed"]))
        if want is None:
            unknown.append(c)
        elif want != c["digest"] or not c["resume_matches"]:
            mismatched.append(c)
    return mismatched, unknown


def campaign_rate(campaigns):
    """Live tests executed per second of live campaign work."""
    return sum(c["tests"] for c in campaigns) / sum(c["live_s"] for c in campaigns)


def decile(values, k):
    """The k-th decile (k in 1..9) of values, interpolated within their range."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def end_to_end(result):
    """Each timing is the slow decile of its per-campaign values: the host's
    fast bursts speed single campaigns up for seconds at a time, and the slow
    decile ignores them (README "Host speed"). Throughput and set-up use every
    campaign; the search metrics use the reference panel only (README
    "Campaign seeds")."""
    campaigns = [c for c in result["campaigns"] if not c["traced"]]
    panel = [c for c in campaigns if c["panel"]]
    # A campaign that misses a planted bug counts its whole live time.
    ttb_by_seed = {}
    for c in panel:
        ttb = c["time_to_bugs_s"] if c["time_to_bugs_s"] >= 0 else c["live_s"]
        ttb_by_seed.setdefault(c["seed"], []).append(ttb)
    return {
        "tests_per_sec": decile((c["tests"] / c["live_s"] for c in campaigns), 1),
        "setup_s": decile((c["setup_s"] for c in campaigns), 9),
        "peak_rss_mb": result["peak_rss_mb"],
        "unique_failures": statistics.median(c["unique_failures"] for c in panel),
        "time_to_bugs_s": statistics.mean(decile(v, 9) for v in ttb_by_seed.values()),
    }


def per_layer(result, host):
    layers = dict(result["layers"])
    traced = [c for c in result["campaigns"] if c["traced"]]
    plain = [c for c in result["campaigns"] if not c["traced"]]
    layers["trace.overhead_share"] = (1.0 - campaign_rate(traced) / campaign_rate(plain)
                                      if traced and plain else 0.0)
    layers["host.steal_share"] = host["steal_share"]
    return layers


def measure(args):
    binary = build()
    result, host = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    mismatched, unknown = check_digests(result, load_goldens())
    for c in mismatched:
        log("DIGEST MISMATCH %s campaign seed %d: %s" % (args.workload, c["seed"], c["digest"]))
    if unknown:
        print("digests (no golden for these seeds): " +
              json.dumps({str(c["seed"]): c["digest"] for c in unknown}))
    print("host: " + json.dumps(host))
    failed_tests = sum(c["failed_ops"] for c in result["campaigns"])
    failed_tests += sum(c["tests"] - c["failed_ops"] for c in mismatched)
    values = end_to_end(result) if not args.trace else per_layer(result, host)
    units = END_TO_END if not args.trace else PER_LAYER
    missing = [name for name in units if name not in values]
    correct = not mismatched and not missing and all(
        c["resume_matches"] for c in result["campaigns"])
    if not args.trace:
        correct = correct and all(0 < v < float("inf") for v in values.values())
    report = {
        "correct": correct,
        "attempted": sum(c["tests"] for c in result["campaigns"]),
        "failed": failed_tests,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0 if correct else 1


def self_test(args):
    """Short pass over every workload: golden digests, every metric named
    with a unit, and the layer-dominance predictions of the README."""
    binary = build()
    goldens = load_goldens()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, host = run_workload(binary, workload, 1, args.seconds, trace)
            mismatched, unknown = check_digests(result, goldens)
            if mismatched or unknown:
                problems.append("%s: %d mismatched, %d unchecked digests"
                                % (workload, len(mismatched), len(unknown)))
            values = end_to_end(result) if not trace else per_layer(result, host)
            units = END_TO_END if not trace else PER_LAYER
            for name in units:
                if name not in values:
                    problems.append("%s: metric %s missing" % (workload, name))
            if not trace:
                print("%s: %s" % (workload, ", ".join(
                    "%s=%.6g %s" % (name, values[name], unit) for name, unit in units.items())))
                continue
            step = values["core.session.step_s"]
            explorer = values["core.explorer.next_s"] + values["core.explorer.report_s"]
            print("%s: step %.4fs explorer %.1f%% sim %.4fs exec %.4fs append %.4fs"
                  % (workload, step, 100 * explorer / step, values["sim.run_s"],
                     values["exec.run_s"], values["campaign.append_s"]))
            if workload.startswith("real-"):
                if values["exec.run_s"] < 0.9 * step:
                    problems.append("%s: exec.run_s is under 90%% of Step" % workload)
                if explorer >= 0.05 * step:
                    problems.append("%s: core.explorer.* is 5%% or more of Step" % workload)
            else:
                others = [values[k] for k in ("core.explorer.next_s", "core.explorer.report_s",
                                              "core.session.other_s", "campaign.append_s",
                                              "campaign.open_s", "campaign.replay_s")]
                if values["sim.run_s"] <= max(others):
                    problems.append("%s: sim.run_s is not the largest layer" % workload)
            if workload == "real-walutil-persistent":
                for name in ("campaign.append_s", "campaign.open_s", "campaign.replay_s"):
                    if values[name] != 0:
                        problems.append("%s: %s is not zero" % (workload, name))
    for problem in problems:
        log("self-test: " + problem)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def record_goldens(args):
    """Rewrites golden.json with the per-campaign digests of the given seeds."""
    binary = build()
    first, last = (int(x) for x in args.seeds.split("-"))
    goldens = {}
    for workload in WORKLOADS:
        table = goldens.setdefault(workload, {})
        for seed in range(first, last + 1):
            result, _ = run_workload(binary, workload, seed, args.seconds, 0)
            for c in result["campaigns"]:
                if not c["resume_matches"] or table.get(str(c["seed"]), c["digest"]) != c["digest"]:
                    raise RuntimeError("%s campaign seed %d: records are not reproducible"
                                       % (workload, c["seed"]))
                table[str(c["seed"])] = c["digest"]
    with open(GOLDEN_FILE, "w") as f:
        json.dump({w: dict(sorted(t.items(), key=lambda kv: int(kv[0])))
                   for w, t in sorted(goldens.items())}, f, indent=0)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 4 if args.self_test else 20
    try:
        if args.self_test:
            return self_test(args)
        if args.record_goldens:
            return record_goldens(args)
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("benchmark: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
