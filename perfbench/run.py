#!/usr/bin/env python3
"""Repository benchmark for the Tiger reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload ring_control --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and with it ../src) into .bench_build, or into
$CARGO_TARGET_DIR when that is set, then runs repetitions of one workload,
each in a fresh tiger_perfbench process, until the measured windows add up to
--seconds. With --trace 0 it prints the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics, which come from repetitions with the
self-profiler on. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exit status 1 means a
correctness check failed; 2 means the benchmark could not run at all.

See perfbench/README.md for the workloads, the metrics and the checks.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ring_control", "vod_churn", "failover_observed")
MIN_REPS = 3          # Untraced repetitions per --trace 0 run, at least.
MIN_PAIRS = 2         # Untraced/profiled pairs per --trace 1 run, at least.
MAX_REPS = 12
WALL_CAP_S = 90       # Stop adding repetitions past this, whatever --seconds says.
REP_TIMEOUT_S = 60

# Fingerprint fields that must not move when the observability stack is off:
# it observes the protocol, it may not change what viewers get.
PROTOCOL_FIELDS = ("blocks_due", "late", "lost", "glitches_by_cause", "loss_window_s",
                   "startup_samples", "startup_s_p50", "startup_s_p99", "blocks_sent",
                   "fragments_sent", "takeovers", "rejoins", "records_received",
                   "control_bps_per_cub")

# Profiler category -> per-layer metric prefix.
CATEGORIES = {
    "vstate_encode": "core.vstate_encode",
    "vstate_decode": "core.vstate_decode",
    "schedule_apply": "schedule.apply",
    "msg_hop": "net.msg_hop",
    "timer_dispatch": "sim.timer_dispatch",
    "slot_service": "core.slot_service",
    "deschedule": "schedule.deschedule",
    "qos_audit": "stats.qos_audit",
}
ENGINE_PHASES = {
    "busy": "driver_busy_ns",
    "barrier_wait": "barrier_wait_ns",
    "merge_posts": "merge_posts_ns",
    "journal_replay": "journal_replay_ns",
    "periodic_tasks": "periodic_tasks_ns",
}
CORE_COUNTERS = ("inserts", "deschedules_applied", "blocks_sent", "server_missed_blocks",
                 "buffer_stalls", "fragments_sent", "takeovers", "rejoins", "records_received")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot run (missing sources, failed build, crashed rep)."""


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no Tiger sources under %s/src" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", "4", "--target", "tiger_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(out, "tiger_perfbench")


def run_rep(binary, workload, seed, mode, threads=None, cpu=None):
    scratch = os.path.join(build_dir(), "scratch", "%d-%s-%s" % (os.getpid(), workload, mode))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--scratch", scratch]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    try:
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=REP_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        raise BenchError("%s took more than %d s" % (" ".join(cmd), REP_TIMEOUT_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                               proc.stderr.strip()[-2000:]))
    try:
        rep = json.loads(proc.stdout)
    except ValueError as err:
        raise BenchError("%s printed no result: %s" % (" ".join(cmd), err))
    prov = rep["provenance"]
    if prov["sanitized"] or not prov["optimized"]:
        raise BenchError("refusing to time a sanitizer or unoptimised build")
    t = rep["timing"]
    rep["setup_s"] = t["construct_s"] + t["content_s"] + t["populate_s"] + t["warmup_s"]
    return rep


def provenance(rep, args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    p = dict(rep["provenance"])
    p.update({
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    if p["alloc_counting"]:
        p["note"] = "TIGER_COUNT_ALLOCS build: the atomic allocation counter adds wall time"
    return p


class Checks:
    """Collects failed correctness checks and the repetitions they implicate."""

    def __init__(self):
        self.failures = []
        self.bad_reps = set()

    def expect(self, ok, what, reps=()):
        if not ok:
            self.failures.append(what)
            self.bad_reps.update(reps)


def diff_keys(a, b):
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def check_identical(checks, reps, label):
    """Every fingerprint field is identical across `reps` (same seed)."""
    base = reps[0]["fingerprint"]
    for i, rep in enumerate(reps[1:], 1):
        diff = diff_keys(base, rep["fingerprint"])
        checks.expect(not diff, "%s rep %d (%s) differs from rep 0 in %s" %
                      (label, i, rep["mode"], ", ".join(diff)), [id(rep)])


def profile_counts(rep):
    return rep["profile_end"]["counts"]


def median(values):
    return statistics.median(values) if values else 0.0


def pace(reps):
    """Simulated seconds per wall second over the measured window.

    Every repetition of a seed does the same work in each window slice, so
    each slice's wall time is the median across repetitions; a burst of host
    noise in one repetition's slice then does not move the result.
    """
    slices = zip(*[r["timing"]["chunk_wall_s"] for r in reps])
    return reps[0]["fingerprint"]["window_sim_s"] / sum(median(list(s)) for s in slices)


def layer_metrics(prof_reps, plain_reps, noobs_reps):
    """Per-layer metrics; nanosecond figures are medians over profiled reps."""
    fp = plain_reps[0]["fingerprint"]
    rows = {}
    per_rep = []
    for rep in prof_reps:
        w, e = rep["profile_warm"], rep["profile_end"]
        total = e["times_ns"]["total_run_ns"] - w["times_ns"]["total_run_ns"]
        m = {}
        for cat, prefix in CATEGORIES.items():
            n = e["counts"]["categories"][cat] - w["counts"]["categories"][cat]
            ns = (e["times_ns"]["categories_self_ns"][cat]
                  - w["times_ns"]["categories_self_ns"][cat])
            m[prefix + ".count"] = n
            m[prefix + ".ns_per_op"] = ns / n if n else 0.0
            m[prefix + ".share"] = ns / total if total else 0.0
            if cat == "vstate_decode":
                received = rep["fingerprint"]["records_received"]
                m[prefix + ".ns_per_record"] = ns / received if received else 0.0
        for phase, key in ENGINE_PHASES.items():
            ns = e["times_ns"]["engine"][key] - w["times_ns"]["engine"][key]
            m["sim.engine.%s.share" % phase] = ns / total if total else 0.0
        windows = e["counts"]["engine"]["windows"] - w["counts"]["engine"]["windows"]
        events = e["counts"]["processed_events"] - w["counts"]["processed_events"]
        m["sim.engine.busy_imbalance_mean"] = e["derived"]["busy_imbalance_mean"]
        m["sim.engine.busy_imbalance_max"] = e["derived"]["busy_imbalance_max"]
        m["sim.engine.events_per_window"] = events / windows if windows else 0.0
        m["sim.ns_per_event"] = total / events if events else 0.0
        m["profile.attributed_fraction"] = e["derived"]["attributed_fraction"]
        per_rep.append(m)
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        # Counts agree across reps (checked); keep them whole numbers.
        rows[name] = values[0] if len(set(values)) == 1 else median(values)

    rows["sim.engine.clamped_posts"] = fp["clamped_posts"]
    rows["sim.events"] = fp["events_window"]
    for name in CORE_COUNTERS:
        rows["core." + name] = fp[name]
    rows["core.records_useful_ratio"] = (fp["records_new"] / fp["records_received"]
                                         if fp["records_received"] else 0.0)
    rows["core.mean_cub_cpu"] = fp["mean_cub_cpu"]
    rows["client.plays_requested"] = fp["plays_requested"]
    rows["client.plays_started"] = fp["plays_started"]
    rows["disk.mean_utilization"] = fp["disk_utilization"]
    for cause, n in fp["glitches_by_cause"].items():
        rows["stats.glitches." + cause] = n
    rows["obs.incidents"] = fp["incidents"]
    rows["audit.divergences"] = fp["audit_divergences"]
    rows["trace.dropped_events"] = fp["trace_dropped"]
    for phase in ("construct_s", "content_s", "populate_s", "warmup_s"):
        rows["setup." + phase] = median([r["timing"][phase] for r in plain_reps])
    rows["profile.overhead"] = 1.0 - pace(prof_reps) / pace(plain_reps)
    rows["obs.overhead"] = 1.0 - pace(plain_reps) / pace(noobs_reps) if noobs_reps else 0.0
    rows["startup_s_p50"] = fp["startup_s_p50"]
    rows["startup_s_p99"] = fp["startup_s_p99"]
    rows["startup_samples"] = fp["startup_samples"]
    rows["glitch_rate"] = ((fp["late"] + fp["lost"]) / fp["blocks_due"]
                           if fp["blocks_due"] else 0.0)
    rows["loss_window_s"] = fp["loss_window_s"]
    return rows


def end_to_end_metrics(plain_reps):
    fp = plain_reps[0]["fingerprint"]
    return {
        "sim_wall_ratio": pace(plain_reps),
        "setup_s": median([r["setup_s"] for r in plain_reps]),
        "peak_rss_mb": median([r["timing"]["peak_rss_kb"] / 1024.0 for r in plain_reps]),
        "control_bps_per_cub": fp["control_bps_per_cub"],
    }


def workload_checks(checks, workload, plain_reps, prof_reps, ref, noobs_reps, checked):
    for rep in plain_reps + prof_reps:
        fp = rep["fingerprint"]
        checks.expect(rep["timing"]["window_wall_s"] > 0, "empty measured window", [id(rep)])
        if rep["mode"] == "profiled":
            counts = rep["profile_end"]["counts"]
            checks.expect(counts["processed_events"] == fp["events_total"],
                          "profile event count disagrees with the system's", [id(rep)])
        if workload == "ring_control":
            checks.expect(fp["clamped_posts"] == 0, "sharded engine clamped posts", [id(rep)])
        if workload == "vod_churn":
            checks.expect(fp["pauses"] > 0 and fp["deschedules_applied"] > 0,
                          "churn paused no viewer", [id(rep)])
            # p99 needs at least ten samples beyond it.
            checks.expect(fp["startup_samples"] >= 1000,
                          "only %d startup samples" % fp["startup_samples"], [id(rep)])
        if workload == "failover_observed":
            checks.expect(rep["has_audit"] and fp["audit_fatal"] == 0,
                          "auditor unhealthy: %d fatal divergences" % fp["audit_fatal"],
                          [id(rep)])
            checks.expect(fp["takeovers"] > 0 and fp["rejoins"] > 0 and fp["lost"] > 0,
                          "power cut did not exercise takeover and rejoin", [id(rep)])
            checks.expect(fp["incidents"] >= 1, "SLO breach dumped no incident", [id(rep)])
    if ref is not None:
        diff = diff_keys(plain_reps[0]["fingerprint"], ref["fingerprint"])
        checks.expect(not diff, "1-thread run differs from 4-thread run in " + ", ".join(diff),
                      [id(ref)])
        if prof_reps:
            checks.expect(profile_counts(ref) == profile_counts(prof_reps[0]),
                          "1-thread profile counts differ from 4-thread", [id(ref)])
    base = plain_reps[0]["fingerprint"]
    for rep in noobs_reps + ([checked] if checked else []):
        diff = [k for k in PROTOCOL_FIELDS if rep["fingerprint"][k] != base[k]]
        checks.expect(not diff, "%s run changed protocol outputs: %s" %
                      (rep["mode"], ", ".join(diff)), [id(rep)])
    if checked is not None:
        fp = checked["fingerprint"]
        checks.expect(fp["invariant_violations"] == 0 and fp["audit_fatal"] == 0,
                      "invariant checker: %d violations" % fp["invariant_violations"],
                      [id(checked)])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        e2e_units, layer_units = load_spec()
        binary = build()
        started = time.monotonic()

        def more(reps, need, floor):
            measured = sum(r["timing"]["window_wall_s"] for r in reps)
            elapsed = time.monotonic() - started
            return len(reps) < MAX_REPS and elapsed < WALL_CAP_S and (
                len(reps) < floor or measured < need)

        # How fast one CPU of this host runs drifts by tens of percent over
        # minutes. A serial repetition is pinned to one CPU, and successive
        # repetitions rotate over all of them, so every run samples each CPU
        # alike. The sharded workload uses all four CPUs at once anyway.
        cpus = sorted(os.sched_getaffinity(0))
        count = [0]

        def rep(mode, threads=None):
            cpu = None if args.workload == "ring_control" else cpus[count[0] % len(cpus)]
            count[0] += 1
            return run_rep(binary, args.workload, args.seed, mode, threads, cpu)

        plain, prof, noobs = [], [], []
        if args.trace == 0:
            while more(plain, args.seconds, MIN_REPS):
                plain.append(rep("plain"))
        else:
            # Alternate untraced and profiled reps so drift hits both alike.
            while more(plain + prof, args.seconds, 2 * MIN_PAIRS):
                plain.append(rep("plain"))
                prof.append(rep("profiled"))
            if args.workload == "failover_observed":
                for _ in range(MIN_PAIRS):
                    noobs.append(rep("noobs"))
        # Once per traced run: the 1-thread reference of the sharded workload,
        # and the invariant-checked failover (both too slow for every run).
        ref = rep("profiled", threads=1) if args.trace and args.workload == "ring_control" else None
        checked = rep("checked") if args.trace and args.workload == "failover_observed" else None
    except BenchError as err:
        log("perfbench: %s" % err)
        return 2

    checks = Checks()
    check_identical(checks, plain + prof, args.workload)
    workload_checks(checks, args.workload, plain, prof, ref, noobs, checked)

    if args.trace == 0:
        values, units = end_to_end_metrics(plain), e2e_units
    else:
        values, units = layer_metrics(prof, plain, noobs), layer_units
    checks.expect(set(values) == set(units),
                  "metric set differs from BENCHMARK.json: %s" %
                  ", ".join(sorted(set(values) ^ set(units))))
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}

    all_reps = plain + prof + noobs + [r for r in (ref, checked) if r is not None]
    prov = provenance(all_reps[0], args)
    report = {"provenance": prov, "checks_failed": checks.failures, "metrics": metrics,
              "reps": [{"mode": r["mode"], "timing": r["timing"]} for r in all_reps]}
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(report, f, indent=1)

    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print("# %-40s %16.6f %s" % (name, m["value"], m["unit"]))
    for failure in checks.failures:
        print("# CHECK FAILED: " + failure)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": len(all_reps),
        "failed": len(checks.bad_reps) if checks.bad_reps else (1 if checks.failures else 0),
        "metrics": metrics,
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
