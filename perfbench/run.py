#!/usr/bin/env python3
"""Whole-run benchmark for aqsim.

Builds the benchmark program (perfbench/aqbench.cc, linked against the
aqsim library from src/) in Release mode, then runs one workload for a
fixed measuring window. Every repetition is a fresh process; every
repetition's outputs are checked against closed forms derived from the
workload skeletons, properties of the synchronization method, or a
reference run made once per invocation (see README.md).

    python3 perfbench/run.py --workload is-adaptive --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (medians over the untraced
repetitions); with --trace 1 they are the per-layer ones (medians over
traced repetitions, which alternate with untraced ones so that the
tracing overhead can be reported). The line before it ("report: ...")
records the host fingerprint, the source revision and every
repetition's raw figures, so that two reports can be compared.
"""

import argparse
import copy
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD_DIR = BUILD_ROOT / "perfbench"
PROGRAM = BUILD_DIR / "aqbench"
SCRATCH = BUILD_ROOT / "tmp"

# Repetitions below this make a median meaningless; the measuring
# window is extended to reach it.
MIN_REPS = 3
# A run must end within 180 s: no repetition starts past this point.
LAST_START_S = 90.0
REP_TIMEOUT_S = 60.0
# EXPERIMENTS.md measures adaptive NAS accuracy error below 0.5%.
ACCURACY_TOLERANCE = 0.005
MB = 1e6

WORKLOADS = ("ep-wide-lossy", "is-adaptive", "cg-distributed")
HAS_REFERENCE = {"is-adaptive", "cg-distributed"}


def cpus_available():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def workers_for(workload):
    cpus = cpus_available()
    if workload == "is-adaptive":
        # Half the CPUs: a descheduled vCPU stalls every worker at the
        # quantum barrier, and with a worker on every vCPU of a shared
        # VM one repetition took 1.8 s at 1.4% CPU steal and 3.5 s at 16%.
        return max(1, min(4, cpus // 2))
    if workload == "cg-distributed":
        # One CPU stays with the coordinator: with a worker process on
        # every CPU the star barrier's wake-ups queue behind workers and
        # run_s spread 2.9-5.1 s across identical runs on 4 CPUs.
        return max(1, min(4, cpus - 1))
    return 1


# ---------------------------------------------------------------- host

def source_digest():
    """SHA-256 over src/ and perfbench/ (the checkout may lack .git)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision():
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None


def host_fingerprint():
    host = {
        "machine": platform.machine(),
        "kernel": platform.release(),
        "cpus_total": os.cpu_count(),
        "cpus_available": cpus_available(),
        "loadavg": list(os.getloadavg()),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }
    governor = Path("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    try:
        host["governor"] = governor.read_text().strip()
    except OSError:
        host["governor"] = None
    return host


# --------------------------------------------------------------- build

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: no aqsim sources at %s/src" % ROOT)
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "aqbench",
                  "-j", str(min(4, cpus_available()))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=840).returncode != 0:
            log("run.py: build step failed: %s" % " ".join(step))
            return False
    return PROGRAM.is_file()


# ---------------------------------------------------------------- runs

def run_program(args, timeout=REP_TIMEOUT_S):
    """Run aqbench in its own process group; return (facts, error)."""
    proc = subprocess.Popen([str(PROGRAM)] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out after %.0f s" % timeout
    finally:
        # Distributed workers are in the same group; none may outlive
        # their coordinator.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, err.strip()[-300:])
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparseable output"


def common_args(workload, seed, traced):
    return ["--workload", workload, "--seed", str(seed),
            "--workers", str(workers_for(workload)),
            "--traced", "1" if traced else "0"]


def run_reference(workload, seed):
    return run_program(["--mode", "ref"] + common_args(workload, seed, False))


def host_steal_s():
    """CPU time the hypervisor took from this machine's CPUs so far
    (the "steal" column of /proc/stat), or None where unavailable."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_rep(workload, seed, traced, keep_dir=None):
    """One repetition; its checkpoint directory is removed afterwards
    unless @keep_dir is given (the self-test truncates the image). The
    facts gain the host CPU time stolen while it ran."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    ckpt_dir = keep_dir or tempfile.mkdtemp(prefix="ckpt-", dir=SCRATCH)
    steal_before, start = host_steal_s(), time.monotonic()
    try:
        facts, error = run_program(["--mode", "rep", "--ckpt-dir",
                                    str(ckpt_dir)] +
                                   common_args(workload, seed, traced))
    finally:
        if keep_dir is None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
    steal_after = host_steal_s()
    if facts is not None and steal_before is not None and \
            steal_after is not None:
        facts["steal_share"] = (steal_after - steal_before) / (
            (time.monotonic() - start) * cpus_available())
    return facts, error


# -------------------------------------------------------------- checks
#
# Each check returns a list of failure strings; an empty list passes.
# The references are independent computations (closed forms from the
# skeleton's collectives, a ground-truth run) or properties the method
# must have, never a stored copy of an earlier output.

def frames(nbytes, skel):
    """Frames one eager message occupies (mpi::fragmentCount)."""
    if nbytes > skel["eager_threshold"]:
        raise ValueError("closed form covers eager messages only")
    payload = skel["mtu"] - skel["frame_overhead"]
    return 1 if nbytes == 0 else -(-nbytes // payload)


def allreduce_messages(n):
    """Messages of mpi::allreduce on n ranks: recursive doubling over
    the largest power of two, plus a fold-in and a push-back message
    for every extra rank."""
    if n <= 1:
        return 0
    pof2 = 1 << (n.bit_length() - 1)
    return pof2 * (pof2.bit_length() - 1) + 2 * (n - pof2)


def ep_messages(skel):
    return skel["reductions"] * allreduce_messages(skel["nodes"])


def is_counts(skel):
    """(messages, packets) of the IS skeleton: per iteration two
    alltoalls (bucket sizes, then keys) and one 8-byte allreduce, plus
    a final allreduce."""
    n = skel["nodes"]
    key_bytes = (skel["total_keys"] // n) * skel["bytes_per_key"] // n
    pairs = n * (n - 1)
    ar = allreduce_messages(n)
    msgs = skel["iterations"] * (2 * pairs + ar) + ar
    pkts = (skel["iterations"] *
            (pairs * (frames(skel["bucket_bytes_per_pair"], skel) +
                      frames(key_bytes, skel)) + ar * frames(8, skel)) +
            ar * frames(8, skel))
    return msgs, pkts


def policy_bounds_us(spec):
    """[min, max] quantum of a "dyn:inc:dec:min:max" spec, in us."""
    def us(text):
        for suffix, scale in (("ns", 1e-3), ("us", 1.0), ("ms", 1e3)):
            if text.endswith(suffix):
                return float(text[:-len(suffix)]) * scale
        return float(text) * 1e-3
    fields = spec.split(":")
    return us(fields[3]), us(fields[4])


def expect(failures, cond, what):
    if not cond:
        failures.append(what)


def check_in_process(run, failures, label):
    res, ctr = run["result"], run["counters"]
    expect(failures, ctr["all_done"], "%s: not every rank completed" % label)
    expect(failures, run["external_hash"] == res["final_state_hash"],
           "%s: Cluster::stateHash() %s != RunResult %s" %
           (label, run["external_hash"], res["final_state_hash"]))
    expect(failures, ctr["msgs_sent"] == ctr["msgs_recvd"],
           "%s: MPI messages sent %d != received %d" %
           (label, ctr["msgs_sent"], ctr["msgs_recvd"]))
    expect(failures, ctr["net_packets"] == res["packets"],
           "%s: stats network.packets %d != RunResult packets %d" %
           (label, ctr["net_packets"], res["packets"]))


def check_conservative(res, failures, label):
    expect(failures, res["stragglers"] == 0,
           "%s: %d stragglers under a conservative quantum" %
           (label, res["stragglers"]))
    expect(failures, res["next_quantum_deliveries"] == 0,
           "%s: %d next-quantum deliveries under a conservative quantum" %
           (label, res["next_quantum_deliveries"]))


def check_reference(workload, ref):
    failures = []
    if ref is None:
        return ["reference run failed"]
    run, skel = ref["run"], ref["skeleton"]
    res = run["result"]
    check_in_process(run, failures, "reference")
    check_conservative(res, failures, "reference")
    expect(failures, res["ranks_done"] == skel["nodes"],
           "reference: %d of %d ranks completed" %
           (res["ranks_done"], skel["nodes"]))
    if workload == "is-adaptive":
        try:
            msgs, pkts = is_counts(skel)
        except ValueError as error:
            return failures + ["reference: %s" % error]
        expect(failures, res["packets"] == pkts,
               "reference: packets %d != closed form %d" %
               (res["packets"], pkts))
        expect(failures, run["counters"]["msgs_sent"] == msgs,
               "reference: messages %d != closed form %d" %
               (run["counters"]["msgs_sent"], msgs))
    return failures


def check_rep(workload, rep, ref, first):
    """Checks of one repetition. @first is the first repetition of the
    invocation (same seed: identical final state expected)."""
    failures = []
    run, skel = rep["run"], rep["skeleton"]
    res = run["result"]
    n = skel["nodes"]

    expect(failures, res["ranks_done"] == n,
           "%d of %d ranks completed" % (res["ranks_done"], n))
    # The period is set for one mid-run image; a longer run writing a
    # second one is not an error.
    images = rep["ckpts"]
    expect(failures, res["checkpoints_written"] >= 1,
           "no checkpoint written")
    expect(failures, len(images) == res["checkpoints_written"],
           "%d checkpoint files for %d written" %
           (len(images), res["checkpoints_written"]))
    for image in images:
        expect(failures, image["ok"], "checkpoint %s does not decode: %s" %
               (image["file"], image["error"]))
        expect(failures, 0 < image["quantum"] < res["quanta"],
               "checkpoint quantum %d is not mid-run" % image["quantum"])
    file_bytes = sum(image["file_bytes"] for image in images)
    expect(failures, file_bytes == res["checkpoint_bytes"],
           "checkpoint files %d B != RunResult %d B" %
           (file_bytes, res["checkpoint_bytes"]))
    if "counters" in run:
        check_in_process(run, failures, "run")
    if skel["policy"].startswith("fixed:"):
        check_conservative(res, failures, "run")
    want_hash = first["run"]["result"]["final_state_hash"]
    expect(failures, res["final_state_hash"] == want_hash,
           "final state hash %s differs from the first repetition's %s" %
           (res["final_state_hash"], want_hash))

    if workload == "ep-wide-lossy":
        ctr = run["counters"]
        msgs = ep_messages(skel)
        expect(failures, ctr["msgs_sent"] == msgs,
               "messages %d != closed form %d" % (ctr["msgs_sent"], msgs))
        # Every message needs at least one delivered data frame and one
        # delivered reliable-mode ack.
        expect(failures, res["packets"] >= 2 * msgs,
               "packets %d < 2 x messages %d" % (res["packets"], msgs))
        expect(failures, res["dropped_frames"] > 0 and
               res["retransmits"] > 0,
               "no frame was dropped and retransmitted (%d, %d)" %
               (res["dropped_frames"], res["retransmits"]))
        expect(failures, ctr["nic_tx_frames"] ==
               ctr["net_packets"] + ctr["fault_dropped"],
               "NIC frames %d != routed %d + dropped %d" %
               (ctr["nic_tx_frames"], ctr["net_packets"],
                ctr["fault_dropped"]))
    elif workload == "is-adaptive":
        try:
            msgs, pkts = is_counts(skel)
        except ValueError as error:
            return failures + [str(error)]
        expect(failures, res["packets"] == pkts,
               "packets %d != closed form %d" % (res["packets"], pkts))
        expect(failures, run["counters"]["msgs_sent"] == msgs,
               "messages %d != closed form %d" %
               (run["counters"]["msgs_sent"], msgs))
        lo, hi = policy_bounds_us(skel["policy"])
        mean_us = res["mean_quantum_ticks"] * 1e-3
        expect(failures, lo <= mean_us <= hi,
               "mean quantum %.3f us outside [%g, %g]" % (mean_us, lo, hi))
        if ref is not None:
            error = accuracy_error(res, ref)
            expect(failures, error <= ACCURACY_TOLERANCE,
                   "accuracy error %.4f%% > %.2f%%" %
                   (100 * error, 100 * ACCURACY_TOLERANCE))
    elif workload == "cg-distributed" and ref is not None:
        want = ref["run"]["result"]
        for key in ("final_state_hash", "sim_ticks", "packets"):
            expect(failures, res[key] == want[key],
                   "%s %s != in-process engine's %s" %
                   (key, res[key], want[key]))
    return failures


def accuracy_error(res, ref):
    truth = ref["run"]["result"]["metric"]
    return abs(res["metric"] - truth) / truth


def evaluate(workload, reps, ref):
    """Per-repetition failure lists (a failed reference fails every
    repetition: their checks compare against it)."""
    ref_failures = check_reference(workload, ref) \
        if workload in HAS_REFERENCE else []
    first = next((r for r in reps if r is not None), None)
    results = []
    for rep in reps:
        if rep is None:
            results.append(["repetition did not produce a result"])
            continue
        results.append(ref_failures + check_rep(workload, rep, ref, first))
    return results


# ------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else 0.0


def least_disturbed(reps):
    """The less-disturbed half of the repetitions (at least MIN_REPS):
    those during which the hypervisor stole the smallest share of the
    host's CPU time. On a shared virtual machine the steal share tracks
    run time closely (on 4 vCPUs an is-adaptive repetition took 1.8 s
    at 1.4% steal and 3.5 s at 16%), and it depends on the neighbours,
    not on the program. The selection never looks at a measured time.
    Where steal is not reported every repetition is kept."""
    if len(reps) <= MIN_REPS or any("steal_share" not in r for r in reps):
        return reps
    keep = max(MIN_REPS, (len(reps) + 1) // 2)
    ranked = sorted(range(len(reps)), key=lambda i: reps[i]["steal_share"])
    return [reps[i] for i in sorted(ranked[:keep])]


def end_to_end(reps):
    def rss(run):
        return max(run["self_maxrss_kb"], run["children_maxrss_kb"]) * \
            1024 / MB
    runs = [r["run"] for r in reps]
    return {
        "wall_s": (median([r["wall_s"] for r in runs]), "s"),
        "setup_s": (median([r["setup_s"] for r in runs]), "s"),
        "run_s": (median([r["run_s"] for r in runs]), "s"),
        "peak_rss_mb": (median([rss(r) for r in runs]), "MB"),
        "ckpt_mb": (median([r["result"]["checkpoint_bytes"] / MB
                            for r in runs]), "MB"),
    }


def per_layer(workload, traced, untraced, ref):
    """Per-layer figures from the traced repetitions. On cg-distributed
    the counters that live only inside worker processes (events, MPI,
    NIC) and the final-state hash and teardown spans are read from the
    in-process reference run of the same configuration, whose final
    state the checks prove identical."""
    def med(fn):
        return median([fn(r) for r in traced])

    def ctr(key):
        if workload == "cg-distributed":
            return ref["run"]["counters"][key]
        return med(lambda r: r["run"]["counters"][key])

    def span(key):
        if workload == "cg-distributed" and key != "setup_s":
            return ref["run"][key]
        return med(lambda r: r["run"][key])

    def res(key):
        return med(lambda r: r["run"]["result"][key])

    events = ctr("events")
    run_s = med(lambda r: r["run"]["run_s"])
    quanta = res("quanta")
    build_rss_kb = (ref["run"]["build_rss_kb"]
                    if workload == "cg-distributed"
                    else med(lambda r: r["run"]["build_rss_kb"]))
    sequential = traced[0]["run"]["result"]["engine"] == "sequential"
    if workload in HAS_REFERENCE:
        accuracy = med(lambda r: accuracy_error(r["run"]["result"], ref))
    else:
        accuracy = 0.0  # fixed:1us is the ground-truth policy itself
    m = {
        "engine.build_s": (span("setup_s"), "s"),
        "engine.build_rss_mb": (build_rss_kb * 1024 / MB, "MB"),
        "engine.state_hash_s": (span("state_hash_s"), "s"),
        "engine.teardown_s": (span("teardown_s"), "s"),
        "engine.ms_per_quantum": (med(lambda r: r["run"]["run_s"] * 1e3 /
                                      r["run"]["result"]["quanta"]), "ms"),
        "engine.phase.sort_ms": (res("phase_sort_ns") / 1e6, "ms"),
        "engine.phase.exchange_ms": (res("phase_exchange_ns") / 1e6, "ms"),
        "engine.phase.merge_ms": (res("phase_merge_ns") / 1e6, "ms"),
        "engine.phase.dispatch_ms": (res("phase_dispatch_ns") / 1e6, "ms"),
        "engine.worker_rss_mb": (med(lambda r: r["run"]["children_maxrss_kb"])
                                 * 1024 / MB, "MB"),
        "engine.coordinator_rss_mb": (med(lambda r: r["run"]["self_maxrss_kb"])
                                      * 1024 / MB, "MB"),
        "sim.events": (events, "count"),
        "sim.events_cancelled": (ctr("events_cancelled"), "count"),
        "sim.ns_per_event": (run_s * 1e9 / events if events else 0.0, "ns"),
        "core.quanta": (quanta, "count"),
        "core.mean_quantum_us": (res("mean_quantum_ticks") * 1e-3, "us"),
        "core.packets": (res("packets"), "count"),
        "core.stragglers": (res("stragglers"), "count"),
        "core.next_quantum_deliveries": (res("next_quantum_deliveries"),
                                         "count"),
        "core.modeled_host_s": (res("host_ns") * 1e-9 if sequential
                                else 0.0, "s"),
        "core.accuracy_error": (accuracy, "ratio"),
        "mpi.msgs_sent": (ctr("msgs_sent"), "count"),
        "mpi.bytes_sent": (ctr("bytes_sent"), "B"),
        "mpi.rendezvous": (ctr("rendezvous"), "count"),
        "mpi.unexpected_hits": (ctr("unexpected_hits"), "count"),
        "mpi.retransmits": (ctr("retransmits"), "count"),
        "net.packets": (res("packets"), "count"),
        "net.bytes": (ctr("net_bytes"), "B"),
        "net.quantum_packets_max": (res("timeline_max_packets"), "count"),
        "node.nic_tx_frames": (ctr("nic_tx_frames"), "count"),
        "fault.dropped_frames": (res("dropped_frames"), "count"),
        "ckpt.images": (res("checkpoints_written"), "count"),
        "ckpt.write_s": (res("checkpoint_write_ns") * 1e-9, "s"),
        "ckpt.bytes": (res("checkpoint_bytes"), "B"),
        "ckpt.decode_s": (med(lambda r: sum(i["decode_s"]
                                            for i in r["ckpts"])), "s"),
        "trace.overhead_s": (run_s - median([r["run"]["run_s"]
                                             for r in untraced]), "s"),
    }
    return m


# ---------------------------------------------------------------- main

def measure(workload, seed, seconds, trace):
    ref = None
    ref_error = None
    if workload in HAS_REFERENCE:
        ref, ref_error = run_reference(workload, seed)
        if ref_error:
            log("run.py: reference run: %s" % ref_error)

    # Whole rounds: an untraced repetition, plus a traced one when
    # tracing, until the window is over and MIN_REPS rounds are done.
    reps, traced_reps, errors = [], [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed >= seconds:
            break
        if elapsed >= LAST_START_S:
            break
        for traced in ([False, True] if trace else [False]):
            facts, error = run_rep(workload, seed, traced)
            if error:
                errors.append(error)
                log("run.py: repetition: %s" % error)
            (traced_reps if traced else reps).append(facts)

    everything = reps + traced_reps
    verdicts = evaluate(workload, everything, ref)
    failed = sum(1 for v in verdicts if v)
    for v in verdicts:
        for f in v:
            log("run.py: check failed: %s" % f)

    good = least_disturbed(
        [r for r, v in zip(reps, verdicts[:len(reps)]) if not v])
    good_traced = least_disturbed(
        [r for r, v in zip(traced_reps, verdicts[len(reps):]) if not v])
    if trace:
        metrics = per_layer(workload, good_traced, good, ref) \
            if good_traced and good and (ref or workload not in
                                         HAS_REFERENCE) else {}
    else:
        metrics = end_to_end(good) if good else {}
    return {
        "attempted": len(everything),
        "failed": failed,
        "correct": failed == 0 and ref_error is None,
        "metrics": metrics,
        "reps": everything,
        "ref": ref,
        "errors": errors,
    }


def report_line(workload, seed, seconds, trace, outcome):
    def brief(rep):
        if rep is None:
            return None
        run = rep["run"]
        return {k: run[k] for k in ("setup_s", "run_s", "wall_s",
                                    "teardown_s", "self_maxrss_kb",
                                    "children_maxrss_kb")} | {
            "traced": rep["traced"],
            "steal_share": rep.get("steal_share"),
            "final_state_hash": run["result"]["final_state_hash"]}
    return {
        "benchmark": "perfbench", "workload": workload, "seed": seed,
        "seconds": seconds, "trace": trace,
        "workers": workers_for(workload), "host": host_fingerprint(),
        "repetitions": [brief(r) for r in outcome["reps"]],
        "errors": outcome["errors"],
    }


def self_test():
    """Show that the checks catch wrong outputs: each mutation of a
    real repetition's facts must be reported as one failed operation."""
    cases = []
    SCRATCH.mkdir(parents=True, exist_ok=True)
    keep = Path(tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH))
    try:
        facts = {}
        for workload in WORKLOADS:
            ref = None
            if workload in HAS_REFERENCE:
                ref, error = run_reference(workload, 1)
                assert not error, error
            ckpt_dir = keep / workload
            ckpt_dir.mkdir()
            rep, error = run_rep(workload, 1, False, keep_dir=ckpt_dir)
            assert not error, error
            facts[workload] = (rep, ref, ckpt_dir)

        def failed_ops(workload, reps, ref):
            return sum(1 for v in evaluate(workload, reps, ref) if v)

        for workload, (rep, ref, _) in facts.items():
            cases.append(("%s: genuine repetitions pass" % workload,
                          failed_ops(workload, [rep, rep], ref) == 0))

        def mutated(workload, edit):
            rep, ref, _ = facts[workload]
            bad = copy.deepcopy(rep)
            edit(bad["run"])
            return failed_ops(workload, [rep, bad], ref) == 1

        def flip_hash(run):
            h = run["result"]["final_state_hash"]
            h = h[:-1] + ("0" if h[-1] != "0" else "1")
            run["result"]["final_state_hash"] = h
            if "external_hash" in run:
                run["external_hash"] = h

        def add(amount, *paths):
            """Shift every counter in @paths by @amount, keeping the
            run's own cross-checks (sent == received, stats == RunResult)
            consistent so that only the independent reference can
            catch the error."""
            def edit(run):
                for section, key in paths:
                    run[section][key] += amount
            return edit

        cases += [
            ("ep-wide-lossy: wrong final state hash",
             mutated("ep-wide-lossy", flip_hash)),
            ("ep-wide-lossy: wrong message count",
             mutated("ep-wide-lossy", add(1, ("counters", "msgs_sent"),
                                          ("counters", "msgs_recvd")))),
            ("is-adaptive: wrong packet count",
             mutated("is-adaptive", add(1, ("result", "packets"),
                                        ("counters", "net_packets")))),
            ("is-adaptive: wrong message count",
             mutated("is-adaptive", add(-1, ("counters", "msgs_sent"),
                                        ("counters", "msgs_recvd")))),
            ("is-adaptive: accuracy error out of tolerance",
             mutated("is-adaptive", lambda run: run["result"].update(
                 metric=run["result"]["metric"] * (1 + 2 *
                                                   ACCURACY_TOLERANCE)))),
            ("cg-distributed: wrong final state hash",
             mutated("cg-distributed", flip_hash)),
            ("cg-distributed: wrong packet count",
             mutated("cg-distributed", add(-1, ("result", "packets")))),
        ]

        rep, ref, ckpt_dir = facts["is-adaptive"]
        image = sorted(ckpt_dir.glob("*.aqc"))[-1]
        truncated = ckpt_dir / "truncated.aqc"
        data = image.read_bytes()
        truncated.write_bytes(data[:len(data) // 2])
        decoded, error = run_program(["--mode", "decode", "--file",
                                      str(truncated)])
        assert not error, error
        bad = copy.deepcopy(rep)
        bad["ckpts"][-1] = decoded
        # Only the decode itself may catch it, not the size mismatch.
        bad["run"]["result"]["checkpoint_bytes"] = sum(
            image["file_bytes"] for image in bad["ckpts"])
        cases.append(("is-adaptive: truncated checkpoint file",
                      failed_ops("is-adaptive", [rep, bad], ref) == 1))
    finally:
        shutil.rmtree(keep, ignore_errors=True)

    for name, ok in cases:
        print("%s  %s" % ("ok  " if ok else "FAIL", name))
    return all(ok for _, ok in cases)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the checks catch wrong outputs")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.self_test:
        return 0 if self_test() else 1

    outcome = measure(args.workload, args.seed, args.seconds, args.trace)
    print("report: " + json.dumps(report_line(args.workload, args.seed,
                                              args.seconds, args.trace,
                                              outcome)))
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in outcome["metrics"].items()}
    print(json.dumps({"correct": outcome["correct"],
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
