#!/usr/bin/env python3
"""The wildenergy benchmark: three workloads, end-to-end metrics, and a
traced layer-by-layer run.

    python3 wildbench/run.py --workload panel_ckpt --seed 1 --seconds 25 --trace 0
    python3 wildbench/run.py --workload all --seed 1          # every workload

Builds the harness (wildbench/CMakeLists.txt) from the checkout's sources
into .bench_build/, derives every input from --seed, and measures for
--seconds: each repetition is a fresh `wildbench measure` process, so every
peak RSS is that run's own. Output checks run on every repetition; a failed
check, a non-OK run() or a digest that differs from its reference counts the
repetition as failed. --trace 1 adds the traced run (README.md lists its
layers) and prints the per-layer metrics instead of the end-to-end ones. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Exit code 0 when every check passed, 1 when one failed, 2 when the harness
could not run at all.
"""
import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "wildbench"
BINARY = BUILD / "wildbench"

WORKLOADS = ("panel_ckpt", "fleet_fold", "csv_sweep")

# (name, unit, better): the end-to-end metrics, reported as medians.
END_TO_END = (
    ("pkts_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("cpu_ns_per_pkt", "ns", "lower"),
    ("disk_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# (name, unit, better): the traced run's per-layer metrics. A layer that a
# workload bypasses reports 0.
PER_LAYER = (
    ("sim.self_ms", "ms", "lower"),
    ("sim.pkts_per_s", "1/s", "higher"),
    ("sim.events", "count", "lower"),
    ("trace.csv.self_ms", "ms", "lower"),
    ("trace.csv.mb_per_s", "MB/s", "higher"),
    ("trace.csv.records_dropped", "count", "lower"),
    ("trace.segment.write_ms", "ms", "lower"),
    ("trace.segment.bytes_per_event", "B", "lower"),
    ("trace.segment.max_resident_bytes", "B", "lower"),
    ("trace.segment.replay_ms", "ms", "lower"),
    ("trace.segment.events_per_s", "1/s", "higher"),
    ("trace.filter.self_ms", "ms", "lower"),
    ("energy.attribute.self_ms", "ms", "lower"),
    ("energy.attribute.pkts_per_s", "1/s", "higher"),
    ("radio.promotions", "count", "lower"),
    ("radio.tail_segments", "count", "lower"),
    ("radio.bursts_queued", "count", "lower"),
    ("energy.ledger.self_ms", "ms", "lower"),
    ("energy.account.fold_ms", "ms", "lower"),
    ("energy.account.spilled_bytes_per_user", "B", "lower"),
    ("energy.account.resident_bytes", "B", "lower"),
    ("energy.account.files", "count", "lower"),
    ("energy.account.cursor_read_ms", "ms", "lower"),
    ("analysis.persistence.self_ms", "ms", "lower"),
    ("analysis.time_since_fg.self_ms", "ms", "lower"),
    ("analysis.waste.self_ms", "ms", "lower"),
    ("analysis.longitudinal.self_ms", "ms", "lower"),
    ("core.policy.self_ms", "ms", "lower"),
    ("core.parallel_efficiency", "ratio", "higher"),
    ("core.untracked_rss_mb", "MB", "lower"),
    ("ckpt.write_ms", "ms", "lower"),
    ("ckpt.bytes", "B", "lower"),
    ("ckpt.count", "count", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
    ("unaccounted_ms", "ms", "lower"),
)

# Per-layer metrics that are a traced layer's self time, by tracer layer.
SELF_TIME_LAYERS = {
    "sim.self_ms": "sim",
    "trace.csv.self_ms": "trace.csv",
    "trace.filter.self_ms": "trace.filter",
    "energy.attribute.self_ms": "energy.attribute",
    "energy.ledger.self_ms": "energy.ledger",
    "analysis.persistence.self_ms": "analysis.persistence",
    "analysis.time_since_fg.self_ms": "analysis.time_since_fg",
    "analysis.waste.self_ms": "analysis.waste",
    "analysis.longitudinal.self_ms": "analysis.longitudinal",
    "core.policy.self_ms": "core.policy",
}

MIN_REPS = 3  # measured repetitions, not counting the warm-up
# The reference host probe time (wildbench `host_probe_s`: fill and sort
# 2^20 keys), close to its typical time on a 4-CPU benchmark host; it only
# sets the scale of the host-scaled figures.
PROBE_REFERENCE_S = 0.1
RUN_BUDGET_S = 160.0  # a run (after the build) must end well inside 180 s


class HarnessError(Exception):
    """The harness itself could not run (no sources, failed build, crash)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; returns nothing or raises."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise HarnessError(f"no wildenergy sources at {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise HarnessError(f"build step {' '.join(cmd)} failed: {e}") from e
        if done.returncode != 0:
            log(done.stdout[-4000:] + done.stderr[-4000:])
            raise HarnessError(f"build step {' '.join(cmd)} exited {done.returncode}")
    if not BINARY.is_file():
        raise HarnessError(f"build produced no {BINARY}")


def step(mode, workload, seed, work, extra=(), timeout=150.0):
    """Run one harness step in a fresh process; returns its JSON record."""
    cmd = [str(BINARY), mode, "--workload", workload, "--seed", str(seed), "--dir", str(work)]
    cmd += [str(a) for a in extra]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as e:
        raise HarnessError(f"{mode} timed out after {timeout:.0f} s") from e
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise HarnessError(f"{mode} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def rep_failures(rec, expect_digest=None, expect_baseline=None):
    """Why one measured repetition failed (empty when it passed)."""
    checks = rec.get("checks", [])
    failures = [f"{c['name']}: {c['detail']}" for c in checks if not c.get("ok")]
    if not checks:
        failures.append("no output checks ran")
    if expect_digest is not None and rec.get("digest") != expect_digest:
        failures.append(f"digest {rec.get('digest')} != reference {expect_digest}")
    if expect_baseline is not None and rec.get("baseline_digest") != expect_baseline:
        failures.append(
            f"baseline digest {rec.get('baseline_digest')} != plain pipeline {expect_baseline}")
    return failures


def median(values):
    return statistics.median(values) if values else 0.0


def measured(reps):
    """The passing repetitions after the warm-up (all of them if none pass)."""
    timed = [r for r in reps if not r["warmup"]] or reps
    return [r for r in timed if not r["failures"]] or timed


def host_speed(rec):
    """The host's speed during a repetition, relative to the reference: the
    fixed probe workload's reference time over its measured time."""
    probe = rec.get("host_probe_s", 0.0)
    return PROBE_REFERENCE_S / probe if probe > 0 else 1.0


def end_to_end(reps):
    """Median end-to-end metrics over the measured repetitions.

    Other tenants of a shared host slow every process down, for seconds or
    for minutes, so the throughput and CPU figures are scaled to the
    reference host speed (host_speed). CPU time is per packet because the
    packet count of a workload's input varies with the seed."""
    rec = [r["record"] for r in measured(reps)]
    setup = [s for r in rec for s in r.get("setup_samples", [])]
    values = {
        "pkts_per_s": median(
            [r["packets"] / r["run_s"] / host_speed(r) for r in rec if r["run_s"] > 0]),
        "peak_rss_mb": median([r["peak_rss_bytes"] / 1e6 for r in rec]),
        "cpu_ns_per_pkt": median(
            [r["cpu_s"] * host_speed(r) / r["packets"] * 1e9 for r in rec if r["packets"]]),
        "disk_mb": median([r["written_bytes"] / 1e6 for r in rec]),
        "setup_s": median(setup),
    }
    values["cpu_s"] = median([r["cpu_s"] for r in rec])  # printed only, unscaled
    samples = {name: len(rec) for name, _, _ in END_TO_END}
    samples["setup_s"] = len(setup)
    return values, samples


def per_layer(traced, reps, serial_wall_s, threads):
    """Per-layer metrics from the traced run, plus the derived ones."""
    layers = traced.get("layers", {})
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, layer in SELF_TIME_LAYERS.items():
        values[metric] = layers.get(layer, {}).get("self_ms", 0.0)
    values.update(traced.get("metrics", {}))
    rec = [r["record"] for r in measured(reps)]
    wall_s = median([r["run_s"] for r in rec])
    traced_wall_ms = traced["wall_ms"]
    if serial_wall_s:
        values["trace_overhead_frac"] = (traced_wall_ms / 1e3) / serial_wall_s - 1
    values["unaccounted_ms"] = traced_wall_ms - traced["layer_self_ms"]
    values["core.parallel_efficiency"] = (
        (traced["layer_self_ms"] / 1e3) / (threads * wall_s) if wall_s else 0.0)
    values["core.untracked_rss_mb"] = median(
        [(r["peak_rss_bytes"] - r["tracked_bytes"]) / 1e6 for r in rec])
    return values


def provenance(workload, seed, prep):
    return {
        "workload": workload,
        "seed": seed,
        "host_cpus": os.cpu_count(),
        "build_type": prep.get("build_type"),
        "compiler": prep.get("compiler"),
        "users": prep.get("users"),
        "days": prep.get("days"),
        "threads": prep.get("threads"),
        "input_digest": prep.get("input_digest"),
        "input_events": prep.get("input_events"),
        "csv_bytes": prep.get("csv_bytes"),
    }


def run_workload(workload, seed, seconds, trace, sizes=(), deadline=None):
    """Prepare, reference, measured repetitions and (trace) the traced run.

    Returns a result dict; `sizes` (e.g. ("--users", 3)) shrinks the workload
    for the self-tests."""
    start = time.monotonic()
    deadline = deadline or start + RUN_BUDGET_S
    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sizes = list(sizes)
    result = {"workload": workload, "seed": seed, "trace": trace, "reps": [], "errors": []}
    try:
        prep = step("prepare", workload, seed, work, sizes, deadline - time.monotonic())
        result["provenance"] = provenance(workload, seed, prep)
        expect_digest = expect_baseline = None
        serial_wall_s = None
        if workload == "fleet_fold":
            # The --threads 1 reference, computed once, untimed.
            ref = step("measure", workload, seed, work, sizes + ["--threads", 1],
                       deadline - time.monotonic())
            ref_failures = rep_failures(ref)
            if ref_failures:
                result["errors"].append("threads-1 reference: " + "; ".join(ref_failures))
            expect_digest, serial_wall_s = ref["digest"], ref["run_s"]
        elif workload == "csv_sweep":
            ref = step("reference", workload, seed, work, sizes, deadline - time.monotonic())
            ref_failures = rep_failures(ref)
            if ref_failures:
                result["errors"].append("plain-pipeline reference: " + "; ".join(ref_failures))
            expect_baseline = ref["baseline_digest"]

        # The first repetition warms the host (page cache, free memory) and is
        # checked like the others but left out of the summaries.
        t0 = None
        last = 0.0
        while True:
            now = time.monotonic()
            timed = len(result["reps"]) - 1
            enough = t0 is not None and now - t0 >= seconds and timed >= MIN_REPS
            if enough or now + last * 1.5 > deadline - (30 if trace else 0):
                break
            rep_start = time.monotonic()
            rec = step("measure", workload, seed, work, sizes, deadline - now)
            last = time.monotonic() - rep_start
            if t0 is None:
                t0 = time.monotonic()
            if workload != "fleet_fold" and expect_digest is None:
                expect_digest = rec["digest"]  # bit-identical across repetitions
            result["reps"].append({"record": rec, "warmup": not result["reps"],
                                   "failures": rep_failures(rec, expect_digest, expect_baseline)})
        if not result["reps"]:
            raise HarnessError("no repetition fit in the time budget")
        result["end_to_end"], result["samples"] = end_to_end(result["reps"])

        if trace:
            threads = result["reps"][0]["record"]["threads"]
            if workload == "panel_ckpt":  # the measured runs are already serial
                serial_wall_s = median([r["record"]["run_s"] for r in measured(result["reps"])])
            elif workload == "csv_sweep":
                serial = step("measure", workload, seed, work, sizes + ["--threads", 1],
                              deadline - time.monotonic())
                for f in rep_failures(serial, expect_digest, expect_baseline):
                    result["errors"].append("serial run: " + f)
                serial_wall_s = serial["run_s"]
            spans = OUT / "spans" / f"{workload}-seed{seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            traced = step("traced", workload, seed, work, sizes + ["--spans", spans],
                          deadline - time.monotonic())
            result["traced"] = traced
            result["traced_failures"] = rep_failures(traced, expect_digest)
            result["per_layer"] = per_layer(traced, result["reps"], serial_wall_s, threads)
            result["spans_file"] = str(spans)
    except HarnessError as e:
        result["errors"].append(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["wall_s"] = time.monotonic() - start
    return result


def counts(result):
    """(attempted, failed): measured repetitions plus the traced run."""
    attempted = len(result["reps"]) + (1 if result["trace"] else 0)
    failed = sum(1 for r in result["reps"] if r["failures"])
    if result["trace"] and (result.get("traced_failures") or "traced" not in result):
        failed += 1
    if result["errors"]:
        attempted = max(attempted, 1)
        failed = attempted
    return attempted, failed


def print_report(result):
    """Human-readable report of one workload run (stdout)."""
    w = result["workload"]
    print(f"== wildbench {w}  seed {result['seed']}  trace {result['trace']}  "
          f"({result['wall_s']:.1f} s)")
    print("provenance: " + json.dumps(result.get("provenance", {}), sort_keys=True))
    for i, rep in enumerate(result["reps"], 1):
        r = rep["record"]
        status = "ok" if not rep["failures"] else "FAILED: " + "; ".join(rep["failures"])
        if rep["warmup"]:
            status += " (warm-up, not summarized)"
        mpps = r["packets"] / r["run_s"] / 1e6 if r["run_s"] else 0.0
        print(f"  rep {i:2d}: run {r['run_s']:.3f} s, {mpps:.2f} Mpkt/s, "
              f"host speed {host_speed(r):.2f}, "
              f"peak {r['peak_rss_bytes'] / 1e6:.1f} MB, cpu {r['cpu_s']:.2f} s, "
              f"disk {r['written_bytes'] / 1e6:.2f} MB, "
              f"digest {r['digest'] or r['baseline_digest']} — {status}")
    for e in result["errors"]:
        print(f"  ERROR: {e}")
    attempted, failed = counts(result)
    if "end_to_end" in result:
        print("end-to-end (untraced medians; pkts_per_s and cpu_ns_per_pkt at the reference "
              "host speed):")
        for name, unit, _ in END_TO_END + (("cpu_s", "s", "lower"),):
            print(f"  {name:<14} {result['end_to_end'][name]:>16.6g} {unit:<4} "
                  f"n={result['samples'].get(name, result['samples']['pkts_per_s'])}")
    print(f"  {'failed_frac':<14} {failed / attempted if attempted else 1.0:>16.6g} "
          f"{'':<4} {failed}/{attempted} runs")
    if "per_layer" in result:
        traced = result["traced"]
        print(f"traced run: wall {traced['wall_ms']:.1f} ms, layer self times sum to "
              f"{traced['layer_self_ms']:.1f} ms, {traced['spans']} spans -> "
              f"{result['spans_file']}")
        for name, t in sorted(traced["layers"].items(), key=lambda kv: -kv[1]["self_ms"]):
            share = t["self_ms"] / traced["wall_ms"] if traced["wall_ms"] else 0.0
            print(f"  {name:<24} self {t['self_ms']:>10.1f} ms  ({share:6.1%})  "
                  f"total {t['total_ms']:>10.1f} ms  calls {t['calls']}")
        print("per-layer metrics:")
        units = {n: u for n, u, _ in PER_LAYER}
        for name, _, _ in PER_LAYER:
            print(f"  {name:<38} {result['per_layer'][name]:>16.6g} {units[name]}")
        for f in result.get("traced_failures", []):
            print(f"  TRACED RUN FAILED: {f}")


def metrics_json(result):
    table = PER_LAYER if result["trace"] else END_TO_END
    values = result.get("per_layer" if result["trace"] else "end_to_end", {})
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit, _ in table}


def save_result(result):
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path = OUT / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except HarnessError as e:
        log(f"wildbench: {e}")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in workloads:
        result = run_workload(w, args.seed, args.seconds, args.trace)
        save_result(result)
        print_report(result)
        results.append(result)

    attempted = sum(counts(r)[0] for r in results)
    failed = sum(counts(r)[1] for r in results)
    if len(results) == 1:
        metrics = metrics_json(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metrics_json(r).items()}
    correct = failed == 0 and all(not r["errors"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
