#!/usr/bin/env python3
"""Repository benchmark: builds the wlanbench binary, runs one workload,
checks its outputs and prints every metric with its unit.

One run (from the root of a checkout):

    python3 wlanbench/run.py --workload dyn60_wtop --seed 1 --seconds 40 --trace 0

--trace 0 prints the end-to-end metrics (sim_rate, setup_s, peak_rss_mb,
pass_rate) measured with every tracer off; --trace 1 prints the per-layer
metrics from the traced pass. The last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}.

Steadiness report, workloads interleaved across repetitions:

    python3 wlanbench/run.py --campaign 10 [--seconds 40]

See wlanbench/README.md for what each metric and workload means.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import derive  # noqa: E402

SOURCE_ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "wlanbench")
WORK_DIR = os.path.join(".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "wlanbench")
DEFAULT_SEED = 1
WORKLOADS = derive.ALL_WORKLOADS


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def benchmark_spec():
    with open(os.path.join(SOURCE_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --- Build ------------------------------------------------------------------

def build():
    """Configures (once) and builds the Release binary under .bench_build/."""
    for needed in ("CMakeLists.txt", os.path.join("src", "exp", "runner.hpp")):
        if not os.path.exists(os.path.join(SOURCE_ROOT, needed)):
            raise RuntimeError(f"no library sources: {needed} is missing")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        raise RuntimeError(f"refusing to time a '{build_type}' build; need Release")


def clean_env(profile=False):
    """The caller's WLAN_* knobs must not change what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WLAN_")}
    if profile:
        env["WLAN_PROFILE"] = "1"
    return env


def run_binary(workload, seed, seconds, mode):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--mode", mode, "--workdir", WORK_DIR]
    proc = subprocess.run(cmd, env=clean_env(profile=(mode == "profile")),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"wlanbench {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(raw, workload, seed, trace):
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=SOURCE_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        describe = ""
    stamp = dict(raw["provenance"])
    stamp.update({
        "git_describe": describe or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "workload": workload, "seed": seed, "trace": trace,
        # run.py clears every WLAN_* variable; the binary itself points
        # WLAN_RUN_CACHE / WLAN_SWEEP_JOURNAL at a fresh directory per unit
        # on sweep_light, and the profile pass sets WLAN_PROFILE=1.
        "wlan_env": {k: v for k, v in clean_env(profile=trace == 1).items()
                     if k.startswith("WLAN_")},
    })
    return stamp


# --- Output checks ------------------------------------------------------------

class Checks:
    def __init__(self, attempted=0, failed=0, failures=()):
        self.attempted = attempted
        self.failed = failed
        self.failures = list(failures)

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def check_timed(workload, seed, raw, expected):
    """Hashes, throughput bands and the binary's own sanity checks."""
    checks = Checks(int(raw["checks_attempted"]), int(raw["checks_failed"]),
                    raw["check_failures"])
    hashes = raw["hashes"]
    for i, h in enumerate(hashes):
        checks.expect(h == hashes[0], f"unit {i} hash {h} != first unit's {hashes[0]}")
    if seed == expected["default_seed"]:
        want = expected["hashes"][workload]
        checks.expect(hashes[0] == want, f"hash {hashes[0]} != recorded {want}")
    if workload == "dyn60_wtop":
        # core: wTOP re-converges after every population step to the
        # throughput recorded for the default seed.
        ref = expected["dyn60_wtop_phase_mbps"]
        band = expected["phase_band"]
        values = raw["phase_mbps"]
        for i, v in enumerate(values):
            r = ref[i % len(ref)]
            checks.expect(abs(v - r) <= band * r,
                          f"phase {i % len(ref)}: {v:.3f} Mb/s outside {r} +/- {band:.0%}")
    return checks


def end_to_end(raw, checks):
    pass_rate = (checks.attempted - checks.failed) / checks.attempted
    return {
        "sim_rate": {"value": raw["sim_rate"], "unit": "sim-s/s"},
        "setup_s": {"value": raw["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        "pass_rate": {"value": pass_rate, "unit": "frac"},
    }


def per_layer(layers, profile):
    metrics = derive.layer_metrics(layers, profile)
    checks = Checks()
    for name, (value, _unit) in metrics.items():
        checks.expect(math.isfinite(value), f"{name} is not finite")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, checks


def run_once(workload, seed, seconds, trace):
    build()
    expected = load_json("expected.json")
    if trace == 0:
        raw = run_binary(workload, seed, seconds, "timed")
        checks = check_timed(workload, seed, raw, expected)
        metrics = end_to_end(raw, checks)
    else:
        raw = run_binary(workload, seed, seconds, "layers")
        profile = run_binary(workload, seed, seconds, "profile")
        metrics, checks = per_layer(raw, profile)
    for failure in checks.failures:
        log(f"CHECK FAILED: {failure}")
    print("provenance " + json.dumps(provenance(raw, workload, seed, trace), sort_keys=True))
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']!r} {m['unit']}")
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


# --- Steadiness campaign --------------------------------------------------------

def campaign(reps, seconds, trace, first_seed):
    """Runs every workload `reps` times, interleaved (the order rotates per
    repetition, so clustered slowdowns hit every workload alike), with a new
    seed per repetition, then reports median, quartiles and count per metric
    and flags spreads beyond the metric's bound."""
    spec = benchmark_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = list(WORKLOADS)
    values = {w: {} for w in workloads}
    all_correct = True
    for rep in range(reps):
        order = workloads[rep % len(workloads):] + workloads[:rep % len(workloads)]
        for w in order:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(first_seed + rep), "--seconds", str(seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            all_correct &= result["correct"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            log(f"rep {rep} {w}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    flagged = 0
    print(f"{'workload':<12} {'metric':<36} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, vals in values[w].items():
            med, q1, q3, rel = derive.spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and rel > bound:
                flag = "  OVER BOUND"
                flagged += 1
            elif bound is not None and rel > bound / 3:
                flag = "  over bound/3"
            print(f"{w:<12} {name:<36} {len(vals):>3} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {rel:>8.4f} {bound if bound is not None else '-':>6}{flag}")
    return 0 if flagged == 0 and all_correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--campaign", type=int, metavar="REPS",
                    help="interleaved steadiness report over REPS repetitions")
    args = ap.parse_args(argv)
    try:
        if args.campaign:
            return campaign(args.campaign, args.seconds, args.trace, args.seed)
        if args.workload is None:
            ap.error("--workload is required")
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"wlanbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
