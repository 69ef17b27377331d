"""Per-layer metrics derived from the raw output of the wlanbench binary.

The binary reports raw counters (obs::collect_metrics names) and host
times; everything here is plain arithmetic on them, kept separate so the
self-tests can recompute it by hand from a small registry.
"""

import math
import statistics

PROFILE_CATEGORIES = ("sim", "medium", "mark", "station", "cohort", "traffic", "other")

# Deterministic counter ratios: name -> (numerator, denominator, unit, better).
# A denominator starting with "@" is a duration the binary reports beside the
# counters ("@sim_seconds" covers warm-up, "@measure_seconds" does not; the
# traffic counters restart when measurement starts).
COUNTER_RATIOS = {
    "sim.events_per_sim_s": ("sim.events_executed", "@sim_seconds", "1/s", "lower"),
    "sim.sched_per_event": ("sim.queue.scheduled", "sim.queue.fired", "ratio", "lower"),
    "sim.cancel_frac": ("sim.queue.cancelled", "sim.queue.scheduled", "frac", "lower"),
    "phy.tx_per_sim_s": ("medium.tx_started", "@sim_seconds", "1/s", "higher"),
    "phy.corrupt_per_tx": ("medium.corrupt_deliveries", "medium.tx_started", "ratio", "lower"),
    "phy.checks_per_tx": ("medium.interference_checks", "medium.tx_started", "ratio", "lower"),
    "phy.pairs_scanned_per_tx": ("medium.pairs_scanned", "medium.tx_started", "ratio", "lower"),
    "mac.withdraw_frac": ("mac.cohort.withdrawals", "mac.cohort.enrollments", "frac", "lower"),
    "mac.enroll_per_decision": ("mac.cohort.enrollments", "mac.cohort.decisions_fired", "ratio", "lower"),
    "mac.cohorts_per_tx": ("mac.cohort.cohorts_formed", "medium.tx_started", "ratio", "lower"),
    "traffic.arrivals_per_sim_s": ("traffic.arrivals", "@measure_seconds", "1/s", "higher"),
    "traffic.drop_rate": ("traffic.drops", "traffic.arrivals", "frac", "lower"),
}

# Host times the binary measures by timing public calls: name -> (unit, better).
TIMINGS = {
    "sim.queue_ns_per_op": ("ns", "lower"),
    "phy.ns_per_tx": ("ns", "lower"),
    "topology.plan_ms": ("ms", "lower"),
    "exp.build_ms": ("ms", "lower"),
    "exp.job_ms.p50": ("ms", "lower"),
    "exp.job_ms.max": ("ms", "lower"),
    "exp.store_put_us": ("us", "lower"),
    "exp.store_hit_us": ("us", "lower"),
    "exp.store_hit_frac": ("frac", "higher"),
    "par.lane_eff": ("frac", "higher"),
    "obs.collect_ms": ("ms", "lower"),
}

ALL_WORKLOADS = ("dyn60_wtop", "ess9x10_std", "sweep_light")

# Which end-to-end metric, on which workloads, each layer metric should move.
# Every workload emits every metric; these are the pairings worth reading.
LAYER_TABLE = {
    "sim.events_per_sim_s": ("sim", "sim_rate", ("dyn60_wtop",)),
    "sim.sched_per_event": ("sim", "sim_rate", ("dyn60_wtop",)),
    "sim.cancel_frac": ("sim", "sim_rate", ("dyn60_wtop",)),
    "sim.queue_ns_per_op": ("sim", "sim_rate", ("dyn60_wtop", "ess9x10_std")),
    "phy.tx_per_sim_s": ("phy", "sim_rate", ("dyn60_wtop",)),
    "phy.corrupt_per_tx": ("phy", "sim_rate", ("dyn60_wtop",)),
    "phy.checks_per_tx": ("phy", "sim_rate", ("ess9x10_std",)),
    "phy.pairs_scanned_per_tx": ("phy", "sim_rate", ("ess9x10_std",)),
    "phy.ns_per_tx": ("phy", "sim_rate", ("dyn60_wtop", "ess9x10_std")),
    "mac.withdraw_frac": ("mac", "sim_rate", ("dyn60_wtop",)),
    "mac.enroll_per_decision": ("mac", "sim_rate", ("dyn60_wtop",)),
    "mac.cohorts_per_tx": ("mac", "sim_rate", ("ess9x10_std",)),
    "traffic.arrivals_per_sim_s": ("traffic", "sim_rate", ("sweep_light",)),
    "traffic.drop_rate": ("traffic", "sim_rate", ("sweep_light",)),
    "topology.plan_ms": ("topology", "setup_s", ALL_WORKLOADS),
    "exp.build_ms": ("exp", "setup_s", ALL_WORKLOADS),
    "exp.job_ms.p50": ("exp", "sim_rate", ("sweep_light",)),
    "exp.job_ms.max": ("exp", "sim_rate", ("sweep_light",)),
    "exp.store_put_us": ("exp", "sim_rate", ("sweep_light",)),
    "exp.store_hit_us": ("exp", "sim_rate", ("sweep_light",)),
    "exp.store_hit_frac": ("exp", "sim_rate", ("sweep_light",)),
    "par.lane_eff": ("par", "sim_rate", ("sweep_light",)),
    "obs.collect_ms": ("obs", "sim_rate", ("sweep_light",)),
    "obs.trace_overhead": ("obs", "sim_rate", ALL_WORKLOADS),
}
for _cat in PROFILE_CATEGORIES:
    LAYER_TABLE[f"obs.profile.{_cat}.ns_per_event"] = ("obs", "sim_rate", ALL_WORKLOADS)


def _operand(name, layers):
    if name.startswith("@"):
        return float(layers[name[1:]])
    return float(layers["counters"].get(name, 0.0))


def counter_ratios(layers):
    """The deterministic ratios; 0 where the denominator is 0 (e.g. no
    traffic counters on a saturated workload)."""
    out = {}
    for name, (num, den, _unit, _better) in COUNTER_RATIOS.items():
        d = _operand(den, layers)
        out[name] = _operand(num, layers) / d if d > 0 else 0.0
    return out


def profile_ns_per_event(profile):
    """Advisory first-stamp attribution: wall ns per event per category."""
    out = {}
    for cat in PROFILE_CATEGORIES:
        bucket = profile["profile"].get(cat, {"events": 0, "wall_ns": 0})
        events = float(bucket["events"])
        out[f"obs.profile.{cat}.ns_per_event"] = (
            float(bucket["wall_ns"]) / events if events > 0 else 0.0)
    return out


def layer_metrics(layers, profile):
    """name -> (value, unit) for every per-layer metric of one traced run."""
    out = {}
    for name, value in counter_ratios(layers).items():
        out[name] = (value, COUNTER_RATIOS[name][2])
    for name, (unit, _better) in TIMINGS.items():
        out[name] = (float(layers["timings"][name]), unit)
    out["obs.trace_overhead"] = (
        layers["unit_sim_rate"] / profile["unit_sim_rate"] - 1.0, "frac")
    for name, value in profile_ns_per_event(profile).items():
        out[name] = (value, "ns")
    return out


def metric_better(name):
    if name in COUNTER_RATIOS:
        return COUNTER_RATIOS[name][3]
    if name in TIMINGS:
        return TIMINGS[name][1]
    return "lower"


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) with the quartiles Python's
    statistics.quantiles(n=4) gives."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / med if med else math.inf
    return med, q1, q3, rel
