#!/usr/bin/env bash
# Runs every figure/table/ablation/extension bench binary — up to
# WLAN_BENCH_JOBS of them in parallel (they are independent processes),
# then bench_parallel_scaling alone — and collects each driver's CSV plus
# its console log under <build-dir>/results/<driver>/. Drivers are
# discovered by the bench_* glob below, so a new bench/*.cpp (e.g.
# ext_load_delay_curve, ext_load_sweep_fairness) registers itself once
# CMake builds it, and a binary whose bench/*.cpp is gone is left out.
#
# Usage:
#   bench/run_all.sh [build-dir]          # default build-dir: ./build
#   WLAN_BENCH_FAST=1 bench/run_all.sh    # smoke run (trimmed sweeps)
#
# Effort knobs (read by the binaries themselves, see src/util/env.hpp):
#   WLAN_BENCH_SECONDS  multiplier on simulated seconds per data point
#   WLAN_BENCH_SEEDS    independent seeds averaged per point
#   WLAN_BENCH_FAST     truthy => trimmed sweep for smoke runs
#   WLAN_THREADS        in-process sweep lanes per driver (default 1 here:
#                       the script already parallelizes across drivers)
#   WLAN_BENCH_JOBS     concurrent driver processes (default: nproc)
#   WLAN_RUN_CACHE      run-cache directory, the one result store (default
#                       here: <build>/results/run_cache, so points shared by
#                       several drivers — fig06/fig07 vs table2, the std
#                       columns of the load drivers — are simulated once,
#                       and a driver killed mid-sweep resumes job-by-job
#                       from it, byte-identically; export WLAN_RUN_CACHE=
#                       (empty) to disable)
#   WLAN_RUN_CACHE_KEEP keep the default cache across invocations of this
#                       script (default: wiped at startup, so results can
#                       never come from a previous build's binaries)
#   WLAN_BENCH_RESUME   truthy => skip drivers whose results/<driver>/
#                       already holds a completed run (non-empty CSV/JSON
#                       output plus the .wall_seconds completion marker and
#                       no .failed marker); interrupted or failed drivers
#                       re-run. Pair with WLAN_RUN_CACHE_KEEP=1 to make a
#                       killed invocation cheap to finish.
#
# Live telemetry: every driver runs with WLAN_PROGRESS_JSON pointed at its
# own results/<driver>/progress.json (src/exp/progress.hpp heartbeat); a
# background aggregator folds them into results/status.json every few
# seconds while drivers run, so one `watch cat results/status.json` follows
# the whole invocation. summary.csv carries each driver's final run-cache
# hit/miss tallies next to wall clock and peak RSS.
#
# Each driver runs once. Drivers are deterministic, so one that failed
# would fail again; its .failed marker fails the script.
set -euo pipefail

build_dir="$(cd "${1:-build}" && pwd)"
results_dir="${build_dir}/results"
mkdir -p "${results_dir}"

default_jobs="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
jobs="${WLAN_BENCH_JOBS:-${default_jobs}}"
[[ ${jobs} =~ ^[0-9]+$ && ${jobs} -ge 1 ]] || jobs=1

# This script already fans out across driver processes; unless the caller
# asked otherwise, keep each driver's in-process sweep serial so a default
# run uses ~nproc threads total instead of jobs x lanes.
export WLAN_THREADS="${WLAN_THREADS:-1}"

# Cross-driver run cache: identical (scenario, scheme, params, seed) points
# are simulated once and read back by every other driver (and by re-runs of
# this script while the cache persists). Scoped to this invocation by
# default so a rebuild can never serve stale physics; WLAN_RUN_CACHE_KEEP=1
# retains it, and WLAN_RUN_CACHE= (set empty) disables caching entirely.
if [[ -z ${WLAN_RUN_CACHE+x} ]]; then
  export WLAN_RUN_CACHE="${results_dir}/run_cache"
  # Only the default cache this script owns is ever wiped; a caller's own
  # WLAN_RUN_CACHE directory is theirs to manage (and to invalidate on
  # rebuilds!).
  if [[ -z ${WLAN_RUN_CACHE_KEEP:-} ]]; then
    rm -rf "${WLAN_RUN_CACHE}"
  fi
fi

shopt -s nullglob
# A build directory keeps the binaries of deleted drivers; only those with
# a source next to this script run.
bench_src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
benches=()
for bin in "${build_dir}"/bench_*; do
  name="$(basename "${bin}")"
  if [[ -e "${bench_src}/${name#bench_}.cpp" ]]; then
    benches+=("${bin}")
  fi
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "error: no bench_* binaries in ${build_dir};" \
       "configure with -DWLAN_BUILD_BENCH=ON and build first" >&2
  exit 1
fi

# A driver's previous run counts as complete only when it produced a
# non-empty CSV/JSON AND wrote .wall_seconds (the last thing run_one does,
# so a killed run never has it) AND did not fail. A partial CSV flushed by
# the shutdown handler therefore never masquerades as a finished run.
has_complete_run() {
  local out="$1" f
  [[ -e "${out}/.wall_seconds" && ! -e "${out}/.failed" ]] || return 1
  for f in "${out}"/*.csv "${out}"/*.json; do
    [[ -s ${f} ]] && return 0
  done
  return 1
}

# One driver: run it inside its own results/<driver>/ directory so the CSV
# it writes to the CWD lands there, write its console output to
# driver.log, and leave a .failed marker for the final tally.
run_one() {
  local bin="$1" name out t0 t1
  name="$(basename "${bin}")"
  out="${results_dir}/${name#bench_}"
  mkdir -p "${out}"
  rm -f "${out}/.failed" "${out}/.wall_seconds" "${out}/.max_rss_kb" \
        "${out}/progress.json"
  t0="$(date +%s.%N)"
  if ! (cd "${out}" && WLAN_PROGRESS_JSON="${out}/progress.json" \
                       "${bin}") > "${out}/driver.log" 2>&1; then
    touch "${out}/.failed"
  fi
  t1="$(date +%s.%N)"
  # Per-driver wall clock, assembled into results/summary.csv at the end.
  awk -v a="${t0}" -v b="${t1}" 'BEGIN { printf "%.2f\n", b - a }' \
      > "${out}/.wall_seconds"
  # Peak RSS: bench::init makes every driver log its VmHWM as it exits.
  sed -n 's/^\[bench\] VmHWM: \([0-9]*\) kB$/\1/p' "${out}/driver.log" \
      | tail -n 1 > "${out}/.max_rss_kb"
  if [[ -e "${out}/.failed" ]]; then
    echo "<== ${name} FAILED (log: ${out}/driver.log)"
  else
    echo "<== ${name} done"
  fi
}

resume="${WLAN_BENCH_RESUME:-}"
[[ ${resume} == 0 ]] && resume=""

# Drop failure/timing markers from previous invocations (a driver that no
# longer runs must not appear in this run's tally or summary.csv). In
# resume mode the markers ARE the completion record — skipped drivers keep
# theirs (and their summary row); drivers that re-run reset their own.
if [[ -z ${resume} ]]; then
  rm -f "${results_dir}"/*/.failed "${results_dir}"/*/.wall_seconds \
        "${results_dir}"/*/.max_rss_kb "${results_dir}"/*/progress.json
fi

# Folds every per-driver progress.json heartbeat (plus the run markers)
# into one results/status.json, written tmp+rename so a watcher never sees
# a torn document. Skipped silently when python3 is unavailable.
aggregate_status() {
  command -v python3 >/dev/null 2>&1 || return 0
  python3 - "${results_dir}" <<'PY' 2>/dev/null || true
import json, os, sys, time
results = sys.argv[1]
status = {"updated_unix": int(time.time()), "drivers": {}}
totals = {"jobs_total": 0, "jobs_done": 0, "jobs_failed": 0,
          "drivers_done": 0, "drivers_failed": 0, "drivers_running": 0}
for name in sorted(os.listdir(results)):
    d = os.path.join(results, name)
    if not os.path.isdir(d):
        continue
    entry = {}
    try:
        with open(os.path.join(d, "progress.json")) as f:
            entry = json.load(f)
    except (OSError, ValueError):
        pass
    if os.path.exists(os.path.join(d, ".failed")):
        entry["state"] = "failed"
        totals["drivers_failed"] += 1
    elif os.path.exists(os.path.join(d, ".wall_seconds")):
        entry["state"] = "done"
        totals["drivers_done"] += 1
    elif entry:
        entry["state"] = "running"
        totals["drivers_running"] += 1
    else:
        continue  # no heartbeat and no markers: not started yet
    totals["jobs_total"] += int(entry.get("total", 0))
    totals["jobs_done"] += int(entry.get("done", 0))
    totals["jobs_failed"] += int(entry.get("failed", 0))
    status["drivers"][name] = entry
status["totals"] = totals
tmp = os.path.join(results, "status.json.tmp")
with open(tmp, "w") as f:
    json.dump(status, f, indent=2)
    f.write("\n")
os.replace(tmp, os.path.join(results, "status.json"))
PY
}

# Background aggregator: refresh status.json while drivers run. Disowned so
# the job-slot accounting and the final `wait` only ever see drivers.
status_pid=""
if command -v python3 >/dev/null 2>&1; then
  ( while :; do aggregate_status; sleep 5; done ) &
  status_pid=$!
  disown "${status_pid}" 2>/dev/null || true
fi

echo "Running ${#benches[@]} drivers, ${jobs} at a time ..."
# bench_parallel_scaling measures lane speedups, so it runs alone after the
# others: beside them its lanes would compete for cores.
scaling=""
for bin in "${benches[@]}"; do
  [[ -x ${bin} && ! -d ${bin} ]] || continue
  name="$(basename "${bin}")"
  if [[ -n ${resume} ]] && has_complete_run "${results_dir}/${name#bench_}"; then
    echo "==> ${name} (already complete, skipped by WLAN_BENCH_RESUME)"
    continue
  fi
  if [[ ${name} == bench_parallel_scaling ]]; then
    scaling="${bin}"
    continue
  fi
  while (( $(jobs -rp | wc -l) >= jobs )); do
    # `wait -n` needs bash >= 4.3; elsewhere fall back to a short sleep.
    # Failures are tallied via .failed markers, not exit statuses.
    wait -n 2>/dev/null || sleep 0.2
  done
  echo "==> ${name}"
  run_one "${bin}" &
done
wait || true
if [[ -n ${scaling} ]]; then
  echo "==> bench_parallel_scaling (alone)"
  run_one "${scaling}"
fi
if [[ -n ${status_pid} ]]; then
  kill "${status_pid}" 2>/dev/null || true
fi
aggregate_status

echo
echo "Per-driver outputs in ${results_dir}/<driver>/:"
ls -1 "${results_dir}"

# Wall-clock + peak-RSS summary across drivers (the slow ones are the
# optimization targets — see ROADMAP's perf item). max_rss_kb is empty when
# the driver logged no VmHWM line (no /proc, a driver that does not call
# bench::init, or a run killed before exit);
# cache_hits/cache_misses come from the driver's final progress.json
# heartbeat (empty when the driver predates the heartbeat or ran no sweep).
summary="${results_dir}/summary.csv"
echo "driver,wall_seconds,max_rss_kb,cache_hits,cache_misses,status" > "${summary}"
for wall in "${results_dir}"/*/.wall_seconds; do
  [[ -e ${wall} ]] || continue
  dir="$(dirname "${wall}")"
  status=ok
  [[ -e "${dir}/.failed" ]] && status=failed
  rss=""
  [[ -s "${dir}/.max_rss_kb" ]] && rss="$(cat "${dir}/.max_rss_kb")"
  hits=""
  misses=""
  if [[ -s "${dir}/progress.json" ]]; then
    hits="$(sed -n 's/.*"cache_hits": \([0-9]*\).*/\1/p' "${dir}/progress.json")"
    misses="$(sed -n 's/.*"cache_misses": \([0-9]*\).*/\1/p' "${dir}/progress.json")"
  fi
  echo "$(basename "${dir}"),$(cat "${wall}"),${rss},${hits},${misses},${status}"
done | sort >> "${summary}"
echo
echo "Wall-clock summary (${summary}):"
column -s, -t "${summary}" 2>/dev/null || cat "${summary}"

failed=()
for marker in "${results_dir}"/*/.failed; do
  [[ -e ${marker} ]] || continue
  failed+=("$(basename "$(dirname "${marker}")")")
done
if [[ ${#failed[@]} -gt 0 ]]; then
  echo "FAILED: ${failed[*]}" >&2
  exit 1
fi
