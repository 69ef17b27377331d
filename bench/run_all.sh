#!/usr/bin/env bash
# Runs every figure/table/ablation/extension bench binary, up to
# WLAN_BENCH_JOBS of them in parallel (they are independent processes),
# and collects each driver's CSV plus its console log under
# <build-dir>/results/<driver>/. Drivers are
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
#                       here: <build>/results/run_cache, kept across
#                       invocations; export WLAN_RUN_CACHE= (empty) to
#                       disable). Points shared by several drivers — the
#                       connected and hidden r=16 adaptive points of
#                       fig01/fig03/fig06/table3, the N=20 points of
#                       ext_robustness/ext_rtscts_tradeoff — are simulated
#                       once. Entries sit in <store>/<16-hex source epoch>/
#                       and no other build reads them, so a rebuilt
#                       simulator never replays stale physics.
#
# Resume: run the same command again. Every job a previous invocation
# finished replays from the store, series included, byte-identically.
#
# Signals: TERM or INT to this script alone (a CI step timeout, kill
# <pid>, Ctrl-C) stops every driver it started, then exits 143 or 130.
#
# Pruning: before the first driver starts, everything in the default store
# but the build's own epoch directory (read from
# <build>/generated/wlan_source_epoch.hpp) is deleted, since this build
# never reads it. An unreadable epoch prunes nothing, and a WLAN_RUN_CACHE
# set by the caller is never pruned.
#
# results/summary.csv holds each driver's wall clock and the peak RSS and
# store hits/misses of the "[bench] VmHWM" and "[bench] store" lines that
# bench::init makes it log as it exits.
#
# Each driver runs once. Drivers are deterministic, so one that failed
# would fail again; its .failed marker fails the script.
set -euo pipefail
# Job control: every background run_one leads its own process group,
# which holds its driver, so stop_drivers can signal a driver with it.
set -m

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

# Cross-driver result store: identical (scenario, scheme, params, seed)
# sweep jobs are simulated once and read back by every other driver and by
# every later invocation of this script. WLAN_RUN_CACHE= (set empty)
# disables it. Only the default store is pruned (see the header).
if [[ -z ${WLAN_RUN_CACHE+set} ]]; then
  export WLAN_RUN_CACHE="${results_dir}/run_cache"
  epoch_header="${build_dir}/generated/wlan_source_epoch.hpp"
  epoch="$(sed -n 's/.*kSourceEpoch = 0x\([0-9a-f]\{16\}\)ull;.*/\1/p' \
             "${epoch_header}" 2>/dev/null || true)"
  if [[ -z ${epoch} ]]; then
    echo "note: no source epoch in ${epoch_header};" \
         "${WLAN_RUN_CACHE} not pruned" >&2
  elif [[ -d ${WLAN_RUN_CACHE} ]]; then
    find "${WLAN_RUN_CACHE}" -mindepth 1 -maxdepth 1 ! -name "${epoch}" \
         -exec rm -rf {} +
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

# One driver: run it inside its own results/<driver>/ directory so the CSV
# it writes to the CWD lands there, write its console output to
# driver.log, and leave a .failed marker for the final tally.
run_one() {
  local bin="$1" name out t0 t1
  # On TERM, exit only after reaping the driver, so that it is never left
  # behind as an orphan (see stop_drivers).
  trap 'exit 143' TERM
  name="$(basename "${bin}")"
  out="${results_dir}/${name#bench_}"
  mkdir -p "${out}"
  rm -f "${out}/.failed" "${out}/.wall_seconds" "${out}/.max_rss_kb" \
        "${out}/.store_counts"
  t0="$(date +%s.%N)"
  if ! (cd "${out}" && exec "${bin}") > "${out}/driver.log" 2>&1; then
    touch "${out}/.failed"
  fi
  t1="$(date +%s.%N)"
  # Per-driver wall clock, assembled into results/summary.csv at the end.
  awk -v a="${t0}" -v b="${t1}" 'BEGIN { printf "%.2f\n", b - a }' \
      > "${out}/.wall_seconds"
  # Peak RSS and store lookups: bench::init makes every driver log both as
  # it exits.
  sed -n 's/^\[bench\] VmHWM: \([0-9]*\) kB$/\1/p' "${out}/driver.log" \
      | tail -n 1 > "${out}/.max_rss_kb"
  sed -n 's/^\[bench\] store: \([0-9]*\) hits, \([0-9]*\) misses$/\1,\2/p' \
      "${out}/driver.log" | tail -n 1 > "${out}/.store_counts"
  if [[ -e "${out}/.failed" ]]; then
    echo "<== ${name} FAILED (log: ${out}/driver.log)"
  else
    echo "<== ${name} done"
  fi
}

# Drop failure/timing markers from previous invocations (a driver that no
# longer runs must not appear in this run's tally or summary.csv).
rm -f "${results_dir}"/*/.failed "${results_dir}"/*/.wall_seconds \
      "${results_dir}"/*/.max_rss_kb "${results_dir}"/*/.store_counts

# A signal to this script alone would leave the drivers running, so pass
# it on to every driver's process group and wait until they have exited.
stop_drivers() {
  local pgid
  for pgid in $(jobs -p); do kill -TERM -- "-${pgid}" 2>/dev/null || true; done
  wait || true
  exit "$1"
}
trap 'stop_drivers 143' TERM
trap 'stop_drivers 130' INT

echo "Running ${#benches[@]} drivers, ${jobs} at a time ..."
for bin in "${benches[@]}"; do
  [[ -x ${bin} && ! -d ${bin} ]] || continue
  while (( $(jobs -rp | wc -l) >= jobs )); do
    # `wait -n` needs bash >= 4.3; elsewhere fall back to a short sleep.
    # Failures are tallied via .failed markers, not exit statuses.
    wait -n 2>/dev/null || sleep 0.2
  done
  echo "==> $(basename "${bin}")"
  run_one "${bin}" &
done
wait || true

echo
echo "Per-driver outputs in ${results_dir}/<driver>/:"
ls -1 "${results_dir}"

# Per-driver summary (the slow ones are the optimization targets — see
# ROADMAP's perf item). A driver killed before it exits logs no exit lines,
# so its max_rss_kb, cache_hits and cache_misses are empty (max_rss_kb also
# where /proc is missing).
summary="${results_dir}/summary.csv"
echo "driver,wall_seconds,max_rss_kb,cache_hits,cache_misses,status" > "${summary}"
for wall in "${results_dir}"/*/.wall_seconds; do
  [[ -e ${wall} ]] || continue
  dir="$(dirname "${wall}")"
  status=ok
  [[ -e "${dir}/.failed" ]] && status=failed
  rss=""
  [[ -s "${dir}/.max_rss_kb" ]] && rss="$(cat "${dir}/.max_rss_kb")"
  store=","
  [[ -s "${dir}/.store_counts" ]] && store="$(cat "${dir}/.store_counts")"
  echo "$(basename "${dir}"),$(cat "${wall}"),${rss},${store},${status}"
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
