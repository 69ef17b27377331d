// Golden event counters: every sim.* / medium.* / mac.* / traffic.* entry
// of RunResult::metrics for four short runs, pinned to recorded values.
//
// These are the deterministic counters the repository benchmark hashes
// into its seed-1 check (queue schedules, cancels, stale skips and cold
// compares included). The differential suites compare production against
// the reference model's trace, which cannot see how many events production
// schedules or cancels to get there; a change that re-arms a cohort event
// more often, or fires more continuation decisions, passes them but moves
// these counters. A change that moves them on purpose re-records the
// tables below: a failure prints the full table of actual values in this
// file's format.
//
// One case runs the wTOP population step twice in one process and holds
// the two runs' series to the same bits, the determinism every figure
// depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;

struct Golden {
  const char* name;
  double value;
};

bool hashed_counter(const std::string& name) {
  for (const char* prefix : {"sim.", "medium.", "mac.", "traffic."})
    if (name.rfind(prefix, 0) == 0) return true;
  return false;
}

/// Static runs record series: the sampler's events are part of the pinned
/// sim.* counters.
exp::RunOptions short_run() {
  exp::RunOptions o;
  o.warmup = sim::Duration::seconds(0.5);
  o.measure = sim::Duration::seconds(2.0);
  o.record_series = true;
  return o;
}

void expect_counters(const exp::RunResult& r,
                     const std::vector<Golden>& expected) {
  std::vector<Golden> actual;
  for (const auto& m : r.metrics.entries())
    if (hashed_counter(m.name)) actual.push_back({m.name.c_str(), m.value});
  ASSERT_FALSE(actual.empty());
  bool same = actual.size() == expected.size();
  for (std::size_t i = 0; same && i < actual.size(); ++i)
    same = std::string(actual[i].name) == expected[i].name &&
           actual[i].value == expected[i].value;
  std::string table;
  for (const Golden& g : actual) {
    char line[128];
    std::snprintf(line, sizeof line, "      {\"%s\", %.17g},\n", g.name,
                  g.value);
    table += line;
  }
  EXPECT_TRUE(same) << "counters moved; actual values:\n" << table;
}

/// 20 saturated wTOP stations, 8 of them deactivated mid-run: cohort
/// withdrawals from both the busy cascade and deactivation.
exp::RunResult wtop_population_step() {
  return exp::run_dynamic(ScenarioConfig::connected(20, 1),
                          SchemeConfig::wtop_csma(), {{0.0, 20}, {1.5, 12}},
                          sim::Duration::seconds(3.0));
}

/// FNV-1a whole-word steps over the raw bits of the throughput, control
/// and active-node series, as wlanbench's hash_run mixes them.
std::uint64_t series_hash(const exp::RunResult& r) {
  util::Fnv1a h;
  for (const stats::TimeSeries* s :
       {&r.throughput_series, &r.control_series, &r.active_nodes_series}) {
    for (const auto& sample : s->samples()) {
      h.mix_double_word(sample.t_seconds);
      h.mix_double_word(sample.value);
    }
  }
  return h.digest();
}

TEST(CounterGolden, ConnectedWTopPopulationStep) {
  const exp::RunResult r = wtop_population_step();
  expect_counters(r, {
      {"sim.events_executed", 125622},
      {"sim.queue.scheduled", 218017},
      {"sim.queue.fired", 125622},
      {"sim.queue.cancelled", 92391},
      {"sim.queue.stale_skipped", 92391},
      {"sim.queue.heap_callbacks", 0},
      {"sim.queue.cold_compares", 6407},
      {"medium.nodes", 21},
      {"medium.tx_started", 37589},
      {"medium.corrupt_deliveries", 553000},
      {"medium.pairs_scanned", 81463},
      {"medium.interference_checks", 3095594},
      {"mac.cohort.enrollments", 171167},
      {"mac.cohort.cohorts_formed", 16171},
      {"mac.cohort.entry_merges", 0},
      {"mac.cohort.decisions_fired", 11191},
      {"mac.cohort.withdrawals", 138550},
  });
}

TEST(CounterGolden, ConnectedWTopPopulationStepRepeatsBitIdentically) {
  const exp::RunResult a = wtop_population_step();
  const exp::RunResult b = wtop_population_step();
  ASSERT_FALSE(a.throughput_series.samples().empty());
  ASSERT_FALSE(a.control_series.samples().empty());
  ASSERT_FALSE(a.active_nodes_series.samples().empty());
  EXPECT_EQ(series_hash(a), series_hash(b));
}

TEST(CounterGolden, HiddenToraPoisson) {
  // Partial busy cascades and out-of-order withdrawals, with Poisson
  // sources so stations park and wake (the traffic.* counters).
  auto scenario = ScenarioConfig::hidden(20, 16.0, 1);
  scenario.traffic = traffic::TrafficConfig::poisson(0.8);
  const exp::RunResult r =
      exp::run_scenario(scenario, SchemeConfig::tora_csma(), short_run());
  expect_counters(r, {
      {"sim.events_executed", 64212},
      {"sim.queue.scheduled", 111461},
      {"sim.queue.fired", 64212},
      {"sim.queue.cancelled", 47223},
      {"sim.queue.stale_skipped", 47223},
      {"sim.queue.heap_callbacks", 0},
      {"sim.queue.cold_compares", 655},
      {"medium.nodes", 21},
      {"medium.tx_started", 12925},
      {"medium.corrupt_deliveries", 49754},
      {"medium.pairs_scanned", 1574},
      {"medium.interference_checks", 51820},
      {"mac.cohort.enrollments", 47429},
      {"mac.cohort.cohorts_formed", 12946},
      {"mac.cohort.entry_merges", 44},
      {"mac.cohort.decisions_fired", 16621},
      {"mac.cohort.withdrawals", 39594},
      {"traffic.arrivals", 4093},
      {"traffic.drops", 0},
  });
}

TEST(CounterGolden, MulticellStandardCapture) {
  // 4 cells of 8 stations, capture on (the multicell default): many small
  // cohorts and entry merges across cells.
  const auto scenario = ScenarioConfig::multicell(4, 8, 40.0, 1);
  ASSERT_GT(scenario.phy.capture_ratio, 0.0);
  const exp::RunResult r =
      exp::run_scenario(scenario, SchemeConfig::standard(), short_run());
  expect_counters(r, {
      {"sim.events_executed", 262106},
      {"sim.queue.scheduled", 584461},
      {"sim.queue.fired", 262106},
      {"sim.queue.cancelled", 322336},
      {"sim.queue.stale_skipped", 322333},
      {"sim.queue.heap_callbacks", 0},
      {"sim.queue.cold_compares", 5924},
      {"medium.nodes", 36},
      {"medium.tx_started", 78569},
      {"medium.corrupt_deliveries", 138834},
      {"medium.pairs_scanned", 13532},
      {"medium.interference_checks", 189448},
      {"mac.cohort.enrollments", 301184},
      {"mac.cohort.cohorts_formed", 59533},
      {"mac.cohort.entry_merges", 14},
      {"mac.cohort.decisions_fired", 36187},
      {"mac.cohort.withdrawals", 254040},
  });
}

TEST(CounterGolden, ConnectedIdleSenseRtsCts) {
  auto scenario = ScenarioConfig::connected(10, 1);
  scenario.phy.rts_threshold_bits = 0;
  const exp::RunResult r = exp::run_scenario(
      scenario, SchemeConfig::idle_sense_scheme(), short_run());
  expect_counters(r, {
      {"sim.events_executed", 65909},
      {"sim.queue.scheduled", 243487},
      {"sim.queue.fired", 65909},
      {"sim.queue.cancelled", 177574},
      {"sim.queue.stale_skipped", 177574},
      {"sim.queue.heap_callbacks", 0},
      {"sim.queue.cold_compares", 408},
      {"medium.nodes", 11},
      {"medium.tx_started", 24664},
      {"medium.corrupt_deliveries", 19000},
      {"medium.pairs_scanned", 1061},
      {"medium.interference_checks", 19098},
      {"mac.cohort.enrollments", 66060},
      {"mac.cohort.cohorts_formed", 7520},
      {"mac.cohort.entry_merges", 0},
      {"mac.cohort.decisions_fired", 7246},
      {"mac.cohort.withdrawals", 58459},
  });
}

}  // namespace
