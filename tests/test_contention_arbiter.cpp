// Differential tests for the cohort contention arbiter: production (one
// DIFS + one decision event per same-entry cohort, batched draws with
// rollback) must reproduce the reference model's literal per-slot stations
// (tests/reference/) trace record for trace record — across topologies,
// schemes, traffic gating, RTS/CTS and dynamic activation — while actually
// merging contenders (fewer executed events, cohort sizes > 1).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "mac/contention_arbiter.hpp"
#include "mac/network.hpp"
#include "reference/differential.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;

void expect_matches_reference(const ScenarioConfig& scenario,
                              const SchemeConfig& scheme,
                              double seconds = 0.5,
                              std::vector<exp::PopulationStep> schedule = {}) {
  reference::Case c{scenario, scheme, sim::Duration::seconds(seconds),
                    std::move(schedule)};
  const std::string report = reference::check_case(c);
  EXPECT_TRUE(report.empty()) << report;
}

TEST(ContentionArbiter, ConnectedTopologyAllSchemesBitIdentical) {
  // Fully connected: every idle transition re-enters ALL contenders at the
  // same instant — maximal cohorts, plus EIFS sub-cohorts after every
  // collision.
  for (std::uint64_t seed : {1u, 7u}) {
    const auto scenario = ScenarioConfig::connected(12, seed);
    for (const auto& scheme :
         {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
          SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()}) {
      expect_matches_reference(scenario, scheme);
    }
  }
}

TEST(ContentionArbiter, HiddenTopologyAllSchemesBitIdentical) {
  // Hidden nodes: partial busy cascades withdraw only the sensing members,
  // cohorts fragment per sensing neighbourhood, and EIFS/DIFS waits can
  // expire at coinciding instants (the entry-merge path).
  for (std::uint64_t seed : {3u, 11u}) {
    const auto scenario = ScenarioConfig::hidden(10, 16.0, seed);
    for (const auto& scheme :
         {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
          SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()}) {
      expect_matches_reference(scenario, scheme);
    }
  }
}

TEST(ContentionArbiter, ShadowedTopologyBitIdentical) {
  // Obstacle shadowing: hidden pairs inside a connected-looking circle.
  const auto scenario = ScenarioConfig::shadowed(8, 0.3, 5);
  expect_matches_reference(scenario, SchemeConfig::standard());
  expect_matches_reference(scenario, SchemeConfig::wtop_csma());
}

TEST(ContentionArbiter, TrafficGatedContentionBitIdentical) {
  // Finite sources: stations park in kNoData and re-enroll on arrivals at
  // arbitrary instants (cohorts of one, or joining an existing key).
  auto scenario = ScenarioConfig::connected(8, 2);
  scenario.traffic = traffic::TrafficConfig::poisson(1.0);
  expect_matches_reference(scenario, SchemeConfig::standard(), 0.7);
  auto hidden = ScenarioConfig::hidden(8, 16.0, 4);
  hidden.traffic = traffic::TrafficConfig::on_off(2.0, 0.01, 0.03);
  expect_matches_reference(hidden, SchemeConfig::standard(), 0.7);
}

TEST(ContentionArbiter, RtsCtsExchangesBitIdentical) {
  // RTS/CTS: CTS timeouts and SIFS-deferred data starts interleave with
  // cohort boundaries.
  auto scenario = ScenarioConfig::hidden(8, 16.0, 6);
  scenario.phy.rts_threshold_bits = 0;  // every data frame uses RTS/CTS
  expect_matches_reference(scenario, SchemeConfig::standard());
}

TEST(ContentionArbiter, DynamicActivationBitIdentical) {
  // Population steps toggle stations mid-backoff: deactivation withdraws
  // members (rollback without a busy trigger), activation re-enrolls.
  const auto scenario = ScenarioConfig::connected(10, 1);
  const std::vector<exp::PopulationStep> schedule{
      {0.0, 10}, {0.2, 3}, {0.4, 8}, {0.6, 1}, {0.8, 10}};
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
        SchemeConfig::tora_csma()}) {
    expect_matches_reference(scenario, scheme, 1.0, schedule);
  }
}

TEST(ContentionArbiter, CohortsActuallyMergeContenders) {
  // A connected network must form multi-member cohorts (every idle
  // transition re-enters all backlogged stations at once) and execute far
  // fewer events than the per-slot reference for the same run.
  const auto scenario = ScenarioConfig::connected(16, 1);
  const auto scheme = SchemeConfig::standard();

  auto net = exp::build_network(scenario, scheme);
  net->start();
  net->run_for(sim::Duration::seconds(0.5));
  const std::uint64_t cohort_events = net->simulator().events_executed();
  const auto& stats = net->contention_arbiter().stats();
  EXPECT_GT(stats.enrollments, 0u);
  EXPECT_GT(stats.cohorts_formed, 0u);
  // Merging is the whole point: enrollments must far exceed cohorts.
  EXPECT_GT(stats.enrollments, 4 * stats.cohorts_formed);
  EXPECT_GT(stats.decisions_fired, 0u);
  EXPECT_GT(stats.withdrawals, 0u);

  const reference::Outcome per_slot = reference::run_reference(
      {scenario, scheme, sim::Duration::seconds(0.5), {}});
  // 16 connected stations: cohorts replace ~2N contention events per busy
  // period with ~2, and batching replaces one event per idle slot.
  EXPECT_LT(static_cast<double>(cohort_events),
            0.55 * static_cast<double>(per_slot.events_executed))
      << "cohort=" << cohort_events << " per-slot=" << per_slot.events_executed;
}

/// FNV-1a (shared core: util::Fnv1a) over the bit patterns of a series'
/// samples — the same whole-word construction as wlanbench's hash_run.
std::uint64_t hash_run(const exp::RunResult& r) {
  util::Fnv1a h;
  for (const auto* series : {&r.throughput_series, &r.control_series,
                             &r.stage_series, &r.active_nodes_series}) {
    for (const auto& sample : series->samples()) {
      h.mix_double_word(sample.t_seconds);
      h.mix_double_word(sample.value);
    }
  }
  h.mix_double_word(r.total_mbps);
  for (double v : r.per_station_mbps) h.mix_double_word(v);
  h.mix_double_word(r.ap_avg_idle_slots);
  h.mix_double_word(static_cast<double>(r.successes));
  h.mix_double_word(static_cast<double>(r.failures));
  return h.digest();
}

TEST(ContentionArbiter, RepeatRunsAreDeterministic) {
  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(0.1);
  opts.measure = sim::Duration::seconds(0.4);
  opts.sample_period = sim::Duration::seconds(0.05);
  opts.record_series = true;
  const auto scenario = ScenarioConfig::hidden(10, 20.0, 9);
  const auto a = exp::run_scenario(scenario, SchemeConfig::tora_csma(), opts);
  const auto b = exp::run_scenario(scenario, SchemeConfig::tora_csma(), opts);
  EXPECT_EQ(hash_run(a), hash_run(b));
}

}  // namespace
