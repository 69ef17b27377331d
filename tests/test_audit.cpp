// Tests for the conservation-law auditors (src/obs/audit.hpp): clean runs
// across topologies/schemes report zero violations, an injected accounting
// bug IS caught (with a flight-recorder excerpt naming the FrameId), and
// attaching the auditors changes nothing about the simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;

/// Restores the process-wide audit override on scope exit.
struct AuditOverrideGuard {
  explicit AuditOverrideGuard(int v) { obs::AuditSet::set_override(v); }
  ~AuditOverrideGuard() { obs::AuditSet::set_override(-1); }
};

struct FlightOverrideGuard {
  explicit FlightOverrideGuard(int v) { obs::SimObs::set_flight_override(v); }
  ~FlightOverrideGuard() { obs::SimObs::set_flight_override(-1); }
};

/// Clears the test-only queue skew on scope exit.
struct QueueSkewGuard {
  explicit QueueSkewGuard(std::int64_t k) {
    obs::audit_testing::set_queue_skew(k);
  }
  ~QueueSkewGuard() { obs::audit_testing::set_queue_skew(0); }
};

exp::RunOptions quick_series_options() {
  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(0.1);
  opts.measure = sim::Duration::seconds(0.3);
  opts.sample_period = sim::Duration::seconds(0.05);
  opts.record_series = true;  // sample-point checks
  return opts;
}

// ----------------------------------------------------------------- gating

TEST(Audit, OverrideControlsEnabledAndThrow) {
  {
    AuditOverrideGuard off(0);
    EXPECT_FALSE(obs::AuditSet::enabled());
    EXPECT_FALSE(obs::AuditSet::throw_requested());
  }
  {
    AuditOverrideGuard on(1);
    EXPECT_TRUE(obs::AuditSet::enabled());
    EXPECT_FALSE(obs::AuditSet::throw_requested());
  }
  {
    AuditOverrideGuard thr(2);
    EXPECT_TRUE(obs::AuditSet::enabled());
    EXPECT_TRUE(obs::AuditSet::throw_requested());
  }
}

// ------------------------------------------------------------- clean runs

void expect_clean_audit(const ScenarioConfig& scenario,
                        const SchemeConfig& scheme) {
  // Throw mode: any violated law aborts the run, so simply finishing is
  // the assertion. The metrics confirm the auditors actually ran.
  AuditOverrideGuard thr(2);
  const auto r = exp::run_scenario(scenario, scheme, quick_series_options());
  EXPECT_GE(r.metrics.get("audit.checks", 0.0), 2.0)
      << scheme.name() << ": sample points + end-of-run";
  EXPECT_GT(r.metrics.get("audit.laws_checked", 0.0), 0.0);
  EXPECT_EQ(r.metrics.get("audit.violations", -1.0), 0.0);
}

TEST(Audit, CleanOnConnectedAllSchemes) {
  const auto scenario = ScenarioConfig::connected(8, 1);
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
        SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()})
    expect_clean_audit(scenario, scheme);
}

TEST(Audit, CleanOnHiddenAndShadowed) {
  expect_clean_audit(ScenarioConfig::hidden(8, 16.0, 3),
                     SchemeConfig::standard());
  expect_clean_audit(ScenarioConfig::hidden(8, 16.0, 3),
                     SchemeConfig::wtop_csma());
  expect_clean_audit(ScenarioConfig::shadowed(6, 0.3, 5),
                     SchemeConfig::standard());
}

TEST(Audit, CleanOnMulticell) {
  expect_clean_audit(ScenarioConfig::multicell(4, 5, 40.0, 1),
                     SchemeConfig::wtop_csma());
}

TEST(Audit, CleanWithTrafficSources) {
  auto scenario = ScenarioConfig::connected(6, 2);
  scenario.traffic = traffic::TrafficConfig::poisson(1.0);
  expect_clean_audit(scenario, SchemeConfig::standard());
}

TEST(Audit, CleanOnDynamicRun) {
  AuditOverrideGuard thr(2);
  const auto scenario = ScenarioConfig::connected(10, 1);
  const std::vector<exp::PopulationStep> schedule{{0.0, 10}, {0.2, 4}};
  const auto r =
      exp::run_dynamic(scenario, SchemeConfig::wtop_csma(), schedule,
                       sim::Duration::seconds(0.5));
  EXPECT_EQ(r.metrics.get("audit.violations", -1.0), 0.0);
}

// ----------------------------------------------- injected accounting bug

TEST(Audit, InjectedQueueSkewIsCaughtAndNamesFrameId) {
  // Skew station 0's completed-exchange count by one: the queue-
  // conservation law must fire, and with a flight recorder attached the
  // failure message must carry the station's span history, FrameIds named.
  AuditOverrideGuard thr(2);
  FlightOverrideGuard flight(1);
  QueueSkewGuard skew(1);
  auto scenario = ScenarioConfig::connected(4, 2);
  scenario.traffic = traffic::TrafficConfig::poisson(1.0);
  try {
    exp::run_scenario(scenario, SchemeConfig::standard(),
                      quick_series_options());
    FAIL() << "auditor missed the injected accounting bug";
  } catch (const obs::AuditFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("queue-conservation"), std::string::npos) << what;
    EXPECT_NE(what.find("station 0"), std::string::npos) << what;
    EXPECT_NE(what.find("flight recorder"), std::string::npos) << what;
    EXPECT_NE(what.find("frame="), std::string::npos) << what;
  }
}

TEST(Audit, InjectedSkewRecordedWithoutThrowInReportMode) {
  AuditOverrideGuard on(1);  // report mode: run completes, violations count
  QueueSkewGuard skew(1);
  auto scenario = ScenarioConfig::connected(4, 2);
  scenario.traffic = traffic::TrafficConfig::poisson(1.0);
  const auto r = exp::run_scenario(scenario, SchemeConfig::standard(),
                                   quick_series_options());
  EXPECT_GT(r.metrics.get("audit.violations", 0.0), 0.0);
}

// ------------------------------------------------- zero-perturbation bar

void hash_series(const stats::TimeSeries& s, util::Fnv1a& h) {
  for (const auto& sample : s.samples()) {
    h.mix_double_word(sample.t_seconds);
    h.mix_double_word(sample.value);
  }
}

std::uint64_t hash_run(const exp::RunResult& r) {
  util::Fnv1a h;
  hash_series(r.throughput_series, h);
  hash_series(r.control_series, h);
  h.mix_double_word(r.total_mbps);
  for (double v : r.per_station_mbps) h.mix_double_word(v);
  h.mix_double_word(static_cast<double>(r.successes));
  h.mix_double_word(static_cast<double>(r.failures));
  h.mix_double_word(r.mean_delay_s);
  return h.digest();
}

TEST(AuditIdentity, AuditorsChangeNothing) {
  const exp::RunOptions opts = quick_series_options();
  for (const auto& scenario :
       {ScenarioConfig::connected(8, 2), ScenarioConfig::hidden(8, 16.0, 3)}) {
    std::uint64_t off_hash, on_hash;
    {
      AuditOverrideGuard off(0);
      off_hash =
          hash_run(exp::run_scenario(scenario, SchemeConfig::standard(), opts));
    }
    {
      AuditOverrideGuard thr(2);
      on_hash =
          hash_run(exp::run_scenario(scenario, SchemeConfig::standard(), opts));
    }
    EXPECT_EQ(off_hash, on_hash) << "auditors must not perturb the run";
  }
}

}  // namespace
