// Tests for the observability layer (src/obs/): ring-buffer semantics,
// Chrome-JSON export, metrics round-trip, trace diffing, and — the
// acceptance bar for the whole subsystem — that attaching a trace to a run
// changes NOTHING about the simulation (bit-identical series hashes,
// traced vs untraced, across topologies and schemes).
//
// Test names are prefixed Obs* so the CI TSan job can select them: the
// sweep test below forces per-simulator trace bundles on under the thread
// pool, which is exactly the sharing pattern TSan should vet.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "mac/network.hpp"
#include "obs/category.hpp"
#include "obs/collect.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "par/thread_pool.hpp"
#include "reference/trace_diff.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;

obs::TraceRecord rec(std::int64_t t, obs::Category c, std::uint16_t event,
                     std::uint32_t node, std::uint64_t a = 0,
                     std::uint64_t b = 0) {
  return obs::TraceRecord{t, static_cast<std::uint16_t>(c), event, node, a, b};
}

// ---------------------------------------------------------------- recorder

TEST(ObsTrace, RingGrowsOnDemandThenWrapsOldestFirst) {
  obs::Ring<obs::TraceRecord> ring(/*capacity=*/8);
  for (std::int64_t i = 0; i < 5; ++i)
    ring.push(rec(i, obs::kCatSim, obs::ev::kDispatch, 0, static_cast<std::uint64_t>(i)));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (std::size_t i = 0; i < snap.size(); ++i)
    EXPECT_EQ(snap[i].time_ns, static_cast<std::int64_t>(i));

  // Push past capacity: the oldest records are overwritten and counted.
  for (std::int64_t i = 5; i < 12; ++i)
    ring.push(rec(i, obs::kCatSim, obs::ev::kDispatch, 0));
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 4u);
  snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Survivors are the last 8 pushes, still oldest-first.
  for (std::size_t i = 0; i < snap.size(); ++i)
    EXPECT_EQ(snap[i].time_ns, static_cast<std::int64_t>(i + 4));
}

TEST(ObsTrace, WrapExactlyAtCapacityBoundary) {
  obs::Ring<obs::TraceRecord> ring(4);
  for (std::int64_t i = 0; i < 4; ++i)
    ring.push(rec(i, obs::kCatSim, obs::ev::kDispatch, 0));
  EXPECT_EQ(ring.dropped(), 0u);
  ring.push(rec(4, obs::kCatSim, obs::ev::kDispatch, 0));
  EXPECT_EQ(ring.dropped(), 1u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().time_ns, 1);
  EXPECT_EQ(snap.back().time_ns, 4);
}

TEST(ObsTrace, MaskGatesRecordingButNotProfilerAttribution) {
  obs::SimObs o(obs::category_bit(obs::kCatMedium), 16);
  o.profiler.enable();
  o.profiler.begin_event();
  o.point(10, obs::kCatStation, obs::ev::kStateChange, 1, 0, 1);  // masked out
  o.point(10, obs::kCatMedium, obs::ev::kTxStart, 1, 0, 0);       // recorded
  o.profiler.end_event(7);
  EXPECT_EQ(o.trace.size(), 1u);
  EXPECT_EQ(o.trace.snapshot()[0].event, obs::ev::kTxStart);
  // The FIRST point claimed the attribution even though it was masked.
  EXPECT_EQ(o.profiler.events(obs::kCatStation), 1u);
  EXPECT_EQ(o.profiler.events(obs::kCatMedium), 0u);
  EXPECT_EQ(o.profiler.wall_ns(obs::kCatStation), 7);
}

TEST(ObsTrace, PackFrameDetailKeepsFieldsSeparate) {
  const std::uint64_t d = obs::pack_frame_detail(/*kind=*/3, /*dst=*/0x12345,
                                                 /*seq=*/0x9876543210ull);
  EXPECT_EQ(d >> 60, 3u);
  EXPECT_EQ((d >> 40) & 0xFFFFFu, 0x12345u);
  EXPECT_EQ(d & 0xFFFFFFFFFFull, 0x9876543210ull);
}

TEST(ObsTrace, ParseCategoriesBuildsMasks) {
  EXPECT_EQ(obs::parse_categories(""), obs::kAllCategories);
  EXPECT_EQ(obs::parse_categories("medium"),
            obs::category_bit(obs::kCatMedium));
  EXPECT_EQ(obs::parse_categories("medium,station"),
            obs::category_bit(obs::kCatMedium) |
                obs::category_bit(obs::kCatStation));
  EXPECT_EQ(obs::parse_categories("station,all"), obs::kAllCategories);
  // One unknown name rejects the whole list (WLAN_TRACE_CATEGORIES then
  // exits 2 instead of tracing nothing).
  EXPECT_FALSE(obs::parse_categories("medum").has_value());
  EXPECT_FALSE(obs::parse_categories("medium,medum").has_value());
}

// ---------------------------------------------------------------- profiler

TEST(ObsProfiler, FirstStampWinsAndUnstampedEventsLandInOther) {
  obs::PhaseProfiler p;
  p.enable();
  p.begin_event();
  p.stamp(obs::kCatMedium);
  p.stamp(obs::kCatCohort);  // ignored: attribution already claimed
  p.end_event(100);
  p.begin_event();
  p.end_event(50);  // no stamp -> kCatOther
  EXPECT_EQ(p.events(obs::kCatMedium), 1u);
  EXPECT_EQ(p.events(obs::kCatCohort), 0u);
  EXPECT_EQ(p.events(obs::kCatOther), 1u);
  EXPECT_EQ(p.wall_ns(obs::kCatMedium), 100);
  EXPECT_EQ(p.total_events(), 2u);
  EXPECT_EQ(p.total_wall_ns(), 150);
  const std::string report = p.report("unit");
  EXPECT_NE(report.find("unit"), std::string::npos);
  EXPECT_NE(report.find("medium"), std::string::npos);
}

TEST(ObsProfiler, AddAndAddBucketAggregate) {
  obs::PhaseProfiler a, b;
  a.add_bucket(obs::kCatSim, 10, 1000);
  b.add_bucket(obs::kCatSim, 5, 500);
  b.add_bucket(obs::kCatMedium, 1, 10);
  a.add(b);
  EXPECT_EQ(a.events(obs::kCatSim), 15u);
  EXPECT_EQ(a.wall_ns(obs::kCatSim), 1500);
  EXPECT_EQ(a.events(obs::kCatMedium), 1u);
}

// ----------------------------------------------------------------- metrics

TEST(ObsMetrics, JsonRoundTripIsExact) {
  obs::MetricsRegistry reg;
  reg.set_count("sim.events_executed", 123456789ull);
  reg.set_count("medium.tx_started", 0);
  reg.set("ratio.fractional", 0.1);  // not representable in binary
  reg.set("value.negative", -42.5);
  reg.set("value.huge", 9.8765432109876543e300);
  reg.set_count("count.big", (1ull << 53) - 1);

  const std::string json = reg.to_json();
  obs::MetricsRegistry back;
  ASSERT_TRUE(obs::MetricsRegistry::parse_json(json, back));
  EXPECT_EQ(reg, back);  // bit-equal doubles, same order
}

TEST(ObsMetrics, FileRoundTrip) {
  obs::MetricsRegistry reg;
  reg.set_count("a.b", 7);
  reg.set("c.d", 2.5);
  const std::string path = testing::TempDir() + "obs_metrics_roundtrip.json";
  ASSERT_TRUE(obs::write_metrics_file(reg, path));
  obs::MetricsRegistry back;
  ASSERT_TRUE(obs::read_metrics_file(path, back));
  EXPECT_EQ(reg, back);
  std::remove(path.c_str());
}

TEST(ObsMetrics, SetOverwritesInPlacePreservingOrder) {
  obs::MetricsRegistry reg;
  reg.set("first", 1);
  reg.set("second", 2);
  reg.set("first", 10);
  ASSERT_EQ(reg.entries().size(), 2u);
  EXPECT_EQ(reg.entries()[0].name, "first");
  EXPECT_EQ(reg.entries()[0].value, 10.0);
  EXPECT_EQ(reg.get("second"), 2.0);
  EXPECT_FALSE(reg.contains("third"));
  EXPECT_EQ(reg.get("third", -1.0), -1.0);
}

TEST(ObsMetrics, ParseRejectsMalformedInput) {
  obs::MetricsRegistry out;
  EXPECT_FALSE(obs::MetricsRegistry::parse_json("not json", out));
  EXPECT_FALSE(obs::MetricsRegistry::parse_json("{\"a\" 1}", out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(obs::MetricsRegistry::parse_json("{}", out));
  EXPECT_TRUE(out.empty());
}

// -------------------------------------------------------------- trace diff

std::vector<obs::TraceRecord> make_stream(std::size_t n) {
  std::vector<obs::TraceRecord> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(rec(static_cast<std::int64_t>(i * 100), obs::kCatMedium,
                    obs::ev::kTxStart, static_cast<std::uint32_t>(i % 7), i));
  return v;
}

TEST(ObsDiff, PinpointsExactInjectedIndex) {
  const auto a = make_stream(50);
  for (std::size_t k : {0u, 17u, 49u}) {
    auto b = a;
    b[k].b = 999;  // inject a single-field divergence
    const auto d = reference::first_divergence(a, b);
    EXPECT_FALSE(d.identical);
    EXPECT_EQ(d.index, k) << "injected at " << k;
    const std::string report = reference::divergence_report(a, b);
    EXPECT_NE(report.find("record " + std::to_string(k)), std::string::npos)
        << report;
  }
}

TEST(ObsDiff, IdenticalAndPrefixStreams) {
  const auto a = make_stream(20);
  const auto d_same = reference::first_divergence(a, a);
  EXPECT_TRUE(d_same.identical);
  EXPECT_TRUE(reference::divergence_report(a, a).empty());

  auto shorter = a;
  shorter.resize(12);
  const auto d_prefix = reference::first_divergence(a, shorter);
  EXPECT_FALSE(d_prefix.identical);
  EXPECT_EQ(d_prefix.index, 12u);
  EXPECT_NE(reference::divergence_report(a, shorter).find("<end of stream>"),
            std::string::npos);
}

TEST(ObsDiff, FilterCategoriesDropsMaskedRecords) {
  std::vector<obs::TraceRecord> v{
      rec(1, obs::kCatMedium, obs::ev::kTxStart, 0),
      rec(2, obs::kCatMark, obs::ev::kMarkCorrupt, 1),
      rec(3, obs::kCatStation, obs::ev::kStateChange, 2),
  };
  const auto kept = reference::filter_categories(
      v, obs::kAllCategories & ~obs::category_bit(obs::kCatMark));
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].time_ns, 1);
  EXPECT_EQ(kept[1].time_ns, 3);
}

// ------------------------------------------------------------ json export

TEST(ObsExport, ChromeTraceJsonIsWellFormed) {
  std::vector<obs::TraceRecord> v{
      rec(1000, obs::kCatMedium, obs::ev::kTxStart, 3, 42, 5000),
      rec(6000, obs::kCatMedium, obs::ev::kTxEnd, 3, 42),
      rec(6000, obs::kCatStation, obs::ev::kStateChange, 3, 1, 2),
  };
  const std::string json = obs::chrome_trace_json(v);
  // Spot-check the envelope and the async begin/end pairing for tx.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("tx_start"), std::string::npos);
  EXPECT_EQ(json.find("NaN"), std::string::npos);

  const std::string path = testing::TempDir() + "obs_chrome.trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(v, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_GT(std::ftell(f), 0);
  std::fclose(f);
  std::remove(path.c_str());
}

// ------------------------------------------------- zero-perturbation bar

/// Same series-hash construction as the differential suites.
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
  hash_series(r.stage_series, h);
  hash_series(r.active_nodes_series, h);
  h.mix_double_word(r.total_mbps);
  for (double v : r.per_station_mbps) h.mix_double_word(v);
  h.mix_double_word(r.ap_avg_idle_slots);
  h.mix_double_word(static_cast<double>(r.successes));
  h.mix_double_word(static_cast<double>(r.failures));
  h.mix_double_word(r.mean_delay_s);
  h.mix_double_word(r.drop_rate);
  return h.digest();
}

exp::RunOptions series_options(double measure_s = 0.3) {
  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(0.1);
  opts.measure = sim::Duration::seconds(measure_s);
  opts.sample_period = sim::Duration::seconds(0.05);
  opts.record_series = true;
  return opts;
}

/// Restores the process-wide trace override on scope exit.
struct TraceOverrideGuard {
  explicit TraceOverrideGuard(int v) { obs::SimObs::set_trace_override(v); }
  ~TraceOverrideGuard() { obs::SimObs::set_trace_override(-1); }
};

/// Restores the process-wide flight override on scope exit.
struct FlightOverrideGuard {
  explicit FlightOverrideGuard(int v) { obs::SimObs::set_flight_override(v); }
  ~FlightOverrideGuard() { obs::SimObs::set_flight_override(-1); }
};

/// Runs `run` with every simulator untraced, then traced in every category
/// with a flight recorder, and expects the same simulation from both.
template <class Run>
void expect_tracing_changes_nothing(const Run& run, const char* label) {
  exp::RunResult untraced, traced;
  {
    TraceOverrideGuard trace(0);
    FlightOverrideGuard flight(0);
    untraced = run();
  }
  {
    TraceOverrideGuard trace(1);
    FlightOverrideGuard flight(1);
    traced = run();
  }
  EXPECT_EQ(hash_run(untraced), hash_run(traced))
      << label << ": tracing must not perturb the simulation";
  EXPECT_EQ(untraced.successes, traced.successes);
  EXPECT_EQ(untraced.per_station_mbps, traced.per_station_mbps);
  // And the trace points must actually have observed the run: they are
  // the flight recorder's only input.
  EXPECT_GT(traced.metrics.get("flight.frames_completed", 0.0), 0.0) << label;
}

void expect_tracing_changes_nothing(const ScenarioConfig& scenario,
                                    const SchemeConfig& scheme) {
  expect_tracing_changes_nothing(
      [&] { return exp::run_scenario(scenario, scheme, series_options()); },
      scheme.name().c_str());
}

TEST(ObsIdentity, TracedRunsBitIdenticalConnected) {
  const auto scenario = ScenarioConfig::connected(10, 1);
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
        SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()})
    expect_tracing_changes_nothing(scenario, scheme);
}

TEST(ObsIdentity, TracedRunsBitIdenticalHidden) {
  const auto scenario = ScenarioConfig::hidden(8, 16.0, 3);
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
        SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()})
    expect_tracing_changes_nothing(scenario, scheme);
}

TEST(ObsIdentity, TracedRunsBitIdenticalShadowed) {
  expect_tracing_changes_nothing(ScenarioConfig::shadowed(6, 0.3, 5),
                                 SchemeConfig::standard());
  expect_tracing_changes_nothing(ScenarioConfig::shadowed(6, 0.3, 5),
                                 SchemeConfig::wtop_csma());
}

TEST(ObsIdentity, TracedRunsBitIdenticalMulticell) {
  const auto scenario = ScenarioConfig::multicell(4, 5, 40.0, 1);
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma()})
    expect_tracing_changes_nothing(scenario, scheme);
}

TEST(ObsIdentity, TracedRunsBitIdenticalWithTraffic) {
  auto scenario = ScenarioConfig::connected(8, 2);
  scenario.traffic = traffic::TrafficConfig::poisson(1.0);
  expect_tracing_changes_nothing(scenario, SchemeConfig::standard());
}

TEST(ObsIdentity, TracedDynamicRunBitIdentical) {
  const auto scenario = ScenarioConfig::connected(10, 1);
  const std::vector<exp::PopulationStep> schedule{
      {0.0, 10}, {0.2, 3}, {0.4, 8}};
  expect_tracing_changes_nothing(
      [&] {
        return exp::run_dynamic(scenario, SchemeConfig::wtop_csma(), schedule,
                                sim::Duration::seconds(0.8),
                                sim::Duration::seconds(0.05));
      },
      "dynamic wTOP");
}

TEST(ObsIdentity, CapturedTraceIsDeterministicAcrossRepeats) {
  const auto scenario = ScenarioConfig::hidden(8, 16.0, 3);
  obs::SimObs a(obs::kAllCategories, 1u << 20);
  obs::SimObs b(obs::kAllCategories, 1u << 20);
  for (obs::SimObs* o : {&a, &b}) {
    auto net = exp::build_network(scenario, SchemeConfig::standard());
    net->simulator().attach_obs(o);
    net->start();
    net->run_for(sim::Duration::seconds(0.4));
  }
  const auto ra = a.trace.snapshot(), rb = b.trace.snapshot();
  EXPECT_FALSE(ra.empty());
  const auto d = reference::first_divergence(ra, rb);
  EXPECT_TRUE(d.identical) << reference::divergence_report(ra, rb);
  EXPECT_EQ(a.trace.dropped(), b.trace.dropped());
}

// --------------------------------------------------------- TSan coverage

TEST(ObsSweepTraced, ForcedTracingUnderThreadPoolStaysBitIdentical) {
  // Every simulator in the sweep gets its own private bundle (forced on by
  // the override); lanes must never share observer state. Run under TSan
  // in CI — and as a plain identity check everywhere else.
  exp::SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(6, 1),
                    ScenarioConfig::hidden(6, 16.0, 2)};
  spec.schemes = {SchemeConfig::standard(), SchemeConfig::wtop_csma()};
  spec.seeds = 3;
  spec.options.warmup = sim::Duration::seconds(0.05);
  spec.options.measure = sim::Duration::seconds(0.2);

  par::ThreadPool pool(4);
  exp::SweepResult untraced = exp::run_sweep(spec, &pool);
  exp::SweepResult traced;
  {
    TraceOverrideGuard guard(1);
    traced = exp::run_sweep(spec, &pool);
  }
  ASSERT_EQ(untraced.points.size(), traced.points.size());
  for (std::size_t i = 0; i < untraced.points.size(); ++i) {
    EXPECT_EQ(untraced.points[i].averaged.mean_mbps,
              traced.points[i].averaged.mean_mbps)
        << "point " << i;
    EXPECT_EQ(untraced.points[i].averaged.mean_idle_slots,
              traced.points[i].averaged.mean_idle_slots)
        << "point " << i;
  }
}

// ---------------------------------------------- sweep-fold determinism

TEST(ObsSweepMetrics, FoldedMetricsExactlyEqualAtAnyThreadCount) {
  // The sweep-level metrics fold runs serially in job-index order after
  // the barrier, so its totals — including the folded flight.* spans —
  // must be EXACTLY equal (bit-equal doubles) at 1 and 4 lanes.
  FlightOverrideGuard flight(1);
  exp::SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(5, 1),
                    ScenarioConfig::hidden(5, 16.0, 2)};
  spec.schemes = {SchemeConfig::standard(), SchemeConfig::wtop_csma()};
  spec.seeds = 2;
  spec.options.warmup = sim::Duration::seconds(0.05);
  spec.options.measure = sim::Duration::seconds(0.2);

  par::ThreadPool serial(1), wide(4);
  const exp::SweepResult a = exp::run_sweep(spec, &serial);
  const exp::SweepResult b = exp::run_sweep(spec, &wide);

  // The flight fold actually observed the runs.
  EXPECT_GT(a.metrics.get("flight.frames_completed", 0.0), 0.0);
  EXPECT_GT(a.metrics.get("flight.attempts_per_success", 0.0), 0.0);
  // Same names, same values, same order.
  std::size_t compared = 0;
  for (const auto& [name, value] : a.metrics.entries()) {
    EXPECT_EQ(b.metrics.get(name, -1.0), value) << name;
    ++compared;
  }
  EXPECT_GT(compared, 8u);
}

}  // namespace
