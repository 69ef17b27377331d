// Differential tests for interference marking: production (CSR adjacency
// + peer index + decode-mask pre-filtering in phy::Medium) must deliver
// exactly the clean flags the full-scan checker in tests/reference/
// recomputes from the medium's definition, and match the per-slot reference
// model trace record for trace record — across topologies, schemes,
// RTS/CTS, traffic mixes, capture, and multi-cell (ESS) scenarios — while
// actually scanning fewer pairs. Also pins the single-cell reduction: a
// one-cell CellPlan places its stations exactly as topology::uniform_disc
// does.
#include <gtest/gtest.h>

#include <cstdint>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "reference/differential.hpp"
#include "reference/full_scan.hpp"
#include "topology/cell_plan.hpp"
#include "topology/placement.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;

void expect_matches_reference(const ScenarioConfig& scenario,
                              const SchemeConfig& scheme,
                              double seconds = 0.5) {
  reference::Case c{scenario, scheme, sim::Duration::seconds(seconds)};
  const std::string report = reference::check_case(c);
  EXPECT_TRUE(report.empty()) << report;
}

TEST(MediumDifferential, ConnectedTopologyAllSchemesBitIdentical) {
  // Fully connected: everyone is everyone's interference peer, so the
  // peer index degenerates to the full active list — the paths must still
  // agree on iteration order (CSR rows are ascending like active_ never
  // is, so delivery order is the real thing under test).
  for (std::uint64_t seed : {1u, 7u}) {
    const auto scenario = ScenarioConfig::connected(12, seed);
    for (const auto& scheme :
         {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
          SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()}) {
      expect_matches_reference(scenario, scheme);
    }
  }
}

TEST(MediumDifferential, HiddenTopologyAllSchemesBitIdentical) {
  // Hidden nodes: asymmetric sensing means the decode-mask pre-filter
  // actually skips pairs — the correctness claim is that every skipped
  // corruption mark was unreadable (no receiver in the skipped source's
  // decode set).
  for (std::uint64_t seed : {3u, 11u}) {
    const auto scenario = ScenarioConfig::hidden(10, 16.0, seed);
    for (const auto& scheme :
         {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
          SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()}) {
      expect_matches_reference(scenario, scheme);
    }
  }
}

TEST(MediumDifferential, ShadowedTopologyBitIdentical) {
  // Obstacle shadowing: the decode predicate is pairwise-random, so the
  // CSR adjacency rows are irregular and the grid pre-filter must not
  // drop any shadow-surviving pair.
  const auto scenario = ScenarioConfig::shadowed(8, 0.3, 5);
  expect_matches_reference(scenario, SchemeConfig::standard());
  expect_matches_reference(scenario, SchemeConfig::wtop_csma());
}

TEST(MediumDifferential, RtsCtsExchangesBitIdentical) {
  // RTS/CTS: short control frames make marking windows tiny and frequent;
  // CTS timeouts depend on exactly which frames got corrupted.
  auto scenario = ScenarioConfig::hidden(8, 16.0, 6);
  scenario.phy.rts_threshold_bits = 0;  // every data frame uses RTS/CTS
  expect_matches_reference(scenario, SchemeConfig::standard());
  expect_matches_reference(scenario, SchemeConfig::tora_csma());
}

TEST(MediumDifferential, TrafficMixesBitIdentical) {
  // Finite sources: idle stations leave transmission gaps, so marking
  // runs against sparse active sets (the transmitting_[] skip path).
  auto poisson = ScenarioConfig::connected(8, 2);
  poisson.traffic = traffic::TrafficConfig::poisson(1.0);
  expect_matches_reference(poisson, SchemeConfig::standard(), 0.7);
  auto onoff = ScenarioConfig::hidden(8, 16.0, 4);
  onoff.traffic = traffic::TrafficConfig::on_off(2.0, 0.01, 0.03);
  expect_matches_reference(onoff, SchemeConfig::standard(), 0.7);
}

TEST(MediumDifferential, MulticellAllSchemesBitIdentical) {
  // The ESS case the incremental path exists for: many cells, finite
  // decode discs, capture enabled (multicell() sets capture_ratio = 4) —
  // the masked path must skip exactly the capture checks whose outcome no
  // decodable receiver can observe.
  const auto scenario = ScenarioConfig::multicell(4, 6, /*spacing=*/40.0, 1);
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
        SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()}) {
    expect_matches_reference(scenario, scheme);
  }
  // A larger, sparser plan: 9 cells on a 3x3 grid — inter-cell hidden
  // pairs dominate and most peer rows are small.
  expect_matches_reference(ScenarioConfig::multicell(9, 4, 40.0, 2),
                           SchemeConfig::standard());
}

TEST(MediumDifferential, MulticellRtsCtsAndTrafficBitIdentical) {
  auto scenario = ScenarioConfig::multicell(4, 5, 40.0, 3);
  scenario.phy.rts_threshold_bits = 0;
  expect_matches_reference(scenario, SchemeConfig::standard());
  auto bursty = ScenarioConfig::multicell(4, 5, 40.0, 4);
  bursty.traffic = traffic::TrafficConfig::poisson(2.0);
  expect_matches_reference(bursty, SchemeConfig::standard(), 0.7);
}

TEST(MediumDifferential, ShadowedMulticellBitIdentical) {
  // Shadowing on top of the ESS discs: the adjacency rows lose random
  // pairs, so peer rows and decode masks are irregular across cells.
  auto scenario = ScenarioConfig::multicell(4, 5, 40.0, 7);
  scenario.shadow_probability = 0.3;
  expect_matches_reference(scenario, SchemeConfig::standard());
}

TEST(MediumDifferential, MulticellWithoutCaptureBitIdentical) {
  // capture_ratio = 0 removes the rx-power comparison entirely — the
  // masked path must not depend on capture for its receiver filtering.
  auto scenario = ScenarioConfig::multicell(4, 6, 40.0, 5);
  scenario.phy.capture_ratio = 0.0;
  expect_matches_reference(scenario, SchemeConfig::standard());
}

TEST(MediumDifferential, DynamicActivationBitIdentical) {
  // Population steps toggle stations mid-flight: the sparse-active skip
  // (transmitting_[o] check) sees populations grow and shrink.
  auto scenario = ScenarioConfig::connected(10, 1);
  scenario.population = {{0.0, 10}, {0.2, 3}, {0.4, 8}, {0.6, 10}};
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma()}) {
    expect_matches_reference(scenario, scheme, 1.0);
  }
}

TEST(MediumDifferential, IncrementalPathActuallyScansFewer) {
  // Guard against the peer index silently degrading to a full scan: on a
  // multi-cell scenario production must examine far fewer (new tx,
  // in-flight tx) pairs than a full scan of the in-flight list does for
  // the same simulated run.
  const auto scenario = ScenarioConfig::multicell(9, 6, 40.0, 1);
  const auto scheme = SchemeConfig::standard();
  const reference::Outcome production = reference::run_production(
      {scenario, scheme, sim::Duration::seconds(0.5)});
  const reference::FullScanResult scan =
      reference::full_scan_check(scenario, production.medium_trace);
  EXPECT_TRUE(scan.error.empty()) << scan.error;
  EXPECT_GT(scan.pairs_in_flight, 0u);
  // 9 cells at spacing 40 with sense 24: most cells are out of each
  // other's interference range entirely.
  EXPECT_LT(production.pairs_scanned * 2, scan.pairs_in_flight)
      << "production=" << production.pairs_scanned
      << " full scan=" << scan.pairs_in_flight;
}

TEST(MediumDifferential, OneCellPlanMatchesLegacyLayout) {
  // make_cell_plan with cells == 1 must reproduce the single-BSS layout
  // draw-for-draw: same stream (0xD15C), AP at the origin, everyone in
  // cell 0.
  topology::CellPlanSpec spec;
  spec.cells = 1;
  spec.cell_radius = 16.0;
  spec.placement = topology::CellPlacement::kUniformDisc;
  const auto plan = topology::make_cell_plan(spec, 10, /*seed=*/42);
  const auto layout = topology::uniform_disc(10, 16.0, /*seed=*/42);
  ASSERT_EQ(plan.aps.size(), 1u);
  EXPECT_EQ(plan.aps[0].x, 0.0);
  EXPECT_EQ(plan.aps[0].y, 0.0);
  ASSERT_EQ(plan.stations.size(), layout.stations.size());
  for (std::size_t i = 0; i < plan.stations.size(); ++i) {
    EXPECT_EQ(plan.stations[i].x, layout.stations[i].x) << i;
    EXPECT_EQ(plan.stations[i].y, layout.stations[i].y) << i;
    EXPECT_EQ(plan.cell_of[i], 0);
    EXPECT_EQ(plan.placed_in[i], 0);
  }
}

}  // namespace
