// Seeded scenario fuzzer: each seed in a fixed list draws one scenario —
// topology (connected, hidden r16/r20, shadowed, or a 2–9 cell ESS) with
// capture on or off, 4–30 stations, a traffic model, one of the six
// schemes, RTS/CTS on or off, and optionally a population-step schedule —
// and requires production to match the reference model (tests/reference/)
// and pass the full-scan clean-flag check. The production runs carry the
// conservation-law auditors in throw mode. A second, shorter list draws
// 60–140 stations the same way, so the medium's bit rows spill past one
// 64-bit word and bounded-range networks take the grid-built pair pass.
//
// A failure names the case seed; rerun just that draw by putting the seed
// alone in its list.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "reference/differential.hpp"
#include "util/rng.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;

constexpr std::uint64_t kSeeds[] = {
    0x5eed0001, 0x5eed0002, 0x5eed0003, 0x5eed0004, 0x5eed0005, 0x5eed0006,
    0x5eed0007, 0x5eed0008, 0x5eed0009, 0x5eed000a, 0x5eed000b, 0x5eed000c,
    0x5eed000d, 0x5eed000e, 0x5eed000f, 0x5eed0010, 0x5eed0011, 0x5eed0012,
    0x5eed0013, 0x5eed0014, 0x5eed0015, 0x5eed0016, 0x5eed0017, 0x5eed0018,
    0x5eed0019, 0x5eed001a, 0x5eed001b, 0x5eed001c, 0x5eed001d, 0x5eed001e,
    0x5eed001f, 0x5eed0020, 0x5eed0021, 0x5eed0022, 0x5eed0023, 0x5eed0024,
    0x5eed0025, 0x5eed0026, 0x5eed0027, 0x5eed0028, 0x5eed0029, 0x5eed002a,
    0x5eed002b, 0x5eed002c, 0x5eed002d, 0x5eed002e, 0x5eed002f, 0x5eed0030,
    0x5eed0031, 0x5eed0032, 0x5eed0033, 0x5eed0034, 0x5eed0035, 0x5eed0036,
    0x5eed0037, 0x5eed0038, 0x5eed0039, 0x5eed003a, 0x5eed003b, 0x5eed003c,
    0x5eed003d, 0x5eed003e, 0x5eed003f, 0x5eed0040, 0x5eed0041, 0x5eed0042,
    0x5eed0043, 0x5eed0044, 0x5eed0045, 0x5eed0046, 0x5eed0047, 0x5eed0048,
    0x5eed0049, 0x5eed004a, 0x5eed004b, 0x5eed004c, 0x5eed004d, 0x5eed004e,
    0x5eed004f, 0x5eed0050, 0x5eed0051, 0x5eed0052, 0x5eed0053, 0x5eed0054,
    0x5eed0055, 0x5eed0056, 0x5eed0057, 0x5eed0058, 0x5eed0059, 0x5eed005a,
    0x5eed005b, 0x5eed005c, 0x5eed005d, 0x5eed005e, 0x5eed005f, 0x5eed0060};

// The large draws: 60–140 stations over shorter cases.
constexpr std::uint64_t kLargeSeeds[] = {
    0x1a46e001, 0x1a46e002, 0x1a46e003, 0x1a46e004, 0x1a46e005, 0x1a46e006,
    0x1a46e007, 0x1a46e008, 0x1a46e009, 0x1a46e00a, 0x1a46e00b, 0x1a46e00c,
    0x1a46e00d, 0x1a46e00e, 0x1a46e00f, 0x1a46e010};

/// Station-count range, case length and shortest population-step gap of
/// one seed list.
struct Draw {
  int min_stations;
  int max_stations;
  double case_seconds;
  double min_step_gap;
};
constexpr Draw kSmall{4, 30, 0.3, 0.02};
constexpr Draw kLarge{60, 140, 0.03, 0.005};

int draw_int(util::Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_int(std::int64_t{lo}, std::int64_t{hi}));
}

ScenarioConfig draw_topology(util::Rng& rng, std::uint64_t scenario_seed,
                             const Draw& draw) {
  const int lo = draw.min_stations, hi = draw.max_stations;
  const int n = draw_int(rng, lo, hi);
  switch (rng.uniform_int(std::uint64_t{5})) {
    case 0:
      return ScenarioConfig::connected(n, scenario_seed);
    case 1:
      return ScenarioConfig::hidden(n, 16.0, scenario_seed);
    case 2:
      return ScenarioConfig::hidden(n, 20.0, scenario_seed);
    case 3:
      return ScenarioConfig::shadowed(n, rng.uniform(0.1, 0.5), scenario_seed);
    default: {
      const int cells = draw_int(rng, 2, 9);
      const int per_cell = draw_int(rng, std::max(1, (lo + cells - 1) / cells),
                                    std::max(1, hi / cells));
      auto s = ScenarioConfig::multicell(
          cells, per_cell, rng.uniform(24.0, 48.0), scenario_seed);
      if (rng.bernoulli(0.5)) s.phy.capture_ratio = 0.0;
      return s;
    }
  }
}

traffic::TrafficConfig draw_traffic(util::Rng& rng) {
  const double load = rng.uniform(0.2, 3.0);  // per station, Mb/s
  const auto capacity = static_cast<std::size_t>(draw_int(rng, 4, 64));
  switch (rng.uniform_int(std::uint64_t{4})) {
    case 0:
      return {};  // saturated
    case 1:
      return traffic::TrafficConfig::cbr(load, capacity);
    case 2:
      return traffic::TrafficConfig::poisson(load, capacity);
    default:
      return traffic::TrafficConfig::on_off(load, rng.uniform(0.005, 0.05),
                                            rng.uniform(0.005, 0.1), capacity);
  }
}

SchemeConfig draw_scheme(util::Rng& rng, const mac::WifiParams& phy) {
  switch (rng.uniform_int(std::uint64_t{6})) {
    case 0:
      return SchemeConfig::standard();
    case 1:
      return SchemeConfig::fixed_p_persistent(rng.uniform(0.01, 0.2));
    case 2:
      return SchemeConfig::wtop_csma();
    case 3:
      return SchemeConfig::tora_csma();
    case 4:
      return SchemeConfig::idle_sense_scheme();
    default:
      return SchemeConfig::fixed_random_reset(
          draw_int(rng, 0, phy.num_backoff_stages()), rng.uniform(0.3, 1.0));
  }
}

reference::Case draw_case(std::uint64_t seed, const Draw& draw) {
  util::Rng rng(seed);
  reference::Case c;
  c.duration = sim::Duration::seconds(draw.case_seconds);
  c.scenario =
      draw_topology(rng, rng.uniform_int(std::uint64_t{1} << 20) + 1, draw);
  c.scenario.traffic = draw_traffic(rng);
  if (rng.bernoulli(0.3)) c.scenario.phy.rts_threshold_bits = 0;
  c.scheme = draw_scheme(rng, c.scenario.phy);
  if (rng.bernoulli(0.4)) {
    const int steps = draw_int(rng, 2, 4);
    double t = 0.0;
    for (int k = 0; k < steps; ++k) {
      c.scenario.population.push_back(
          {t, draw_int(rng, 0, c.scenario.num_stations)});
      t += rng.uniform(draw.min_step_gap, draw.case_seconds / steps);
    }
  }
  // Single-BSS capture, drawn last so that a seed's other axes stay as
  // before. A single BSS decodes at any distance but senses only within
  // 24, so its decode rows, which the capture check walks, hold receivers
  // that do not sense the source; an ESS's never do (16 <= 24).
  if (c.scenario.cells == 1 && rng.bernoulli(0.3))
    c.scenario.phy.capture_ratio = rng.uniform(1.5, 8.0);
  return c;
}

/// Forces the production runs' auditors on, in throw mode.
struct AuditThrowGuard {
  AuditThrowGuard() { obs::AuditSet::set_override(2); }
  ~AuditThrowGuard() { obs::AuditSet::set_override(-1); }
};

/// Requires every case the seeds draw to match the reference model.
void expect_cases_match_reference(std::span<const std::uint64_t> seeds,
                                  const Draw& draw) {
  AuditThrowGuard audit;
  for (const std::uint64_t seed : seeds) {
    const reference::Case c = draw_case(seed, draw);
    std::string report;
    try {
      report = reference::check_case(c);
    } catch (const std::exception& e) {
      report = reference::describe(c) + "\nthrew: " + e.what() + "\n";
    }
    EXPECT_TRUE(report.empty())
        << "case seed 0x" << std::hex << seed << std::dec << "\n" << report;
  }
}

TEST(ReferenceFuzz, SeedListCoversEveryAxis) {
  // The fixed seed lists must keep drawing every value of every axis the
  // fuzzer claims to vary; a reweighted draw or a trimmed list that drops
  // one would silently stop testing it.
  std::set<std::string> seen;
  std::vector<reference::Case> cases;
  for (const std::uint64_t seed : kSeeds)
    cases.push_back(draw_case(seed, kSmall));
  for (const std::uint64_t seed : kLargeSeeds)
    cases.push_back(draw_case(seed, kLarge));
  for (const reference::Case& c : cases) {
    const ScenarioConfig& s = c.scenario;
    if (s.cells > 1) {
      seen.insert(s.phy.capture_ratio > 0.0 ? "multicell+capture"
                                            : "multicell-capture");
    } else if (s.shadow_probability > 0.0) {
      seen.insert("shadowed");
    } else if (s.topology == exp::TopologyKind::kCircleEdge) {
      seen.insert("connected");
    } else {
      seen.insert("hidden r" + std::to_string(static_cast<int>(s.radius)));
    }
    if (s.cells == 1 && s.phy.capture_ratio > 0.0)
      seen.insert("single BSS+capture");
    seen.insert("scheme " + std::to_string(static_cast<int>(c.scheme.kind)));
    seen.insert("traffic " + std::to_string(static_cast<int>(s.traffic.model)));
    seen.insert(s.phy.rts_cts_enabled() ? "rts on" : "rts off");
    seen.insert(s.population.empty() ? "static" : "population steps");
    // Medium nodes: the stations plus one AP per cell.
    if (s.num_stations + s.cells >= 64) seen.insert(">= 64 nodes");
  }
  const std::set<std::string> axes{
      "connected", "hidden r16", "hidden r20", "shadowed",
      "single BSS+capture", "multicell+capture", "multicell-capture",
      "scheme 0", "scheme 1", "scheme 2", "scheme 3", "scheme 4", "scheme 5",
      "traffic 0", "traffic 1", "traffic 2", "traffic 3",
      "rts on", "rts off", "static", "population steps", ">= 64 nodes"};
  for (const std::string& axis : axes)
    EXPECT_TRUE(seen.count(axis) == 1) << "no seed draws " << axis;
}

TEST(ReferenceFuzz, SeededScenariosMatchReference) {
  expect_cases_match_reference(kSeeds, kSmall);
}

TEST(ReferenceFuzz, LargeSeededScenariosMatchReference) {
  expect_cases_match_reference(kLargeSeeds, kLarge);
}

}  // namespace
