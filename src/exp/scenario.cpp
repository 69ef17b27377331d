#include "exp/scenario.hpp"

#include <stdexcept>

#include "util/csv.hpp"

namespace wlan::exp {

ScenarioConfig ScenarioConfig::connected(int n, std::uint64_t seed) {
  ScenarioConfig s;
  s.num_stations = n;
  s.topology = TopologyKind::kCircleEdge;
  s.radius = 8.0;
  s.seed = seed;
  return s;
}

ScenarioConfig ScenarioConfig::hidden(int n, double disc_radius,
                                      std::uint64_t seed) {
  ScenarioConfig s;
  s.num_stations = n;
  s.topology = TopologyKind::kUniformDisc;
  s.radius = disc_radius;
  s.seed = seed;
  return s;
}

std::string SchemeConfig::name() const {
  switch (kind) {
    case SchemeKind::kStandard80211:
      return "Standard 802.11";
    case SchemeKind::kFixedPPersistent:
      return "p-persistent(p=" + util::format_double(fixed_p, 4) + ")";
    case SchemeKind::kWTopCsma:
      return "wTOP-CSMA";
    case SchemeKind::kToraCsma:
      return "TORA-CSMA";
    case SchemeKind::kIdleSense:
      return "IdleSense";
    case SchemeKind::kFixedRandomReset:
      return "RandomReset(j=" + std::to_string(reset_stage) +
             ",p0=" + util::format_double(reset_p0, 4) + ")";
  }
  return "unknown";
}

SchemeConfig SchemeConfig::standard() {
  SchemeConfig c;
  c.kind = SchemeKind::kStandard80211;
  return c;
}

SchemeConfig SchemeConfig::fixed_p_persistent(double p) {
  SchemeConfig c;
  c.kind = SchemeKind::kFixedPPersistent;
  c.fixed_p = p;
  return c;
}

SchemeConfig SchemeConfig::wtop_csma() {
  SchemeConfig c;
  c.kind = SchemeKind::kWTopCsma;
  return c;
}

SchemeConfig SchemeConfig::tora_csma() {
  SchemeConfig c;
  c.kind = SchemeKind::kToraCsma;
  return c;
}

SchemeConfig SchemeConfig::idle_sense_scheme() {
  SchemeConfig c;
  c.kind = SchemeKind::kIdleSense;
  return c;
}

SchemeConfig SchemeConfig::fixed_random_reset(int stage, double p0) {
  SchemeConfig c;
  c.kind = SchemeKind::kFixedRandomReset;
  c.reset_stage = stage;
  c.reset_p0 = p0;
  return c;
}

double SchemeConfig::weight_of(int station_index) const {
  if (weights.empty()) return 1.0;
  const auto i = static_cast<std::size_t>(station_index);
  return i < weights.size() ? weights[i] : weights.back();
}

ScenarioConfig ScenarioConfig::shadowed(int n, double shadow_probability,
                                        std::uint64_t seed) {
  ScenarioConfig s = connected(n, seed);
  s.shadow_probability = shadow_probability;
  return s;
}

ScenarioConfig ScenarioConfig::multicell(int cells, int n_per_cell,
                                         double spacing, std::uint64_t seed) {
  ScenarioConfig s;
  s.num_stations = cells * n_per_cell;
  s.topology = TopologyKind::kUniformDisc;
  s.radius = 8.0;
  // Finite decode range: the single-BSS default (1e9) would make every
  // cell decode every other, which is neither the paper's discs nor a
  // plausible ESS. Table I's 16/24 keeps interaction local.
  s.decode_radius = 16.0;
  s.sense_radius = 24.0;
  // Near/far capture is what actually separates co-channel cells in an
  // ESS: a frame 8 units away survives an interferer 40 units away. Same
  // threshold the capture tests and ext_robustness use.
  s.phy.capture_ratio = 4.0;
  s.cells = cells;
  s.cell_spacing = spacing;
  s.seed = seed;
  return s;
}

topology::CellPlanSpec cell_spec_of(const ScenarioConfig& scenario) {
  topology::CellPlanSpec spec;
  spec.cells = scenario.cells;
  spec.cols = scenario.cell_cols;
  spec.spacing = scenario.cell_spacing;
  spec.cell_radius = scenario.radius;
  switch (scenario.topology) {
    case TopologyKind::kCircleEdge:
      spec.placement = topology::CellPlacement::kCircleEdge;
      return spec;
    case TopologyKind::kUniformDisc:
      spec.placement = topology::CellPlacement::kUniformDisc;
      return spec;
  }
  throw std::logic_error("cell_spec_of: unknown topology");
}

topology::CellPlan make_plan(const ScenarioConfig& scenario) {
  return topology::make_cell_plan(cell_spec_of(scenario),
                                  scenario.num_stations, scenario.seed);
}

std::unique_ptr<phy::PropagationModel> make_propagation(
    const ScenarioConfig& scenario) {
  if (scenario.shadow_probability > 0.0) {
    // Every AP's links are exempt from shadowing (one AP at the origin in
    // the single-BSS case — the historical behaviour).
    return std::make_unique<phy::ShadowedDisc>(
        scenario.decode_radius, scenario.sense_radius,
        scenario.shadow_probability, scenario.seed,
        topology::ap_grid(cell_spec_of(scenario)));
  }
  return std::make_unique<phy::DiscPropagation>(scenario.decode_radius,
                                                scenario.sense_radius);
}

std::unique_ptr<mac::AccessStrategy> make_strategy(const SchemeConfig& scheme,
                                                   const mac::WifiParams& phy,
                                                   int index) {
  switch (scheme.kind) {
    case SchemeKind::kStandard80211:
      return std::make_unique<mac::StandardDcfStrategy>(phy);
    case SchemeKind::kFixedPPersistent:
      return std::make_unique<mac::PPersistentStrategy>(
          mac::PPersistentStrategy::weighted_probability(
              scheme.fixed_p, scheme.weight_of(index)),
          scheme.weight_of(index), /*adaptive=*/false);
    case SchemeKind::kWTopCsma:
      // Algorithm 1 node side line 1: initial p_t = 0.1.
      return std::make_unique<mac::PPersistentStrategy>(
          0.1, scheme.weight_of(index), /*adaptive=*/true);
    case SchemeKind::kToraCsma:
      // Algorithm 2 node side line 1: p0 = 1, j = 0.
      return std::make_unique<mac::RandomResetStrategy>(
          phy, /*reset_stage=*/0, /*reset_probability=*/1.0,
          /*adaptive=*/true);
    case SchemeKind::kIdleSense:
      return std::make_unique<core::IdleSenseStrategy>(scheme.idle_sense);
    case SchemeKind::kFixedRandomReset:
      return std::make_unique<mac::RandomResetStrategy>(
          phy, scheme.reset_stage, scheme.reset_p0, /*adaptive=*/false);
  }
  throw std::logic_error("make_strategy: unknown scheme");
}

namespace {

std::unique_ptr<mac::ApController> make_controller(
    const ScenarioConfig& scenario, const SchemeConfig& scheme) {
  switch (scheme.kind) {
    case SchemeKind::kWTopCsma:
      return std::make_unique<core::WTopCsmaController>(scheme.wtop);
    case SchemeKind::kToraCsma:
      return std::make_unique<core::ToraCsmaController>(scenario.phy,
                                                        scheme.tora);
    default:
      return nullptr;
  }
}

}  // namespace

std::unique_ptr<mac::Network> build_network(const ScenarioConfig& scenario,
                                            const SchemeConfig& scheme) {
  // One AP per cell, stations in plan order. A one-cell plan is the
  // single BSS: AP 0 at the origin, station i at Medium node i + 1.
  const auto plan = make_plan(scenario);
  auto net = std::make_unique<mac::Network>(
      scenario.phy, make_propagation(scenario), plan.aps, scenario.seed);
  for (int i = 0; i < scenario.num_stations; ++i) {
    const auto si = static_cast<std::size_t>(i);
    net->add_station(plan.stations[si], make_strategy(scheme, scenario.phy, i),
                     plan.cell_of[si]);
  }
  net->set_traffic(scenario.traffic);
  // Adaptive schemes get one controller per cell: each BSS adapts to its
  // own contention, exactly as independently administered APs would.
  for (int c = 0; c < net->num_aps(); ++c) {
    if (auto controller = make_controller(scenario, scheme))
      net->set_controller(c, std::move(controller));
  }
  net->finalize();
  return net;
}

}  // namespace wlan::exp
