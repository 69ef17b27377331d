// Scenario and scheme descriptions shared by every bench and example.
// A ScenarioConfig captures the paper's Table I setup plus topology and
// the station-population schedule; a SchemeConfig captures which
// channel-access scheme the stations run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/idle_sense.hpp"
#include "core/tora_csma.hpp"
#include "core/wtop_csma.hpp"
#include "mac/access_strategy.hpp"
#include "mac/network.hpp"
#include "mac/wifi_params.hpp"
#include "phy/propagation.hpp"
#include "topology/cell_plan.hpp"
#include "traffic/arrival.hpp"

namespace wlan::exp {

enum class TopologyKind {
  kCircleEdge,   // fully connected: stations on the edge of a radius-8 disc
  kUniformDisc,  // hidden nodes: uniform in a radius-16/20 disc
};

/// One step of a node-population schedule: from `t_seconds` on, exactly
/// `active_stations` stations are active (stations are activated and
/// deactivated in index order).
struct PopulationStep {
  double t_seconds;
  int active_stations;
};

struct ScenarioConfig {
  int num_stations = 10;
  TopologyKind topology = TopologyKind::kCircleEdge;
  /// Placement radius: 8 for the connected setup; 16 or 20 for hidden-node
  /// setups (Section VI.C).
  double radius = 8.0;
  /// Propagation discs (Section I: decode 16, sense 24).
  double decode_radius = 1e9;  // stations always reach the AP (DESIGN.md §5)
  double sense_radius = 24.0;
  mac::WifiParams phy;  // Table I defaults (ns3_like)
  std::uint64_t seed = 1;
  /// Probability that an obstacle shadows a station pair (Section I's
  /// second hidden-node mechanism). > 0 wraps the propagation in a
  /// ShadowedDisc; applies to either topology kind.
  double shadow_probability = 0.0;
  /// Per-station source model. The default (saturated) reproduces every
  /// historical run bit-for-bit; any other model drives stations from
  /// bounded queues fed by traffic/ arrival generators, opening the
  /// offered-load axis (delay, drops, load sweeps).
  traffic::TrafficConfig traffic;

  /// ESS axis: cells > 1 places that many APs on a near-square grid
  /// (topology::CellPlanSpec) and splits num_stations across them, each
  /// station associated to its nearest AP; all cells share the one medium,
  /// so inter-cell interference flows through the same hidden/shadowed
  /// machinery as ever. cells == 1 is the classic single BSS — every
  /// historical run is reproduced bit-for-bit. `radius` doubles as the
  /// per-cell placement radius; `topology` as the in-cell placement kind.
  int cells = 1;
  /// AP grid columns; 0 = near-square.
  int cell_cols = 0;
  /// AP grid pitch. <= sense_radius couples neighbour cells by carrier
  /// sense; beyond it neighbour cells are mutually hidden.
  double cell_spacing = 40.0;

  /// Population schedule (Figs. 8-11): the network holds num_stations
  /// stations and each step sets how many are active from its time on
  /// (times are absolute, warm-up included). Empty = every station stays
  /// active.
  std::vector<PopulationStep> population;

  static ScenarioConfig connected(int n, std::uint64_t seed = 1);
  static ScenarioConfig hidden(int n, double disc_radius,
                               std::uint64_t seed = 1);
  /// Connected geometry (circle r=8) + random obstacle shadowing: hidden
  /// pairs that no sensing-radius rule can remove.
  static ScenarioConfig shadowed(int n, double shadow_probability,
                                 std::uint64_t seed = 1);
  /// ESS: `cells` APs with `n_per_cell` stations uniform in each radius-8
  /// cell disc, finite decode range (16/24, the paper's Table I discs) so
  /// cells only interact locally. Spacing defaults to 40 (neighbour cells
  /// mutually hidden but within one another's interference story via the
  /// stations that stray between discs).
  static ScenarioConfig multicell(int cells, int n_per_cell,
                                  double spacing = 40.0,
                                  std::uint64_t seed = 1);
};

enum class SchemeKind {
  kStandard80211,
  kFixedPPersistent,
  kWTopCsma,
  kToraCsma,
  kIdleSense,
  kFixedRandomReset,
};

struct SchemeConfig {
  SchemeKind kind = SchemeKind::kStandard80211;

  /// kFixedPPersistent: the fixed master attempt probability.
  double fixed_p = 0.05;

  /// kFixedRandomReset: fixed (j, p0).
  int reset_stage = 0;
  double reset_p0 = 1.0;

  /// Station weights (wTOP / p-persistent). Empty = all ones. Shorter
  /// vectors repeat their last element.
  std::vector<double> weights;

  core::WTopCsmaController::Options wtop;
  core::ToraCsmaController::Options tora;
  core::IdleSenseStrategy::Options idle_sense;

  std::string name() const;

  static SchemeConfig standard();
  static SchemeConfig fixed_p_persistent(double p);
  static SchemeConfig wtop_csma();
  static SchemeConfig tora_csma();
  static SchemeConfig idle_sense_scheme();
  static SchemeConfig fixed_random_reset(int stage, double p0);

  double weight_of(int station_index) const;
};

/// The CellPlanSpec a scenario's ESS fields describe.
topology::CellPlanSpec cell_spec_of(const ScenarioConfig& scenario);

/// The scenario's placement (deterministic given the config): AP grid,
/// stations and their association. build_network assembles every
/// scenario from it; cells == 1 is the single BSS, AP 0 at the origin.
topology::CellPlan make_plan(const ScenarioConfig& scenario);

/// Fresh propagation model for a scenario.
std::unique_ptr<phy::PropagationModel> make_propagation(
    const ScenarioConfig& scenario);

/// The access strategy station `index` runs under `scheme`.
std::unique_ptr<mac::AccessStrategy> make_strategy(
    const SchemeConfig& scheme, const mac::WifiParams& phy, int index);

/// Fully assembled (finalized, not yet started) network for the scenario;
/// installs the AP controller when the scheme needs one.
std::unique_ptr<mac::Network> build_network(const ScenarioConfig& scenario,
                                            const SchemeConfig& scheme);

}  // namespace wlan::exp
