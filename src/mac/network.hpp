// Network: assembles simulator + medium + AP(s) + stations into a runnable
// WLAN, and owns all of it. One AP makes the classic single BSS; several
// make an ESS whose cells share the medium (topology::CellPlan builds the
// positions/association; exp::ScenarioConfig wires it through here).
//
// Usage:
//   Network net(params, std::make_unique<DiscPropagation>(16, 24),
//               {ap_position}, seed);
//   net.add_station(pos, std::make_unique<PPersistentStrategy>(...));
//   ...
//   net.set_controller(std::make_unique<core::WTopCsmaController>(...));
//   net.finalize();
//   net.start();
//   net.run_for(sim::Duration::seconds(20));
//   double mbps = net.counters().total_mbps(net.measured_duration());
//
// Node-id layout: APs take Medium NodeIds [0, num_aps()), stations
// [num_aps(), num_aps() + num_stations()) in add_station order. With one AP
// this is the historical {AP = 0, station i = i + 1} numbering, and every
// RNG stream assignment matches the single-BSS original draw-for-draw.
//
// Stations are CONSTRUCTED at finalize() into one contiguous arena (their
// Medium slots are reserved at add_station time, so ids and callback order
// are unaffected): the cohort hot path walks many stations' MAC state,
// and an arena keeps those accesses within a few cache lines instead of one
// heap allocation apart.
#pragma once

#include <memory>
#include <vector>

#include "mac/access_point.hpp"
#include "mac/access_strategy.hpp"
#include "mac/ap_controller.hpp"
#include "mac/contention_arbiter.hpp"
#include "mac/station.hpp"
#include "mac/wifi_params.hpp"
#include "phy/medium.hpp"
#include "phy/propagation.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "traffic/arrival.hpp"
#include "traffic/source.hpp"

namespace wlan::mac {

class Network {
 public:
  /// One AP per entry of `ap_positions` (>= 1), cell c's AP at
  /// ap_positions[c]; one entry makes the single BSS. `seed` drives every
  /// stochastic choice in the network (per-node sub-streams are derived
  /// deterministically).
  Network(const WifiParams& params,
          std::unique_ptr<phy::PropagationModel> propagation,
          std::vector<phy::Vec2> ap_positions, std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  /// Adds a station (associated to `cell`'s AP) before finalize(). Returns
  /// its index (0-based, distinct from its Medium NodeId, which is
  /// index + num_aps() since APs occupy the low ids).
  int add_station(const phy::Vec2& position,
                  std::unique_ptr<AccessStrategy> strategy, int cell = 0);

  /// Installs cell 0's AP-side adaptation algorithm (owned). Optional.
  void set_controller(std::unique_ptr<ApController> controller) {
    set_controller(0, std::move(controller));
  }
  /// Installs `cell`'s AP-side adaptation algorithm (owned). Optional; each
  /// cell adapts independently, as separate BSSes do.
  void set_controller(int cell, std::unique_ptr<ApController> controller);

  /// Switches every station from the saturated default to the described
  /// finite source model (one traffic::TrafficSource per station, each on
  /// its own RNG stream). Must precede finalize(). A saturated config is a
  /// no-op.
  void set_traffic(const traffic::TrafficConfig& config);

  /// Freezes the topology (and builds the stations). Must be called once
  /// before start().
  void finalize();

  /// All stations begin contending at the current simulation time.
  void start();

  /// Advances the simulation. Measurement bookkeeping: measured_duration()
  /// spans from the last reset_counters() (or start()) to now().
  void run_for(sim::Duration d);
  void run_until(sim::Time t);

  /// Discards counters accumulated so far (e.g. a warm-up interval).
  void reset_counters();

  sim::Duration measured_duration() const {
    return sim_.now() - measure_start_;
  }

  sim::Simulator& simulator() { return sim_; }
  phy::Medium& medium() { return medium_; }
  AccessPoint& ap() { return *aps_[0]; }
  const AccessPoint& ap() const { return *aps_[0]; }
  AccessPoint& ap(int cell) { return *aps_[static_cast<std::size_t>(cell)]; }
  const AccessPoint& ap(int cell) const {
    return *aps_[static_cast<std::size_t>(cell)];
  }
  int num_aps() const { return static_cast<int>(aps_.size()); }
  /// Only valid after finalize() (stations are built there).
  Station& station(int index) { return stations_[static_cast<std::size_t>(index)]; }
  const Station& station(int index) const {
    return stations_[static_cast<std::size_t>(index)];
  }
  int num_stations() const {
    return static_cast<int>(finalized_ ? num_built_ : pending_.size());
  }
  stats::RunCounters& counters() { return *counters_; }
  const stats::RunCounters& counters() const { return *counters_; }
  const WifiParams& params() const { return params_; }
  ApController* controller() { return controllers_[0].get(); }
  ApController* controller(int cell) {
    return controllers_[static_cast<std::size_t>(cell)].get();
  }

  /// The cohort contention arbiter every station contends through: one
  /// arbiter spans every cell, since contention happens on the shared
  /// medium, not per BSS. Exposed for its counters.
  ContentionArbiter& contention_arbiter() { return arbiter_; }

  /// True when set_traffic() installed finite sources.
  bool traffic_enabled() const { return !sources_.empty(); }
  const traffic::TrafficConfig& traffic_config() const {
    return traffic_config_;
  }
  traffic::TrafficSource& traffic_source(int index) {
    return *sources_[static_cast<std::size_t>(index)];
  }
  const traffic::TrafficSource& traffic_source(int index) const {
    return *sources_[static_cast<std::size_t>(index)];
  }

  /// Total packets currently queued across every station's source (0 when
  /// saturated) — the queue-occupancy time series samples this.
  std::size_t total_queued() const;

  /// Current total throughput over the measured window, Mb/s.
  double total_mbps() const {
    return counters_->total_mbps(measured_duration());
  }

 private:
  /// Everything add_station records; the Station itself is built at
  /// finalize() (its Medium slot already holds the position).
  struct PendingStation {
    std::unique_ptr<AccessStrategy> strategy;
    int cell;
  };

  WifiParams params_;
  std::unique_ptr<phy::PropagationModel> propagation_;
  std::uint64_t seed_;
  sim::Simulator sim_;
  phy::Medium medium_;
  ContentionArbiter arbiter_;
  std::vector<std::unique_ptr<AccessPoint>> aps_;
  std::vector<std::unique_ptr<ApController>> controllers_;  // one per cell
  std::vector<PendingStation> pending_;  // emptied by finalize()
  Station* stations_ = nullptr;  // contiguous arena of num_built_ stations
  std::size_t num_built_ = 0;
  std::size_t arena_cap_ = 0;  // allocation size (deallocate needs it)
  traffic::TrafficConfig traffic_config_;  // saturated by default
  std::vector<std::unique_ptr<traffic::TrafficSource>> sources_;
  std::unique_ptr<stats::RunCounters> counters_;
  bool finalized_ = false;
  bool started_ = false;
  sim::Time measure_start_ = sim::Time::zero();
};

}  // namespace wlan::mac
