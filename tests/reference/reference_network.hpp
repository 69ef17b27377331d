// ReferenceNetwork: a scenario assembled exactly as exp::build_network +
// mac::Network::finalize assemble it — same node ids (APs first, then
// stations in index order), same RNG streams, same setup event order — but
// with reference::PerSlotStation in place of mac::Station. Medium, access
// points, AP controllers, strategies and traffic sources are the
// production classes, so any difference between this network's trace and
// production's is a difference in how the MAC schedules slot decisions.
#pragma once

#include <memory>
#include <vector>

#include "exp/scenario.hpp"
#include "mac/access_point.hpp"
#include "mac/ap_controller.hpp"
#include "phy/medium.hpp"
#include "phy/propagation.hpp"
#include "reference/per_slot_station.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "traffic/source.hpp"

namespace wlan::reference {

class ReferenceNetwork {
 public:
  ReferenceNetwork(const exp::ScenarioConfig& scenario,
                   const exp::SchemeConfig& scheme);
  ReferenceNetwork(const ReferenceNetwork&) = delete;
  ReferenceNetwork& operator=(const ReferenceNetwork&) = delete;

  /// Every station begins contending at the current simulation time.
  void start();

  sim::Simulator& simulator() { return sim_; }
  int num_stations() const { return static_cast<int>(stations_.size()); }
  PerSlotStation& station(int i) {
    return *stations_[static_cast<std::size_t>(i)];
  }
  const stats::RunCounters& counters() const { return counters_; }
  /// Null when the scenario is saturated.
  const traffic::TrafficSource* traffic_source(int i) const {
    return sources_.empty() ? nullptr
                            : sources_[static_cast<std::size_t>(i)].get();
  }

 private:
  // Declaration order is destruction order in reverse: everything holding
  // a reference to the simulator or the medium goes after them.
  std::unique_ptr<phy::PropagationModel> propagation_;
  sim::Simulator sim_;
  phy::Medium medium_;
  std::vector<std::unique_ptr<mac::AccessPoint>> aps_;
  std::vector<std::unique_ptr<mac::ApController>> controllers_;
  std::vector<std::unique_ptr<PerSlotStation>> stations_;
  std::vector<std::unique_ptr<traffic::TrafficSource>> sources_;
  stats::RunCounters counters_;
};

}  // namespace wlan::reference
