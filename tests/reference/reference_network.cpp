#include "reference/reference_network.hpp"

#include "core/tora_csma.hpp"
#include "core/wtop_csma.hpp"

namespace wlan::reference {

namespace {

// mac::Network's RNG stream layout, restated: AP of cell 0 on 0xA9, further
// cells on 0xA90000 + c, station i on i + 1, station i's arrivals on
// 0x100000 + i.
std::uint64_t ap_stream(int cell) {
  return cell == 0 ? 0xA9 : 0xA90000 + static_cast<std::uint64_t>(cell);
}
constexpr std::uint64_t kTrafficStreamBase = 0x100000;

std::unique_ptr<mac::ApController> make_controller(
    const exp::ScenarioConfig& scenario, const exp::SchemeConfig& scheme) {
  switch (scheme.kind) {
    case exp::SchemeKind::kWTopCsma:
      return std::make_unique<core::WTopCsmaController>(scheme.wtop);
    case exp::SchemeKind::kToraCsma:
      return std::make_unique<core::ToraCsmaController>(scenario.phy,
                                                        scheme.tora);
    default:
      return nullptr;
  }
}

}  // namespace

ReferenceNetwork::ReferenceNetwork(const exp::ScenarioConfig& scenario,
                                   const exp::SchemeConfig& scheme)
    : propagation_(exp::make_propagation(scenario)),
      medium_(sim_, *propagation_),
      counters_(static_cast<std::size_t>(scenario.num_stations)) {
  const mac::WifiParams& phy = scenario.phy;
  const topology::CellPlan plan = exp::make_plan(scenario);
  const auto num_aps = static_cast<phy::NodeId>(plan.aps.size());

  for (std::size_t c = 0; c < plan.aps.size(); ++c) {
    aps_.push_back(std::make_unique<mac::AccessPoint>(
        sim_, medium_, phy,
        util::Rng(scenario.seed, ap_stream(static_cast<int>(c)))));
    medium_.add_node(plan.aps[c], *aps_[c]);
  }
  for (int i = 0; i < scenario.num_stations; ++i) {
    const auto si = static_cast<std::size_t>(i);
    stations_.push_back(std::make_unique<PerSlotStation>(
        sim_, medium_, phy, exp::make_strategy(scheme, phy, i),
        util::Rng(scenario.seed, si + 1)));
    medium_.add_node(plan.stations[si], *stations_[si]);
  }
  for (std::size_t c = 0; c < aps_.size(); ++c) {
    controllers_.push_back(make_controller(scenario, scheme));
    aps_[c]->set_controller(controllers_[c].get());
  }

  medium_.set_capture_ratio(phy.capture_ratio);
  medium_.finalize();
  for (std::size_t c = 0; c < aps_.size(); ++c)
    aps_[c]->attach(static_cast<phy::NodeId>(c), num_aps, &counters_);
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    stations_[i]->attach(num_aps + static_cast<phy::NodeId>(i),
                         static_cast<phy::NodeId>(plan.cell_of[i]),
                         &counters_.node(i));
  }
  if (!scenario.traffic.saturated()) {
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      sources_.push_back(std::make_unique<traffic::TrafficSource>(
          sim_, scenario.traffic, phy.payload_bits,
          util::Rng(scenario.seed, kTrafficStreamBase + i),
          static_cast<std::uint32_t>(i + aps_.size())));
      stations_[i]->set_traffic_source(sources_[i].get());
    }
  }
}

void ReferenceNetwork::start() {
  for (auto& src : sources_) src->start();
  for (auto& s : stations_) s->start();
}

}  // namespace wlan::reference
