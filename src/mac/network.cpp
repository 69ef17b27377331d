#include "mac/network.hpp"

#include <memory>
#include <stdexcept>

namespace wlan::mac {

namespace {
// AP RNG streams. Cell 0 keeps the historical single-BSS stream; further
// cells live in a block far above the station (1..N) and traffic
// (0x100000+i) streams, so adding a cell never perturbs an existing draw.
std::uint64_t ap_stream(int cell) {
  return cell == 0 ? 0xA9 : 0xA90000 + static_cast<std::uint64_t>(cell);
}
}  // namespace

Network::Network(const WifiParams& params,
                 std::unique_ptr<phy::PropagationModel> propagation,
                 std::vector<phy::Vec2> ap_positions, std::uint64_t seed)
    : params_(params),
      propagation_(std::move(propagation)),
      seed_(seed),
      medium_(sim_, *propagation_),
      arbiter_(sim_, params_.slot) {
  if (propagation_ == nullptr)
    throw std::invalid_argument("Network: null propagation model");
  if (ap_positions.empty())
    throw std::invalid_argument("Network: at least one AP required");
  aps_.reserve(ap_positions.size());
  controllers_.resize(ap_positions.size());
  for (std::size_t c = 0; c < ap_positions.size(); ++c) {
    aps_.push_back(std::make_unique<AccessPoint>(
        sim_, medium_, params_,
        util::Rng(seed, ap_stream(static_cast<int>(c)))));
    const phy::NodeId id = medium_.add_node(ap_positions[c], *aps_[c]);
    (void)id;  // == c: APs are registered first, in cell order
  }
}

Network::~Network() {
  // The arena's stations are destroyed here, before any member destructor
  // runs — they reference sim_ and medium_.
  if (stations_ != nullptr) {
    for (std::size_t i = num_built_; i-- > 0;) stations_[i].~Station();
    std::allocator<Station>().deallocate(stations_, arena_cap_);
  }
}

int Network::add_station(const phy::Vec2& position,
                         std::unique_ptr<AccessStrategy> strategy, int cell) {
  if (finalized_) throw std::logic_error("Network: add_station after finalize");
  if (cell < 0 || cell >= num_aps())
    throw std::out_of_range("Network: add_station to unknown cell");
  const int index = static_cast<int>(pending_.size());
  // Reserve the Medium slot now (ids stay in add order, after the APs);
  // the Station object itself is built into the arena at finalize().
  const phy::NodeId id = medium_.add_node(position);
  (void)id;  // == num_aps() + index
  pending_.push_back(PendingStation{std::move(strategy), cell});
  return index;
}

void Network::set_controller(int cell, std::unique_ptr<ApController> controller) {
  if (cell < 0 || cell >= num_aps())
    throw std::out_of_range("Network: controller for unknown cell");
  controllers_[static_cast<std::size_t>(cell)] = std::move(controller);
  aps_[static_cast<std::size_t>(cell)]->set_controller(
      controllers_[static_cast<std::size_t>(cell)].get());
}

void Network::set_traffic(const traffic::TrafficConfig& config) {
  if (finalized_)
    throw std::logic_error("Network: set_traffic after finalize");
  traffic_config_ = config;
}

void Network::finalize() {
  if (finalized_) throw std::logic_error("Network: finalize called twice");
  finalized_ = true;

  // Build every station into one contiguous arena, in index order.
  // Stream ids: station i uses stream i+1; stream 0 is reserved.
  const std::size_t n = pending_.size();
  const auto num_aps_id = static_cast<phy::NodeId>(aps_.size());
  if (n > 0) {
    stations_ = std::allocator<Station>().allocate(n);
    arena_cap_ = n;
    for (std::size_t i = 0; i < n; ++i) {
      new (stations_ + i) Station(
          sim_, medium_, params_, std::move(pending_[i].strategy),
          util::Rng(seed_, static_cast<std::uint64_t>(i) + 1), arbiter_);
      ++num_built_;
      medium_.bind_client(num_aps_id + static_cast<phy::NodeId>(i),
                          stations_[i]);
    }
  }

  medium_.set_capture_ratio(params_.capture_ratio);
  medium_.finalize();
  counters_ = std::make_unique<stats::RunCounters>(num_built_);
  for (std::size_t c = 0; c < aps_.size(); ++c)
    aps_[c]->attach(static_cast<phy::NodeId>(c), num_aps_id, counters_.get());
  for (std::size_t i = 0; i < num_built_; ++i) {
    stations_[i].attach(num_aps_id + static_cast<phy::NodeId>(i),
                        static_cast<phy::NodeId>(pending_[i].cell),
                        &counters_->node(i));
  }
  pending_.clear();
  if (!traffic_config_.saturated()) {
    // Stream ids: station MAC draws use streams 1..N (see above), the APs
    // use 0xA9 / 0xA90000+c; arrival streams live far above all of them so
    // adding a source never perturbs a MAC draw.
    constexpr std::uint64_t kTrafficStreamBase = 0x100000;
    sources_.reserve(num_built_);
    for (std::size_t i = 0; i < num_built_; ++i) {
      sources_.push_back(std::make_unique<traffic::TrafficSource>(
          sim_, traffic_config_, params_.payload_bits,
          util::Rng(seed_, kTrafficStreamBase + i),
          static_cast<std::uint32_t>(i + static_cast<std::size_t>(num_aps()))));
      stations_[i].set_traffic_source(sources_[i].get());
    }
  }
}

void Network::start() {
  if (!finalized_) throw std::logic_error("Network: start before finalize");
  if (started_) throw std::logic_error("Network: start called twice");
  started_ = true;
  measure_start_ = sim_.now();
  // Stations with a source and an empty queue park in kNoData until the
  // first arrival event (scheduled here) wakes them.
  for (auto& src : sources_) src->start();
  for (std::size_t i = 0; i < num_built_; ++i) stations_[i].start();
}

std::size_t Network::total_queued() const {
  std::size_t total = 0;
  for (const auto& src : sources_) total += src->queue().size();
  return total;
}

void Network::run_for(sim::Duration d) { run_until(sim_.now() + d); }

void Network::run_until(sim::Time t) {
  if (!started_) throw std::logic_error("Network: run before start");
  sim_.run_until(t);
}

void Network::reset_counters() {
  counters_->reset();
  for (auto& src : sources_) src->reset_stats(sim_.now());
  measure_start_ = sim_.now();
}

}  // namespace wlan::mac
