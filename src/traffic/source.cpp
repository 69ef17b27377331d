#include "traffic/source.hpp"

#include <cassert>
#include <stdexcept>

#include "obs/trace.hpp"

namespace wlan::traffic {

TrafficSource::TrafficSource(sim::Simulator& simulator,
                             const TrafficConfig& config,
                             std::int64_t payload_bits, util::Rng rng,
                             std::uint32_t node)
    : sim_(simulator),
      node_(node),
      process_(make_arrival_process(config, payload_bits)),
      queue_(config.queue_capacity),
      rng_(rng) {}

void TrafficSource::start() {
  if (started_) throw std::logic_error("TrafficSource: start called twice");
  started_ = true;
  queue_.reset_stats(sim_.now());
  schedule_next_arrival();
}

void TrafficSource::schedule_next_arrival() {
  const sim::Duration gap = process_->next_gap(rng_);
  if (gap < sim::Duration::zero()) return;  // trace exhausted: go silent
  sim_.schedule_after(gap, [this] { on_arrival(); });
}

void TrafficSource::on_arrival() {
  const bool was_empty = queue_.empty();
  const bool accepted = queue_.push(sim_.now());
  WLAN_OBS_POINT(sim_, obs::kCatTraffic, obs::ev::kArrival, node_,
                 queue_.size(), accepted);
  if (!accepted)
    WLAN_OBS_POINT(sim_, obs::kCatTraffic, obs::ev::kDrop, node_,
                   queue_.drops(), 0);
  schedule_next_arrival();
  if (accepted && was_empty && wake_cb_) wake_cb_();
}

void TrafficSource::complete_head(sim::Time now) {
  assert(has_data() && "complete_head with an empty queue");
  delays_.record(now - queue_.front().enqueued);
  queue_.pop(now);
}

void TrafficSource::reset_stats(sim::Time now) {
  delays_.reset();
  queue_.reset_stats(now);
}

}  // namespace wlan::traffic
