#include "reference/per_slot_station.hpp"

#include <algorithm>
#include <cassert>

namespace wlan::reference {

PerSlotStation::PerSlotStation(sim::Simulator& simulator, phy::Medium& medium,
                               const mac::WifiParams& params,
                               std::unique_ptr<mac::AccessStrategy> strategy,
                               util::Rng rng)
    : sim_(simulator),
      medium_(medium),
      params_(params),
      strategy_(std::move(strategy)),
      rng_(rng),
      idle_meter_(params.slot, params.difs) {
  assert(strategy_ != nullptr);
  idle_meter_.set_sample_callback(
      [this](double slots) { strategy_->on_transmission_observed(slots); });
}

void PerSlotStation::attach(phy::NodeId self, phy::NodeId ap,
                            stats::NodeCounters* counters) {
  self_ = self;
  ap_ = ap;
  counters_ = counters;
}

void PerSlotStation::set_traffic_source(traffic::TrafficSource* source) {
  traffic_ = source;
  if (traffic_ != nullptr) {
    traffic_->set_wake_callback([this] {
      if (state_ == State::kNoData) resume_contention();
    });
  }
}

void PerSlotStation::start() {
  active_ = true;
  resume_contention();
}

void PerSlotStation::set_active(bool active) {
  if (active == active_) return;
  active_ = active;
  if (active) {
    if (state_ == State::kInactive) resume_contention();
    return;
  }
  // Mid-exchange stations finish first; finish_exchange() parks them.
  if (state_ == State::kDifsWait || state_ == State::kBackoff ||
      state_ == State::kIdleWait || state_ == State::kNoData) {
    sim_.cancel(difs_event_);
    sim_.cancel(slot_event_);
    sim_.cancel(nav_event_);
    state_ = State::kInactive;
  }
}

void PerSlotStation::resume_contention() {
  if (!active_) {
    state_ = State::kInactive;
    return;
  }
  if (traffic_ != nullptr && !traffic_->has_data()) {
    state_ = State::kNoData;
    return;
  }
  if (medium_.is_busy_for(self_)) {
    state_ = State::kIdleWait;
    return;
  }
  if (sim_.now() < nav_until_) {
    state_ = State::kIdleWait;
    sim_.cancel(nav_event_);
    nav_event_ = sim_.schedule_at(nav_until_, [this] {
      if (state_ == State::kIdleWait) resume_contention();
    });
    return;
  }
  begin_ifs_wait();
}

void PerSlotStation::begin_ifs_wait() {
  state_ = State::kDifsWait;
  const sim::Duration wait = eifs_pending_ ? params_.eifs() : params_.difs;
  eifs_pending_ = false;
  difs_event_ = sim_.schedule_after(wait, [this] {
    state_ = State::kBackoff;
    schedule_slot();
  });
}

void PerSlotStation::schedule_slot() {
  slot_event_ = sim_.schedule_after(params_.slot, [this] { slot_boundary(); });
}

void PerSlotStation::slot_boundary() {
  assert(state_ == State::kBackoff);
  if (strategy_->decide_transmit(rng_)) {
    commit_transmission();
  } else {
    schedule_slot();
  }
}

void PerSlotStation::commit_transmission() {
  // Every station deciding at this boundary decides on the
  // pre-transmission channel: the radio starts through a same-time event.
  state_ = State::kTransmitting;
  sim_.schedule_after(sim::Duration::zero(), [this] { radio_transmit(); });
}

void PerSlotStation::radio_transmit() {
  assert(state_ == State::kTransmitting);
  if (params_.rts_cts_enabled()) {
    idle_meter_.on_own_tx_start(sim_.now(), params_.rts_airtime());
    if (counters_ != nullptr) ++counters_->rts_attempts;
    phy::Frame rts;
    rts.kind = phy::FrameKind::kRts;
    rts.src = self_;
    rts.dst = ap_;
    rts.seq = next_seq_++;
    rts.nav = params_.sifs + params_.cts_airtime() + params_.sifs +
              params_.data_airtime() + params_.sifs + params_.ack_airtime();
    medium_.start_transmission(self_, rts, params_.rts_airtime(),
                               /*slot_committed=*/true);
    state_ = State::kWaitCts;
    cts_timeout_event_ = sim_.schedule_after(
        params_.cts_timeout_after_rts_start(), [this] { cts_timeout(); });
    return;
  }
  transmit_data_frame(/*slot_committed=*/true);
}

void PerSlotStation::transmit_data_frame(bool slot_committed) {
  idle_meter_.on_own_tx_start(sim_.now(), params_.data_airtime());
  if (counters_ != nullptr) ++counters_->data_tx_attempts;
  phy::Frame frame;
  frame.kind = phy::FrameKind::kData;
  frame.src = self_;
  frame.dst = ap_;
  frame.payload_bits = params_.payload_bits;
  frame.seq = next_seq_++;
  frame.nav = params_.sifs + params_.ack_airtime();
  medium_.start_transmission(self_, frame, params_.data_airtime(),
                             slot_committed);
  state_ = State::kWaitAck;
  ack_timeout_event_ = sim_.schedule_after(
      params_.ack_timeout_after_tx_start(), [this] { ack_timeout(); });
}

void PerSlotStation::cts_timeout() {
  assert(state_ == State::kWaitCts);
  if (counters_ != nullptr) ++counters_->cts_timeouts;
  strategy_->on_failure(rng_);
  finish_exchange();
}

void PerSlotStation::ack_timeout() {
  assert(state_ == State::kWaitAck);
  if (counters_ != nullptr) ++counters_->failures;
  strategy_->on_failure(rng_);
  finish_exchange();
}

void PerSlotStation::finish_exchange() {
  state_ = State::kInactive;
  resume_contention();
}

void PerSlotStation::on_channel_busy(sim::Time now) {
  idle_meter_.on_sensed_busy(now);
  switch (state_) {
    case State::kDifsWait:
      sim_.cancel(difs_event_);
      state_ = State::kIdleWait;
      break;
    case State::kBackoff:
      sim_.cancel(slot_event_);
      state_ = State::kIdleWait;
      break;
    case State::kIdleWait:
      sim_.cancel(nav_event_);  // re-established at the next idle
      break;
    case State::kInactive:
    case State::kNoData:
    case State::kTransmitting:
    case State::kWaitCts:
    case State::kWaitAck:
      break;
  }
}

void PerSlotStation::on_channel_idle(sim::Time now) {
  idle_meter_.on_sensed_idle(now);
  if (state_ == State::kIdleWait) resume_contention();
}

void PerSlotStation::on_frame_received(const phy::Frame& frame, bool clean,
                                       sim::Time /*now*/) {
  if (!clean) {
    if (state_ != State::kTransmitting && state_ != State::kWaitCts &&
        state_ != State::kWaitAck)
      eifs_pending_ = true;
    idle_meter_.set_next_gap_ifs(params_.eifs());
    return;
  }

  const sim::Time now = sim_.now();
  // NAV from every overheard frame not addressed to this station.
  if (frame.dst != self_ && frame.nav > sim::Duration::zero())
    nav_until_ = std::max(nav_until_, now + frame.nav);

  switch (frame.kind) {
    case phy::FrameKind::kBeacon:
      if (frame.src == ap_)
        strategy_->apply_params(frame.params, /*own_ack=*/true, rng_);
      return;

    case phy::FrameKind::kCts:
      if (frame.dst == self_ && state_ == State::kWaitCts) {
        sim_.cancel(cts_timeout_event_);
        state_ = State::kTransmitting;
        sim_.schedule_after(params_.sifs, [this] {
          if (state_ == State::kTransmitting)
            transmit_data_frame(/*slot_committed=*/false);
        });
      }
      return;

    case phy::FrameKind::kAck: {
      const bool own_ack = frame.dst == self_;
      if (frame.src == ap_)
        strategy_->apply_params(frame.params, own_ack, rng_);
      if (own_ack && state_ == State::kWaitAck) {
        sim_.cancel(ack_timeout_event_);
        if (counters_ != nullptr) ++counters_->successes;
        strategy_->on_success(rng_);
        if (traffic_ != nullptr) traffic_->complete_head(now);
        finish_exchange();
      }
      return;
    }

    case phy::FrameKind::kRts:
    case phy::FrameKind::kData:
      return;
  }
}

}  // namespace wlan::reference
