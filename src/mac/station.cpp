#include "mac/station.hpp"

#include <algorithm>
#include <cassert>

#include "mac/contention_arbiter.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "traffic/source.hpp"

namespace wlan::mac {

Station::BackoffAudit Station::backoff_audit() const {
  BackoffAudit a;
  a.drawn = audit_drawn_;
  a.consumed = audit_consumed_;
  a.rewound = audit_rewound_;
  // A pending batch's draws are neither consumed nor rewound yet.
  a.outstanding = state_ == State::kBackoff
                      ? static_cast<std::uint64_t>(batch_planned_)
                      : 0;
  return a;
}

Station::Station(sim::Simulator& simulator, phy::Medium& medium,
                 const WifiParams& params,
                 std::unique_ptr<AccessStrategy> strategy, util::Rng rng,
                 ContentionArbiter& arbiter)
    : sim_(simulator),
      medium_(medium),
      params_(params),
      strategy_(std::move(strategy)),
      rng_(rng),
      arbiter_(arbiter),
      idle_meter_(params.slot, params.difs) {
  assert(strategy_ != nullptr);
  idle_meter_.set_sample_callback(
      [this](double slots) { strategy_->on_transmission_observed(slots); });
}

void Station::attach(phy::NodeId self, phy::NodeId ap,
                     stats::NodeCounters* counters) {
  self_ = self;
  ap_ = ap;
  counters_ = counters;
}

void Station::set_traffic_source(traffic::TrafficSource* source) {
  traffic_ = source;
  if (traffic_ != nullptr) {
    traffic_->set_wake_callback([this] {
      if (state_ == State::kNoData) resume_contention();
    });
  }
}

void Station::set_state(State next) {
  WLAN_OBS_POINT(sim_, obs::kCatStation, obs::ev::kStateChange, self_,
                 static_cast<std::uint64_t>(state_),
                 static_cast<std::uint64_t>(next));
  state_ = next;
}

void Station::start() {
  assert(self_ != phy::kInvalidNode && "attach() must be called first");
  active_ = true;
  resume_contention();
}

void Station::set_active(bool active) {
  if (active == active_) return;
  active_ = active;
  if (active) {
    // Re-enter contention unless an exchange is still resolving.
    if (state_ == State::kInactive) resume_contention();
  } else {
    // Quiesce immediately unless mid-exchange; finish_exchange() will park
    // the station in kInactive once the outcome resolves.
    if (state_ == State::kDifsWait || state_ == State::kBackoff ||
        state_ == State::kIdleWait || state_ == State::kNoData) {
      // The deactivation event was scheduled long before any boundary it
      // could coincide with, so a boundary draw at this exact instant
      // never happened in the per-slot scheme.
      if (state_ == State::kBackoff) rollback_backoff(false);
      if (state_ == State::kDifsWait || state_ == State::kBackoff)
        arbiter_.withdraw(*this);
      sim_.cancel(nav_event_);
      set_state(State::kInactive);
    }
  }
}

void Station::resume_contention() {
  if (!active_) {
    set_state(State::kInactive);
    return;
  }
  if (traffic_ != nullptr && !traffic_->has_data()) {
    set_state(State::kNoData);  // parked; the source wakes us on arrival
    return;
  }
  const sim::Time now = sim_.now();
  if (medium_.is_busy_for(self_)) {
    set_state(State::kIdleWait);  // physical carrier sense
    return;
  }
  if (now < nav_until_) {
    // Virtual carrier sense: sleep until the NAV expires, then re-check.
    set_state(State::kIdleWait);
    sim_.cancel(nav_event_);
    nav_event_ = sim_.schedule_at(nav_until_, [this] {
      if (state_ == State::kIdleWait) resume_contention();
    });
    return;
  }
  begin_ifs_wait(now);
}

void Station::begin_ifs_wait(sim::Time) {
  set_state(State::kDifsWait);
  // First entry per frame opens the contention span (re-entries after busy
  // interruptions are no-ops inside the recorder).
  WLAN_OBS_FLIGHT(sim_, on_contention(sim_.now().ns(), self_, audit_consumed_));
  // EIFS after an undecodable busy period, DIFS otherwise (802.11 9.3.2.3.7).
  const sim::Duration wait = eifs_pending_ ? params_.eifs() : params_.difs;
  eifs_pending_ = false;
  // The arbiter owns the wait timer (one event per cohort of stations
  // entering the same wait at this instant).
  arbiter_.enroll(*this, wait);
}

void Station::draw_batch() {
  // Pre-draw the per-slot decisions this batch will need in one decide_run
  // call. Its draws are exactly the per-slot scheme's (one decide_transmit
  // per boundary, and no other strategy/RNG use can intervene while the
  // channel is idle), so simulation results are bit-identical;
  // rollback_backoff() undoes the draws a busy interruption proves
  // premature.
  backoff_origin_ = sim_.now();
  backoff_rng_ = rng_;
  strategy_->checkpoint_decision_state();
  batch_planned_ = strategy_->decide_run(rng_, batch_limit_, batch_transmit_);
  audit_drawn_ += static_cast<std::uint64_t>(batch_planned_);
}

void Station::cohort_enter_backoff() {
  assert(state_ == State::kDifsWait);
  set_state(State::kBackoff);
  batch_limit_ = kMinBatchSlots;
  draw_batch();
}

bool Station::cohort_decision() {
  assert(state_ == State::kBackoff);
  audit_consumed_ += static_cast<std::uint64_t>(batch_planned_);
  if (batch_transmit_) {
    commit_transmission();
    return true;
  }
  // No "transmit" within the cap: this boundary is the next batch's
  // origin (its draw is already consumed, matching per-slot history),
  // with a doubled limit. The cohort owns the event.
  batch_limit_ = std::min(batch_limit_ * 2, kMaxBatchSlots);
  draw_batch();
  return false;
}

void Station::rollback_backoff(bool boundary_draw_counts) {
  // A busy transition (or deactivation) interrupted the batch at `now`.
  // The per-slot scheme would have consumed one draw per boundary that
  // fired before the interruption: every boundary strictly before now,
  // plus one at exactly now iff the trigger's event was scheduled after
  // that boundary's event would have been (slot-committed transmissions
  // are scheduled at the same instant they start; ACK/CTS/beacon starts
  // were scheduled at least a SIFS — more than a slot — earlier and fire
  // first, cancelling the boundary). Rewind and replay exactly that many.
  const std::int64_t elapsed = (sim_.now() - backoff_origin_).ns();
  const std::int64_t slot_ns = params_.slot.ns();
  std::int64_t replay = elapsed / slot_ns;
  if (replay > 0 && elapsed % slot_ns == 0 && !boundary_draw_counts) --replay;
  assert(replay < batch_planned_);
  audit_consumed_ += static_cast<std::uint64_t>(replay);
  audit_rewound_ += static_cast<std::uint64_t>(batch_planned_ - replay);
  rng_ = backoff_rng_;
  strategy_->restore_decision_state();
  bool transmit = false;
  const int replayed =
      strategy_->decide_run(rng_, static_cast<int>(replay), transmit);
  (void)replayed;
  assert(replayed == replay && !transmit &&
         "replayed draws diverged from the batch");
}

void Station::commit_transmission() {
  // Commit now; radio starts via a same-time event so that every station
  // deciding at this slot boundary decides on the pre-transmission channel.
  set_state(State::kTransmitting);
  sim_.schedule_after(sim::Duration::zero(), [this] { radio_transmit(); });
}

void Station::radio_transmit() {
  assert(state_ == State::kTransmitting);
  const sim::Time now = sim_.now();

  if (params_.rts_cts_enabled()) {
    // RTS first; its duration field reserves the whole four-way exchange.
    idle_meter_.on_own_tx_start(now, params_.rts_airtime());
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

    set_state(State::kWaitCts);
    cts_timeout_event_ = sim_.schedule_after(
        params_.cts_timeout_after_rts_start(), [this] { cts_timeout(); });
    return;
  }

  transmit_data_frame(/*slot_committed=*/true);
}

void Station::transmit_data_frame(bool slot_committed) {
  const sim::Time now = sim_.now();
  idle_meter_.on_own_tx_start(now, params_.data_airtime());
  if (counters_ != nullptr) ++counters_->data_tx_attempts;

  phy::Frame frame;
  frame.kind = phy::FrameKind::kData;
  frame.src = self_;
  frame.dst = ap_;
  frame.payload_bits = params_.payload_bits;
  frame.seq = next_seq_++;
  frame.nav = params_.sifs + params_.ack_airtime();
  WLAN_OBS_FLIGHT(sim_,
                  on_attempt(now.ns(), self_, audit_consumed_, cohort_id_));
  medium_.start_transmission(self_, frame, params_.data_airtime(),
                             slot_committed);

  set_state(State::kWaitAck);
  ack_timeout_event_ = sim_.schedule_after(
      params_.ack_timeout_after_tx_start(), [this] { ack_timeout(); });
}

void Station::cts_timeout() {
  assert(state_ == State::kWaitCts);
  if (counters_ != nullptr) ++counters_->cts_timeouts;
  WLAN_OBS_FLIGHT(sim_, on_timeout(sim_.now().ns(), self_));
  strategy_->on_failure(rng_);
  finish_exchange();
}

void Station::ack_timeout() {
  assert(state_ == State::kWaitAck);
  if (counters_ != nullptr) ++counters_->failures;
  WLAN_OBS_FLIGHT(sim_, on_timeout(sim_.now().ns(), self_));
  strategy_->on_failure(rng_);
  finish_exchange();
}

void Station::finish_exchange() {
  set_state(State::kInactive);  // neutral; resume_contention reassigns
  resume_contention();
}

void Station::on_channel_busy(sim::Time now) {
  // Rewind the backoff batch BEFORE the idle-meter sample: the replayed
  // draws belong to boundaries that preceded this transition, while the
  // meter's sample callback (IdleSense's on_transmission_observed) fires
  // at it — the per-slot scheme's exact order.
  if (state_ == State::kBackoff)
    rollback_backoff(medium_.last_start_slot_committed());
  idle_meter_.on_sensed_busy(now);
  switch (state_) {
    case State::kDifsWait:
    case State::kBackoff:
      arbiter_.withdraw(*this);
      set_state(State::kIdleWait);
      break;
    case State::kIdleWait:
      sim_.cancel(nav_event_);  // re-established at the next idle
      break;
    case State::kInactive:
    case State::kNoData:
    case State::kTransmitting:
    case State::kWaitCts:
    case State::kWaitAck:
      break;  // transmissions in flight ignore channel transitions
  }
}

void Station::on_channel_idle(sim::Time now) {
  idle_meter_.on_sensed_idle(now);
  if (state_ == State::kIdleWait) resume_contention();
}

void Station::observe_nav(const phy::Frame& frame, sim::Time now) {
  // 802.11 NAV: receivers other than the addressed destination honour the
  // frame's duration field.
  if (frame.dst == self_) return;
  if (frame.nav <= sim::Duration::zero()) return;
  nav_until_ = std::max(nav_until_, now + frame.nav);
}

void Station::on_frame_received(const phy::Frame& frame, bool clean,
                                sim::Time /*now*/) {
  if (!clean) {
    // Bystander of a collision: the next contention wait uses EIFS.
    // Stations mid-exchange keep their own timing (their CTS/ACK timeout
    // already covers the EIFS span).
    if (state_ != State::kTransmitting && state_ != State::kWaitCts &&
        state_ != State::kWaitAck)
      eifs_pending_ = true;
    // Either way the following idle gap is EIFS-governed for measurement.
    idle_meter_.set_next_gap_ifs(params_.eifs());
    return;
  }

  const sim::Time now = sim_.now();
  observe_nav(frame, now);

  switch (frame.kind) {
    case phy::FrameKind::kBeacon:
      // Beacons are addressed to everyone; strategies treat their
      // parameters as authoritative (the own_ack flag exists to filter out
      // OTHER stations' ACKs, which does not apply to broadcasts). In an
      // ESS, an overheard neighbour-cell beacon still sets the NAV (above)
      // but must not reprogram this cell's parameters.
      if (frame.src == ap_)
        strategy_->apply_params(frame.params, /*own_ack=*/true, rng_);
      return;

    case phy::FrameKind::kCts:
      if (frame.dst == self_ && state_ == State::kWaitCts) {
        sim_.cancel(cts_timeout_event_);
        // SIFS response: the data frame follows unconditionally.
        set_state(State::kTransmitting);
        sim_.schedule_after(params_.sifs, [this] {
          if (state_ == State::kTransmitting)
            transmit_data_frame(/*slot_committed=*/false);
        });
      }
      return;

    case phy::FrameKind::kAck: {
      const bool own_ack = frame.dst == self_;
      // Every cleanly overheard ACK from OUR AP carries parameters
      // (wTOP-CSMA consumes all of them; TORA-CSMA's strategy filters on
      // own_ack internally). Neighbour-cell ACKs reflect a different BSS's
      // contention state and are ignored — with a single AP the filter
      // never rejects anything, since only APs send ACKs.
      if (frame.src == ap_) strategy_->apply_params(frame.params, own_ack, rng_);
      if (own_ack && state_ == State::kWaitAck) {
        sim_.cancel(ack_timeout_event_);
        if (counters_ != nullptr) ++counters_->successes;
        WLAN_OBS_FLIGHT(sim_, on_ack(now.ns(), self_));
        strategy_->on_success(rng_);
        // The head packet's MAC journey ends with this ACK.
        if (traffic_ != nullptr) traffic_->complete_head(now);
        finish_exchange();
      }
      return;
    }

    case phy::FrameKind::kRts:
    case phy::FrameKind::kData:
      return;  // NAV already taken; uplink-only stations ignore the rest
  }
}

}  // namespace wlan::mac
