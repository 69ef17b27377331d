// A saturated 802.11 station: the DCF timing state machine.
//
// The station always has a frame for the AP (saturated model, Section II).
// Its lifecycle per frame:
//
//   (channel idle for DIFS) -> slotted contention: at each slot boundary ask
//   the AccessStrategy whether to transmit -> transmit -> wait for ACK ->
//   on ACK: success; on timeout: failure -> strategy notified -> repeat.
//
// When the payload exceeds WifiParams::rts_threshold_bits the exchange is
// prefixed with RTS -> (SIFS) CTS -> (SIFS) DATA; a missing CTS counts as a
// failure just like a missing ACK. Every station maintains a NAV (virtual
// carrier sense) from the duration fields of overheard RTS/CTS/DATA frames,
// which is what protects the data frame from hidden transmitters.
//
// Contention pauses whenever the sensed channel goes busy and resumes with a
// fresh DIFS wait at the next idle transition — which yields standard DCF
// freeze semantics for counter-based strategies (counters persist inside the
// strategy) and is immaterial for memoryless ones.
//
// Batched slot decisions: the semantics are one decide_transmit per idle
// slot, but the station pre-draws the strategy's per-slot answers at
// backoff entry (up to the first "transmit" slot, capped at kMaxBatchSlots,
// then re-batched) and owns no timer events at all: its DIFS/EIFS wait and
// batch boundaries run on a mac::ContentionArbiter, which fires one event
// per cohort of stations sharing the same entry instant. A busy
// interruption rewinds the RNG + strategy checkpoint and replays exactly
// the draws the per-slot semantics would have consumed, so idle backoff
// runs cost O(1) events per cohort. tests/reference/ holds the literal
// per-slot station that the differential suites compare this against.
//
// Traffic gating: with a traffic::TrafficSource attached the station only
// contends while the source's queue holds a packet; it parks in kNoData
// otherwise and the source wakes it on the empty -> non-empty transition.
// An ACK completes the head packet (recording its queueing + access + ACK
// delay). Without a source (the default) the station is saturated and the
// code path is unchanged.
//
// Same-instant semantics: a station that decides to transmit at slot
// boundary t commits immediately (state -> Transmitting) but the radio
// starts via an event scheduled at the same time t. All slot decisions at t
// therefore happen before any of the resulting carrier-sense updates, so two
// aligned stations picking the same slot collide — as they do in reality,
// where CCA cannot see a transmission that starts in the same slot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "mac/access_strategy.hpp"
#include "mac/wifi_params.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "stats/idle_slots.hpp"
#include "util/rng.hpp"

namespace wlan::traffic {
class TrafficSource;
}

namespace wlan::mac {

class ContentionArbiter;

class Station final : public phy::MediumClient {
 public:
  /// `arbiter` runs the station's DIFS/backoff timers (not owned; must
  /// outlive the station).
  Station(sim::Simulator& simulator, phy::Medium& medium,
          const WifiParams& params, std::unique_ptr<AccessStrategy> strategy,
          util::Rng rng, ContentionArbiter& arbiter);

  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  /// Wires up ids after Medium registration; must precede start().
  void attach(phy::NodeId self, phy::NodeId ap,
              stats::NodeCounters* counters);

  /// Attaches a finite traffic source (not owned; must outlive the
  /// station). Must precede start(). nullptr (default) = saturated.
  void set_traffic_source(traffic::TrafficSource* source);

  /// Begins contending at the current simulation time.
  void start();

  /// Activation control for dynamic scenarios (Figs. 8-11). Deactivating
  /// lets any in-flight exchange finish, then stops contending; activating
  /// re-enters contention.
  void set_active(bool active);
  bool active() const { return active_; }

  AccessStrategy& strategy() { return *strategy_; }
  const AccessStrategy& strategy() const { return *strategy_; }

  /// Idle-slot observations as seen by this station (drives IdleSense).
  const stats::IdleSlotMeter& idle_meter() const { return idle_meter_; }
  stats::IdleSlotMeter& idle_meter() { return idle_meter_; }

  phy::NodeId id() const { return self_; }

  // phy::MediumClient:
  void on_channel_busy(sim::Time now) override;
  void on_channel_idle(sim::Time now) override;
  void on_frame_received(const phy::Frame& frame, bool clean,
                         sim::Time now) override;

  /// Slot decisions pre-drawn per batch; a run with no "transmit" answer
  /// re-batches from the capped boundary. The cap is a pure performance
  /// knob — draws, boundaries, and event anchoring are identical for any
  /// value — so it self-tunes: each backoff starts at kMinBatchSlots (a
  /// busy interruption forfeits the batch's unused pre-draws, and dense
  /// contention interrupts within a few slots) and doubles per
  /// uninterrupted continuation up to kMaxBatchSlots (long idle runs
  /// approach one event per 64 slots).
  static constexpr int kMinBatchSlots = 8;
  static constexpr int kMaxBatchSlots = 64;

  /// Lifetime backoff-draw accounting (pure counters, no behaviour). The
  /// conservation law obs::AuditSet checks:
  ///   drawn == consumed + rewound + outstanding
  /// where every decide_transmit() draw is `drawn` when pre-drawn,
  /// `consumed` once its slot boundary elapsed (or it was replayed by a
  /// rollback), `rewound` when a busy interruption proved it premature,
  /// and `outstanding` while its batch is still pending.
  struct BackoffAudit {
    std::uint64_t drawn = 0;
    std::uint64_t consumed = 0;
    std::uint64_t rewound = 0;
    std::uint64_t outstanding = 0;
  };
  BackoffAudit backoff_audit() const;

 private:
  enum class State {
    kInactive,     // deactivated, not contending
    kNoData,       // traffic queue empty; parked until an arrival
    kIdleWait,     // channel (or NAV) busy; waiting to go idle
    kDifsWait,     // channel idle; enrolled in an arbiter DIFS/EIFS cohort
    kBackoff,      // channel idle; batch pending in an arbiter cohort
    kTransmitting, // own frame (RTS or data) on the air (committed)
    kWaitCts,      // RTS sent; CTS timer running
    kWaitAck,      // data sent; ACK timer running
  };

  friend class ContentionArbiter;

  /// The single write path for state_: every transition goes through here
  /// so the obs trace sees them all (and sees them nowhere else).
  void set_state(State next);

  void resume_contention();
  void begin_ifs_wait(sim::Time now);
  /// Pre-draws one decision batch from the current instant.
  void draw_batch();
  // Cohort-arbiter hooks (the arbiter owns the timer events, the station
  // keeps every draw and all rollback machinery).
  /// DIFS/EIFS expired: enter backoff and pre-draw the first batch.
  void cohort_enter_backoff();
  /// This station's next pre-drawn batch boundary.
  sim::Time cohort_boundary() const;
  /// The boundary is due: commit (returns true; the station leaves the
  /// cohort) or continue with a doubled re-drawn batch (returns false).
  bool cohort_decision();
  void rollback_backoff(bool boundary_draw_counts);
  void commit_transmission();
  void radio_transmit();
  void transmit_data_frame(bool slot_committed);
  void cts_timeout();
  void ack_timeout();
  void finish_exchange();
  void observe_nav(const phy::Frame& frame, sim::Time now);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  WifiParams params_;
  std::unique_ptr<AccessStrategy> strategy_;
  util::Rng rng_;

  phy::NodeId self_ = phy::kInvalidNode;
  phy::NodeId ap_ = phy::kInvalidNode;
  stats::NodeCounters* counters_ = nullptr;

  State state_ = State::kInactive;
  bool active_ = false;
  traffic::TrafficSource* traffic_ = nullptr;
  ContentionArbiter& arbiter_;
  /// Backoff-batch bookkeeping: boundaries sit at backoff_origin_ + i*slot
  /// (i = 1..batch_planned_); the pre-drawn outcome of the last boundary
  /// is batch_transmit_, and backoff_rng_ / the strategy checkpoint rewind
  /// an interrupted batch.
  sim::Time backoff_origin_ = sim::Time::zero();
  int batch_planned_ = 0;
  int batch_limit_ = kMinBatchSlots;
  bool batch_transmit_ = false;
  util::Rng backoff_rng_{0};
  sim::EventId cts_timeout_event_;
  sim::EventId ack_timeout_event_;
  sim::EventId nav_event_;
  sim::Time nav_until_ = sim::Time::zero();
  std::uint64_t next_seq_ = 0;
  /// Set when the last observed busy period ended in an undecodable frame;
  /// the next idle wait then uses EIFS instead of DIFS (IEEE 802.11).
  bool eifs_pending_ = false;
  /// Backoff-draw conservation counters (see BackoffAudit). audit_consumed_
  /// doubles as the lifetime elapsed-backoff-slot count the flight
  /// recorder's per-attempt slot deltas are computed from.
  std::uint64_t audit_drawn_ = 0;
  std::uint64_t audit_consumed_ = 0;
  std::uint64_t audit_rewound_ = 0;
  /// Label of the arbiter cohort this station last entered backoff under
  /// (0: none yet). Written by ContentionArbiter (friend).
  std::uint64_t cohort_id_ = 0;
  stats::IdleSlotMeter idle_meter_;
};

}  // namespace wlan::mac
