// The reference 802.11 station: the DCF state machine of mac::Station,
// written the literal way — its own DIFS/EIFS timer, then one event and one
// AccessStrategy::decide_transmit per idle slot until a slot says
// "transmit". No batches, no rollback, no cohorts, no anchored events.
//
// Production (mac::Station + mac::ContentionArbiter) pre-draws slot
// decisions, rewinds them on busy interruptions and fires one event per
// cohort of stations; every one of those tricks claims to be invisible.
// This class is what they claim to be invisible against: run it on the
// production phy::Medium, APs, controllers and traffic sources (see
// reference_network.hpp) and the medium's trace must match production
// record for record.
//
// Everything outside the slot loop — NAV, EIFS after undecodable frames,
// RTS/CTS, ACK/CTS timeouts, traffic gating, activation control — follows
// mac::Station line for line, because those are the semantics under test,
// not alternatives to it.
#pragma once

#include <memory>

#include "mac/access_strategy.hpp"
#include "mac/wifi_params.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "stats/idle_slots.hpp"
#include "traffic/source.hpp"
#include "util/rng.hpp"

namespace wlan::reference {

class PerSlotStation final : public phy::MediumClient {
 public:
  PerSlotStation(sim::Simulator& simulator, phy::Medium& medium,
                 const mac::WifiParams& params,
                 std::unique_ptr<mac::AccessStrategy> strategy, util::Rng rng);

  PerSlotStation(const PerSlotStation&) = delete;
  PerSlotStation& operator=(const PerSlotStation&) = delete;

  void attach(phy::NodeId self, phy::NodeId ap, stats::NodeCounters* counters);
  /// Not owned; nullptr (default) = saturated.
  void set_traffic_source(traffic::TrafficSource* source);

  void start();
  void set_active(bool active);

  void on_channel_busy(sim::Time now) override;
  void on_channel_idle(sim::Time now) override;
  void on_frame_received(const phy::Frame& frame, bool clean,
                         sim::Time now) override;

 private:
  enum class State {
    kInactive,
    kNoData,
    kIdleWait,
    kDifsWait,
    kBackoff,
    kTransmitting,
    kWaitCts,
    kWaitAck,
  };

  void resume_contention();
  void begin_ifs_wait();
  void schedule_slot();
  void slot_boundary();
  void commit_transmission();
  void radio_transmit();
  void transmit_data_frame(bool slot_committed);
  void cts_timeout();
  void ack_timeout();
  void finish_exchange();

  sim::Simulator& sim_;
  phy::Medium& medium_;
  mac::WifiParams params_;
  std::unique_ptr<mac::AccessStrategy> strategy_;
  util::Rng rng_;

  phy::NodeId self_ = phy::kInvalidNode;
  phy::NodeId ap_ = phy::kInvalidNode;
  stats::NodeCounters* counters_ = nullptr;
  traffic::TrafficSource* traffic_ = nullptr;

  State state_ = State::kInactive;
  bool active_ = false;
  bool eifs_pending_ = false;
  sim::EventId difs_event_;
  sim::EventId slot_event_;
  sim::EventId cts_timeout_event_;
  sim::EventId ack_timeout_event_;
  sim::EventId nav_event_;
  sim::Time nav_until_ = sim::Time::zero();
  std::uint64_t next_seq_ = 0;
  stats::IdleSlotMeter idle_meter_;
};

}  // namespace wlan::reference
