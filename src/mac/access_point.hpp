// The access point: decodes uplink data, responds with ACKs after SIFS, and
// gives an ApController (wTOP/TORA) its measurement and broadcast hooks.
//
// The AP never contends for the channel (downlink data is out of scope, as
// in the paper); its only transmissions are SIFS-scheduled ACKs, which are
// sent regardless of carrier sense, per 802.11 SIFS-response rules.
#pragma once

#include <cstdint>

#include "mac/ap_controller.hpp"
#include "mac/wifi_params.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "stats/idle_slots.hpp"
#include "util/rng.hpp"

namespace wlan::mac {

class AccessPoint final : public phy::MediumClient {
 public:
  AccessPoint(sim::Simulator& simulator, phy::Medium& medium,
              const WifiParams& params, util::Rng rng = util::Rng(0));

  AccessPoint(const AccessPoint&) = delete;
  AccessPoint& operator=(const AccessPoint&) = delete;

  /// Wires up ids after Medium registration. `counters` maps station node
  /// ids to RunCounters rows as (node_id - first_station_id).
  void attach(phy::NodeId self, phy::NodeId first_station_id,
              stats::RunCounters* counters);

  /// Optional AP-side adaptation algorithm; may be null (plain 802.11).
  /// Not owned; must outlive the AccessPoint.
  void set_controller(ApController* controller) { controller_ = controller; }

  /// Channel observations at the AP (Table III's idle-slot column).
  const stats::IdleSlotMeter& idle_meter() const { return idle_meter_; }
  stats::IdleSlotMeter& idle_meter() { return idle_meter_; }

  std::uint64_t data_frames_received() const { return data_received_; }
  std::uint64_t data_frames_corrupted() const { return data_corrupted_; }
  std::uint64_t rts_frames_received() const { return rts_received_; }
  std::uint64_t data_frames_channel_errors() const { return data_errors_; }

  phy::NodeId id() const { return self_; }

  // phy::MediumClient:
  void on_channel_busy(sim::Time now) override;
  void on_channel_idle(sim::Time now) override;
  void on_frame_received(const phy::Frame& frame, bool clean,
                         sim::Time now) override;

  /// Controller tick period (see ApController::on_tick).
  static constexpr sim::Duration kControllerTick =
      sim::Duration::milliseconds(25);

  /// Beacon period. When a controller is installed, the AP broadcasts its
  /// parameters in periodic beacons as well as in ACKs. ACK-only
  /// distribution is not recovery-safe: if every station adopts a probe
  /// aggressive enough to collision-saturate the channel, no ACK can ever
  /// be sent and the better probe the controller has since moved to can
  /// never reach the stations. The paper acknowledges the beacon variant
  /// in Section V ("wTOP-CSMA can be modified to use beacon frames").
  static constexpr sim::Duration kBeaconInterval =
      sim::Duration::milliseconds(100);
  /// Retry spacing when the channel is busy at a beacon deadline.
  static constexpr sim::Duration kBeaconRetry =
      sim::Duration::milliseconds(1);

  std::uint64_t beacons_sent() const { return beacons_sent_; }

 private:
  void send_ack(phy::NodeId station);
  void send_cts(phy::NodeId station);
  void schedule_tick();
  void beacon_due();

  sim::Simulator& sim_;
  phy::Medium& medium_;
  WifiParams params_;
  ApController* controller_ = nullptr;

  phy::NodeId self_ = phy::kInvalidNode;
  phy::NodeId first_station_ = phy::kInvalidNode;
  stats::RunCounters* counters_ = nullptr;

  /// True while a SIFS response (ACK or CTS) is committed but not yet on
  /// the air; gates beacons and further responses.
  bool response_pending_ = false;
  std::uint64_t beacons_sent_ = 0;
  std::uint64_t data_received_ = 0;
  std::uint64_t rts_received_ = 0;
  std::uint64_t data_corrupted_ = 0;
  std::uint64_t data_errors_ = 0;
  std::uint64_t next_seq_ = 0;
  util::Rng rng_;
  stats::IdleSlotMeter idle_meter_;
};

}  // namespace wlan::mac
