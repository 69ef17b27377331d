// TORA-CSMA — Throughput Optimal RandomReset CSMA
// (the paper's Algorithm 2, AP side).
//
// Same Kiefer-Wolfowitz engine as wTOP-CSMA, but the tuned variable is the
// RandomReset reset probability p0 for the current stage j. When p0
// converges toward 0 the optimum lies at a smaller attempt probability, so
// j increments; toward 1, j decrements (Theorem 3's escape rule). Stage
// changes reset pval to 0.5 and bypass the k increment, exactly as in the
// pseudo code.
#pragma once

#include <cstdint>

#include "core/kiefer_wolfowitz.hpp"
#include "mac/ap_controller.hpp"
#include "mac/wifi_params.hpp"

namespace wlan::core {

class ToraCsmaController final : public mac::ApController {
 public:
  /// Linear KW over p0 in [0, 1], initial 0.5, gain 1, b = 1/3.
  static KwOptions default_kw_options();

  struct Options {
    sim::Duration update_period = sim::Duration::milliseconds(250);
    /// Stage-escape thresholds (paper: delta_l ~ 0, delta_h ~ 1).
    double delta_low = 0.05;
    double delta_high = 0.95;
    /// KW configuration per Algorithm 2: p0 probes span [0, 1], linear
    /// domain (p0's optimum is an interior point of [0,1], not Theta(1/N),
    /// so linear probes are appropriate — and the stage-escape rule handles
    /// the magnitude search instead).
    KwOptions kw = default_kw_options();
  };

  /// `params` provides m (the number of backoff stages); `initial_stage`
  /// is Algorithm 2's j <- 0.
  explicit ToraCsmaController(const mac::WifiParams& params);  // default opts
  ToraCsmaController(const mac::WifiParams& params, const Options& options,
                     int initial_stage = 0);

  // mac::ApController:
  void on_data_received(const phy::Frame& frame, sim::Time now) override;
  void fill_ack(phy::ControlParams& params, sim::Time now) override;
  void on_tick(sim::Time now) override;

  double current_probe() const { return kw_.probe(); }
  double estimate() const { return kw_.estimate(); }
  int stage() const { return stage_; }
  long iterations() const { return kw_.iterations(); }
  int stage_changes() const { return stage_changes_; }
  const KieferWolfowitz& optimizer() const { return kw_; }

 private:
  void close_segment(sim::Time now);

  void maybe_close_segment(sim::Time now);

  Options options_;
  KieferWolfowitz kw_;
  int max_stage_;  // m
  int stage_;      // j
  std::int64_t segment_bits_ = 0;
  sim::Time segment_start_ = sim::Time::zero();
  int stage_changes_ = 0;
};

}  // namespace wlan::core
