// wTOP-CSMA — Weighted fair Throughput Optimal p-Persistent CSMA
// (the paper's Algorithm 1, AP side).
//
// The AP measures throughput over UPDATE_PERIOD segments, alternating the
// broadcast attempt probability between pval + b_k and pval - b_k, and runs
// one Kiefer-Wolfowitz gradient step per pair of segments. The current
// probe is piggybacked on every ACK; stations (PPersistentStrategy with
// adaptive=true) apply the weight transform of Lemma 1 on every ACK they
// overhear, so weights never need to be known at the AP.
#pragma once

#include <cstdint>

#include "core/kiefer_wolfowitz.hpp"
#include "mac/ap_controller.hpp"

namespace wlan::core {

class WTopCsmaController final : public mac::ApController {
 public:
  /// Log-space KW over p in [1e-4, 0.9], initial 0.5, gain 1, b = 1/3.
  static KwOptions default_kw_options();

  struct Options {
    /// Segment length (the paper uses 250 ms in Section VI; it recommends
    /// covering ~500 successful transmissions).
    sim::Duration update_period = sim::Duration::milliseconds(250);
    /// Kiefer-Wolfowitz configuration. Defaults follow Algorithm 1 (initial
    /// pval 0.5, probes clamped to [probe_min, 0.9]) with the recursion run
    /// in log-space — see kiefer_wolfowitz.hpp for why p must be tuned
    /// logarithmically. probe_min is slightly positive so a probe can never
    /// silence the network entirely (with p = 0 exactly, no packets arrive
    /// and segment boundaries — which are evaluated on packet arrival —
    /// would never trigger).
    KwOptions kw = default_kw_options();
  };

  WTopCsmaController();  // default Options
  explicit WTopCsmaController(const Options& options);

  // mac::ApController:
  void on_data_received(const phy::Frame& frame, sim::Time now) override;
  void fill_ack(phy::ControlParams& params, sim::Time now) override;
  void on_tick(sim::Time now) override;

  /// The probability currently broadcast (pval +- b_k).
  double current_probe() const { return kw_.probe(); }

  /// The KW iterate pval.
  double estimate() const { return kw_.estimate(); }

  long iterations() const { return kw_.iterations(); }
  const KieferWolfowitz& optimizer() const { return kw_; }

 private:
  void close_segment(sim::Time now);

  void maybe_close_segment(sim::Time now);

  Options options_;
  KieferWolfowitz kw_;
  std::int64_t segment_bits_ = 0;
  sim::Time segment_start_ = sim::Time::zero();
};

}  // namespace wlan::core
