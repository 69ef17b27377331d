#include "core/wtop_csma.hpp"

namespace wlan::core {

KwOptions WTopCsmaController::default_kw_options() {
  KwOptions kw;
  kw.initial = 0.5;     // Algorithm 1 line 2
  kw.probe_min = 1e-4;  // keep every probe alive (see header)
  kw.probe_max = 0.9;   // Algorithm 1 line 13
  kw.value_min = 1e-4;
  kw.value_max = 0.9;
  kw.gain = 1.0;
  kw.b_exponent = 1.0 / 3.0;
  kw.initial_k = 2;
  kw.log_space = true;  // p* = Theta(1/N) needs multiplicative probes
  kw.dead_measurement_threshold = 0.5;  // Mb/s; see KwOptions
  kw.dead_zone_floor = 0.01;  // never escape below p = 0.01
  kw.max_step = 0.75;         // trust region: at most x2.1 per iteration
  return kw;
}

WTopCsmaController::WTopCsmaController()
    : WTopCsmaController(Options{}) {}

WTopCsmaController::WTopCsmaController(const Options& options)
    : options_(options), kw_(options.kw) {}

void WTopCsmaController::on_data_received(const phy::Frame& frame,
                                          sim::Time now) {
  segment_bits_ += frame.payload_bits;  // Algorithm 1 line 4
  maybe_close_segment(now);             // line 5
}

void WTopCsmaController::on_tick(sim::Time now) {
  // Clock-driven boundary check: closes (possibly empty) segments even when
  // the current probe silences the network -- y = 0 then steers the gradient
  // back toward live probes. See ApController::on_tick.
  maybe_close_segment(now);
}

void WTopCsmaController::maybe_close_segment(sim::Time now) {
  if (now - segment_start_ >= options_.update_period) close_segment(now);
}

void WTopCsmaController::close_segment(sim::Time now) {
  const sim::Duration elapsed = now - segment_start_;
  const double mbps =
      static_cast<double>(segment_bits_) / elapsed.s() / 1e6;
  kw_.report(mbps);  // lines 7 or 10-13
  segment_bits_ = 0;
  segment_start_ = now;
}

void WTopCsmaController::fill_ack(phy::ControlParams& params,
                                  sim::Time /*now*/) {
  // Algorithm 1 line 15: transmit p in the ACK packet.
  params.has_attempt_probability = true;
  params.attempt_probability = kw_.probe();
}

}  // namespace wlan::core
