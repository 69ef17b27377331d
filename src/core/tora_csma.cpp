#include "core/tora_csma.hpp"

#include <stdexcept>

namespace wlan::core {

KwOptions ToraCsmaController::default_kw_options() {
  KwOptions kw;
  kw.initial = 0.5;  // Algorithm 2 line 2
  kw.probe_min = 0.0;
  kw.probe_max = 1.0;  // Algorithm 2 line 19
  kw.value_min = 0.0;
  kw.value_max = 1.0;
  kw.gain = 1.0;
  kw.b_exponent = 1.0 / 3.0;
  kw.initial_k = 2;
  kw.log_space = false;
  kw.dead_measurement_threshold = 0.5;  // Mb/s; see KwOptions
  kw.dead_zone_floor = 0.01;  // never escape below p0 = 0.01
  kw.max_step = 0.25;         // trust region in p0 units
  return kw;
}

ToraCsmaController::ToraCsmaController(const mac::WifiParams& params)
    : ToraCsmaController(params, Options{}) {}

ToraCsmaController::ToraCsmaController(const mac::WifiParams& params,
                                       const Options& options,
                                       int initial_stage)
    : options_(options),
      kw_(options.kw),
      max_stage_(params.num_backoff_stages()),
      stage_(initial_stage) {
  if (initial_stage < 0 || initial_stage > max_stage_ - 1)
    throw std::invalid_argument("ToraCsmaController: stage outside [0, m-1]");
  if (!(options.delta_low < options.delta_high))
    throw std::invalid_argument("ToraCsmaController: delta_low >= delta_high");
}

void ToraCsmaController::on_data_received(const phy::Frame& frame,
                                          sim::Time now) {
  segment_bits_ += frame.payload_bits;  // Algorithm 2 line 4
  maybe_close_segment(now);             // line 5
}

void ToraCsmaController::on_tick(sim::Time now) {
  // Clock-driven boundary check (see ApController::on_tick).
  maybe_close_segment(now);
}

void ToraCsmaController::maybe_close_segment(sim::Time now) {
  if (now - segment_start_ >= options_.update_period) close_segment(now);
}

void ToraCsmaController::close_segment(sim::Time now) {
  const sim::Duration elapsed = now - segment_start_;
  const double mbps = static_cast<double>(segment_bits_) / elapsed.s() / 1e6;

  const bool was_minus_phase = !kw_.plus_phase();
  kw_.report(mbps);

  // Algorithm 2 lines 12-19: after a completed gradient step, check the
  // stage-escape thresholds. A stage change resets pval to 0.5 and skips
  // the k increment (reset_value keeps k; the increment already applied in
  // report() is the "else" branch, so we only emulate the skip by leaving k
  // as-is — the paper's net effect is identical: per completed frame either
  // the stage changes or k advances).
  if (was_minus_phase) {
    const double pval = kw_.estimate();
    if (pval <= options_.delta_low && stage_ < max_stage_ - 1) {
      ++stage_;  // optimum lies at a lower attempt probability
      kw_.reset_value(0.5);
      ++stage_changes_;
    } else if (pval >= options_.delta_high && stage_ > 0) {
      --stage_;  // optimum lies at a higher attempt probability
      kw_.reset_value(0.5);
      ++stage_changes_;
    }
  }
  segment_bits_ = 0;
  segment_start_ = now;
}

void ToraCsmaController::fill_ack(phy::ControlParams& params,
                                  sim::Time /*now*/) {
  // Algorithm 2 line 21: transmit p0 and the stage in the ACK packet.
  params.has_random_reset = true;
  params.reset_probability = kw_.probe();
  params.reset_stage = stage_;
}

}  // namespace wlan::core
