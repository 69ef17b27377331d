#include "exp/runner.hpp"

#include <algorithm>
#include <memory>

#include "obs/audit.hpp"
#include "obs/collect.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace wlan::exp {

namespace {

double mean_attempt_probability(const mac::Network& net) {
  const int n = net.num_stations();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (int i = 0; i < n; ++i)
    sum += net.station(i).strategy().attempt_probability();
  return sum / n;
}

/// Current control variable for the time series: the KW probe for adaptive
/// schemes, the mean attempt probability otherwise.
double control_value(mac::Network& net, const SchemeConfig& scheme) {
  switch (scheme.kind) {
    case SchemeKind::kWTopCsma:
      return static_cast<core::WTopCsmaController*>(net.controller())
          ->current_probe();
    case SchemeKind::kToraCsma:
      return static_cast<core::ToraCsmaController*>(net.controller())
          ->current_probe();
    default:
      return mean_attempt_probability(net);
  }
}

double stage_value(mac::Network& net, const SchemeConfig& scheme) {
  if (scheme.kind == SchemeKind::kToraCsma)
    return static_cast<core::ToraCsmaController*>(net.controller())->stage();
  return 0.0;
}

int count_active(const mac::Network& net) {
  int count = 0;
  for (int i = 0; i < net.num_stations(); ++i)
    if (net.station(i).active()) ++count;
  return count;
}

/// Self-rescheduling sampler recording windowed throughput, the control
/// variable, and (with traffic sources) queue occupancy and drop rate.
/// Lives until the simulation ends (the last pending tick event holds the
/// final shared_ptr, so the state dies with the network's simulator).
///
/// The periodic event captures a single shared_ptr (16 bytes): it lives in
/// sim::InlineFunction's inline buffer, where the old implementation
/// round-tripped a heap-boxed std::function copy through every tick.
struct Sampler : std::enable_shared_from_this<Sampler> {
  mac::Network& net;
  const SchemeConfig& scheme;
  sim::Duration period;
  RunResult& result;
  obs::AuditSet* audit = nullptr;  // sample-point invariant checks
  std::int64_t prev_bits = 0;
  std::uint64_t prev_drops = 0;

  Sampler(mac::Network& net, const SchemeConfig& scheme, sim::Duration period,
          RunResult& result, obs::AuditSet* audit)
      : net(net), scheme(scheme), period(period), result(result),
        audit(audit) {}

  void arm() {
    net.simulator().schedule_after(
        period, [self = shared_from_this()] { self->tick(); });
  }

  std::uint64_t total_drops() const {
    std::uint64_t drops = 0;
    for (int i = 0; i < net.num_stations(); ++i)
      drops += net.traffic_source(i).drops();
    return drops;
  }

  void tick() {
    const std::int64_t bits = net.counters().total_bits_delivered();
    // Windowed Mb/s over the sampling period. Counter resets (warm-up
    // discard) make the delta negative once; clamp that window to zero.
    const double mbps =
        std::max<double>(0.0, static_cast<double>(bits - prev_bits)) /
        period.s() / 1e6;
    prev_bits = bits;
    const sim::Time now = net.simulator().now();
    result.throughput_series.add(now, mbps);
    result.control_series.add(now, control_value(net, scheme));
    result.stage_series.add(now, stage_value(net, scheme));
    result.active_nodes_series.add(now, count_active(net));
    if (net.traffic_enabled()) {
      result.queue_series.add(now, static_cast<double>(net.total_queued()));
      const std::uint64_t drops = total_drops();
      result.drop_series.add(
          now, static_cast<double>(drops - std::min(drops, prev_drops)) /
                   period.s());
      prev_drops = drops;
    }
    if (audit != nullptr) audit->check(net);
    arm();
  }
};

void install_sampler(mac::Network& net, const SchemeConfig& scheme,
                     sim::Duration period, RunResult& result,
                     obs::AuditSet* audit) {
  std::make_shared<Sampler>(net, scheme, period, result, audit)->arm();
}

/// An AuditSet when WLAN_AUDIT (or its override) asks for one; null is
/// "auditing off" throughout the runner.
std::unique_ptr<obs::AuditSet> make_audit() {
  if (!obs::AuditSet::enabled()) return nullptr;
  return std::make_unique<obs::AuditSet>(obs::AuditSet::throw_requested());
}

/// End-of-run check + audit.* metrics (checks run, laws evaluated,
/// violations recorded). Call after collect_measurement so the counters
/// land in the same registry the sweep folds.
void finish_audit(obs::AuditSet* audit, mac::Network& net, RunResult& result) {
  if (audit == nullptr) return;
  audit->check(net);
  result.metrics.set_count("audit.checks", audit->checks_run());
  result.metrics.set_count("audit.laws_checked", audit->laws_checked());
  result.metrics.set_count("audit.violations", audit->violations().size());
}

void collect_measurement(mac::Network& net, RunResult& result) {
  const sim::Duration window = net.measured_duration();
  result.total_mbps = net.counters().total_mbps(window);
  result.per_station_mbps = net.counters().per_node_mbps(window);
  result.ap_avg_idle_slots = net.ap().idle_meter().average_idle_slots();
  result.mean_attempt_probability = mean_attempt_probability(net);
  result.successes = net.counters().total_successes();
  result.failures = net.counters().total_failures();

  if (net.traffic_enabled()) {
    const sim::Time now = net.simulator().now();
    for (int i = 0; i < net.num_stations(); ++i) {
      const auto& src = net.traffic_source(i);
      result.delays.merge(src.delays());
      result.packets_offered += src.arrivals();
      result.packets_dropped += src.drops();
      result.mean_queue_occupancy += src.queue().mean_occupancy(now);
    }
    if (window > sim::Duration::zero()) {
      result.offered_mbps =
          static_cast<double>(result.packets_offered) *
          static_cast<double>(net.params().payload_bits) / window.s() / 1e6;
    }
    if (result.packets_offered > 0) {
      result.drop_rate = static_cast<double>(result.packets_dropped) /
                         static_cast<double>(result.packets_offered);
    }
    result.mean_delay_s = result.delays.mean_s();
    result.delay_p50_s = result.delays.quantile(0.50);
    result.delay_p95_s = result.delays.quantile(0.95);
    result.delay_p99_s = result.delays.quantile(0.99);
  }

  result.metrics = obs::collect_metrics(net);
  obs::add_run_cache_metrics(result.metrics);
  obs::add_fault_metrics(result.metrics);
  if (const obs::SimObs* o = net.simulator().obs(); o != nullptr) {
    if (o->flight != nullptr) obs::add_flight_metrics(result.metrics, *o->flight);
    if (o->profiler.enabled())
      obs::add_profile_metrics(result.metrics, o->profiler);
  }
  obs::maybe_export_metrics(result.metrics);
}

}  // namespace

RunResult run_scenario(const ScenarioConfig& scenario,
                       const SchemeConfig& scheme, const RunOptions& options) {
  RunResult result;

  auto net = build_network(scenario, scheme);
  // Hidden station pairs from the built sensing rows (station node ids
  // start at num_aps()).
  result.hidden_pairs = net->medium().hidden_pairs(net->num_aps());
  // Declared before the sampler captures it; checked at every sample tick
  // and once after the measurement window.
  std::unique_ptr<obs::AuditSet> audit = make_audit();
  if (options.record_series) {
    install_sampler(*net, scheme, options.sample_period, result, audit.get());
    // Station node ids start after the APs (one AP historically, so the
    // offset used to be the literal 1).
    const int num_aps = net->num_aps();
    for (int c = 0; c < num_aps; ++c) {
      net->ap(c).set_success_callback(
          [&result, num_aps](phy::NodeId src, sim::Time) {
            result.success_sources.push_back(static_cast<int>(src) - num_aps);
          });
    }
  }

  net->start();
  if (options.warmup > sim::Duration::zero()) {
    net->run_for(options.warmup);
    net->reset_counters();
    net->ap().idle_meter().reset();
  }
  net->run_for(options.measure);

  collect_measurement(*net, result);
  finish_audit(audit.get(), *net, result);
  return result;
}

RunResult run_dynamic(const ScenarioConfig& scenario,
                      const SchemeConfig& scheme,
                      const std::vector<PopulationStep>& schedule,
                      sim::Duration total_duration,
                      sim::Duration sample_period) {
  RunResult result;

  auto net = build_network(scenario, scheme);
  result.hidden_pairs = net->medium().hidden_pairs(net->num_aps());
  std::unique_ptr<obs::AuditSet> audit = make_audit();
  install_sampler(*net, scheme, sample_period, result, audit.get());
  net->start();

  for (const auto& step : schedule) {
    const int target =
        std::clamp(step.active_stations, 0, net->num_stations());
    mac::Network* raw = net.get();
    net->simulator().schedule_at(
        sim::Time::from_seconds(step.t_seconds), [raw, target] {
          for (int i = 0; i < raw->num_stations(); ++i)
            raw->station(i).set_active(i < target);
        });
  }
  // Apply any step at t = 0 immediately via the event queue (scheduled
  // above); later steps fire during the run.
  net->run_for(total_duration);

  collect_measurement(*net, result);
  finish_audit(audit.get(), *net, result);
  return result;
}

}  // namespace wlan::exp
