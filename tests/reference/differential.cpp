#include "reference/differential.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "mac/network.hpp"
#include "obs/audit.hpp"
#include "reference/full_scan.hpp"
#include "reference/reference_network.hpp"
#include "reference/trace_diff.hpp"

namespace wlan::reference {

namespace {

// Grows on demand; a case overflowing it is too long to diff usefully.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 22;
constexpr sim::Duration kAuditPeriod = sim::Duration::milliseconds(50);

/// A scenario's population steps exactly as exp::run_scenario schedules
/// them (after start, in schedule order). The reference model needs its
/// own copy of that loop, so production's is not reused.
template <typename Net>
void schedule_population(Net& net,
                         const std::vector<exp::PopulationStep>& schedule) {
  for (const auto& step : schedule) {
    const int target = std::clamp(step.active_stations, 0, net.num_stations());
    Net* raw = &net;
    net.simulator().schedule_at(
        sim::Time::from_seconds(step.t_seconds), [raw, target] {
          for (int i = 0; i < raw->num_stations(); ++i)
            raw->station(i).set_active(i < target);
        });
  }
}

std::vector<obs::TraceRecord> take_trace(const obs::SimObs& capture) {
  if (capture.trace.dropped() > 0)
    throw std::runtime_error(
        "medium trace overflowed its ring; shorten the case");
  return capture.trace.snapshot();
}

std::string counters_text(const stats::NodeCounters& n) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{data=%llu rts=%llu ok=%llu fail=%llu cts_to=%llu bits=%lld}",
                static_cast<unsigned long long>(n.data_tx_attempts),
                static_cast<unsigned long long>(n.rts_attempts),
                static_cast<unsigned long long>(n.successes),
                static_cast<unsigned long long>(n.failures),
                static_cast<unsigned long long>(n.cts_timeouts),
                static_cast<long long>(n.bits_delivered));
  return buf;
}

bool same_counters(const stats::NodeCounters& a, const stats::NodeCounters& b) {
  return a.data_tx_attempts == b.data_tx_attempts &&
         a.rts_attempts == b.rts_attempts && a.successes == b.successes &&
         a.failures == b.failures && a.cts_timeouts == b.cts_timeouts &&
         a.bits_delivered == b.bits_delivered;
}

const char* scheme_tag(exp::SchemeKind kind) {
  switch (kind) {
    case exp::SchemeKind::kStandard80211: return "802.11";
    case exp::SchemeKind::kFixedPPersistent: return "p-persistent";
    case exp::SchemeKind::kWTopCsma: return "wTOP";
    case exp::SchemeKind::kToraCsma: return "TORA";
    case exp::SchemeKind::kIdleSense: return "IdleSense";
    case exp::SchemeKind::kFixedRandomReset: return "random-reset";
  }
  return "?";
}

const char* traffic_tag(traffic::TrafficModel model) {
  switch (model) {
    case traffic::TrafficModel::kSaturated: return "saturated";
    case traffic::TrafficModel::kCbr: return "cbr";
    case traffic::TrafficModel::kPoisson: return "poisson";
    case traffic::TrafficModel::kOnOff: return "on-off";
    case traffic::TrafficModel::kTrace: return "trace";
  }
  return "?";
}

}  // namespace

Outcome run_production(const Case& c) {
  // Declared first: the simulator must not outlive the bundle it reads.
  obs::SimObs capture(obs::category_bit(obs::kCatMedium), kTraceCapacity);
  auto net = exp::build_network(c.scenario, c.scheme);
  net->simulator().attach_obs(&capture);
  std::unique_ptr<obs::AuditSet> audit;
  if (obs::AuditSet::enabled())
    audit = std::make_unique<obs::AuditSet>(obs::AuditSet::throw_requested());

  net->start();
  schedule_population(*net, c.scenario.population);
  const sim::Time end = net->simulator().now() + c.duration;
  if (audit != nullptr) {
    for (sim::Time t = net->simulator().now() + kAuditPeriod; t < end;
         t = t + kAuditPeriod) {
      net->run_until(t);
      audit->check(*net);
    }
  }
  net->run_until(end);
  if (audit != nullptr) audit->check(*net);

  Outcome out;
  out.medium_trace = take_trace(capture);
  for (int i = 0; i < net->num_stations(); ++i) {
    out.stations.push_back(net->counters().node(static_cast<std::size_t>(i)));
    if (!net->traffic_enabled()) continue;
    const traffic::TrafficSource& src = net->traffic_source(i);
    out.arrivals.push_back(src.arrivals());
    out.drops.push_back(src.drops());
    out.queued.push_back(src.queue().size());
  }
  out.events_executed = net->simulator().events_executed();
  out.pairs_scanned = net->medium().marking_pairs_scanned();
  return out;
}

Outcome run_reference(const Case& c) {
  obs::SimObs capture(obs::category_bit(obs::kCatMedium), kTraceCapacity);
  ReferenceNetwork net(c.scenario, c.scheme);
  net.simulator().attach_obs(&capture);
  net.start();
  schedule_population(net, c.scenario.population);
  net.simulator().run_until(net.simulator().now() + c.duration);

  Outcome out;
  out.medium_trace = take_trace(capture);
  for (int i = 0; i < net.num_stations(); ++i) {
    out.stations.push_back(net.counters().node(static_cast<std::size_t>(i)));
    const traffic::TrafficSource* src = net.traffic_source(i);
    if (src == nullptr) continue;
    out.arrivals.push_back(src->arrivals());
    out.drops.push_back(src->drops());
    out.queued.push_back(src->queue().size());
  }
  out.events_executed = net.simulator().events_executed();
  return out;
}

std::string compare(const Outcome& production, const Outcome& reference) {
  const std::string trace = divergence_report(production.medium_trace,
                                              reference.medium_trace);
  if (!trace.empty())
    return "medium trace (a = production, b = reference): " + trace;
  if (production.stations.size() != reference.stations.size())
    return "station counts differ\n";
  for (std::size_t i = 0; i < production.stations.size(); ++i) {
    if (!same_counters(production.stations[i], reference.stations[i]))
      return "station " + std::to_string(i) + " counters: production " +
             counters_text(production.stations[i]) + " vs reference " +
             counters_text(reference.stations[i]) + "\n";
  }
  if (production.arrivals != reference.arrivals ||
      production.drops != reference.drops ||
      production.queued != reference.queued)
    return "traffic source counters (arrivals/drops/queued) differ\n";
  return {};
}

std::string check_case(const Case& c) {
  const Outcome production = run_production(c);
  const Outcome reference = run_reference(c);
  std::string report = compare(production, reference);
  const FullScanResult scan =
      full_scan_check(c.scenario, production.medium_trace);
  if (!scan.error.empty()) report += "full-scan check: " + scan.error + "\n";
#ifndef WLAN_OBS_NO_TRACE
  if (scan.transmissions == 0)
    report += "production trace holds no transmission: nothing was compared\n";
#endif
  if (!report.empty()) report = describe(c) + "\n" + report;
  return report;
}

std::string describe(const Case& c) {
  const exp::ScenarioConfig& s = c.scenario;
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "case: %s n=%d radius=%g cells=%d spacing=%g shadow=%g capture=%g "
      "seed=%llu | %s | traffic=%s(%g Mb/s) | rts=%s | %gs | "
      "%zu population steps",
      s.topology == exp::TopologyKind::kCircleEdge ? "circle" : "disc",
      s.num_stations, s.radius, s.cells, s.cell_spacing, s.shadow_probability,
      s.phy.capture_ratio, static_cast<unsigned long long>(s.seed),
      scheme_tag(c.scheme.kind), traffic_tag(s.traffic.model),
      s.traffic.offered_load_mbps, s.phy.rts_cts_enabled() ? "on" : "off",
      c.duration.s(), s.population.size());
  return buf;
}

}  // namespace wlan::reference
