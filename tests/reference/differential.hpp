// The differential harness: run one case through production (exp::
// build_network: mac::Station + ContentionArbiter + incremental marking)
// and through the reference model (ReferenceNetwork: per-slot stations on
// the production medium), then require
//   * the kCatMedium traces to match record for record,
//   * every station's counters (and traffic source counters) to match,
//   * production's trace to pass the full-scan clean-flag check.
// A mismatch comes back as a report naming the first divergent record
// (obs::divergence_report) or station; an empty report means equivalent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/trace.hpp"
#include "stats/counters.hpp"

namespace wlan::reference {

struct Case {
  exp::ScenarioConfig scenario;
  exp::SchemeConfig scheme;
  sim::Duration duration = sim::Duration::seconds(0.5);
  /// Population steps applied as exp::run_scenario applies a scenario's
  /// population; empty = every station active throughout.
  std::vector<exp::PopulationStep> schedule;
};

/// Everything one run is compared on.
struct Outcome {
  std::vector<obs::TraceRecord> medium_trace;  // kCatMedium only
  std::vector<stats::NodeCounters> stations;
  std::vector<std::uint64_t> arrivals;  // per station; empty when saturated
  std::vector<std::uint64_t> drops;
  std::vector<std::size_t> queued;
  std::uint64_t events_executed = 0;
  /// Production only: medium.pairs_scanned after the run.
  std::uint64_t pairs_scanned = 0;
};

/// Production run. When obs::AuditSet::enabled() (WLAN_AUDIT or its
/// override), an AuditSet checks the network every 50 ms of simulated time
/// and at the end — in throw mode a violation propagates as AuditFailure.
Outcome run_production(const Case& c);

/// The same case on the reference model.
Outcome run_reference(const Case& c);

/// Empty when the outcomes are equivalent; otherwise where they part.
std::string compare(const Outcome& production, const Outcome& reference);

/// Runs both, compares, and full-scan checks production's trace. Empty
/// when everything agrees.
std::string check_case(const Case& c);

/// One line naming the case (topology, size, scheme, traffic, options).
std::string describe(const Case& c);

}  // namespace wlan::reference
