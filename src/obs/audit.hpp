// Conservation-law auditors: a set of end-to-end invariants checked
// against a live network at sample points and at end-of-run. Every check
// only READS state the components already maintain (the same
// zero-perturbation contract as obs/trace.hpp) — attaching an AuditSet
// changes no simulation decision and no figure CSV byte.
//
// The laws (see ARCHITECTURE.md "Invariant auditors" for the table):
//   queue-conservation    per station: lifetime arrivals == drops + pops +
//                         still-queued (equivalently: bits offered ==
//                         delivered + dropped + in-queue, payload constant)
//   backoff-conservation  per station: slot decisions drawn == consumed +
//                         rewound + outstanding (mac::Station::BackoffAudit)
//   airtime-conservation  per node: sensed busy_ns + idle_ns == now - epoch
//                         (IFS gaps are idle: the medium knows carrier, not
//                         MAC timers)
//   medium-active         tx_started == tx_ended + |in flight|
//   sensed-recompute      each node's incremental sensed counter equals a
//                         from-scratch recount over the in-flight list —
//                         an independent cross-check of the carrier-sense
//                         cascade
//
// Gating: WLAN_AUDIT (truthy → check, "throw" → check and throw
// AuditFailure on the first violation, falsy → off, anything else exits
// 2 like every malformed knob). Default: ON in debug builds
// (assert-enabled), OFF in release. set_override forces it in-process
// for tests. When the run also carries a flight recorder, every
// violation appends a flight-recorder excerpt naming the FrameIds last
// seen at the offending station.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace wlan::mac {
class Network;
}

namespace wlan::obs {

/// Thrown by AuditSet::check in throw mode; .what() carries the first
/// violation's full detail (including the flight excerpt, when available).
class AuditFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct AuditViolation {
  std::string invariant;  // short law name ("queue-conservation", ...)
  std::string detail;     // names the station/node and the imbalance
};

class AuditSet {
 public:
  explicit AuditSet(bool throw_on_violation = false)
      : throw_on_violation(throw_on_violation) {}

  /// Runs every law against `net` at the simulator's current instant.
  /// Records (and in throw mode raises) violations. Safe to call from a
  /// sampler tick or after the final event — it never mutates `net`.
  void check(mac::Network& net);

  bool ok() const { return violations_.empty(); }
  std::uint64_t checks_run() const { return checks_run_; }
  std::uint64_t laws_checked() const { return laws_checked_; }
  const std::vector<AuditViolation>& violations() const { return violations_; }

  bool throw_on_violation = false;

  /// Env/override gating: -1 = follow WLAN_AUDIT (default on in debug
  /// builds), 0 = force off, 1 = force on, 2 = force on + throw.
  static void set_override(int value);
  /// Whether a fresh AuditSet should be attached to a run right now.
  static bool enabled();
  /// Whether that AuditSet should throw on violation (WLAN_AUDIT=throw or
  /// override 2).
  static bool throw_requested();

 private:
  void report(mac::Network& net, std::uint32_t node,
              const char* invariant, std::string detail);

  std::uint64_t checks_run_ = 0;
  std::uint64_t laws_checked_ = 0;
  std::vector<AuditViolation> violations_;
};

namespace audit_testing {
/// Test-only accounting-bug injector: skews the queue-conservation law's
/// completed-exchange term by `k` frames for station index 0, simulating a
/// lost/double-counted completion. Lets tests prove a real bookkeeping bug
/// is caught — with a flight-recorder excerpt naming the FrameId — without
/// planting a bug in shipping code. 0 (default) = off.
void set_queue_skew(std::int64_t k);
std::int64_t queue_skew();
}  // namespace audit_testing

}  // namespace wlan::obs
