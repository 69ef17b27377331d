// The simulation executive: owns the clock and the event queue.
//
// Single-threaded, run-to-completion semantics: a callback runs with the
// clock set to its scheduled time and may schedule/cancel further events.
// Scheduling in the past is a programming error and asserts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace wlan::obs {
struct SimObs;
}

namespace wlan::sim {

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedules `cb` at absolute time `t >= now()`.
  EventId schedule_at(Time t, EventQueue::Callback cb);

  /// Schedules `cb` after a non-negative delay.
  EventId schedule_after(Duration d, EventQueue::Callback cb);

  /// Schedules `cb` at `t` with an explicit same-instant ordering anchor:
  /// the event ties with other events at `t` as if it had been scheduled
  /// `sched_lookback` before `t` by a callback chain entered at
  /// `entry_time` with insertion seq `entry_seq` (0 = this event's own
  /// seq). Lets one event stand in for an eliminated chain of events
  /// without perturbing deterministic tie-breaks (see EventQueue).
  EventId schedule_anchored(Time t, Duration sched_lookback, Time entry_time,
                            std::uint64_t entry_seq,
                            EventQueue::Callback cb);

  /// Cancels a pending event (no-op on null/fired handles).
  void cancel(EventId id);

  /// The dispatch loop: runs events until the queue empties or the clock
  /// would pass `limit`. On return now() == limit (unless the clock was
  /// already past it) and events at exactly `limit` HAVE run. Returns the
  /// number of events executed. An exception thrown by a callback leaves
  /// the loop with the clock at that event and the rest still pending.
  std::uint64_t run_until(Time limit);

  /// Total events executed since construction (exposed for benchmarks).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Event-queue counters/sizing (allocation behaviour, stale-entry churn)
  /// for benchmarks and the zero-allocation tests.
  EventQueue::Stats queue_stats() const { return queue_.stats(); }

  bool idle() const { return queue_.empty(); }

  /// The attached observability bundle, or null (the overwhelmingly common
  /// case — trace points cost one load+branch). Owned when WLAN_TRACE,
  /// WLAN_PROFILE or WLAN_FLIGHT created it at construction; see attach_obs.
  obs::SimObs* obs() const { return obs_; }

  /// Attaches an external bundle (tests/exp-runner capture; NOT owned,
  /// must outlive the last event dispatched). Passing null restores the
  /// env-created bundle, if any.
  void attach_obs(obs::SimObs* obs);

 private:
  /// Dispatches one fired event through the observer: emits the kCatSim
  /// dispatch record and brackets the callback for phase attribution.
  void dispatch_observed(EventQueue::Fired& fired);

  /// The dispatch loop's single indirection point.
  void invoke(EventQueue::Fired& fired) {
    if (obs_ != nullptr) {
      dispatch_observed(fired);
      return;
    }
    fired.callback();
  }

  EventQueue queue_;
  Time now_ = Time::zero();
  std::uint64_t events_executed_ = 0;
  obs::SimObs* obs_ = nullptr;                // what trace points consult
  std::unique_ptr<obs::SimObs> owned_obs_;    // env-created bundle
};

}  // namespace wlan::sim
