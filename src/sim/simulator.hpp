// The simulation executive: owns the clock and the event queue.
//
// Single-threaded, run-to-completion semantics: a callback runs with the
// clock set to its scheduled time and may schedule/cancel further events.
// Scheduling in the past is a programming error and asserts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace wlan::obs {
struct SimObs;
}

namespace wlan::sim {

/// Thrown from the dispatch loops when an armed watchdog deadline is
/// exceeded (see Simulator::set_watchdog). Converts a hung or runaway run
/// into a catchable timeout instead of an unbounded stall; exp::run_sweep's
/// job guard maps it to a structured JobError.
struct WatchdogExpired : std::runtime_error {
  enum class Kind { kEvents, kWall };
  WatchdogExpired(Kind kind, std::string message)
      : std::runtime_error(std::move(message)), kind(kind) {}
  Kind kind;
};

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

  /// Runs events until the queue empties or the clock would pass `limit`.
  /// On return now() == min(limit, time of last event) and events at
  /// exactly `limit` HAVE run. Returns the number of events executed.
  std::uint64_t run_until(Time limit);

  /// Runs every remaining event. Returns the number executed.
  std::uint64_t run_all();

  /// Executes the single next event, if any. Returns true if one ran.
  bool step();

  /// Requests run_until/run_all to return after the current callback.
  void stop() { stop_requested_ = true; }

  /// Total events executed since construction (exposed for benchmarks).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Arms (or, with both zero, disarms) a watchdog over the dispatch
  /// loops: after `max_events` further events (0 = unlimited) or once
  /// `max_wall_ms` of wall clock elapse (0 = unlimited), the running
  /// run_until/run_all/step throws WatchdogExpired. The event budget is
  /// exact and deterministic; the wall deadline is checked every
  /// kWatchdogWallStride events, so it is for hang conversion, not for
  /// reproducible tests. The unarmed hot loop pays one branch per event.
  void set_watchdog(std::uint64_t max_events, std::int64_t max_wall_ms);

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
  /// Wall-clock deadline check cadence (events between steady_clock reads).
  static constexpr std::uint64_t kWatchdogWallStride = 4096;

  /// Dispatches one fired event through the observer: emits the kCatSim
  /// dispatch record and brackets the callback for phase attribution.
  void dispatch_observed(EventQueue::Fired& fired);

  /// Throws WatchdogExpired when an armed deadline is exceeded. Called
  /// after each dispatched event while armed (see the run loops).
  void check_watchdog();

  /// The dispatch loops' single indirection point.
  void invoke(EventQueue::Fired& fired) {
    if (obs_ != nullptr) {
      dispatch_observed(fired);
      return;
    }
    fired.callback();
  }

  EventQueue queue_;
  Time now_ = Time::zero();
  bool stop_requested_ = false;
  std::uint64_t events_executed_ = 0;
  bool watchdog_armed_ = false;
  std::uint64_t watchdog_event_budget_ = 0;  // absolute events_executed_ cap
  std::int64_t watchdog_wall_deadline_ns_ = 0;  // steady_clock epoch; 0=none
  obs::SimObs* obs_ = nullptr;                // what trace points consult
  std::unique_ptr<obs::SimObs> owned_obs_;    // env-created bundle
};

}  // namespace wlan::sim
