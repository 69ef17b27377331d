#include "sim/simulator.hpp"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace wlan::sim {

Simulator::Simulator() : owned_obs_(obs::SimObs::from_env()) {
  obs_ = owned_obs_.get();
}

Simulator::~Simulator() {
  // Only the env-created bundle is serviced here: an attached one belongs
  // to whoever attached it (and may already be gone — obs_ is not touched).
  if (owned_obs_ != nullptr) {
    if (owned_obs_->profiler.enabled() && owned_obs_->profiler.total_events())
      std::fputs(owned_obs_->profiler.report("run").c_str(), stderr);
    obs::export_on_destruction(*owned_obs_);
  }
}

void Simulator::attach_obs(obs::SimObs* obs) {
  obs_ = obs != nullptr ? obs : owned_obs_.get();
}

void Simulator::dispatch_observed(EventQueue::Fired& fired) {
  obs::SimObs& o = *obs_;
  // Pushed directly (not via point()): the dispatch record must not claim
  // the profiler's attribution slot — that belongs to the first trace
  // point INSIDE the callback.
  if (o.trace.wants(obs::kCatSim))
    o.trace.push(obs::TraceRecord{now_.ns(), obs::kCatSim, obs::ev::kDispatch,
                                  0, events_executed_, 0});
  if (!o.profiler.enabled()) {
    fired.callback();
    return;
  }
  o.profiler.begin_event();
  const auto t0 = std::chrono::steady_clock::now();
  fired.callback();
  const auto t1 = std::chrono::steady_clock::now();
  o.profiler.end_event(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

EventId Simulator::schedule_at(Time t, EventQueue::Callback cb) {
  assert(t >= now_ && "scheduling into the past");
  EventQueue::OrderKey key;
  key.sched_lookback = EventQueue::OrderKey::clamp_lookback(t - now_);
  key.entry_lookback = key.sched_lookback;
  return queue_.schedule(t, std::move(cb), key);
}

EventId Simulator::schedule_after(Duration d, EventQueue::Callback cb) {
  assert(d >= Duration::zero());
  EventQueue::OrderKey key;
  key.sched_lookback = EventQueue::OrderKey::clamp_lookback(d);
  key.entry_lookback = key.sched_lookback;
  return queue_.schedule(now_ + d, std::move(cb), key);
}

EventId Simulator::schedule_anchored(Time t, Duration sched_lookback,
                                     Time entry_time, std::uint64_t entry_seq,
                                     EventQueue::Callback cb) {
  assert(t >= now_ && "scheduling into the past");
  EventQueue::OrderKey key;
  key.sched_lookback = EventQueue::OrderKey::clamp_lookback(sched_lookback);
  key.entry_lookback = EventQueue::OrderKey::clamp_lookback(t - entry_time);
  key.order_seq = entry_seq;
  return queue_.schedule(t, std::move(cb), key);
}

void Simulator::cancel(EventId id) { queue_.cancel(id); }

void Simulator::set_watchdog(std::uint64_t max_events,
                             std::int64_t max_wall_ms) {
  watchdog_event_budget_ =
      max_events == 0 ? 0 : events_executed_ + max_events;
  watchdog_wall_deadline_ns_ =
      max_wall_ms <= 0
          ? 0
          : std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                    .count() +
                max_wall_ms * 1'000'000;
  watchdog_armed_ = max_events != 0 || max_wall_ms > 0;
}

void Simulator::check_watchdog() {
  if (watchdog_event_budget_ != 0 &&
      events_executed_ >= watchdog_event_budget_) {
    watchdog_armed_ = false;  // a rethrowing caller must not re-trip
    throw WatchdogExpired(WatchdogExpired::Kind::kEvents,
                          "simulation watchdog: event budget exhausted after " +
                              std::to_string(events_executed_) + " events");
  }
  if (watchdog_wall_deadline_ns_ != 0 &&
      events_executed_ % kWatchdogWallStride == 0) {
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    if (now_ns >= watchdog_wall_deadline_ns_) {
      watchdog_armed_ = false;
      throw WatchdogExpired(
          WatchdogExpired::Kind::kWall,
          "simulation watchdog: wall-clock deadline exceeded at simulated "
          "time " +
              std::to_string(now_.s()) + " s");
    }
  }
}

std::uint64_t Simulator::run_until(Time limit) {
  std::uint64_t ran = 0;
  stop_requested_ = false;
  // Batched dispatch: pop_until is one combined heap walk per event,
  // replacing the separate empty()/next_time()/pop() calls of the old
  // loop. (stop_requested_ stays checked per event — a callback may call
  // stop() — but that is a member load, not a function boundary.)
  EventQueue::Fired fired;
  while (!stop_requested_ && queue_.pop_until(limit, fired)) {
    now_ = fired.time;
    invoke(fired);
    ++ran;
    ++events_executed_;
    if (watchdog_armed_) check_watchdog();
  }
  if (!stop_requested_ && now_ < limit) now_ = limit;
  return ran;
}

std::uint64_t Simulator::run_all() {
  std::uint64_t ran = 0;
  stop_requested_ = false;
  EventQueue::Fired fired;
  while (!stop_requested_ && queue_.pop_until(Time::max(), fired)) {
    now_ = fired.time;
    invoke(fired);
    ++ran;
    ++events_executed_;
    if (watchdog_armed_) check_watchdog();
  }
  return ran;
}

bool Simulator::step() {
  EventQueue::Fired fired;
  if (!queue_.pop_until(Time::max(), fired)) return false;
  now_ = fired.time;
  invoke(fired);
  ++events_executed_;
  if (watchdog_armed_) check_watchdog();
  return true;
}

}  // namespace wlan::sim
