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
  if (o.wants(obs::kCatSim))
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

std::uint64_t Simulator::run_until(Time limit) {
  const std::uint64_t before = events_executed_;
  // pop_until is one combined heap walk per event, replacing separate
  // empty()/next_time()/pop() calls.
  EventQueue::Fired fired;
  while (queue_.pop_until(limit, fired)) {
    now_ = fired.time;
    invoke(fired);
    ++events_executed_;
  }
  if (now_ < limit) now_ = limit;
  return events_executed_ - before;
}

}  // namespace wlan::sim
