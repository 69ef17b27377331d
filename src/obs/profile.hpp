// PhaseProfiler: where do the events — and the wall time — go?
//
// The dispatch loop brackets every callback with begin_event()/end_event()
// and the first trace point hit inside the callback stamps its category, so
// each fired event is attributed to the component it was dispatched INTO
// (not to nested callees: later stamps in the same callback are ignored).
// Events whose callback hits no trace point land in kCatOther.
//
// Wall-clock reads happen only when the profiler is enabled (WLAN_PROFILE),
// and nothing here feeds back into simulation state either way: the
// profiler observes the dispatch loop, it never perturbs it.
#pragma once

#include <cstdint>
#include <string>

#include "obs/category.hpp"

namespace wlan::obs {

class PhaseProfiler {
 public:
  void enable(bool on = true) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// First stamp inside a callback wins; later ones are ignored.
  void stamp(Category c) {
    if (enabled_ && !stamped_) {
      current_ = c;
      stamped_ = true;
    }
  }

  /// Called by the dispatch loop around each callback. `wall_ns` is the
  /// callback's wall-clock cost (0 when the caller skipped the clock).
  void begin_event() {
    stamped_ = false;
    current_ = kCatOther;
  }
  void end_event(std::int64_t wall_ns) {
    ++events_[current_];
    wall_ns_[current_] += wall_ns;
  }

  std::uint64_t events(Category c) const {
    return events_[static_cast<unsigned>(c)];
  }
  std::int64_t wall_ns(Category c) const {
    return wall_ns_[static_cast<unsigned>(c)];
  }
  std::uint64_t total_events() const;
  std::int64_t total_wall_ns() const;

  /// Merges another profiler's buckets.
  void add(const PhaseProfiler& other);

  /// Adds directly into one category's bucket — rebuilds per-lane
  /// aggregates from per-run exported metrics (obs::add_profile_metrics).
  void add_bucket(Category c, std::uint64_t events, std::int64_t wall_ns) {
    events_[static_cast<unsigned>(c)] += events;
    wall_ns_[static_cast<unsigned>(c)] += wall_ns;
  }

  /// Multi-line table, one category per line with event counts, wall ms
  /// and percentages; empty categories are omitted. `label` heads the
  /// first line (e.g. "run" or "sweep lane 2").
  std::string report(const std::string& label) const;

 private:
  bool enabled_ = false;
  bool stamped_ = false;
  Category current_ = kCatOther;
  std::uint64_t events_[kNumCategories] = {};
  std::int64_t wall_ns_[kNumCategories] = {};
};

}  // namespace wlan::obs
