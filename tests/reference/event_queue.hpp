// Reference event heap: sim::EventQueue's pooled 4-ary hot/cold heap as it
// was before its child scan became branch-free, kept verbatim. Every
// comparison is a plain `earlier()` call resolved with ordinary branches,
// and the child scan is the rolled loop
//
//   best = first; for k in first+1 .. last-1: if earlier(k, best) best = k;
//   then sift past the best child iff earlier(best, sifted entry).
//
// EventQueueProperty.MatchesReferenceHeapAndCounters holds production to
// it operation by operation: same popped (time, tag), same size(), and the
// same Stats. The heap counters (`cold_compares`, `stale_skipped`,
// `heap_entries`) depend on the heap's layout and on which comparisons it
// makes, so equal counters after every operation mean production makes the
// same comparisons in the same order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace wlan::reference {

class ReferenceEventQueue {
 public:
  using Callback = sim::InlineFunction;
  using OrderKey = sim::EventQueue::OrderKey;
  using Fired = sim::EventQueue::Fired;
  using Stats = sim::EventQueue::Stats;

  /// The reference's own event handle (sim::EventId is constructible only
  /// by sim::EventQueue). Default-constructed handles are null.
  struct Handle {
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;
  };

  Handle schedule(sim::Time t, Callback cb, OrderKey key);
  void cancel(Handle id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  sim::Time next_time();
  Fired pop();
  bool pop_until(sim::Time limit, Fired& out);

  Stats stats() const;

 private:
  static constexpr std::uint64_t kAnchoredBit = std::uint64_t{1} << 63;

  struct HotEntry {
    std::int64_t time_ns;
    std::uint64_t seq_flag;
  };

  struct ColdEntry {
    std::uint64_t order_seq;
    std::uint32_t slot;
    std::uint32_t sched_lookback;
    std::uint32_t entry_lookback;
  };

  struct Slot {
    std::uint64_t seq = 0;
    Callback callback;
  };

  static constexpr std::size_t kArity = 4;

  static bool cold_earlier(const ColdEntry& a, const ColdEntry& b) {
    if (a.sched_lookback != b.sched_lookback)
      return a.sched_lookback > b.sched_lookback;
    if (a.entry_lookback != b.entry_lookback)
      return a.entry_lookback < b.entry_lookback;
    return a.order_seq < b.order_seq;
  }

  bool earlier(const HotEntry& ah, const ColdEntry& ac, const HotEntry& bh,
               const ColdEntry& bc) {
    if (ah.time_ns != bh.time_ns) return ah.time_ns < bh.time_ns;
    if (((ah.seq_flag | bh.seq_flag) & kAnchoredBit) == 0)
      return ah.seq_flag < bh.seq_flag;
    ++cold_compares_;
    return cold_earlier(ac, bc);
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void drop_top();
  void skim();

  std::vector<HotEntry> hot_;
  std::vector<ColdEntry> cold_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;

  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t stale_skipped_ = 0;
  std::uint64_t heap_callbacks_ = 0;
  std::uint64_t cold_compares_ = 0;
};

}  // namespace wlan::reference
