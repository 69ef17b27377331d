#include "sim/event_queue.hpp"

#include <cassert>
#include <type_traits>
#include <utility>

namespace wlan::sim {

EventId EventQueue::schedule(Time t, Callback cb, OrderKey key) {
  const std::uint64_t seq = next_seq_++;
  assert(seq < kAnchoredBit && "event seq overflowed into the flag bit");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  assert(s.seq == 0 && "scheduling into an occupied slot");
  s.seq = seq;
  s.callback = std::move(cb);
  if (s.callback.heap_allocated()) ++heap_callbacks_;

  // Seq-ordered iff the full key demonstrably reduces to insertion order
  // (see the header comment); everything else resolves ties via cold_.
  const bool seq_ordered =
      key.order_seq == 0 && key.sched_lookback == key.entry_lookback;
  hot_.push_back(
      HotEntry{t.ns(), seq | (seq_ordered ? 0 : kAnchoredBit)});
  cold_.push_back(ColdEntry{key.order_seq == 0 ? seq : key.order_seq, slot,
                            key.sched_lookback, key.entry_lookback});
  sift_up(hot_.size() - 1);
  ++live_;
  ++scheduled_;
  return EventId(slot, seq);
}

void EventQueue::cancel(EventId id) {
  if (!id.valid()) return;
  if (id.slot_ >= slots_.size()) return;  // handle from a clear()ed queue
  Slot& s = slots_[id.slot_];
  // A fired or cancelled seq is never reused, so a mismatch means the
  // handle is stale (already fired or already cancelled): a true no-op.
  if (s.seq != id.seq_) return;
  // O(1): release the slot now; the heap entry goes stale and is skipped
  // lazily when it reaches the top.
  s.seq = 0;
  s.callback = Callback();  // destroy the callable eagerly
  free_.push_back(id.slot_);
  --live_;
  ++cancelled_;
}

void EventQueue::sift_up(std::size_t i) {
  const HotEntry h = hot_[i];
  const ColdEntry c = cold_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    const HotEntry& p = hot_[parent];
    if (earlier(h.time_ns, h.seq_flag, c, p.time_ns, p.seq_flag,
                cold_[parent]) == 0)
      break;
    hot_[i] = hot_[parent];
    cold_[i] = cold_[parent];
    i = parent;
  }
  hot_[i] = h;
  cold_[i] = c;
}

// The child scan makes exactly the comparisons of the rolled loop
//   best = first; for k in first+1 .. last-1: if earlier(k, best) best = k;
// in that order, then earlier(best, sifted entry). The order fixes which
// ties reach the cold keys and where each entry lands, so it is part of
// what Stats::cold_compares and stale_skipped count. What changes is how
// the scan runs: the best child's index, time and packed seq live in
// registers and are replaced through an and/xor mask instead of a
// data-dependent jump per child, and a full group of four is unrolled.
void EventQueue::sift_down(std::size_t i) {
  static_assert(kArity == 4, "the unrolled child scan covers four children");
  HotEntry* const hot = hot_.data();
  ColdEntry* const cold = cold_.data();
  const std::size_t n = hot_.size();
  const HotEntry h = hot[i];
  const ColdEntry c = cold[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    std::int64_t best_t = hot[first].time_ns;
    std::uint64_t best_s = hot[first].seq_flag;
    const auto consider = [&](std::size_t k) {
      const std::int64_t t = hot[k].time_ns;
      const std::uint64_t s = hot[k].seq_flag;
      const std::uint64_t take =
          0 - earlier(t, s, cold[k], best_t, best_s, cold[best]);
      best ^= (best ^ k) & take;
      best_t ^= (best_t ^ t) & static_cast<std::int64_t>(take);
      best_s ^= (best_s ^ s) & take;
    };
    if (first + kArity <= n) {
      consider(first + 1);
      consider(first + 2);
      consider(first + 3);
    } else {  // the heap's one partial group
      for (std::size_t k = first + 1; k < n; ++k) consider(k);
    }
    if (earlier(best_t, best_s, cold[best], h.time_ns, h.seq_flag, c) == 0)
      break;
    hot[i] = HotEntry{best_t, best_s};
    cold[i] = cold[best];
    i = best;
  }
  hot[i] = h;
  cold[i] = c;
}

void EventQueue::drop_top() {
  const HotEntry hback = hot_.back();
  const ColdEntry cback = cold_.back();
  hot_.pop_back();
  cold_.pop_back();
  if (!hot_.empty()) {
    hot_[0] = hback;
    cold_[0] = cback;
    sift_down(0);
  }
}

void EventQueue::skim() {
  while (!hot_.empty() &&
         slots_[cold_[0].slot].seq != (hot_[0].seq_flag & ~kAnchoredBit)) {
    drop_top();
    ++stale_skipped_;
  }
}

Time EventQueue::next_time() {
  skim();
  assert(!hot_.empty());
  return Time::from_ns(hot_[0].time_ns);
}

bool EventQueue::pop_until(Time limit, Fired& out) {
  skim();
  if (hot_.empty() || hot_[0].time_ns > limit.ns()) return false;
  const std::uint32_t top_slot = cold_[0].slot;
  Slot& s = slots_[top_slot];
  assert(s.seq == (hot_[0].seq_flag & ~kAnchoredBit));
  out.time = Time::from_ns(hot_[0].time_ns);
  // Unlike the old priority_queue implementation (which had to const_cast
  // top() to move the callback out), the pool slot is mutable by
  // construction — assert we never move from a const reference again.
  static_assert(!std::is_const_v<std::remove_reference_t<decltype(s.callback)>>,
                "pop must move the callback from mutable pooled storage");
  out.callback = std::move(s.callback);
  s.seq = 0;
  free_.push_back(top_slot);
  drop_top();
  --live_;
  ++fired_;
  return true;
}

EventQueue::Fired EventQueue::pop() {
  Fired out;
  const bool popped = pop_until(Time::max(), out);
  assert(popped && "pop() on an empty queue");
  (void)popped;
  return out;
}

void EventQueue::clear() {
  hot_.clear();
  cold_.clear();
  slots_.clear();  // destroys every live callback
  free_.clear();
  live_ = 0;
}

EventQueue::Stats EventQueue::stats() const {
  Stats s;
  s.scheduled = scheduled_;
  s.fired = fired_;
  s.cancelled = cancelled_;
  s.stale_skipped = stale_skipped_;
  s.heap_callbacks = heap_callbacks_;
  s.cold_compares = cold_compares_;
  s.live = live_;
  s.heap_entries = hot_.size();
  s.pool_slots = slots_.size();
  return s;
}

}  // namespace wlan::sim
