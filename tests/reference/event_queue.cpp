#include "reference/event_queue.hpp"

#include <cassert>
#include <utility>

namespace wlan::reference {

ReferenceEventQueue::Handle ReferenceEventQueue::schedule(sim::Time t,
                                                          Callback cb,
                                                          OrderKey key) {
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.seq = seq;
  s.callback = std::move(cb);
  if (s.callback.heap_allocated()) ++heap_callbacks_;

  const bool seq_ordered =
      key.order_seq == 0 && key.sched_lookback == key.entry_lookback;
  hot_.push_back(
      HotEntry{t.ns(), seq | (seq_ordered ? 0 : kAnchoredBit)});
  cold_.push_back(ColdEntry{key.order_seq == 0 ? seq : key.order_seq, slot,
                            key.sched_lookback, key.entry_lookback});
  sift_up(hot_.size() - 1);
  ++live_;
  ++scheduled_;
  return Handle{slot, seq};
}

void ReferenceEventQueue::cancel(Handle id) {
  if (id.seq == 0) return;
  if (id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  if (s.seq != id.seq) return;
  s.seq = 0;
  s.callback = Callback();
  free_.push_back(id.slot);
  --live_;
  ++cancelled_;
}

void ReferenceEventQueue::sift_up(std::size_t i) {
  const HotEntry h = hot_[i];
  const ColdEntry c = cold_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(h, c, hot_[parent], cold_[parent])) break;
    hot_[i] = hot_[parent];
    cold_[i] = cold_[parent];
    i = parent;
  }
  hot_[i] = h;
  cold_[i] = c;
}

void ReferenceEventQueue::sift_down(std::size_t i) {
  const std::size_t n = hot_.size();
  const HotEntry h = hot_[i];
  const ColdEntry c = cold_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t k = first + 1; k < last; ++k) {
      if (earlier(hot_[k], cold_[k], hot_[best], cold_[best])) best = k;
    }
    if (!earlier(hot_[best], cold_[best], h, c)) break;
    hot_[i] = hot_[best];
    cold_[i] = cold_[best];
    i = best;
  }
  hot_[i] = h;
  cold_[i] = c;
}

void ReferenceEventQueue::drop_top() {
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

void ReferenceEventQueue::skim() {
  while (!hot_.empty() &&
         slots_[cold_[0].slot].seq != (hot_[0].seq_flag & ~kAnchoredBit)) {
    drop_top();
    ++stale_skipped_;
  }
}

sim::Time ReferenceEventQueue::next_time() {
  skim();
  assert(!hot_.empty());
  return sim::Time::from_ns(hot_[0].time_ns);
}

bool ReferenceEventQueue::pop_until(sim::Time limit, Fired& out) {
  skim();
  if (hot_.empty() || hot_[0].time_ns > limit.ns()) return false;
  const std::uint32_t top_slot = cold_[0].slot;
  Slot& s = slots_[top_slot];
  out.time = sim::Time::from_ns(hot_[0].time_ns);
  out.callback = std::move(s.callback);
  s.seq = 0;
  free_.push_back(top_slot);
  drop_top();
  --live_;
  ++fired_;
  return true;
}

ReferenceEventQueue::Fired ReferenceEventQueue::pop() {
  Fired out;
  const bool popped = pop_until(sim::Time::max(), out);
  assert(popped && "pop() on an empty queue");
  (void)popped;
  return out;
}

ReferenceEventQueue::Stats ReferenceEventQueue::stats() const {
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

}  // namespace wlan::reference
