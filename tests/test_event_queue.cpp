// Unit tests for the event queue: ordering, tie-breaks, cancellation,
// randomized differential tests against naive reference queues and against
// the reference heap (tests/reference/event_queue.hpp), and the
// zero-allocation guarantee of the pooled/inline-callback design.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "reference/event_queue.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: the steady-state scheduling hot path must not
// touch the heap (ISSUE 3 acceptance). Replacing operator new/delete for
// this binary lets the test observe every allocation from any source.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC flags std::free() inside a replaced operator delete[] as a
// mismatched pair; it cannot see that operator new[] below is also
// replaced and malloc-based.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using wlan::sim::EventId;
using wlan::sim::EventQueue;
using wlan::sim::Time;

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::from_ns(30), [&] { order.push_back(3); });
  q.schedule(Time::from_ns(10), [&] { order.push_back(1); });
  q.schedule(Time::from_ns(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.schedule(Time::from_ns(5), [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PopReportsScheduledTime) {
  EventQueue q;
  q.schedule(Time::from_ns(77), [] {});
  auto fired = q.pop();
  EXPECT_EQ(fired.time.ns(), 77);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.schedule(Time::from_ns(1), [&] { ran = true; });
  q.schedule(Time::from_ns(2), [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().callback();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelNullHandleIsNoop) {
  EventQueue q;
  q.schedule(Time::from_ns(1), [] {});
  q.cancel(EventId{});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue q;
  EventId id = q.schedule(Time::from_ns(1), [] {});
  q.schedule(Time::from_ns(2), [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelAllLeavesEmpty) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i)
    ids.push_back(q.schedule(Time::from_ns(i), [] {}));
  for (auto id : ids) q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.schedule(Time::from_ns(1), [] {});
  q.schedule(Time::from_ns(9), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time().ns(), 9);
}

TEST(EventQueue, ClearRemovesEverything) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(Time::from_ns(i), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  // Still usable afterwards.
  q.schedule(Time::from_ns(1), [] {});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, StaleCancelAfterFireIsNoop) {
  // Regression: cancelling a handle whose event already FIRED must not
  // disturb the queue's accounting. An earlier implementation decremented
  // a live-event counter on any first-time cancel, so components holding
  // stale handles (e.g. a station cancelling an old NAV timer on every
  // busy transition) could convince the queue it was empty while events
  // remained — silently freezing whole simulations.
  EventQueue q;
  EventId fired = q.schedule(Time::from_ns(1), [] {});
  q.schedule(Time::from_ns(2), [] {});
  q.pop().callback();  // fires event 1
  EXPECT_EQ(q.size(), 1u);
  q.cancel(fired);  // stale handle
  q.cancel(fired);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time().ns(), 2);
}

TEST(EventQueue, CancelledThenStaleCancelKeepsOthersLive) {
  EventQueue q;
  EventId a = q.schedule(Time::from_ns(1), [] {});
  q.schedule(Time::from_ns(2), [] {});
  q.schedule(Time::from_ns(3), [] {});
  q.cancel(a);
  q.cancel(a);  // double cancel
  EXPECT_EQ(q.size(), 2u);
  q.pop();      // fires event 2
  q.cancel(a);  // still a no-op
  EXPECT_EQ(q.size(), 1u);
}

// ---------------------------------------------------------------------------
// Differential/property tests: the pooled d-ary heap must pop in exactly
// the order of a naive reference queue — same times AND same same-time tie
// resolution — under randomized schedule/cancel/fire interleavings.
// ---------------------------------------------------------------------------

/// Obviously-correct reference: linear scan for the (time, seq) minimum.
class ReferenceQueue {
 public:
  std::uint64_t schedule(std::int64_t t, int tag) {
    entries_.push_back(Entry{t, next_seq_, tag});
    return next_seq_++;
  }
  void cancel(std::uint64_t seq) {
    for (auto& e : entries_) {
      if (e.seq == seq) {
        entries_.erase(entries_.begin() +
                       (&e - entries_.data()));
        return;
      }
    }
  }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  /// Pops the earliest entry; ties resolve by insertion order.
  std::pair<std::int64_t, int> pop() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      const auto& e = entries_[i];
      const auto& b = entries_[best];
      if (e.t < b.t || (e.t == b.t && e.seq < b.seq)) best = i;
    }
    const auto out = std::make_pair(entries_[best].t, entries_[best].tag);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(best));
    return out;
  }

 private:
  struct Entry {
    std::int64_t t;
    std::uint64_t seq;
    int tag;
  };
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 1;
};

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x >> 33;
}

TEST(EventQueueProperty, RandomInterleavingsMatchReference) {
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL + trial;
    EventQueue q;
    ReferenceQueue ref;
    // Outstanding handles, INCLUDING stale ones (fired/cancelled): real
    // callers hold stale handles and cancel them; both queues must treat
    // that as a no-op.
    std::vector<std::pair<EventId, std::uint64_t>> handles;
    std::vector<int> popped_tags;
    int next_tag = 0;

    for (int op = 0; op < 2000; ++op) {
      const std::uint64_t r = lcg(x) % 100;
      if (r < 50) {  // schedule (coarse time grid => frequent ties)
        const auto t = static_cast<std::int64_t>(lcg(x) % 50);
        const int tag = next_tag++;
        EventId id = q.schedule(Time::from_ns(t),
                                [tag, &popped_tags] { popped_tags.push_back(tag); });
        handles.emplace_back(id, ref.schedule(t, tag));
      } else if (r < 75) {  // pop + fire
        ASSERT_EQ(q.empty(), ref.empty());
        if (q.empty()) continue;
        const auto expect = ref.pop();
        ASSERT_EQ(q.next_time().ns(), expect.first);
        auto fired = q.pop();
        ASSERT_EQ(fired.time.ns(), expect.first);
        fired.callback();
        ASSERT_EQ(popped_tags.back(), expect.second);
      } else if (!handles.empty()) {  // cancel (live or stale)
        const auto& h = handles[lcg(x) % handles.size()];
        q.cancel(h.first);
        ref.cancel(h.second);
      }
      ASSERT_EQ(q.size(), ref.size());
    }

    // Drain both; the full pop order (time AND tag) must match.
    while (!ref.empty()) {
      const auto expect = ref.pop();
      ASSERT_FALSE(q.empty());
      auto fired = q.pop();
      EXPECT_EQ(fired.time.ns(), expect.first);
      fired.callback();
      EXPECT_EQ(popped_tags.back(), expect.second);
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueueProperty, CancellationStress) {
  // Many rounds of heavy cancellation force slot reuse across generations
  // of events; stale handles from earlier rounds must remain no-ops.
  std::uint64_t x = 424242;
  EventQueue q;
  std::vector<EventId> old_handles;
  for (int round = 0; round < 30; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 500; ++i)
      ids.push_back(q.schedule(
          Time::from_ns(static_cast<std::int64_t>(lcg(x) % 1000)), [] {}));
    // Cancel ~90% in pseudo-random order (repeats => stale double-cancels).
    for (int i = 0; i < 450; ++i) q.cancel(ids[lcg(x) % ids.size()]);
    // Cancelling handles from PREVIOUS rounds (slots long since reused)
    // must not disturb anything.
    for (const auto& h : old_handles) q.cancel(h);
    const std::size_t live = q.size();
    Time last = Time::zero();
    std::size_t popped = 0;
    while (!q.empty()) {
      auto fired = q.pop();
      EXPECT_GE(fired.time, last);
      last = fired.time;
      ++popped;
    }
    EXPECT_EQ(popped, live);
    old_handles = std::move(ids);
  }
  const auto stats = q.stats();
  EXPECT_EQ(stats.fired + stats.cancelled, stats.scheduled);
  EXPECT_GT(stats.cancelled, 0u);
  // The pool never grows past one round's worth of concurrent events.
  EXPECT_LE(stats.pool_slots, 500u);
}

// ---------------------------------------------------------------------------
// Zero-allocation guarantee (ISSUE 3 acceptance): steady-state scheduling
// with callbacks that fit the inline buffer must not touch the heap.
// ---------------------------------------------------------------------------

TEST(EventQueueAllocation, SteadyStateChurnAllocatesNothing) {
  EventQueue q;
  std::uint64_t fired = 0;
  struct Payload {  // 24-byte capture, typical of the MAC's lambdas
    std::uint64_t* counter;
    std::uint64_t pad[2];
  };
  static_assert(sizeof(Payload) <= EventQueue::Callback::kInlineCapacity);
  std::uint64_t x = 99;
  auto sched = [&](std::int64_t at) {
    Payload p{&fired, {0, 0}};
    return q.schedule(Time::from_ns(at), [p] { ++*p.counter; });
  };

  // Warm-up: reach the steady-state high-water mark for the heap array,
  // slot pool, and free list (cancellations leave stale heap entries, so
  // warm THAT shape too).
  std::vector<EventId> tracked;
  std::int64_t now = 0;
  for (int i = 0; i < 256; ++i) tracked.push_back(sched(now + i + 1));
  for (int i = 0; i < 4096; ++i) {
    auto f = q.pop();
    now = f.time.ns();
    f.callback();
    if ((i & 3) == 0) {
      const std::size_t k = lcg(x) % tracked.size();
      q.cancel(tracked[k]);
      tracked[k] = sched(now + 1 + static_cast<std::int64_t>(lcg(x) % 1000));
    }
    while (q.size() < 256)
      sched(now + 1 + static_cast<std::int64_t>(lcg(x) % 1000));
  }

  // Measured phase: the same churn, now allocation-free.
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t fired_before = fired;
  for (int i = 0; i < 20000; ++i) {
    auto f = q.pop();
    now = f.time.ns();
    f.callback();
    if ((i & 3) == 0) {
      const std::size_t k = lcg(x) % tracked.size();
      q.cancel(tracked[k]);
      tracked[k] = sched(now + 1 + static_cast<std::int64_t>(lcg(x) % 1000));
    }
    while (q.size() < 256)
      sched(now + 1 + static_cast<std::int64_t>(lcg(x) % 1000));
  }
  const std::uint64_t allocs_after =
      g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state schedule/cancel/pop churn must not allocate";
  EXPECT_EQ(fired - fired_before, 20000u);
  EXPECT_EQ(q.stats().heap_callbacks, 0u)
      << "callbacks <= kInlineCapacity must be stored inline";
}

TEST(EventQueueAllocation, OversizedCallbacksAreCountedInStats) {
  EventQueue q;
  struct Big {
    std::uint64_t pad[9];  // 72 bytes > 48-byte inline buffer
  };
  Big big{};
  q.schedule(Time::from_ns(1), [big] { (void)big; });
  q.schedule(Time::from_ns(2), [] {});
  EXPECT_EQ(q.stats().heap_callbacks, 1u);
  while (!q.empty()) q.pop().callback();
}

TEST(EventQueue, StatsCountLifecycle) {
  EventQueue q;
  auto a = q.schedule(Time::from_ns(1), [] {});
  q.schedule(Time::from_ns(2), [] {});
  q.schedule(Time::from_ns(3), [] {});
  q.cancel(a);
  q.pop();
  const auto s = q.stats();
  EXPECT_EQ(s.scheduled, 3u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.fired, 1u);
  EXPECT_EQ(s.live, 1u);
  EXPECT_EQ(s.stale_skipped, 1u);  // a's dead entry was skimmed by pop
}

// ---------------------------------------------------------------------------
// Anchored ordering across the hot/cold heap split: same-time ties between
// anchored and normal events must follow the full key
// (desc sched_lookback, asc entry_lookback, order_seq), while plain ties
// stay pure seq order and never touch the cold array.
// ---------------------------------------------------------------------------

TEST(EventQueueAnchored, LargerScheduleLookbackFiresFirst) {
  EventQueue q;
  std::vector<int> order;
  EventQueue::OrderKey late;
  late.sched_lookback = 10;
  late.entry_lookback = 10;
  late.order_seq = 1000;  // non-zero => cold tie-break path
  EventQueue::OrderKey early;
  early.sched_lookback = 500;
  early.entry_lookback = 500;
  early.order_seq = 2000;
  // Insert in the "wrong" order: the virtually-earlier-scheduled event
  // (larger lookback) must still fire first.
  q.schedule(Time::from_ns(100), [&] { order.push_back(1); }, late);
  q.schedule(Time::from_ns(100), [&] { order.push_back(2); }, early);
  q.pop().callback();
  q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueAnchored, FresherEntryFiresFirstThenOrderSeq) {
  EventQueue q;
  std::vector<int> order;
  auto key = [](std::uint32_t entry, std::uint64_t order_seq) {
    EventQueue::OrderKey k;
    k.sched_lookback = 9;  // one "slot" for everyone
    k.entry_lookback = entry;
    k.order_seq = order_seq;
    return k;
  };
  q.schedule(Time::from_ns(100), [&] { order.push_back(1); }, key(90, 7));
  q.schedule(Time::from_ns(100), [&] { order.push_back(2); }, key(18, 9));
  q.schedule(Time::from_ns(100), [&] { order.push_back(3); }, key(90, 5));
  while (!q.empty()) q.pop().callback();
  // Fresher entry (18) first; equal entries (90) resolve by order_seq.
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(EventQueueAnchored, AnchoredEventStandsInForAnEliminatedChain) {
  // A normal event scheduled at t=0 for 100 (seq 1), then an anchored
  // event carrying an older order_seq than a later normal event: the
  // anchored one must slot between them exactly where the event it
  // replaces would have been.
  EventQueue q;
  std::vector<int> order;
  EventQueue::OrderKey normal_at_0;
  normal_at_0.sched_lookback = 100;
  normal_at_0.entry_lookback = 100;
  q.schedule(Time::from_ns(100), [&] { order.push_back(1); }, normal_at_0);
  EventQueue::OrderKey replacement;  // stands in for a seq-2 chain event
  replacement.sched_lookback = 100;
  replacement.entry_lookback = 100;
  replacement.order_seq = 2;
  EventQueue::OrderKey normal_late = normal_at_0;  // seq 3 on its own
  q.schedule(Time::from_ns(100), [&] { order.push_back(3); }, normal_late);
  q.schedule(Time::from_ns(100), [&] { order.push_back(2); }, replacement);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueAnchored, PlainTiesNeverTouchTheColdArray) {
  EventQueue q;
  for (int i = 0; i < 64; ++i) q.schedule(Time::from_ns(5), [] {});
  for (int i = 0; i < 64; ++i) q.pop();
  EXPECT_EQ(q.stats().cold_compares, 0u);

  // One anchored participant forces cold resolution of its ties.
  EventQueue::OrderKey anchored;
  anchored.sched_lookback = 3;
  anchored.order_seq = 1;
  q.schedule(Time::from_ns(9), [] {});
  q.schedule(Time::from_ns(9), [] {}, anchored);
  q.pop();
  q.pop();
  EXPECT_GT(q.stats().cold_compares, 0u);
}

/// Reference with FULL OrderKey semantics (linear scan), for randomized
/// anchored scheduling. Keys are generated within the documented caller
/// contract: an order_seq of 0 with equal lookbacks is only produced by
/// the plain path (lookback 0), where seq order and key order coincide.
class AnchoredReferenceQueue {
 public:
  std::uint64_t schedule(std::int64_t t, EventQueue::OrderKey key, int tag) {
    if (key.order_seq == 0) key.order_seq = next_seq_;
    entries_.push_back(Entry{t, key, next_seq_, tag});
    return next_seq_++;
  }
  bool empty() const { return entries_.empty(); }
  std::pair<std::int64_t, int> pop() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (earlier(entries_[i], entries_[best])) best = i;
    }
    const auto out = std::make_pair(entries_[best].t, entries_[best].tag);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(best));
    return out;
  }

 private:
  struct Entry {
    std::int64_t t;
    EventQueue::OrderKey key;
    std::uint64_t seq;
    int tag;
  };
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.key.sched_lookback != b.key.sched_lookback)
      return a.key.sched_lookback > b.key.sched_lookback;
    if (a.key.entry_lookback != b.key.entry_lookback)
      return a.key.entry_lookback < b.key.entry_lookback;
    return a.key.order_seq < b.key.order_seq;
  }
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 1;
};

TEST(EventQueueAnchored, RandomAnchoredSchedulesMatchFullKeyReference) {
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    std::uint64_t x = 0xC0FFEE + trial;
    EventQueue q;
    AnchoredReferenceQueue ref;
    std::vector<int> popped;
    int next_tag = 0;
    for (int op = 0; op < 1500; ++op) {
      if (lcg(x) % 3 != 0) {  // schedule, coarse grid => many ties
        const auto t = static_cast<std::int64_t>(lcg(x) % 20);
        EventQueue::OrderKey key;
        switch (lcg(x) % 3) {
          case 0:  // plain
            break;
          case 1:  // anchored, explicit order_seq (unique, like real seqs:
                   // equal full keys would leave the order unspecified)
            key.sched_lookback = static_cast<std::uint32_t>(lcg(x) % 8);
            key.entry_lookback = static_cast<std::uint32_t>(lcg(x) % 8);
            key.order_seq = ((1 + lcg(x) % 64) << 20) +
                            static_cast<std::uint64_t>(op);
            break;
          default:  // anchored chain head: distinct lookbacks, own seq
            key.sched_lookback = static_cast<std::uint32_t>(lcg(x) % 8);
            key.entry_lookback =
                key.sched_lookback + 1 + static_cast<std::uint32_t>(lcg(x) % 8);
            break;
        }
        const int tag = next_tag++;
        q.schedule(Time::from_ns(t),
                   [tag, &popped] { popped.push_back(tag); }, key);
        ref.schedule(t, key, tag);
      } else {
        ASSERT_EQ(q.empty(), ref.empty());
        if (q.empty()) continue;
        const auto expect = ref.pop();
        auto fired = q.pop();
        ASSERT_EQ(fired.time.ns(), expect.first);
        fired.callback();
        ASSERT_EQ(popped.back(), expect.second);
      }
    }
    while (!q.empty()) {
      const auto expect = ref.pop();
      auto fired = q.pop();
      ASSERT_EQ(fired.time.ns(), expect.first);
      fired.callback();
      ASSERT_EQ(popped.back(), expect.second);
    }
  }
}

// ---------------------------------------------------------------------------
// Heap oracle: production against the pre-branch-free heap kept verbatim in
// tests/reference/, operation by operation. The linear-scan references
// above check pop order only; equal Stats after every operation also pin
// the heap counters (cold_compares, stale_skipped, heap_entries) that
// depend on which comparisons the sift makes and in what order.
// ---------------------------------------------------------------------------

using wlan::reference::ReferenceEventQueue;

std::vector<std::pair<const char*, std::uint64_t>> stat_fields(
    const EventQueue::Stats& s) {
  return {{"scheduled", s.scheduled},          {"fired", s.fired},
          {"cancelled", s.cancelled},          {"stale_skipped", s.stale_skipped},
          {"heap_callbacks", s.heap_callbacks}, {"cold_compares", s.cold_compares},
          {"live", s.live},                    {"heap_entries", s.heap_entries},
          {"pool_slots", s.pool_slots}};
}

::testing::AssertionResult same_stats(const EventQueue::Stats& got,
                                      const EventQueue::Stats& want) {
  const auto g = stat_fields(got);
  const auto w = stat_fields(want);
  for (std::size_t f = 0; f < g.size(); ++f) {
    if (g[f].second != w[f].second)
      return ::testing::AssertionFailure()
             << g[f].first << " " << g[f].second << " != reference "
             << w[f].second;
  }
  return ::testing::AssertionSuccess();
}

TEST(EventQueueProperty, MatchesReferenceHeapAndCounters) {
  constexpr int kGrowOps = 4000;
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE(trial);
    std::uint64_t x = 0xB1A5F00DULL + trial;
    EventQueue q;
    ReferenceEventQueue ref;
    std::vector<std::pair<EventId, ReferenceEventQueue::Handle>> handles;
    std::vector<int> got_tags;
    std::vector<int> want_tags;
    int next_tag = 0;
    std::size_t peak_entries = 0;
    bool residue_seen[4] = {};

    const auto schedule = [&](int op) {
      // Mostly a coarse grid (frequent exact ties), sometimes a fine one.
      const auto t = static_cast<std::int64_t>(lcg(x) % 4 == 0 ? lcg(x) % 4096
                                                               : lcg(x) % 64);
      EventQueue::OrderKey key;
      switch (lcg(x) % 4) {
        case 0:
        case 1:  // plain
          break;
        case 2:  // anchored, explicit unique order_seq
          key.sched_lookback = static_cast<std::uint32_t>(lcg(x) % 8);
          key.entry_lookback = static_cast<std::uint32_t>(lcg(x) % 8);
          key.order_seq =
              ((1 + lcg(x) % 64) << 20) + static_cast<std::uint64_t>(op);
          break;
        default:  // anchored chain head: distinct lookbacks, own seq
          key.sched_lookback = static_cast<std::uint32_t>(lcg(x) % 8);
          key.entry_lookback =
              key.sched_lookback + 1 + static_cast<std::uint32_t>(lcg(x) % 8);
          break;
      }
      const int tag = next_tag++;
      if (lcg(x) % 32 == 0) {  // too big for the inline buffer
        const std::array<std::uint64_t, 8> pad{};
        handles.emplace_back(
            q.schedule(Time::from_ns(t),
                       [tag, pad, &got_tags] {
                         (void)pad;
                         got_tags.push_back(tag);
                       },
                       key),
            ref.schedule(Time::from_ns(t),
                         [tag, pad, &want_tags] {
                           (void)pad;
                           want_tags.push_back(tag);
                         },
                         key));
      } else {
        handles.emplace_back(
            q.schedule(Time::from_ns(t),
                       [tag, &got_tags] { got_tags.push_back(tag); }, key),
            ref.schedule(Time::from_ns(t),
                         [tag, &want_tags] { want_tags.push_back(tag); }, key));
      }
    };
    // Fires both popped events; equal (time, tag).
    const auto same_fired = [&](EventQueue::Fired& got,
                                ReferenceEventQueue::Fired& want)
        -> ::testing::AssertionResult {
      got.callback();
      want.callback();
      if (got.time != want.time || got_tags.back() != want_tags.back())
        return ::testing::AssertionFailure()
               << "popped (" << got.time.ns() << ", " << got_tags.back()
               << ") != reference (" << want.time.ns() << ", "
               << want_tags.back() << ")";
      return ::testing::AssertionSuccess();
    };
    const auto pop = [&]() -> ::testing::AssertionResult {
      if (q.empty() != ref.empty())
        return ::testing::AssertionFailure() << "empty() differs";
      if (q.empty()) return ::testing::AssertionSuccess();
      auto got = q.pop();
      auto want = ref.pop();
      return same_fired(got, want);
    };
    // pop_until on both; equal verdicts, and equal (time, tag) if popped.
    const auto pop_until = [&](Time limit) -> ::testing::AssertionResult {
      EventQueue::Fired got;
      ReferenceEventQueue::Fired want;
      const bool g = q.pop_until(limit, got);
      const bool w = ref.pop_until(limit, want);
      if (g != w)
        return ::testing::AssertionFailure() << "pop_until(" << limit.ns()
                                             << ") " << g << " != reference "
                                             << w;
      return g ? same_fired(got, want) : ::testing::AssertionSuccess();
    };
    // pop_until with the limit just before, at or just after the live top.
    const auto pop_near_top = [&]() -> ::testing::AssertionResult {
      if (q.empty() != ref.empty())
        return ::testing::AssertionFailure() << "empty() differs";
      if (q.empty()) return ::testing::AssertionSuccess();
      const Time top = q.next_time();
      if (top != ref.next_time())
        return ::testing::AssertionFailure() << "next_time() differs";
      const auto offset = static_cast<std::int64_t>(lcg(x) % 3) - 1;
      return pop_until(Time::from_ns(top.ns() + offset));
    };
    const auto check = [&]() -> ::testing::AssertionResult {
      if (q.size() != ref.size())
        return ::testing::AssertionFailure()
               << "size " << q.size() << " != reference " << ref.size();
      const auto s = q.stats();
      peak_entries = std::max(peak_entries, s.heap_entries);
      residue_seen[s.heap_entries % 4] = true;
      return same_stats(s, ref.stats());
    };

    for (int op = 0; op < kGrowOps; ++op) {
      SCOPED_TRACE(op);
      const std::uint64_t r = lcg(x) % 100;
      if (r < 56) {
        schedule(op);
      } else if (r < 66) {
        ASSERT_TRUE(pop());
      } else if (r < 74) {
        ASSERT_TRUE(pop_near_top());
      } else if (r < 78) {  // a limit anywhere on the grid, unskimmed top
        ASSERT_TRUE(
            pop_until(Time::from_ns(static_cast<std::int64_t>(lcg(x) % 64))));
      } else if (!handles.empty()) {  // cancel, live or stale
        const auto& h = handles[lcg(x) % handles.size()];
        q.cancel(h.first);
        ref.cancel(h.second);
      }
      ASSERT_TRUE(check());
    }
    // Drain through every heap size down to the last live event.
    while (!ref.empty()) {
      ASSERT_TRUE(lcg(x) % 2 == 0 ? pop_near_top() : pop());
      ASSERT_TRUE(check());
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(got_tags, want_tags);
    EXPECT_GE(peak_entries, 1000u);
    for (int residue = 0; residue < 4; ++residue)
      EXPECT_TRUE(residue_seen[residue]) << "heap size % 4 == " << residue;
    EXPECT_GT(q.stats().cold_compares, 0u);
    EXPECT_GT(q.stats().heap_callbacks, 0u);
  }
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  // Deterministic pseudo-random times; verify global ordering on pop.
  std::uint64_t x = 12345;
  for (int i = 0; i < 10000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    q.schedule(Time::from_ns(static_cast<std::int64_t>(x % 1000000)), [] {});
  }
  Time last = Time::zero();
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

}  // namespace
