// Priority queue of timed callbacks with O(log n) insert/pop and O(1)
// cancellation.
//
// Layout (rewritten for the hot path — see docs/ARCHITECTURE.md):
//
//   hot_    4-ary min-heap of 16-byte POD entries {time_ns, seq|flag}.
//           This is the ONLY array sift comparisons read on the common
//           path: entries differing in time compare on time alone, and
//           same-time ties between two seq-ordered events (every normally
//           scheduled event — see below) compare on the packed seq. Four
//           entries share a cache line, so a sift touches 2.5x fewer
//           lines than the former 40-byte combined entry.
//   cold_   parallel side-array of per-entry data the comparison almost
//           never needs: the pooled callback slot index and the anchored
//           ordering key {order_seq, sched_lookback, entry_lookback}.
//           Moved alongside hot_ during sifts (positions stay paired) but
//           read only when an anchored event is involved in an exact time
//           tie, and once per pop/skim to reach the slot.
//   slots_  pooled callback storage. A slot holds the live occupant's seq
//           and its callback in a small-buffer `InlineFunction` (<= 48
//           bytes inline: every lambda mac/ and phy/ schedule). Slots are
//           recycled through a free list — steady-state scheduling
//           performs zero heap allocations.
//
// Cancellation is O(1) and lazy: cancel() releases the slot (seq goes to
// 0, callback destroyed) and leaves the heap entry in place; pop() skips
// entries whose slot no longer carries their seq. A fired or cancelled
// seq is never reused, so stale EventId handles are recognized exactly —
// cancelling one is a true no-op, forever.
//
// Ordering is total and deterministic: ties on time are broken by insertion
// sequence number, so two events scheduled for the same instant fire in the
// order they were scheduled — important for slot-aligned MAC behaviour.
//
// Anchored ordering (the cohort-arbiter hook):
// schedule() also accepts a virtual ordering key
// {sched_lookback, entry_lookback, order_seq}. Two events firing at the
// same instant compare by
//   (descending sched_lookback, ascending entry_lookback, order_seq),
// which for normally scheduled events (sched_lookback = entry_lookback =
// fire - schedule time, order_seq = seq) reduces EXACTLY to schedule order
// — scheduled earlier means a larger lookback and a smaller seq — so the
// historical tie-break is unchanged bit-for-bit. A caller eliminating
// intermediate events (mac::ContentionArbiter's single per-cohort decision
// event) passes the key its members' per-slot chain events would have had,
// and lands in the same position among same-instant peers without those
// events existing.
//
// Seq-ordered fast path: an event whose key has order_seq == 0 and equal
// lookbacks is flagged seq-ordered at schedule time. For two such events
// the full key compare reduces to the seq compare PROVIDED the lookbacks
// follow the fire-minus-schedule convention under a monotone clock (a
// later schedule call never carries a larger lookback for the same fire
// time). sim::Simulator's schedule_at/schedule_after always satisfy this,
// as does the plain schedule(t, cb) overload (lookback 0 for every
// entry). Callers passing explicit keys must either satisfy it or set
// order_seq (mac::ContentionArbiter does: its only order_seq == 0 anchored
// schedules are first-boundary events whose virtual and actual schedule
// times coincide).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace wlan::sim {

/// Opaque handle identifying a scheduled event. Default-constructed handles
/// are "null" and safe to cancel (no-op).
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return seq_ != 0; }
  constexpr bool operator==(const EventId&) const = default;

  /// The event's insertion sequence number (0 for a null handle). Used as
  /// the `order_seq` anchor when re-scheduling a chain of anchored events
  /// (see EventQueue::schedule).
  constexpr std::uint64_t sequence() const { return seq_; }

 private:
  friend class EventQueue;
  constexpr EventId(std::uint32_t slot, std::uint64_t seq)
      : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;  // unique per schedule(); 0 = null handle
};

class EventQueue {
 public:
  using Callback = InlineFunction;

  /// Same-time tie-break key (see the header comment). Lookbacks are
  /// "fire time minus (virtual) schedule time" in ns, saturated to 32
  /// bits (~4.29 s). Saturation never misorders normally scheduled
  /// events (same-time normals fall through to order_seq = seq, which IS
  /// schedule order); anchored callers must keep their entry lookback
  /// below the clamp themselves (mac::ContentionArbiter re-anchors a
  /// backoff approaching it) or accept seq-order resolution among clamped
  /// peers.
  struct OrderKey {
    std::uint32_t sched_lookback = 0;
    std::uint32_t entry_lookback = 0;
    std::uint64_t order_seq = 0;  // 0 = use the event's own seq

    static std::uint32_t clamp_lookback(Duration d) {
      const std::int64_t ns = d.ns();
      if (ns <= 0) return 0;
      if (ns >= static_cast<std::int64_t>(UINT32_MAX)) return UINT32_MAX;
      return static_cast<std::uint32_t>(ns);
    }
  };

  /// Schedules `cb` at absolute time `t`. Returns a handle for cancel().
  EventId schedule(Time t, Callback cb, OrderKey key);
  EventId schedule(Time t, Callback cb) {
    return schedule(t, std::move(cb), OrderKey());
  }

  /// Cancels a pending event in O(1). Cancelling a null handle, an
  /// already-fired event, or an already-cancelled event is a safe no-op.
  void cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live events.
  std::size_t size() const { return live_; }

  /// Time of the earliest live event. Requires !empty().
  Time next_time();

  /// Pops the earliest live event. Requires !empty().
  struct Fired {
    Time time;
    Callback callback;
  };
  Fired pop();

  /// Combined next_time()+pop() for the executive's dispatch loop: if the
  /// earliest live event fires at or before `limit`, pops it into `out`
  /// and returns true — one heap walk per dispatched event instead of the
  /// separate empty()/next_time()/pop() calls.
  bool pop_until(Time limit, Fired& out);

  /// Removes every pending event.
  void clear();

  /// Lifetime counters + sizing, exposed for benchmarks and the
  /// zero-allocation tests.
  struct Stats {
    std::uint64_t scheduled = 0;       // schedule() calls
    std::uint64_t fired = 0;           // events popped live
    std::uint64_t cancelled = 0;       // live events cancelled
    std::uint64_t stale_skipped = 0;   // dead heap entries skimmed on pop
    std::uint64_t heap_callbacks = 0;  // callables too big for the inline
                                       // buffer (heap-boxed)
    std::uint64_t cold_compares = 0;   // ties resolved via the cold array
    std::size_t live = 0;              // == size()
    std::size_t heap_entries = 0;      // incl. not-yet-skimmed stale ones
    std::size_t pool_slots = 0;        // pooled callback slots allocated
  };
  Stats stats() const;

 private:
  /// Set in HotEntry::seq_flag when the entry's tie-break against a
  /// same-time peer needs the full cold key (anchored events). Clear for
  /// seq-ordered events, whose ties resolve on the packed seq alone.
  static constexpr std::uint64_t kAnchoredBit = std::uint64_t{1} << 63;

  /// The sift-hot heap node: the fire time and the insertion seq with
  /// kAnchoredBit folded into the top bit. 16 bytes — four per cache line.
  struct HotEntry {
    std::int64_t time_ns;
    std::uint64_t seq_flag;
  };
  static_assert(sizeof(HotEntry) == 16, "hot entries must stay 16 bytes");

  /// The cold side of the same heap position: everything pop/skim needs
  /// (slot) plus the anchored tie-break key, untouched by time-decided and
  /// seq-ordered comparisons.
  struct ColdEntry {
    std::uint64_t order_seq;
    std::uint32_t slot;
    std::uint32_t sched_lookback;
    std::uint32_t entry_lookback;
  };
  static_assert(sizeof(ColdEntry) <= 24, "cold entries must stay small");

  /// Pooled callback slot. `seq` identifies the live occupant; 0 = free.
  struct Slot {
    std::uint64_t seq = 0;
    Callback callback;
  };

  static constexpr std::size_t kArity = 4;  // d-ary heap fan-out

  /// Full tie-break: (desc sched_lookback, asc entry_lookback, order_seq).
  /// Scheduled (virtually) longer ago fires first; a fresher backoff entry
  /// fires before standing chains (the per-slot chain resolution order).
  static bool cold_earlier(const ColdEntry& a, const ColdEntry& b) {
    if (a.sched_lookback != b.sched_lookback)
      return a.sched_lookback > b.sched_lookback;
    if (a.entry_lookback != b.entry_lookback)
      return a.entry_lookback < b.entry_lookback;
    return a.order_seq < b.order_seq;
  }

  /// Is event a (time `at`, packed seq `as`) ordered before event b? 0 or
  /// 1, as an integer the sift can turn into a select mask. Different
  /// times decide on time; a tie between two seq-ordered events decides on
  /// the packed seqs (both flag bits clear). The one branch is the rare
  /// case of a tie with an anchored side (kAnchoredBit is bit 63), which
  /// reads the cold keys. Comparisons are combined as integers, not as
  /// `bool | bool`, so the common path compiles to straight-line flag
  /// arithmetic.
  std::uint64_t earlier(std::int64_t at, std::uint64_t as,
                        const ColdEntry& ac, std::int64_t bt,
                        std::uint64_t bs, const ColdEntry& bc) {
    const auto tie = static_cast<std::uint64_t>(at == bt);
    if ((tie & ((as | bs) >> 63)) != 0) [[unlikely]] {
      ++cold_compares_;
      return cold_earlier(ac, bc);
    }
    return static_cast<std::uint64_t>(at < bt) |
           (tie & static_cast<std::uint64_t>(as < bs));
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes the heap top and restores the heap property.
  void drop_top();
  /// Drops dead (cancelled) entries from the top of the heap.
  void skim();

  std::vector<HotEntry> hot_;
  std::vector<ColdEntry> cold_;  // parallel to hot_, position for position
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // recycled slot indices (LIFO)
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;

  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t stale_skipped_ = 0;
  std::uint64_t heap_callbacks_ = 0;
  std::uint64_t cold_compares_ = 0;
};

}  // namespace wlan::sim
