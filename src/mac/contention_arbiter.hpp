// Cohort-level contention arbiter: one timer event per cohort of stations
// that enter the same inter-frame wait at the same instant, instead of one
// per station.
//
// Motivation. When the medium goes idle after a busy period, every station
// that was waiting re-enters contention AT THE SAME INSTANT: in a connected
// network of N stations each transmission end would spawn N DIFS events,
// then N batched decision events (batching already collapses the per-slot
// chains). Those 2N events carry no independent information — all N
// stations share the IFS expiry instant and slot grid; only each member's
// pre-drawn batch differs. The arbiter groups them:
//
//   * enroll(station, ifs) replaces the station's own DIFS/EIFS timer. The
//     first enrollment at a given (instant, ifs) creates a *pending
//     cohort* and schedules ONE event at instant + ifs with exactly the
//     key the first member's own timer would have had (a normal event of
//     lookback ifs); later same-keyed enrollments just append.
//   * When the pending event fires, every member enters backoff and
//     pre-draws its batched slot decisions (the station's batching,
//     per-member RNG/strategy — values identical to per-slot draws).
//     The cohort then owns ONE anchored decision event at the MINIMUM of
//     its members' batch boundaries, anchored to the cohort entry exactly
//     as each member's own decision event would have been.
//   * On fire, members whose boundary is due commit (transmit) or continue
//     (re-draw a doubled batch) in enrollment order, and the cohort
//     re-arms at the new minimum. On a busy interruption each sensing
//     member rolls its batch back draw-for-draw (the station's rewind)
//     and withdraws; the cohort re-arms eagerly, so its event is always at
//     the true minimum boundary.
//
// Why results match the literal per-slot semantics (one DIFS event and one
// event per idle slot per station — the reference model in tests/reference/
// that the differential suites and the seeded scenario fuzzer compare this
// against, trace record for trace record):
//
//   * Seq elimination is invisible: removing schedule() calls shifts later
//     events' sequence numbers but never their relative order, and every
//     tie-break in sim::EventQueue is relative.
//   * The per-station events a cohort replaces form a contiguous same-key
//     block in the queue's same-instant ordering: members' DIFS events
//     share (fire time, lookback = ifs) and tie by seq = enrollment
//     order; members' decision events share (fire time, lookback = slot,
//     entry lookback) — the same backoff-entry instant — and tie by their
//     entry seqs, again enrollment order. The single cohort event carries
//     the first member's key, and firing the members in enrollment order
//     inside it reproduces the block.
//   * Two waits ending at the same instant (a DIFS cohort catching up with
//     an earlier EIFS cohort, possible only through distinct busy-period
//     ends) would interleave per-station by entry seq, which is exactly
//     pending-event fire order — so cohorts reaching backoff at the same
//     instant MERGE, appending members in that fire order.
//   * All same-instant decision processing happens before any resulting
//     transmission starts (commit defers the radio through a zero-delay
//     event, and decision events out-rank radio events at the same
//     instant by schedule lookback), so member processing order inside
//     one instant cannot leak across stations through the medium.
//
// The only same-instant orderings the cohort path compresses are against
// *equal-keyed* third-party events interleaving a member block mid-way
// (e.g. a NAV expiry scheduled between two enrollments and landing on the
// cohort's expiry instant with lookback exactly equal to the ifs). Such an
// event's processing commutes with a member's backoff entry — the two
// touch disjoint per-station state and the seqs they consume are never
// compared against each other — so the compressed order is
// observationally identical; the differential tests exist to keep that
// argument honest.
//
// Every mac::Station contends through its Network's arbiter (it takes the
// arbiter at construction); there is no per-station timer path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wlan::mac {

class Station;

class ContentionArbiter {
 public:
  /// `slot` is the (network-wide) idle slot duration — the schedule
  /// lookback every replaced per-station decision event carried.
  ContentionArbiter(sim::Simulator& simulator, sim::Duration slot);

  ContentionArbiter(const ContentionArbiter&) = delete;
  ContentionArbiter& operator=(const ContentionArbiter&) = delete;

  /// Takes over the station's DIFS/EIFS timer: the station (currently in
  /// its DifsWait state) joins the cohort keyed (now, ifs), creating it —
  /// and its single expiry event — on first membership.
  void enroll(Station& station, sim::Duration ifs);

  /// Removes the station from whichever cohort holds it (busy
  /// interruption or deactivation; the station has already rewound its
  /// batch draws when leaving backoff). Re-arms or retires the cohort's
  /// event eagerly so it always sits at the surviving minimum.
  void withdraw(Station& station);

  /// Lifetime counters for tests and benchmarks.
  struct Stats {
    std::uint64_t enrollments = 0;      // enroll() calls
    std::uint64_t cohorts_formed = 0;   // pending cohorts created
    std::uint64_t entry_merges = 0;     // cohorts merged at a shared entry
    std::uint64_t decisions_fired = 0;  // cohort decision events fired
    std::uint64_t withdrawals = 0;      // withdraw() calls
  };
  const Stats& stats() const { return stats_; }

 private:
  /// DIFS/EIFS phase: members share the enrollment instant and wait, and
  /// therefore the expiry instant. One normal event, first member's key.
  struct PendingCohort {
    sim::Time enrolled_at;
    sim::Duration ifs;
    std::vector<Station*> members;  // enrollment order
    sim::EventId event;
  };

  /// Backoff phase: members share the entry instant (= slot grid anchor).
  /// One anchored decision event at the member-minimum batch boundary.
  struct BackoffCohort {
    sim::Time entry;           // anchor instant of every member's grid
    std::uint64_t anchor_seq;  // anchored order_seq (first schedule's seq)
    sim::Time due;             // currently scheduled minimum boundary
    std::uint64_t id = 0;      // process-unique label (flight recorder)
    std::vector<Station*> members;  // enrollment order
    sim::EventId event;
  };

  void pending_expired(PendingCohort* cohort);
  void decision_due(BackoffCohort* cohort);
  /// Schedules the cohort's decision event at its minimum boundary
  /// (cancelling a still-pending one), re-anchoring first if the entry
  /// lookback would saturate the order key (> ~4.29 s of continuous
  /// backoff — unreachable under every existing scheme).
  void arm(BackoffCohort& cohort);
  sim::Time min_boundary(const BackoffCohort& cohort) const;

  void release_pending(PendingCohort* cohort);
  void release_backoff(BackoffCohort* cohort);

  sim::Simulator& sim_;
  sim::Duration slot_;
  std::vector<std::unique_ptr<PendingCohort>> pending_;
  std::vector<std::unique_ptr<BackoffCohort>> backoff_;
  // Retired cohorts parked for reuse: steady-state contention allocates
  // nothing once the member vectors have grown to the network size.
  std::vector<std::unique_ptr<PendingCohort>> pending_pool_;
  std::vector<std::unique_ptr<BackoffCohort>> backoff_pool_;
  std::vector<Station*> scratch_;  // decision_due survivor rebuild
  std::uint64_t next_backoff_id_ = 0;  // BackoffCohort::id source
  Stats stats_;
};

}  // namespace wlan::mac
