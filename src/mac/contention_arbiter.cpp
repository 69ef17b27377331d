#include "mac/contention_arbiter.hpp"

#include <cassert>

#include "mac/station.hpp"
#include "obs/trace.hpp"

namespace wlan::mac {

ContentionArbiter::ContentionArbiter(sim::Simulator& simulator,
                                     sim::Duration slot)
    : sim_(simulator), slot_(slot) {}

namespace {

/// The first live member's id, which the cohort trace records name (and
/// nothing else reads, hence unused when the trace points compile out).
[[maybe_unused]] phy::NodeId first_live_id(
    const std::vector<Station*>& members) {
  for (const Station* s : members)
    if (s != nullptr) return s->id();
  return phy::kInvalidNode;
}

}  // namespace

void ContentionArbiter::take_seat(Cohort& cohort, Station& station) {
  station.seat_ = {&cohort, cohort.members.size()};
  cohort.members.push_back(&station);
  ++cohort.live;
}

void ContentionArbiter::enroll(Station& station, sim::Duration ifs) {
  ++stats_.enrollments;
  const sim::Time now = sim_.now();
  // Same instant + same wait = same expiry and the same per-station event
  // key; membership order is enrollment order, which is exactly the seq
  // order the members' own DIFS events would have had.
  for (auto& c : pending_) {
    if (c->enrolled_at == now && c->ifs == ifs) {
      take_seat(*c, station);
      WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kEnroll, station.id(),
                     ifs.ns(), c->live);
      return;
    }
  }
  std::unique_ptr<PendingCohort> cohort;
  if (pending_pool_.empty()) {
    cohort = std::make_unique<PendingCohort>();
  } else {
    cohort = std::move(pending_pool_.back());
    pending_pool_.pop_back();
  }
  cohort->enrolled_at = now;
  cohort->ifs = ifs;
  cohort->members.clear();
  cohort->live = 0;
  take_seat(*cohort, station);
  PendingCohort* raw = cohort.get();
  // A normal event of lookback `ifs`: bit-for-bit the key (and queue
  // position) of the first member's own DIFS timer.
  cohort->event = sim_.schedule_after(ifs, [this, raw] {
    pending_expired(raw);
  });
  pending_.push_back(std::move(cohort));
  ++stats_.cohorts_formed;
  WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kCohortFormed, station.id(),
                 ifs.ns(), stats_.cohorts_formed);
}

void ContentionArbiter::withdraw(Station& station) {
  ++stats_.withdrawals;
  WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kWithdraw, station.id(),
                 stats_.withdrawals, 0);
  Cohort* c = station.seat_.cohort;
  const std::size_t i = station.seat_.index;
  assert(c != nullptr && i < c->members.size() && c->members[i] == &station &&
         "withdraw: station is not enrolled in any cohort");
  // Tombstone the seat: survivors keep their indices and enrollment order.
  c->members[i] = nullptr;
  if (--c->live == 0) {
    sim_.cancel(c->event);
    if (c->in_backoff) {
      release_backoff(static_cast<BackoffCohort*>(c));
    } else {
      release_pending(static_cast<PendingCohort*>(c));
    }
    return;
  }
  if (!c->in_backoff) return;
  auto& b = *static_cast<BackoffCohort*>(c);
  const sim::Time boundary = b.boundaries[i];
  b.boundaries[i] = sim::Time::max();
  // Eager re-arm once the last member due at the minimum leaves (the
  // minimum can only have moved later). Cancelling and re-scheduling with
  // the SAME anchored key lands the event in the same same-instant
  // position the per-station survivors' events hold, so laziness would
  // buy nothing but a stale-event fire.
  if (boundary == b.due && --b.at_due == 0) {
    sim_.cancel(b.event);
    arm(b);
  }
}

void ContentionArbiter::pending_expired(PendingCohort* cohort) {
  const sim::Time now = sim_.now();
  assert(now == cohort->enrolled_at + cohort->ifs);
  assert(cohort->live > 0);

  // Two waits can end at the same instant only via distinct busy-period
  // ends (e.g. an earlier EIFS cohort and a later DIFS cohort). The
  // per-station entry events would interleave by seq — which is this
  // pending-fire order — so later cohorts APPEND to the one already
  // entered at this instant instead of anchoring their own.
  BackoffCohort* target = nullptr;
  for (auto& b : backoff_) {
    if (b->entry == now) {
      target = b.get();
      break;
    }
  }
  const bool merged = target != nullptr;
  if (!merged) {
    std::unique_ptr<BackoffCohort> fresh;
    if (backoff_pool_.empty()) {
      fresh = std::make_unique<BackoffCohort>();
    } else {
      fresh = std::move(backoff_pool_.back());
      backoff_pool_.pop_back();
    }
    fresh->entry = now;
    fresh->anchor_seq = 0;
    fresh->id = ++next_backoff_id_;
    fresh->members.clear();
    fresh->boundaries.clear();
    fresh->live = 0;
    target = fresh.get();
    backoff_.push_back(std::move(fresh));
  } else {
    ++stats_.entry_merges;
    WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kCohortMerge,
                   first_live_id(cohort->members), cohort->ifs.ns(),
                   target->live);
  }

  // Enter every member in enrollment order: each pre-draws its batch from
  // its own RNG/strategy — the identical draws, in an order that cannot
  // matter (stations share no decision state). A merge moves the target's
  // event only if a newcomer's boundary undercuts it.
  bool earlier = false;
  for (Station* s : cohort->members) {
    if (s == nullptr) continue;
    s->cohort_id_ = target->id;
    s->cohort_enter_backoff();
    const sim::Time boundary = s->cohort_boundary();
    take_seat(*target, *s);
    target->boundaries.push_back(boundary);
    if (merged) {
      if (boundary < target->due) earlier = true;
      if (boundary == target->due) ++target->at_due;
    }
  }
  release_pending(cohort);

  if (!merged) {
    arm(*target);
  } else if (earlier) {
    sim_.cancel(target->event);
    arm(*target);
  }
}

void ContentionArbiter::decision_due(BackoffCohort* cohort) {
  ++stats_.decisions_fired;
  const sim::Time now = sim_.now();
  assert(now == cohort->due && cohort->at_due > 0);
  WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kCohortDecision,
                 first_live_id(cohort->members), cohort->live,
                 stats_.decisions_fired);

  // Members in enrollment order == the seq order of the per-station
  // decision events this one event stands in for. Due members commit
  // (leaving the cohort; the radio start is deferred through a zero-delay
  // event, so no commit is visible to a later member here) or continue
  // with a doubled re-drawn batch. Survivors close up over the tombstones
  // and committed members, in order.
  auto& members = cohort->members;
  auto& boundaries = cohort->boundaries;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    Station* s = members[i];
    if (s == nullptr) continue;
    sim::Time boundary = boundaries[i];
    if (boundary == now) {
      if (s->cohort_decision()) continue;
      boundary = s->cohort_boundary();
    }
    if (kept != i) {
      members[kept] = s;
      s->seat_.index = kept;
    }
    boundaries[kept] = boundary;
    ++kept;
  }
  members.resize(kept);
  boundaries.resize(kept);
  cohort->live = kept;
  if (kept == 0) {
    release_backoff(cohort);
    return;
  }
  arm(*cohort);
}

void ContentionArbiter::arm(BackoffCohort& cohort) {
  assert(cohort.live > 0);
  sim::Time due = sim::Time::max();
  std::size_t at_due = 0;
  for (const sim::Time boundary : cohort.boundaries) {
    if (boundary < due) {
      due = boundary;
      at_due = 1;
    } else if (boundary == due) {
      ++at_due;
    }
  }
  cohort.due = due;
  cohort.at_due = at_due;
  // Entry-lookback saturation guard: past ~4.29 s of continuous backoff
  // the order key could no longer express the entry recency, so re-anchor
  // to now. Deterministic, and unreachable under every existing scheme (it
  // needs > 4 s of idle backoff).
  if ((due - cohort.entry).ns() >=
      static_cast<std::int64_t>(UINT32_MAX) - slot_.ns()) {
    cohort.entry = sim_.now();
    cohort.anchor_seq = 0;
  }
  BackoffCohort* raw = &cohort;
  cohort.event = sim_.schedule_anchored(
      due, slot_, cohort.entry, cohort.anchor_seq,
      [this, raw] { decision_due(raw); });
  if (cohort.anchor_seq == 0) cohort.anchor_seq = cohort.event.sequence();
}

void ContentionArbiter::release_pending(PendingCohort* cohort) {
  for (auto& c : pending_) {
    if (c.get() == cohort) {
      pending_pool_.push_back(std::move(c));
      c = std::move(pending_.back());
      pending_.pop_back();
      return;
    }
  }
  assert(false && "release of an unknown pending cohort");
}

void ContentionArbiter::release_backoff(BackoffCohort* cohort) {
  for (auto& c : backoff_) {
    if (c.get() == cohort) {
      backoff_pool_.push_back(std::move(c));
      c = std::move(backoff_.back());
      backoff_.pop_back();
      return;
    }
  }
  assert(false && "release of an unknown backoff cohort");
}

}  // namespace wlan::mac
