#include "mac/contention_arbiter.hpp"

#include <algorithm>
#include <cassert>

#include "mac/station.hpp"
#include "obs/trace.hpp"

namespace wlan::mac {

ContentionArbiter::ContentionArbiter(sim::Simulator& simulator,
                                     sim::Duration slot)
    : sim_(simulator), slot_(slot) {}

void ContentionArbiter::enroll(Station& station, sim::Duration ifs) {
  ++stats_.enrollments;
  const sim::Time now = sim_.now();
  // Same instant + same wait = same expiry and the same per-station event
  // key; membership order is enrollment order, which is exactly the seq
  // order the members' own DIFS events would have had.
  for (auto& c : pending_) {
    if (c->enrolled_at == now && c->ifs == ifs) {
      c->members.push_back(&station);
      WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kEnroll, station.id(),
                     ifs.ns(), c->members.size());
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
  cohort->members.push_back(&station);
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
  for (auto& c : pending_) {
    auto it = std::find(c->members.begin(), c->members.end(), &station);
    if (it == c->members.end()) continue;
    c->members.erase(it);  // order-preserving
    if (c->members.empty()) {
      sim_.cancel(c->event);
      release_pending(c.get());
    }
    return;
  }
  for (auto& c : backoff_) {
    auto it = std::find(c->members.begin(), c->members.end(), &station);
    if (it == c->members.end()) continue;
    c->members.erase(it);
    if (c->members.empty()) {
      sim_.cancel(c->event);
      release_backoff(c.get());
      return;
    }
    // Eager re-arm: the minimum can only have moved later. Cancelling and
    // re-scheduling with the SAME anchored key lands the event in the
    // same same-instant position the per-station survivors' events hold,
    // so laziness would buy nothing but a stale-event fire.
    if (min_boundary(*c) != c->due) {
      sim_.cancel(c->event);
      arm(*c);
    }
    return;
  }
  assert(false && "withdraw: station is not enrolled in any cohort");
}

void ContentionArbiter::pending_expired(PendingCohort* cohort) {
  const sim::Time now = sim_.now();
  assert(now == cohort->enrolled_at + cohort->ifs);
  assert(!cohort->members.empty());

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
    target = fresh.get();
    backoff_.push_back(std::move(fresh));
  } else {
    ++stats_.entry_merges;
    WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kCohortMerge,
                   cohort->members.front()->id(), cohort->ifs.ns(),
                   target->members.size());
  }

  // Enter every member in enrollment order: each pre-draws its batch from
  // its own RNG/strategy — the identical draws, in an order that cannot
  // matter (stations share no decision state).
  for (Station* s : cohort->members) {
    s->cohort_id_ = target->id;
    s->cohort_enter_backoff();
    target->members.push_back(s);
  }
  release_pending(cohort);

  if (!merged) {
    arm(*target);
  } else if (min_boundary(*target) != target->due) {
    sim_.cancel(target->event);
    arm(*target);
  }
}

void ContentionArbiter::decision_due(BackoffCohort* cohort) {
  ++stats_.decisions_fired;
  const sim::Time now = sim_.now();
  assert(now == cohort->due);
  WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kCohortDecision,
                 cohort->members.front()->id(), cohort->members.size(),
                 stats_.decisions_fired);

  // Members in enrollment order == the seq order of the per-station
  // decision events this one event stands in for. Due members commit
  // (leaving the cohort; the radio start is deferred through a zero-delay
  // event, so no commit is visible to a later member here) or continue
  // with a doubled re-drawn batch.
  scratch_.clear();
  bool any_due = false;
  for (Station* s : cohort->members) {
    if (s->cohort_boundary() == now) {
      any_due = true;
      if (!s->cohort_decision()) scratch_.push_back(s);
    } else {
      scratch_.push_back(s);
    }
  }
  assert(any_due && "cohort event fired with no member due");
  (void)any_due;
  cohort->members.swap(scratch_);
  if (cohort->members.empty()) {
    release_backoff(cohort);
    return;
  }
  arm(*cohort);
}

sim::Time ContentionArbiter::min_boundary(const BackoffCohort& cohort) const {
  assert(!cohort.members.empty());
  sim::Time m = cohort.members.front()->cohort_boundary();
  for (std::size_t i = 1; i < cohort.members.size(); ++i)
    m = std::min(m, cohort.members[i]->cohort_boundary());
  return m;
}

void ContentionArbiter::arm(BackoffCohort& cohort) {
  const sim::Time due = min_boundary(cohort);
  cohort.due = due;
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
