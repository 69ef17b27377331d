#include "obs/audit.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "mac/network.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"

namespace wlan::obs {

namespace {

// -1 = follow WLAN_AUDIT, 0/1/2 = forced off/on/on+throw (tests).
std::atomic<int> g_audit_override{-1};

// Test-only queue-conservation skew (see audit_testing::set_queue_skew).
std::atomic<std::int64_t> g_queue_skew{0};

// WLAN_AUDIT parse, latched once per process like the other obs knobs:
// 0 = off, 1 = on, 2 = on + throw. Debug builds default on — the whole
// differential battery then runs audited for free.
int env_mode() {
  static const int mode = [] {
#ifndef NDEBUG
    constexpr int fallback = 1;
#else
    constexpr int fallback = 0;
#endif
    const char* v = std::getenv("WLAN_AUDIT");
    if (v == nullptr || *v == '\0') return fallback;
    if (std::string(v) == "throw") return 2;
    const auto on = util::parse_bool(v);
    if (!on)
      util::reject_env("WLAN_AUDIT", v,
                       "throw or a boolean (1/true/yes/on or 0/false/no/off)");
    return *on ? 1 : 0;
  }();
  return mode;
}

int effective_mode() {
  const int forced = g_audit_override.load(std::memory_order_relaxed);
  return forced >= 0 ? forced : env_mode();
}

}  // namespace

void AuditSet::set_override(int value) {
  g_audit_override.store(value < 0 ? -1 : value, std::memory_order_relaxed);
}

bool AuditSet::enabled() { return effective_mode() > 0; }

bool AuditSet::throw_requested() { return effective_mode() == 2; }

namespace audit_testing {
void set_queue_skew(std::int64_t k) {
  g_queue_skew.store(k, std::memory_order_relaxed);
}
std::int64_t queue_skew() {
  return g_queue_skew.load(std::memory_order_relaxed);
}
}  // namespace audit_testing

void AuditSet::report(mac::Network& net, std::uint32_t node,
                      const char* invariant, std::string detail) {
  // A flight recorder, when attached, turns an aggregate imbalance into a
  // narrative: the last span records — FrameIds included — of the station
  // that broke the law.
  if (const SimObs* obs = net.simulator().obs();
      obs != nullptr && obs->flight != nullptr) {
    detail += "\n";
    detail += obs->flight->excerpt(node);
  }
  // Keep the list bounded: one broken law tends to fail every sample point
  // after the first, and the first occurrence carries all the signal.
  constexpr std::size_t kMaxRecorded = 32;
  if (violations_.size() < kMaxRecorded)
    violations_.push_back(AuditViolation{invariant, detail});
  if (throw_on_violation)
    throw AuditFailure(std::string(invariant) + ": " + detail);
  std::fprintf(stderr, "wlan-audit: %s violated: %s\n", invariant,
               detail.c_str());
}

void AuditSet::check(mac::Network& net) {
  ++checks_run_;
  char buf[256];
  const sim::Time now = net.simulator().now();
  const phy::Medium& medium = net.medium();
  const int num_aps = net.num_aps();

  // -- queue-conservation: every packet a source ever offered is either
  // still queued, tail-dropped, or left via a completed exchange.
  if (net.traffic_enabled()) {
    const std::int64_t skew = audit_testing::queue_skew();
    for (int i = 0; i < net.num_stations(); ++i) {
      ++laws_checked_;
      const traffic::PacketQueue& q = net.traffic_source(i).queue();
      const std::int64_t arrivals =
          static_cast<std::int64_t>(q.lifetime_arrivals());
      std::int64_t pops = static_cast<std::int64_t>(q.lifetime_pops());
      if (i == 0) pops += skew;
      const std::int64_t drops = static_cast<std::int64_t>(q.lifetime_drops());
      const std::int64_t queued = static_cast<std::int64_t>(q.size());
      if (arrivals != drops + pops + queued) {
        const auto node = static_cast<std::uint32_t>(i + num_aps);
        std::snprintf(buf, sizeof(buf),
                      "station %d (node %u) t=%.3fus: arrivals=%lld != "
                      "drops=%lld + completed=%lld + queued=%lld",
                      i, node, static_cast<double>(now.ns()) / 1e3,
                      static_cast<long long>(arrivals),
                      static_cast<long long>(drops),
                      static_cast<long long>(pops),
                      static_cast<long long>(queued));
        report(net, node, "queue-conservation", buf);
      }
    }
  }

  // -- backoff-conservation: every pre-drawn slot decision is consumed by
  // an elapsed boundary, rewound by an interruption, or still pending.
  for (int i = 0; i < net.num_stations(); ++i) {
    ++laws_checked_;
    const mac::Station::BackoffAudit a = net.station(i).backoff_audit();
    if (a.drawn != a.consumed + a.rewound + a.outstanding) {
      const auto node = static_cast<std::uint32_t>(i + num_aps);
      std::snprintf(buf, sizeof(buf),
                    "station %d (node %u) t=%.3fus: drawn=%llu != "
                    "consumed=%llu + rewound=%llu + outstanding=%llu",
                    i, node, static_cast<double>(now.ns()) / 1e3,
                    static_cast<unsigned long long>(a.drawn),
                    static_cast<unsigned long long>(a.consumed),
                    static_cast<unsigned long long>(a.rewound),
                    static_cast<unsigned long long>(a.outstanding));
      report(net, node, "backoff-conservation", buf);
    }
  }

  // -- medium-active: starts that have not ended are exactly the in-flight
  // list.
  {
    ++laws_checked_;
    const std::uint64_t started = medium.transmissions_started();
    const std::uint64_t ended = medium.transmissions_ended();
    const auto in_flight =
        static_cast<std::uint64_t>(medium.active_transmission_sources().size());
    if (started != ended + in_flight) {
      std::snprintf(buf, sizeof(buf),
                    "t=%.3fus: tx_started=%llu != tx_ended=%llu + "
                    "in_flight=%llu",
                    static_cast<double>(now.ns()) / 1e3,
                    static_cast<unsigned long long>(started),
                    static_cast<unsigned long long>(ended),
                    static_cast<unsigned long long>(in_flight));
      report(net, 0, "medium-active", buf);
    }
  }

  // -- airtime-conservation + sensed-recompute, per node. The recount walks
  // the (short) in-flight list per node; sample points are sparse enough
  // that this O(nodes x active) pass stays negligible.
  const auto num_nodes = static_cast<std::uint32_t>(medium.num_nodes());
  const std::vector<phy::NodeId>& active = medium.active_transmission_sources();
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    ++laws_checked_;
    const phy::Medium::NodeAirtime a =
        medium.node_airtime(static_cast<phy::NodeId>(n), now);
    const std::int64_t span = (now - medium.airtime_epoch()).ns();
    if (a.busy_ns + a.idle_ns != span || a.busy_ns < 0 || a.idle_ns < 0) {
      std::snprintf(buf, sizeof(buf),
                    "node %u t=%.3fus: busy=%lldns + idle=%lldns != "
                    "elapsed=%lldns",
                    n, static_cast<double>(now.ns()) / 1e3,
                    static_cast<long long>(a.busy_ns),
                    static_cast<long long>(a.idle_ns),
                    static_cast<long long>(span));
      report(net, n, "airtime-conservation", buf);
    }

    ++laws_checked_;
    std::int32_t recount = 0;
    for (const phy::NodeId s : active) {
      if (static_cast<std::uint32_t>(s) == n) continue;
      if (medium.senses(s, static_cast<phy::NodeId>(n))) ++recount;
    }
    if (recount != medium.sensed_count(static_cast<phy::NodeId>(n))) {
      std::snprintf(buf, sizeof(buf),
                    "node %u t=%.3fus: incremental sensed_count=%d != "
                    "recount=%d over %zu in flight",
                    n, static_cast<double>(now.ns()) / 1e3,
                    medium.sensed_count(static_cast<phy::NodeId>(n)), recount,
                    active.size());
      report(net, n, "sensed-recompute", buf);
    }
  }
}

}  // namespace wlan::obs
