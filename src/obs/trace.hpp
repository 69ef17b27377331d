// Event tracing: 32-byte POD records, stamped with SIMULATED time only —
// two runs that make the same decisions in the same order produce
// byte-identical traces regardless of machine, thread count, or wall-clock
// jitter. That is what makes obs::first_divergence (trace_diff.hpp)
// meaningful.
//
// One hook: every WLAN_OBS_POINT compiles into SimObs::point, the only way
// sim/, phy/, mac/ and traffic/ report to obs/. It stamps the phase
// profiler, keeps the record in the trace ring when its category is
// enabled, and hands it — whatever the mask — to the frame flight
// recorder (obs/flight.hpp), which rebuilds its per-frame spans from these
// records alone.
//
// Layering: sim/, phy/, mac/ and traffic/ include only this header (plus
// category.hpp/profile.hpp); obs/collect.hpp looks back down at
// mac::Network. Nothing in obs/ is reachable from a simulation decision:
// trace points read state, they never write any.
//
// Runtime gating: WLAN_TRACE (off by default), refined by
// WLAN_TRACE_CATEGORIES, and WLAN_FLIGHT — see SimObs::from_env.
// Compile-time gating: configure with -DWLAN_OBS_TRACE=OFF and every
// WLAN_OBS_POINT expands to nothing (the obs/ types still build; only the
// hooks vanish).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/category.hpp"
#include "obs/profile.hpp"

namespace wlan::obs {

// Event codes, globally unique across categories so a record is
// self-describing without consulting its category.
namespace ev {
inline constexpr std::uint16_t kDispatch = 0;       // sim: a=events_executed
inline constexpr std::uint16_t kTxStart = 1;        // medium: a=frame, b=airtime_ns
inline constexpr std::uint16_t kTxEnd = 2;          // medium: a=frame
inline constexpr std::uint16_t kDeliver = 3;        // medium: a=frame, b=clean
inline constexpr std::uint16_t kMarkCorrupt = 4;    // mark:   a=tx source
inline constexpr std::uint16_t kStateChange = 5;    // station: a=from, b=to
inline constexpr std::uint16_t kEnroll = 6;         // cohort: a=ifs_ns, b=size
inline constexpr std::uint16_t kCohortFormed = 7;   // cohort: a=ifs_ns
inline constexpr std::uint16_t kCohortMerge = 8;    // cohort: a=ifs_ns, b=size
inline constexpr std::uint16_t kCohortDecision = 9; // cohort: a=members, b=due
inline constexpr std::uint16_t kWithdraw = 10;      // cohort: a=remaining
inline constexpr std::uint16_t kArrival = 11;       // traffic: a=queue_len, b=accepted
inline constexpr std::uint16_t kDrop = 12;          // traffic: a=drops so far
inline constexpr std::uint16_t kContention = 13;    // station: a=slots consumed
inline constexpr std::uint16_t kAttempt = 14;       // station: a=slots consumed, b=cohort
inline constexpr std::uint16_t kTimeout = 15;       // station: CTS/ACK timeout
inline constexpr std::uint16_t kAck = 16;           // station: own ACK received
inline constexpr std::uint16_t kNumEvents = 17;
}  // namespace ev

/// Short name for an event code ("tx_start", "state", ...); "?" if unknown.
const char* event_name(std::uint16_t event);

/// Packs a frame's identity into one detail word: kind in the top nibble,
/// destination node in the next 20 bits, the low 40 bits of the per-source
/// sequence number below — enough to identify any frame in a trace diff.
constexpr std::uint64_t pack_frame_detail(unsigned kind, std::uint64_t dst,
                                          std::uint64_t seq) {
  return (static_cast<std::uint64_t>(kind & 0xFu) << 60) |
         ((dst & 0xFFFFFu) << 40) | (seq & 0xFFFFFFFFFFu);
}

struct TraceRecord {
  std::int64_t time_ns = 0;    // simulated time
  std::uint16_t category = 0;  // Category
  std::uint16_t event = 0;     // ev:: code
  std::uint32_t node = 0;      // station/node id (0 when not applicable)
  std::uint64_t a = 0;         // event-specific detail words
  std::uint64_t b = 0;

  bool operator==(const TraceRecord&) const = default;
};
static_assert(sizeof(TraceRecord) == 32, "keep trace records pooled/POD");
static_assert(std::is_trivially_copyable_v<TraceRecord>);

/// Fixed-capacity overwrite-oldest ring: the trace records here, the
/// flight recorder's per-node events and its completed-frame table.
/// Storage grows on demand up to `capacity` (a short run never touches the
/// full allocation), then wraps; dropped() counts overwritten entries so an
/// exporter can say "first N records lost", and snapshot() returns the
/// survivors oldest-first.
template <class T>
class Ring {
 public:
  explicit Ring(std::size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  void push(const T& v) {
    if (buf_.size() < capacity_) {
      buf_.push_back(v);
      return;
    }
    buf_[write_] = v;
    if (++write_ == capacity_) write_ = 0;
    ++dropped_;
  }

  std::size_t size() const { return buf_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Surviving entries in push order.
  std::vector<T> snapshot() const {
    const auto oldest = buf_.begin() + static_cast<std::ptrdiff_t>(write_);
    std::vector<T> out(oldest, buf_.end());
    out.insert(out.end(), buf_.begin(), oldest);
    return out;
  }

 private:
  std::size_t capacity_;
  std::size_t write_ = 0;  // oldest slot once the ring is full
  std::uint64_t dropped_ = 0;
  std::vector<T> buf_;
};

class FlightRecorder;  // obs/flight.hpp

/// Per-simulator observability bundle. One heap object per sim::Simulator
/// (usually null: nothing is allocated unless tracing/profiling/flight
/// recording is asked for), reached from trace points via Simulator::obs().
struct SimObs {
  /// Categories kept in `trace` (category_bit set); the flight recorder
  /// sees every point regardless.
  std::uint32_t mask;
  Ring<TraceRecord> trace;
  PhaseProfiler profiler;
  /// Frame flight recorder (obs/flight.hpp); null unless WLAN_FLIGHT (or a
  /// test attachment) requested it.
  std::unique_ptr<FlightRecorder> flight;
  /// Non-empty: destructor-time Chrome-JSON auto-export path prefix
  /// (at most 8 files per process; see trace_export.hpp).
  std::string export_path;

  // Out of line: FlightRecorder is incomplete here.
  SimObs(std::uint32_t mask, std::size_t capacity);
  ~SimObs();

  bool wants(Category c) const {
    return (mask >> static_cast<unsigned>(c)) & 1u;
  }

  /// The one call every trace point compiles into: stamps the profiler's
  /// attribution (first point in a callback wins), records into the ring
  /// when the category is enabled, and feeds the flight recorder.
  void point(std::int64_t time_ns, Category c, std::uint16_t event,
             std::uint32_t node, std::uint64_t a, std::uint64_t b) {
    profiler.stamp(c);
    if (wants(c) || flight != nullptr)
      record(TraceRecord{time_ns, static_cast<std::uint16_t>(c), event, node,
                         a, b});
  }

  /// Builds a bundle from the environment, or null when nothing requests
  /// observability (the common case — a null return costs one branch per
  /// trace point at runtime):
  ///   WLAN_TRACE            truthy → record, falsy → off; any other
  ///                         non-empty value records and doubles as the
  ///                         auto-export path prefix
  ///   WLAN_TRACE_CATEGORIES comma list (default all; see parse_categories)
  ///   WLAN_PROFILE          truthy → enable the phase profiler
  ///   WLAN_FLIGHT           like WLAN_TRACE, for the frame flight recorder
  /// (truthy/falsy are util::parse_bool's spellings; an empty value reads
  /// as unset). An unknown category or a non-boolean WLAN_PROFILE exits 2
  /// (util::reject_env).
  /// The trace ring holds 262,144 records and the flight recorder keeps
  /// its constructor defaults (2,048 events per node, 65,536 frames).
  static std::unique_ptr<SimObs> from_env();

  /// Process-wide test override for WLAN_TRACE, mirroring the established
  /// knob pattern (Medium/Station): -1 follow env, 0 force off, 1 force on
  /// (all categories, in-memory only — never auto-exports). Lets the TSan
  /// sweep test flip tracing without touching the environment.
  static void set_trace_override(int value);

  /// Same override for WLAN_FLIGHT: -1 follow env, 0 force off, 1 force on
  /// (in-memory only — never auto-exports). Used by the byte-identity and
  /// auditor tests to attach flight recorders to every simulator a
  /// run_scenario/run_sweep call constructs.
  static void set_flight_override(int value);

  /// True when WLAN_PROFILE (or an attached profiler) would be enabled —
  /// used by run_sweep to decide whether to print per-lane reports.
  static bool profile_enabled_by_env();

 private:
  /// Out of line, so every inlined trace point stays small: the ring push
  /// and FlightRecorder::consume (FlightRecorder is incomplete here).
  void record(const TraceRecord& r);
};

}  // namespace wlan::obs

// The trace-point macro. `sim` is a sim::Simulator (or anything with
// obs() -> SimObs* and now() -> sim::Time); evaluates its detail arguments
// only when an observer is attached.
#ifndef WLAN_OBS_NO_TRACE
#define WLAN_OBS_POINT(sim, cat, event, node, a, b)                         \
  do {                                                                      \
    if (::wlan::obs::SimObs* wlan_obs_p_ = (sim).obs())                     \
      wlan_obs_p_->point((sim).now().ns(), (cat), (event),                  \
                         static_cast<std::uint32_t>(node),                  \
                         static_cast<std::uint64_t>(a),                     \
                         static_cast<std::uint64_t>(b));                    \
  } while (0)
#else
#define WLAN_OBS_POINT(sim, cat, event, node, a, b) \
  do {                                              \
  } while (0)
#endif
