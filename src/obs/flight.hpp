// Frame-lifecycle flight recorder: every data frame gets a FrameId when it
// enters the system (traffic enqueue; saturated stations mint at the first
// contention entry for the head-of-line frame) and its causal span chain —
// enqueue → contention entry → each tx attempt (backoff slots waited,
// cohort id) → per-delivery clean/corrupt verdict → ACK or drop — is
// recorded into a per-station overwrite-oldest ring of 32-byte PODs.
//
// Its only input is the trace-record stream: SimObs::point hands every
// record to consume(), whatever the trace mask, and the spans are rebuilt
// from traffic arrivals, medium tx_start/tx_end/deliver records and the
// station's contention/attempt/timeout/ack events (trace.hpp). The
// simulation never calls in here, so the recorder inherits the trace
// points' contract: it only READS state, stamps are SIMULATED time only,
// and it sees nothing under -DWLAN_OBS_TRACE=OFF. Runs with the recorder
// on, off, or compiled out produce byte-identical CSVs — the CI fig04 cmp
// gate pins this.
//
// Runtime gating: WLAN_FLIGHT (off by default; a path-like value doubles as
// the auto-export prefix, mirroring WLAN_TRACE). An environment-built
// recorder keeps the constructor's default capacities.
// SimObs::set_flight_override lets tests force it in-process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace wlan::obs {

/// Process-unique-per-recorder frame identity; 0 means "no frame".
using FrameId = std::uint64_t;

// Flight event kinds (disjoint from ev:: trace codes — flight records form
// their own stream keyed by FrameId, not a trace category).
namespace fev {
inline constexpr std::uint16_t kEnqueue = 0;     // detail = queue size after push
inline constexpr std::uint16_t kContention = 1;  // first contention entry
inline constexpr std::uint16_t kAttempt = 2;     // detail = slots | cohort<<32
inline constexpr std::uint16_t kVerdict = 3;     // detail = clean flag
inline constexpr std::uint16_t kTimeout = 4;     // CTS/ACK timeout
inline constexpr std::uint16_t kAck = 5;         // exchange completed
inline constexpr std::uint16_t kDrop = 6;        // tail-dropped at enqueue
inline constexpr std::uint16_t kNumFlightEvents = 7;
}  // namespace fev

/// Short name for a flight event kind ("enqueue", "attempt", ...).
const char* flight_event_name(std::uint16_t kind);

/// Packs a tx attempt's detail word: backoff slots waited since the
/// previous attempt in the low 32 bits, the arbiter cohort id in the high
/// 32.
constexpr std::uint64_t pack_attempt_detail(std::uint64_t slots,
                                            std::uint64_t cohort) {
  return (slots & 0xFFFFFFFFu) | ((cohort & 0xFFFFFFFFu) << 32);
}

struct FlightEvent {
  std::int64_t time_ns = 0;  // simulated time
  FrameId frame = 0;
  std::uint32_t node = 0;
  std::uint16_t kind = 0;  // fev:: code
  std::uint16_t pad = 0;
  std::uint64_t detail = 0;

  bool operator==(const FlightEvent&) const = default;
};
static_assert(sizeof(FlightEvent) == 32, "keep flight records pooled/POD");

/// Per-frame latency/retry breakdown, closed at ACK or drop.
struct FrameStat {
  FrameId frame = 0;
  std::uint32_t node = 0;
  bool dropped = false;        // tail drop (never entered the MAC)
  std::int64_t enqueue_ns = -1;     // -1: saturated (no queue residency)
  std::int64_t contention_ns = -1;  // first contention entry; -1 if none
  std::int64_t complete_ns = 0;     // ACK (or drop instant)
  std::uint32_t attempts = 0;       // data-frame tx attempts
  std::uint32_t timeouts = 0;       // CTS/ACK timeouts survived
  std::uint32_t verdicts_corrupt = 0;  // corrupted copies at the destination
  std::uint64_t slots_waited = 0;      // backoff slots across all attempts
  std::int64_t air_ns = 0;             // data airtime across all attempts
};

/// Aggregate span stats over completed frames (lifetime, never reset).
struct FlightTotals {
  std::uint64_t frames_enqueued = 0;   // traffic-path FrameIds minted
  std::uint64_t frames_saturated = 0;  // head-of-line FrameIds minted
  std::uint64_t frames_completed = 0;  // closed by an ACK
  std::uint64_t frames_dropped = 0;    // tail-dropped at enqueue
  std::uint64_t attempts = 0;          // on completed frames
  std::uint64_t timeouts = 0;
  std::uint64_t verdicts_corrupt = 0;
  std::uint64_t slots_waited = 0;
  std::int64_t air_ns = 0;         // on-air time of completed frames
  std::int64_t contention_ns = 0;  // contention-to-ACK minus airtime
  std::int64_t queue_ns = 0;       // enqueue-to-first-contention residency
};

/// The recorder. One per SimObs (see trace.hpp); records arrive from a
/// single simulator thread, in event order — state here is exactly as
/// deterministic as the simulation driving it.
class FlightRecorder {
 public:
  /// `ring_capacity`: per-node FlightEvent ring; `frames_capacity`:
  /// completed-frame table (both overwrite-oldest once full).
  explicit FlightRecorder(std::size_t ring_capacity = 2048,
                          std::size_t frames_capacity = 1u << 16);

  /// Folds one trace record into the spans; records that carry no span
  /// step are ignored. An arrival mints a FrameId (a tail drop closes it
  /// at once); the first contention entry per frame opens its span (and
  /// mints the FrameId for saturated stations); an attempt charges the
  /// backoff slots consumed since the previous mark (both events carry
  /// the station's lifetime count of consumed slots); a data tx_start adds
  /// airtime; a data delivery at the frame's destination is the verdict,
  /// charged to the source of the tx_end record that precedes it; a
  /// timeout keeps the frame open and an ACK closes it.
  void consume(const TraceRecord& r);

  // ---- inspection / export (no simulation state involved) ----

  const FlightTotals& totals() const { return totals_; }
  /// Completed frames surviving the table cap, oldest first.
  std::vector<FrameStat> completed_frames() const;
  std::uint64_t completed_dropped() const { return completed_.dropped(); }
  /// One node's surviving flight events, oldest first.
  std::vector<FlightEvent> node_events(std::uint32_t node) const;
  /// All surviving flight events merged in record order (stable across
  /// nodes by timestamp, then node id).
  std::vector<FlightEvent> all_events() const;

  /// Mean data-frame attempts per ACKed frame (0 when none completed).
  double attempts_per_success() const;

  /// Human-readable excerpt of the last `max_events` flight records of one
  /// node, naming FrameIds — the auditors attach this to violations.
  std::string excerpt(std::uint32_t node, std::size_t max_events = 8) const;

  /// Compact per-frame CSV (one row per completed frame).
  std::string frames_csv() const;
  /// Chrome trace-event JSON: one async track ("b"/"e" span pair keyed by
  /// FrameId) per completed frame plus instant events for the per-node
  /// rings — loads in ui.perfetto.dev next to the PR-7 trace export.
  std::string chrome_json() const;

  /// Non-empty: destructor-time auto-export path prefix (at most 8 files
  /// per process, the same cap as the trace export).
  std::string export_path;

 private:
  struct PendingFrame {
    FrameId frame = 0;
    std::int64_t enqueue_ns = 0;
  };

  struct NodeState {
    explicit NodeState(std::size_t ring_capacity) : ring(ring_capacity) {}
    // FIFO mirror of the station's PacketQueue (traffic path only).
    std::vector<PendingFrame> fifo;
    std::size_t fifo_head = 0;
    FrameStat cur;        // head-of-line frame being worked by the MAC
    bool cur_open = false;
    std::uint64_t slots_mark = 0;  // slots consumed at the last attempt
    Ring<FlightEvent> ring;
  };

  NodeState& node_state(std::uint32_t node);
  /// The node's state when it has a frame open; null otherwise (also for
  /// the AP and other sources that never opened one).
  NodeState* open_frame(std::uint32_t node);
  void record(NodeState& st, std::int64_t now_ns, FrameId frame,
              std::uint32_t node, std::uint16_t kind, std::uint64_t detail);
  void open_current(NodeState& st, std::int64_t now_ns, std::uint32_t node,
                    std::uint64_t slots_consumed);
  void close_current(NodeState& st, std::int64_t now_ns);

  FrameId next_id_ = 1;
  std::size_t ring_capacity_;
  std::uint32_t tx_src_ = 0;  // source of the last tx_end record
  std::vector<NodeState> nodes_;
  Ring<FrameStat> completed_;
  FlightTotals totals_;
};

}  // namespace wlan::obs
