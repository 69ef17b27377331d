#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>

#include "phy/frame.hpp"

namespace wlan::obs {

namespace {

const char* kFlightEventNames[fev::kNumFlightEvents] = {
    "enqueue",     // kEnqueue
    "contention",  // kContention
    "attempt",     // kAttempt
    "verdict",     // kVerdict
    "timeout",     // kTimeout
    "ack",         // kAck
    "drop",        // kDrop
};

}  // namespace

const char* flight_event_name(std::uint16_t kind) {
  return kind < fev::kNumFlightEvents ? kFlightEventNames[kind] : "?";
}

FlightRecorder::FlightRecorder(std::size_t ring_capacity,
                               std::size_t frames_capacity)
    : ring_capacity_(ring_capacity), completed_(frames_capacity) {}

FlightRecorder::NodeState& FlightRecorder::node_state(std::uint32_t node) {
  if (node >= nodes_.size()) nodes_.resize(node + 1, NodeState(ring_capacity_));
  return nodes_[node];
}

FlightRecorder::NodeState* FlightRecorder::open_frame(std::uint32_t node) {
  if (node >= nodes_.size() || !nodes_[node].cur_open) return nullptr;
  return &nodes_[node];
}

void FlightRecorder::record(NodeState& st, std::int64_t now_ns, FrameId frame,
                            std::uint32_t node, std::uint16_t kind,
                            std::uint64_t detail) {
  st.ring.push(FlightEvent{now_ns, frame, node, kind, 0, detail});
}

void FlightRecorder::open_current(NodeState& st, std::int64_t now_ns,
                                  std::uint32_t node,
                                  std::uint64_t slots_consumed) {
  st.cur = FrameStat{};
  if (st.fifo_head < st.fifo.size()) {
    const PendingFrame& head = st.fifo[st.fifo_head];
    st.cur.frame = head.frame;
    st.cur.enqueue_ns = head.enqueue_ns;
  } else {
    // Saturated station: the head-of-line frame exists only now.
    st.cur.frame = next_id_++;
    ++totals_.frames_saturated;
  }
  st.cur.node = node;
  st.cur.contention_ns = now_ns;
  st.cur_open = true;
  st.slots_mark = slots_consumed;
  record(st, now_ns, st.cur.frame, node, fev::kContention, 0);
}

void FlightRecorder::close_current(NodeState& st, std::int64_t now_ns) {
  st.cur.complete_ns = now_ns;
  completed_.push(st.cur);
  ++totals_.frames_completed;
  totals_.attempts += st.cur.attempts;
  totals_.timeouts += st.cur.timeouts;
  totals_.verdicts_corrupt += st.cur.verdicts_corrupt;
  totals_.slots_waited += st.cur.slots_waited;
  totals_.air_ns += st.cur.air_ns;
  if (st.cur.contention_ns >= 0)
    totals_.contention_ns += (now_ns - st.cur.contention_ns) - st.cur.air_ns;
  if (st.cur.enqueue_ns >= 0 && st.cur.contention_ns >= 0)
    totals_.queue_ns += st.cur.contention_ns - st.cur.enqueue_ns;
  st.cur_open = false;
  // Pop the FIFO mirror (traffic path); compact once the dead prefix
  // dominates so the mirror stays O(queue depth).
  if (st.fifo_head < st.fifo.size()) {
    ++st.fifo_head;
    if (st.fifo_head > 64 && st.fifo_head * 2 > st.fifo.size()) {
      st.fifo.erase(st.fifo.begin(),
                    st.fifo.begin() + static_cast<std::ptrdiff_t>(st.fifo_head));
      st.fifo_head = 0;
    }
  }
}

void FlightRecorder::consume(const TraceRecord& r) {
  const std::int64_t now = r.time_ns;
  // tx_start/deliver details carry the frame kind and destination
  // (pack_frame_detail).
  const bool data =
      (r.a >> 60) == static_cast<unsigned>(phy::FrameKind::kData);
  switch (r.event) {
    case ev::kArrival: {
      NodeState& st = node_state(r.node);
      const FrameId id = next_id_++;
      record(st, now, id, r.node, fev::kEnqueue, r.a);
      if (r.b != 0) {
        ++totals_.frames_enqueued;
        st.fifo.push_back(PendingFrame{id, now});
        return;
      }
      // Tail drop: the frame never reaches the MAC — close it right here.
      record(st, now, id, r.node, fev::kDrop, 0);
      ++totals_.frames_dropped;
      FrameStat fs;
      fs.frame = id;
      fs.node = r.node;
      fs.dropped = true;
      fs.enqueue_ns = now;
      fs.complete_ns = now;
      completed_.push(fs);
      return;
    }
    case ev::kContention: {
      // Re-entries after busy interruptions stay inside the open span.
      NodeState& st = node_state(r.node);
      if (!st.cur_open) open_current(st, now, r.node, r.a);
      return;
    }
    case ev::kAttempt: {
      NodeState& st = node_state(r.node);
      if (!st.cur_open) open_current(st, now, r.node, r.a);
      const std::uint64_t slots = r.a - st.slots_mark;
      st.slots_mark = r.a;
      ++st.cur.attempts;
      st.cur.slots_waited += slots;
      record(st, now, st.cur.frame, r.node, fev::kAttempt,
             pack_attempt_detail(slots, r.b));
      return;
    }
    case ev::kTxStart:
      if (NodeState* st = open_frame(r.node); st != nullptr && data)
        st->cur.air_ns += static_cast<std::int64_t>(r.b);
      return;
    case ev::kTxEnd:
      tx_src_ = r.node;
      return;
    case ev::kDeliver:
      // Only the data copy at its destination is a verdict.
      if (!data || ((r.a >> 40) & 0xFFFFFu) != r.node) return;
      if (NodeState* st = open_frame(tx_src_)) {
        if (r.b == 0) ++st->cur.verdicts_corrupt;
        record(*st, now, st->cur.frame, tx_src_, fev::kVerdict, r.b);
      }
      return;
    case ev::kTimeout:
      if (NodeState* st = open_frame(r.node)) {
        ++st->cur.timeouts;
        record(*st, now, st->cur.frame, r.node, fev::kTimeout,
               st->cur.timeouts);
      }
      return;
    case ev::kAck:
      if (NodeState* st = open_frame(r.node)) {
        record(*st, now, st->cur.frame, r.node, fev::kAck, st->cur.attempts);
        close_current(*st, now);
      }
      return;
    default:
      return;
  }
}

std::vector<FrameStat> FlightRecorder::completed_frames() const {
  return completed_.snapshot();
}

std::vector<FlightEvent> FlightRecorder::node_events(std::uint32_t node) const {
  if (node >= nodes_.size()) return {};
  return nodes_[node].ring.snapshot();
}

std::vector<FlightEvent> FlightRecorder::all_events() const {
  std::vector<FlightEvent> out;
  for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
    const std::vector<FlightEvent> evs = node_events(n);
    out.insert(out.end(), evs.begin(), evs.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
                     return a.node < b.node;
                   });
  return out;
}

double FlightRecorder::attempts_per_success() const {
  if (totals_.frames_completed == 0) return 0.0;
  return static_cast<double>(totals_.attempts) /
         static_cast<double>(totals_.frames_completed);
}

std::string FlightRecorder::excerpt(std::uint32_t node,
                                    std::size_t max_events) const {
  const std::vector<FlightEvent> evs = node_events(node);
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "flight recorder, node %u (last %zu of %zu):\n",
                node, std::min(max_events, evs.size()), evs.size());
  out += buf;
  const std::size_t first = evs.size() > max_events ? evs.size() - max_events : 0;
  for (std::size_t i = first; i < evs.size(); ++i) {
    const FlightEvent& e = evs[i];
    std::snprintf(buf, sizeof(buf),
                  "  t=%.3fus frame=%llu %s detail=%llu\n",
                  static_cast<double>(e.time_ns) / 1e3,
                  static_cast<unsigned long long>(e.frame),
                  flight_event_name(e.kind),
                  static_cast<unsigned long long>(e.detail));
    out += buf;
  }
  if (evs.empty()) out += "  (no flight records for this node)\n";
  return out;
}

std::string FlightRecorder::frames_csv() const {
  std::string out =
      "frame,node,enqueue_us,queue_us,contention_us,air_us,total_us,"
      "attempts,timeouts,slots,corrupt_verdicts,outcome\n";
  char buf[256];
  for (const FrameStat& f : completed_frames()) {
    const double enqueue_us =
        f.enqueue_ns >= 0 ? static_cast<double>(f.enqueue_ns) / 1e3 : -1.0;
    const std::int64_t born =
        f.enqueue_ns >= 0 ? f.enqueue_ns
                          : (f.contention_ns >= 0 ? f.contention_ns : f.complete_ns);
    const double queue_us =
        f.enqueue_ns >= 0 && f.contention_ns >= 0
            ? static_cast<double>(f.contention_ns - f.enqueue_ns) / 1e3
            : 0.0;
    const double contention_us =
        f.contention_ns >= 0
            ? static_cast<double>(f.complete_ns - f.contention_ns - f.air_ns) / 1e3
            : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%llu,%u,%.3f,%.3f,%.3f,%.3f,%.3f,%u,%u,%llu,%u,%s\n",
                  static_cast<unsigned long long>(f.frame), f.node, enqueue_us,
                  queue_us, contention_us,
                  static_cast<double>(f.air_ns) / 1e3,
                  static_cast<double>(f.complete_ns - born) / 1e3, f.attempts,
                  f.timeouts, static_cast<unsigned long long>(f.slots_waited),
                  f.verdicts_corrupt, f.dropped ? "drop" : "ack");
    out += buf;
  }
  return out;
}

std::string FlightRecorder::chrome_json() const {
  // One async track per frame: a "b"/"e" span pair keyed by FrameId over
  // the frame's whole lifetime, with the per-node instants layered on the
  // same id so perfetto nests them under the span.
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char buf[256];
  bool first = true;
  for (const FrameStat& f : completed_frames()) {
    const std::int64_t born =
        f.enqueue_ns >= 0 ? f.enqueue_ns
                          : (f.contention_ns >= 0 ? f.contention_ns : f.complete_ns);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"frame %llu\",\"cat\":\"flight\",\"ph\":\"b\","
                  "\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"attempts\":%u,\"slots\":%llu}}",
                  first ? "" : ",\n",
                  static_cast<unsigned long long>(f.frame),
                  static_cast<unsigned long long>(f.frame),
                  static_cast<double>(born) / 1e3, f.node, f.attempts,
                  static_cast<unsigned long long>(f.slots_waited));
    out += buf;
    first = false;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"frame %llu\",\"cat\":\"flight\",\"ph\":\"e\","
                  "\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"outcome\":\"%s\"}}",
                  static_cast<unsigned long long>(f.frame),
                  static_cast<unsigned long long>(f.frame),
                  static_cast<double>(f.complete_ns) / 1e3, f.node,
                  f.dropped ? "drop" : "ack");
    out += buf;
  }
  for (const FlightEvent& e : all_events()) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"flight\",\"ph\":\"i\","
                  "\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"frame\":%llu,\"detail\":%llu}}",
                  first ? "" : ",\n", flight_event_name(e.kind),
                  static_cast<double>(e.time_ns) / 1e3, e.node,
                  static_cast<unsigned long long>(e.frame),
                  static_cast<unsigned long long>(e.detail));
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace wlan::obs
