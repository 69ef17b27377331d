#include "reference/full_scan.hpp"

#include <cstddef>
#include <limits>

#include "obs/trace_diff.hpp"

namespace wlan::reference {

Geometry::Geometry(const exp::ScenarioConfig& scenario)
    : propagation_(exp::make_propagation(scenario)),
      capture_ratio_(scenario.phy.capture_ratio) {
  const topology::CellPlan plan = exp::make_plan(scenario);
  positions_ = plan.aps;
  positions_.insert(positions_.end(), plan.stations.begin(),
                    plan.stations.end());
}

bool Geometry::senses(int source, int observer) const {
  return source != observer &&
         propagation_->can_sense(
             positions_[static_cast<std::size_t>(source)],
             positions_[static_cast<std::size_t>(observer)]);
}

bool Geometry::decodes(int source, int observer) const {
  return source != observer &&
         propagation_->can_decode(
             positions_[static_cast<std::size_t>(source)],
             positions_[static_cast<std::size_t>(observer)]);
}

bool Geometry::captures(int victim, int interferer, int receiver) const {
  if (capture_ratio_ <= 0.0) return false;
  const phy::Vec2& rx = positions_[static_cast<std::size_t>(receiver)];
  const double wanted = propagation_->rx_power(
      positions_[static_cast<std::size_t>(victim)], rx);
  const double noise = propagation_->rx_power(
      positions_[static_cast<std::size_t>(interferer)], rx);
  return wanted >= capture_ratio_ * noise;
}

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

struct Tx {
  int src;
  std::int64_t start;
  std::int64_t end;
  std::uint64_t frame;               // packed frame detail
  std::vector<std::size_t> overlaps;  // indices of time-overlapping txs
};

class Replay {
 public:
  Replay(const exp::ScenarioConfig& scenario, FullScanResult& out)
      : geo_(scenario),
        open_(static_cast<std::size_t>(geo_.num_nodes()), kNone),
        out_(out) {}

  /// False once an error is recorded (the replay stops at the first one).
  bool feed(const obs::TraceRecord& r) {
    switch (r.event) {
      case obs::ev::kTxStart:
        return finish_deliveries(r) && tx_start(r);
      case obs::ev::kTxEnd:
        return finish_deliveries(r) && tx_end(r);
      case obs::ev::kDeliver:
        return deliver(r);
      default:
        return true;
    }
  }

  bool finish() { return finish_deliveries(obs::TraceRecord{}); }

 private:
  bool fail(const obs::TraceRecord& r, const std::string& why) {
    out_.error = why + "\n  at record: " + obs::format_record(r);
    return false;
  }

  bool known_node(const obs::TraceRecord& r) {
    if (r.node < open_.size()) return true;
    return fail(r, "record names a node outside the scenario");
  }

  bool tx_start(const obs::TraceRecord& r) {
    if (!known_node(r)) return false;
    const int src = static_cast<int>(r.node);
    if (open_[r.node] != kNone)
      return fail(r, "node " + std::to_string(src) +
                         " starts a transmission while transmitting");
    ++out_.transmissions;
    const std::size_t self = txs_.size();
    txs_.push_back(Tx{src, r.time_ns,
                      r.time_ns + static_cast<std::int64_t>(r.b), r.a, {}});
    // Literal full scan: every transmission still in flight is a
    // candidate; it overlaps iff it has not ended by this start.
    for (const std::size_t o : in_flight_) {
      ++out_.pairs_in_flight;
      if (txs_[o].end <= r.time_ns) continue;
      txs_[o].overlaps.push_back(self);
      txs_[self].overlaps.push_back(o);
    }
    in_flight_.push_back(self);
    open_[r.node] = self;
    return true;
  }

  bool tx_end(const obs::TraceRecord& r) {
    if (!known_node(r)) return false;
    const std::size_t idx = open_[r.node];
    if (idx == kNone)
      return fail(r, "tx_end of node " + std::to_string(r.node) +
                         " with no transmission in flight");
    const Tx& tx = txs_[idx];
    if (tx.end != r.time_ns || tx.frame != r.a)
      return fail(r, "tx_end does not match its tx_start (started t=" +
                         std::to_string(tx.start) + "ns, airtime " +
                         std::to_string(tx.end - tx.start) + "ns)");
    open_[r.node] = kNone;
    for (std::size_t k = 0; k < in_flight_.size(); ++k) {
      if (in_flight_[k] == idx) {
        in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
    }
    ending_ = idx;
    receivers_.clear();
    for (int n = 0; n < geo_.num_nodes(); ++n)
      if (geo_.decodes(tx.src, n)) receivers_.push_back(n);
    next_receiver_ = 0;
    return true;
  }

  bool deliver(const obs::TraceRecord& r) {
    if (ending_ == kNone) return fail(r, "delivery outside any tx_end");
    const Tx& tx = txs_[ending_];
    if (next_receiver_ >= receivers_.size() ||
        receivers_[next_receiver_] != static_cast<int>(r.node))
      return fail(r, "delivery to node " + std::to_string(r.node) +
                         ", but the next decoder of node " +
                         std::to_string(tx.src) + " is " +
                         (next_receiver_ < receivers_.size()
                              ? "node " +
                                    std::to_string(receivers_[next_receiver_])
                              : std::string("none")));
    if (r.a != tx.frame)
      return fail(r, "delivered frame differs from the frame that ended");
    ++next_receiver_;
    const int receiver = static_cast<int>(r.node);
    std::string cause;
    for (const std::size_t o : tx.overlaps) {
      const int i = txs_[o].src;
      if (i == receiver) {
        cause = "receiver " + std::to_string(i) + " was transmitting";
        break;
      }
      if (geo_.senses(i, receiver) && !geo_.captures(tx.src, i, receiver)) {
        cause = "node " + std::to_string(i) + " interfered (tx [" +
                std::to_string(txs_[o].start) + ", " +
                std::to_string(txs_[o].end) + ")ns)";
        break;
      }
    }
    const bool clean = cause.empty();
    if (clean != (r.b != 0)) {
      return fail(r, "node " + std::to_string(receiver) + "'s copy of node " +
                         std::to_string(tx.src) + "'s frame [" +
                         std::to_string(tx.start) + ", " +
                         std::to_string(tx.end) + ")ns is recorded " +
                         (r.b != 0 ? "clean" : "corrupt") +
                         ", but the definition says " +
                         (clean ? "clean" : "corrupt: " + cause));
    }
    return true;
  }

  /// The previous tx_end's deliveries must be complete before any other
  /// medium record.
  bool finish_deliveries(const obs::TraceRecord& r) {
    if (ending_ == kNone) return true;
    if (next_receiver_ != receivers_.size())
      return fail(r, "frame of node " + std::to_string(txs_[ending_].src) +
                         " reached " + std::to_string(next_receiver_) +
                         " of its " + std::to_string(receivers_.size()) +
                         " decoders");
    ending_ = kNone;
    return true;
  }

  Geometry geo_;
  std::vector<std::size_t> open_;  // node -> its in-flight tx, or kNone
  std::vector<Tx> txs_;
  std::vector<std::size_t> in_flight_;
  std::size_t ending_ = kNone;
  std::vector<int> receivers_;
  std::size_t next_receiver_ = 0;
  FullScanResult& out_;
};

}  // namespace

FullScanResult full_scan_check(const exp::ScenarioConfig& scenario,
                               const std::vector<obs::TraceRecord>& records) {
  FullScanResult out;
  Replay replay(scenario, out);
  for (const obs::TraceRecord& r : records) {
    if (r.category != obs::kCatMedium) continue;
    if (!replay.feed(r)) return out;
  }
  replay.finish();
  return out;
}

}  // namespace wlan::reference
