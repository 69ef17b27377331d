// The shared wireless medium: tracks in-flight transmissions, drives
// per-node carrier sensing, and resolves receptions per receiver.
//
// Semantics (zero propagation delay, half-duplex radios, optional pairwise
// capture):
//  * A node senses BUSY while at least one OTHER node audible to it (per the
//    propagation model) is transmitting. Its own transmissions never
//    contribute to its own sensed state.
//  * At the end of a transmission from s, every node that can decode s
//    receives the frame (promiscuous delivery — stations overhear ACKs
//    addressed to others, which wTOP-CSMA relies on). The reception at
//    receiver r is CLEAN iff (a) r never transmitted during the frame and
//    (b) every other transmission audible at r that overlapped the frame in
//    time is captured away: capture is on (set_capture_ratio) and s's
//    received power at r is at least the ratio times the interferer's.
//    With capture off, (b) means no audible overlap at all. Corrupted
//    receptions are delivered with clean=false so receivers can count
//    collisions.
//
// This reproduces both the fully connected behaviour (slot-synchronized
// collisions) and the hidden-node behaviour (partial-overlap collisions
// invisible to the transmitters) of the paper's ns-3 setup.
//
// Interference marking is incremental (see ARCHITECTURE.md "Interference
// marking"): each start visits only the source's precomputed "interference
// peers" (sources whose concurrent transmission could change an observable
// reception) and marks only receivers that can decode the victim — bits of
// undecodable receivers are never read by delivery, so skipping them is
// invisible. In a multi-cell plan the peer list is the local neighbourhood,
// not the whole ESS. Capture compares received powers cached per link, each
// asked of the propagation model once per run. The full-scan checker in
// tests/reference/ recomputes every delivered `clean` flag from the
// definition above and the differential suites hold this path to it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "phy/frame.hpp"
#include "phy/geometry.hpp"
#include "phy/propagation.hpp"
#include "sim/simulator.hpp"

namespace wlan::phy {

/// Implemented by every radio (stations and the AP).
class MediumClient {
 public:
  virtual ~MediumClient() = default;

  /// Sensed channel went idle -> busy (count 0 -> 1). Fires even while this
  /// node is transmitting; state machines decide whether to care.
  virtual void on_channel_busy(sim::Time now) = 0;

  /// Sensed channel went busy -> idle (count 1 -> 0).
  virtual void on_channel_idle(sim::Time now) = 0;

  /// A transmission decodable by this node ended (regardless of the frame's
  /// addressed destination). `clean` is false when this receiver's copy was
  /// lost to a collision or its own half-duplex transmission.
  virtual void on_frame_received(const Frame& frame, bool clean,
                                 sim::Time now) = 0;
};

class Medium {
 public:
  /// Node count from which finalize() finds a bounded-range model's linked
  /// pairs through a spatial grid instead of testing all pairs. The rows
  /// are the same either way; only the build cost differs. Measured: ESS
  /// plans of 9-25 cells favour the grid from 40-54 nodes, while a single
  /// BSS (one grid cell) and a 2x2 plan never do, so the paper's single-BSS
  /// networks (up to 61 nodes) must stay below it.
  static constexpr std::size_t kGridBuildMin = 64;

  /// The propagation model must outlive the Medium.
  Medium(sim::Simulator& simulator, const PropagationModel& propagation);

  /// Registers a radio at `position`. Returns its NodeId. All nodes must be
  /// added before finalize().
  NodeId add_node(const Vec2& position, MediumClient& client);

  /// Registers a radio slot at `position` whose client is supplied later by
  /// bind_client() — lets callers reserve the id space first and construct
  /// the clients contiguously afterwards (mac::Network's station arena).
  NodeId add_node(const Vec2& position);

  /// Binds (or rebinds) the client of a node added without one. Must happen
  /// before finalize(), which rejects unbound nodes.
  void bind_client(NodeId n, MediumClient& client);

  /// Precomputes the audibility/decodability adjacency, the decode mask and
  /// the peer index.
  /// Must be called once after the last add_node and before any
  /// transmission.
  void finalize();

  /// Enables the (pairwise) capture effect: a receiver keeps its copy of a
  /// frame despite an overlapping interferer when the frame's received
  /// power is at least `ratio` times the interferer's. `ratio` <= 0
  /// disables capture (default: any overlap corrupts). Must be set before
  /// finalize(); throws std::logic_error after. Half-duplex corruption (the
  /// receiver itself transmitting) is never captured away.
  void set_capture_ratio(double ratio);
  double capture_ratio() const { return capture_ratio_; }

  /// Sensed-busy state for node `n` (excludes n's own transmissions).
  bool is_busy_for(NodeId n) const;

  /// True while node `n` is transmitting.
  bool is_transmitting(NodeId n) const;

  /// Begins a transmission of `frame` lasting `airtime`. The source must not
  /// already be transmitting. Delivery and sensing callbacks are scheduled
  /// automatically. `slot_committed` marks a start whose radio event was
  /// scheduled at this same instant by a slot-boundary commit (a station's
  /// contention decision), as opposed to a SIFS response or beacon whose
  /// event was scheduled at least a SIFS earlier — the distinction a
  /// batched-backoff listener needs to replay its slot draws exactly (see
  /// mac::Station::rollback_backoff).
  void start_transmission(NodeId src, const Frame& frame,
                          sim::Duration airtime, bool slot_committed = false);

  /// Whether the most recent start_transmission was slot-committed. Only
  /// meaningful inside the synchronous on_channel_busy callbacks that
  /// start triggers.
  bool last_start_slot_committed() const { return last_start_slot_committed_; }

  std::size_t num_nodes() const { return positions_.size(); }
  const Vec2& position(NodeId n) const {
    return positions_[static_cast<std::size_t>(n)];
  }

  /// True if `observer` senses transmissions from `source`.
  bool senses(NodeId source, NodeId observer) const;

  /// True if `observer` can decode frames from `source`.
  bool decodes(NodeId source, NodeId observer) const;

  /// Nodes that sense `source`, ascending: the row the busy/idle cascades
  /// walk.
  std::span<const NodeId> audible_at(NodeId source) const {
    return {row_begin(aud_off_, aud_ids_, source),
            row_end(aud_off_, aud_ids_, source)};
  }
  /// Nodes that decode `source`, ascending: the delivery row.
  std::span<const NodeId> decodable_at(NodeId source) const {
    return {row_begin(dec_off_, dec_ids_, source),
            row_end(dec_off_, dec_ids_, source)};
  }
  /// `source`'s decode mask, ⌈n/64⌉ words with bit r set when r decodes
  /// `source`.
  std::span<const std::uint64_t> decode_mask(NodeId source) const;

  /// Unordered pairs of nodes with ids >= `first` in which at least one
  /// cannot sense the other: topology::count_hidden_pairs over the built
  /// sensing rows (pass mac::Network::num_aps() to count station pairs).
  std::size_t hidden_pairs(NodeId first) const;

  /// Lifetime counters (for stats and micro-benchmarks).
  std::uint64_t transmissions_started() const { return tx_started_; }
  std::uint64_t transmissions_ended() const { return tx_ended_; }
  std::uint64_t corrupt_deliveries() const { return corrupt_deliveries_; }
  /// (new tx, in-flight tx) pairs examined by interference marking: one
  /// per in-flight interference peer of each new source.
  std::uint64_t marking_pairs_scanned() const { return pairs_scanned_; }
  /// Per-receiver interference checks performed (filtered to receivers
  /// that decode the victim).
  std::uint64_t interference_checks() const { return interference_checks_; }

  /// Interference peers of `s` (ascending): the sources whose in-flight
  /// transmissions a start of `s` examines.
  std::vector<NodeId> interference_peers(NodeId s) const;

  // --- auditor read-side (obs/audit.hpp). Pure accessors plus per-node
  // busy/idle integrals maintained at the 0<->1 sensed transitions the
  // carrier-sense cascade already pays for — no new events, no behaviour.

  /// Sources currently in flight (unordered, swap-removed).
  const std::vector<NodeId>& active_transmission_sources() const {
    return active_;
  }
  /// Number of in-flight transmissions node `n` currently senses
  /// (excluding its own).
  std::int32_t sensed_count(NodeId n) const {
    return sensed_count_[static_cast<std::size_t>(n)];
  }

  /// Closed per-node airtime split since finalize(). The conservation law
  /// (obs::AuditSet): busy_ns + idle_ns == now - epoch for every node; IFS
  /// gaps count as idle (the medium knows carrier, not MAC timers).
  struct NodeAirtime {
    std::int64_t busy_ns = 0;
    std::int64_t idle_ns = 0;
  };
  /// The split at `now`, with the open interval since the last sensed
  /// transition attributed to the current state (no mutation).
  NodeAirtime node_airtime(NodeId n, sim::Time now) const;
  /// The instant finalize() started the integrals.
  sim::Time airtime_epoch() const { return airtime_epoch_; }

 private:
  /// Per-source transmission slot. A node has at most one frame in flight
  /// (half-duplex), so the slot index IS the source NodeId and slots are
  /// reused across that node's transmissions — no per-transmission
  /// allocation, no scanning an active list to find a transmission.
  struct TxSlot {
    std::uint64_t id = 0;  // live transmission id; 0 = slot idle
    sim::Time end;         // overlap checks need only the end instant
    Frame frame;
    std::uint32_t active_pos = 0;  // index into active_ while in flight
  };

  /// Marks `receiver`'s copy of `tx_src`'s current frame corrupt.
  void mark_corrupt(NodeId tx_src, NodeId receiver);
  /// Mutual marking for one (new tx `src`, in-flight tx `o`) pair.
  void mark_pair(NodeId src, NodeId o);
  /// Marks `victim`'s frame at every receiver that senses `interferer` and
  /// decodes `victim`, unless capture saves the copy there.
  void mark_interference(NodeId victim, NodeId interferer);
  /// Received power of CSR link `k` (from -> to) of the row set `power`
  /// caches: the cached entry, or fill_power's answer on first read.
  double link_power(const std::vector<double>& power, std::uint32_t k,
                    NodeId from, NodeId to);
  /// Asks the model for from -> to and caches the answer in the link's
  /// sense-row and decode-row entries, whichever exist.
  double fill_power(NodeId from, NodeId to);
  void end_transmission(NodeId src, std::uint64_t tx_id);

  /// Fills `sense`/`decode` (n rows of words_per_tx_ words): bit o of row
  /// s is set when o senses / decodes s.
  void build_link_rows(std::vector<std::uint64_t>& sense,
                       std::vector<std::uint64_t>& decode) const;
  /// Builds the peer CSR from the link rows; may transpose `sense` in place.
  void build_peer_index(std::vector<std::uint64_t>& sense,
                        const std::vector<std::uint64_t>& decode);

  std::uint64_t* corrupt_words(NodeId tx_src) {
    return corrupt_.data() + static_cast<std::size_t>(tx_src) * words_per_tx_;
  }
  /// Bit r of source s's decode mask: r can decode s's frames.
  bool decode_bit(NodeId s, NodeId r) const {
    return (dec_mask_[static_cast<std::size_t>(s) * words_per_tx_ +
                      (static_cast<std::size_t>(r) >> 6)] >>
            (static_cast<unsigned>(r) & 63u)) &
           1u;
  }

  // CSR row [off[s], off[s+1]) of `ids`.
  const NodeId* row_begin(const std::vector<std::uint32_t>& off,
                          const std::vector<NodeId>& ids, NodeId s) const {
    return ids.data() + off[static_cast<std::size_t>(s)];
  }
  const NodeId* row_end(const std::vector<std::uint32_t>& off,
                        const std::vector<NodeId>& ids, NodeId s) const {
    return ids.data() + off[static_cast<std::size_t>(s) + 1];
  }

  sim::Simulator& sim_;
  const PropagationModel& propagation_;

  // Hot per-node state, structure-of-arrays: the carrier-sense cascade
  // touches sensed_count_ for a contiguous run of neighbours without
  // dragging positions/adjacency bookkeeping through the cache.
  std::vector<Vec2> positions_;
  std::vector<MediumClient*> clients_;
  std::vector<std::int32_t> sensed_count_;  // audible active tx (not own)
  std::vector<std::uint8_t> transmitting_;
  // Per-node airtime integrals (see node_airtime); sized at finalize().
  std::vector<std::int64_t> busy_ns_;
  std::vector<std::int64_t> idle_ns_;
  std::vector<sim::Time> last_sense_change_;
  sim::Time airtime_epoch_ = sim::Time::zero();

  // Adjacency in CSR form, rows ascending (identical iteration order to the
  // per-node vectors this replaced — callback order is behaviour).
  std::vector<std::uint32_t> aud_off_;  // audible_at: nodes that sense s
  std::vector<NodeId> aud_ids_;
  std::vector<std::uint32_t> dec_off_;  // decodable_at: nodes that decode s
  std::vector<NodeId> dec_ids_;

  // Marking index (built at finalize):
  //  * peer CSR — sources whose concurrent transmission could observably
  //    interact with s's (see build_peer_index for the four conditions);
  //  * dec_mask_ — per-source receiver bitmask (the decode bit rows the
  //    dec CSR is read from), for O(1) "would this mark ever be read?"
  //    filtering.
  std::vector<std::uint32_t> peer_off_;
  std::vector<NodeId> peer_ids_;
  std::vector<std::uint64_t> dec_mask_;

  // Capture's received powers, one per CSR link, parallel to aud_ids_ /
  // dec_ids_: entry k of aud_power_ is rx_power(s -> aud_ids_[k]) for the
  // s whose row holds k. Sized by the first marking pair with capture on,
  // so set-up-only uses never allocate them; NaN until first read.
  std::vector<double> aud_power_;
  std::vector<double> dec_power_;

  std::vector<TxSlot> tx_slots_;  // one per node, sized at finalize()
  std::vector<NodeId> active_;    // sources in flight (swap-removed, unordered)
  /// Flat corruption marks, sized once at finalize(): bit `r` of the
  /// `words_per_tx_` words at corrupt_words(src) means receiver r's copy
  /// of src's current frame is lost. Cleared when src's slot is reused.
  std::vector<std::uint64_t> corrupt_;
  std::vector<std::uint64_t> scratch_corrupt_;  // delivery-time snapshot
  std::size_t words_per_tx_ = 0;
  bool finalized_ = false;
  double capture_ratio_ = 0.0;  // <= 0: no capture
  bool last_start_slot_committed_ = false;
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t tx_started_ = 0;
  std::uint64_t tx_ended_ = 0;
  std::uint64_t corrupt_deliveries_ = 0;
  std::uint64_t pairs_scanned_ = 0;
  std::uint64_t interference_checks_ = 0;
};

}  // namespace wlan::phy
