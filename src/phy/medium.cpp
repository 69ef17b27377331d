#include "phy/medium.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"
#include "topology/spatial_grid.hpp"

namespace wlan::phy {

namespace {
// An unfilled power-cache entry. A received power is never NaN; a model
// that returned one anyway would only be asked again, never misread.
constexpr double kUnfilled = std::numeric_limits<double>::quiet_NaN();

void set_bit(std::uint64_t* row, std::size_t i) {
  row[i >> 6] |= std::uint64_t{1} << (i & 63u);
}

/// Transposes a 64x64 bit block in place: bit j of a[i] <-> bit i of a[j].
/// Each round swaps the off-diagonal j x j sub-blocks of every 2j x 2j
/// block (j = 32, 16, ..., 1); `m` selects the low j columns of each.
void transpose64(std::uint64_t* a) {
  std::uint64_t m = 0x00000000ffffffffULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// Transposes the n x n bit matrix `bits` (n rows of w words) in place, by
/// 64 x 64 blocks. Rows past n are absent; their bits, and the columns past
/// n, are zero, so the blocks are padded with zero rows. All-zero block
/// pairs (most of a sparse ESS) are skipped.
void transpose_bits(std::vector<std::uint64_t>& bits, std::size_t n,
                    std::size_t w) {
  std::uint64_t a[64], b[64];
  const auto load = [&](std::uint64_t* blk, std::size_t rb, std::size_t word) {
    const std::size_t rows = std::min<std::size_t>(64, n - rb * 64);
    std::uint64_t any = 0;
    for (std::size_t r = 0; r < rows; ++r)
      any |= blk[r] = bits[(rb * 64 + r) * w + word];
    std::fill(blk + rows, blk + 64, std::uint64_t{0});
    return any != 0;
  };
  const auto store = [&](const std::uint64_t* blk, std::size_t rb,
                         std::size_t word) {
    const std::size_t rows = std::min<std::size_t>(64, n - rb * 64);
    for (std::size_t r = 0; r < rows; ++r)
      bits[(rb * 64 + r) * w + word] = blk[r];
  };
  for (std::size_t i = 0; i < w; ++i) {
    if (load(a, i, i)) {
      transpose64(a);
      store(a, i, i);
    }
    for (std::size_t j = i + 1; j < w; ++j) {
      if (!(load(a, i, j) | load(b, j, i))) continue;
      transpose64(a);
      transpose64(b);
      store(a, j, i);
      store(b, i, j);
    }
  }
}

/// Set bits in `n` words. Zero words are skipped: without a popcount
/// instruction in the baseline ISA std::popcount is a library call, and
/// sparse rows are mostly zero words.
std::size_t count_bits(const std::uint64_t* words, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (words[i] != 0)
      count += static_cast<std::size_t>(std::popcount(words[i]));
  return count;
}

/// Writes the indices of the set bits of `row` (w words) to `out`,
/// ascending.
void write_bits(const std::uint64_t* row, std::size_t w, NodeId* out) {
  for (std::size_t i = 0; i < w; ++i) {
    for (std::uint64_t bits = row[i]; bits != 0; bits &= bits - 1)
      *out++ = static_cast<NodeId>(
          i * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  }
}

/// Indices of the nonzero words of each of n bit rows of w words, as CSR.
struct NonzeroWords {
  std::vector<std::uint32_t> off, idx;
  NonzeroWords(const std::vector<std::uint64_t>& bits, std::size_t n,
               std::size_t w)
      : off(n + 1, 0) {
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t i = 0; i < w; ++i)
        if (bits[s * w + i] != 0) idx.push_back(static_cast<std::uint32_t>(i));
      off[s + 1] = static_cast<std::uint32_t>(idx.size());
    }
  }
};

/// Reads n bit rows of w words out as CSR rows: counts first, so `ids` is
/// allocated once at its exact size.
void read_rows(const std::vector<std::uint64_t>& bits, std::size_t n,
               std::size_t w, std::vector<std::uint32_t>& off,
               std::vector<NodeId>& ids) {
  off.assign(n + 1, 0);
  for (std::size_t s = 0; s < n; ++s)
    off[s + 1] =
        off[s] + static_cast<std::uint32_t>(count_bits(bits.data() + s * w, w));
  ids.assign(off[n], 0);
  for (std::size_t s = 0; s < n; ++s)
    write_bits(bits.data() + s * w, w, ids.data() + off[s]);
}
}  // namespace

Medium::Medium(sim::Simulator& simulator, const PropagationModel& propagation)
    : sim_(simulator), propagation_(propagation) {}

NodeId Medium::add_node(const Vec2& position) {
  if (finalized_) throw std::logic_error("Medium: add_node after finalize()");
  positions_.push_back(position);
  clients_.push_back(nullptr);
  sensed_count_.push_back(0);
  transmitting_.push_back(0);
  return static_cast<NodeId>(positions_.size() - 1);
}

NodeId Medium::add_node(const Vec2& position, MediumClient& client) {
  const NodeId id = add_node(position);
  clients_[static_cast<std::size_t>(id)] = &client;
  return id;
}

void Medium::bind_client(NodeId n, MediumClient& client) {
  if (finalized_)
    throw std::logic_error("Medium: bind_client after finalize()");
  if (n < 0 || static_cast<std::size_t>(n) >= positions_.size())
    throw std::out_of_range("Medium: bind_client of unknown node");
  clients_[static_cast<std::size_t>(n)] = &client;
}

void Medium::set_capture_ratio(double ratio) {
  if (finalized_)
    throw std::logic_error("Medium: set_capture_ratio after finalize()");
  capture_ratio_ = ratio;
}

void Medium::build_link_rows(std::vector<std::uint64_t>& sense,
                             std::vector<std::uint64_t>& decode) const {
  // One propagation call per ordered pair, or per unordered pair when the
  // model is symmetric (both directions' bits from the one answer).
  const std::size_t n = positions_.size();
  const std::size_t w = words_per_tx_;
  sense.assign(n * w, 0);
  decode.assign(n * w, 0);
  const bool symmetric = propagation_.symmetric();
  const auto evaluate = [&](std::size_t s, std::size_t o) {
    const Link l = propagation_.link(positions_[s], positions_[o]);
    if (l.sense) {
      set_bit(sense.data() + s * w, o);
      if (symmetric) set_bit(sense.data() + o * w, s);
    }
    if (l.decode) {
      set_bit(decode.data() + s * w, o);
      if (symmetric) set_bit(decode.data() + o * w, s);
    }
  };

  const double range = propagation_.max_range();
  if (range > 0.0 && n >= kGridBuildMin) {
    // Bounded-range model: candidates come from a spatial grid instead of
    // all n-1 others. The grid's distance test is order-free, so o is a
    // candidate of s exactly when s is one of o; every linked pair is a
    // candidate pair, and the bits equal the all-pairs pass's.
    topology::SpatialGrid grid;
    grid.build(positions_, range);
    std::vector<int> cand;
    for (std::size_t s = 0; s < n; ++s) {
      grid.query_within(positions_[s], range, cand);
      for (const int c : cand) {
        const auto o = static_cast<std::size_t>(c);
        if (symmetric ? o > s : o != s) evaluate(s, o);
      }
    }
    return;
  }
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t o = symmetric ? s + 1 : 0; o < n; ++o)
      if (o != s) evaluate(s, o);
}

void Medium::build_peer_index(std::vector<std::uint64_t>& sense,
                              const std::vector<std::uint64_t>& decode) {
  // o is an interference peer of s iff a transmission from o overlapping
  // one from s can change an OBSERVABLE reception, i.e. set a corruption
  // bit that delivery reads. Delivery of s's frame reads exactly the bits
  // of r in D(s) (= decodable_at(s)); symmetrically for o. Walking the
  // marking rules:
  //   cond1b  o in D(s)            — half-duplex mark on s's frame at o
  //   cond1a  s in D(o)            — half-duplex mark on o's frame at s
  //   cond2   A(s) ∩ D(o) != {}    — r hears s AND r decodes o
  //   cond3   A(o) ∩ D(s) != {}    — r hears o AND r decodes s
  // The relation is symmetric (1a/1b and 2/3 swap under s<->o). With
  // revD(r) = {o : r ∈ D(o)} and revA(r) = {o : r ∈ A(o)}:
  //   peers(s) = D(s) ∪ revD(s) ∪ (∪_{r∈A(s)} revD(r)) ∪ (∪_{r∈D(s)} revA(r))
  // `sense` and `decode` hold A and D as bit rows and their transposes are
  // revA and revD, so a row is a word-parallel OR of a few rows, read out
  // ascending.
  const std::size_t n = positions_.size();
  peer_off_.assign(n + 1, 0);
  peer_ids_.clear();
  if (n == 0) return;

  // A symmetric model's rows were filled both ways from one answer per
  // pair, so they are their own transposes. Otherwise `sense` is
  // transposed in place (the CSR rows already hold A) and revD is one more
  // bit matrix.
  const std::size_t w = words_per_tx_;
  const bool symmetric = propagation_.symmetric();
  std::vector<std::uint64_t> decode_t;
  if (!symmetric) {
    transpose_bits(sense, n, w);
    decode_t = decode;
    transpose_bits(decode_t, n, w);
  }
  const std::vector<std::uint64_t>& rev_aud = sense;
  const std::vector<std::uint64_t>& rev_dec = symmetric ? decode : decode_t;
  // The ORs touch only a reverse row's nonzero words: in an ESS that is a
  // few of the ⌈n/64⌉ (the AP's word and the cell's).
  const NonzeroWords aud_words(rev_aud, n, w), dec_words(rev_dec, n, w);

  // The row carries its padding bits (past n) set, so once an OR leaves
  // every word all ones, every node is a peer and the rest are skipped. The
  // test stops at the first word that is not full: word 0 of a sparse row.
  // (The direct bits alone never fill a row: neither holds bit s.)
  const std::uint64_t pad =
      n % 64 == 0 ? 0 : ~std::uint64_t{0} << (n % 64);
  std::vector<std::uint64_t> row(w);
  const auto or_row = [&](const std::vector<std::uint64_t>& rev,
                          const NonzeroWords& words, NodeId r) {
    const auto ri = static_cast<std::size_t>(r);
    const std::uint64_t* src = rev.data() + ri * w;
    for (std::uint32_t k = words.off[ri]; k < words.off[ri + 1]; ++k)
      row[words.idx[k]] |= src[words.idx[k]];
    return std::all_of(row.begin(), row.end(),
                       [](std::uint64_t x) { return x == ~std::uint64_t{0}; });
  };
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint64_t* d = decode.data() + s * w;
    const std::uint64_t* rd = rev_dec.data() + s * w;
    for (std::size_t i = 0; i < w; ++i) row[i] = d[i] | rd[i];  // 1b, 1a
    row[w - 1] |= pad;
    bool done = false;
    for (std::uint32_t k = dec_off_[s]; !done && k < dec_off_[s + 1]; ++k)
      done = or_row(rev_aud, aud_words, dec_ids_[k]);  // cond3
    for (std::uint32_t k = aud_off_[s]; !done && k < aud_off_[s + 1]; ++k)
      done = or_row(rev_dec, dec_words, aud_ids_[k]);  // cond2
    row[w - 1] &= ~pad;
    row[s >> 6] &= ~(std::uint64_t{1} << (s & 63u));
    const std::size_t at = peer_ids_.size();
    peer_ids_.resize(at + count_bits(row.data(), w));
    write_bits(row.data(), w, peer_ids_.data() + at);
    peer_off_[s + 1] = static_cast<std::uint32_t>(peer_ids_.size());
  }
}

void Medium::finalize() {
  if (finalized_) throw std::logic_error("Medium: finalize() called twice");
  for (const MediumClient* c : clients_)
    if (c == nullptr)
      throw std::logic_error("Medium: finalize() with unbound client");
  finalized_ = true;

  // The sense and decode relations as bit rows (bit o of row s: o senses /
  // decodes s), from one pass over the node pairs. The CSR rows are read
  // out of them, the peer index is built from them, and the decode rows
  // are kept as the decode mask; everything else is freed on return.
  const std::size_t n = positions_.size();
  words_per_tx_ = (n + 63) / 64;
  std::vector<std::uint64_t> sense, decode;
  build_link_rows(sense, decode);
  read_rows(sense, n, words_per_tx_, aud_off_, aud_ids_);
  read_rows(decode, n, words_per_tx_, dec_off_, dec_ids_);
  build_peer_index(sense, decode);
  dec_mask_ = std::move(decode);

  // All per-transmission state is sized once here and reused across every
  // transmission lifetime: one TxSlot per node plus one flat block of
  // corruption-mark bits per (source, receiver) pair.
  tx_slots_.assign(n, TxSlot{});
  corrupt_.assign(n * words_per_tx_, 0);
  scratch_corrupt_.assign(words_per_tx_, 0);
  active_.reserve(n);

  airtime_epoch_ = sim_.now();
  busy_ns_.assign(n, 0);
  idle_ns_.assign(n, 0);
  last_sense_change_.assign(n, airtime_epoch_);
}

Medium::NodeAirtime Medium::node_airtime(NodeId n, sim::Time now) const {
  const auto i = static_cast<std::size_t>(n);
  NodeAirtime a{busy_ns_[i], idle_ns_[i]};
  const std::int64_t open = (now - last_sense_change_[i]).ns();
  if (sensed_count_[i] > 0)
    a.busy_ns += open;
  else
    a.idle_ns += open;
  return a;
}

bool Medium::is_busy_for(NodeId n) const {
  return sensed_count_[static_cast<std::size_t>(n)] > 0;
}

bool Medium::is_transmitting(NodeId n) const {
  return transmitting_[static_cast<std::size_t>(n)] != 0;
}

bool Medium::senses(NodeId source, NodeId observer) const {
  const auto row = audible_at(source);
  return std::binary_search(row.begin(), row.end(), observer);
}

bool Medium::decodes(NodeId source, NodeId observer) const {
  const auto row = decodable_at(source);
  return std::binary_search(row.begin(), row.end(), observer);
}

std::span<const std::uint64_t> Medium::decode_mask(NodeId source) const {
  return {dec_mask_.data() + static_cast<std::size_t>(source) * words_per_tx_,
          words_per_tx_};
}

std::size_t Medium::hidden_pairs(NodeId first) const {
  // Hidden = C(m, 2) minus the mutually sensing pairs, each counted once
  // from the row of its lower id. A symmetric model's rows were filled
  // both ways from one answer per pair, so every link there is mutual.
  const std::size_t n = positions_.size();
  const auto f = static_cast<std::size_t>(first);
  if (f >= n) return 0;
  const bool symmetric = propagation_.symmetric();
  std::size_t mutual = 0;
  for (NodeId s = first; static_cast<std::size_t>(s) < n; ++s) {
    const auto row = audible_at(s);
    auto p = std::upper_bound(row.begin(), row.end(), s);
    if (symmetric) {
      mutual += static_cast<std::size_t>(row.end() - p);
      continue;
    }
    for (; p != row.end(); ++p) mutual += senses(*p, s) ? 1 : 0;
  }
  const std::size_t m = n - f;
  return m * (m - 1) / 2 - mutual;
}

std::vector<NodeId> Medium::interference_peers(NodeId s) const {
  return std::vector<NodeId>(row_begin(peer_off_, peer_ids_, s),
                             row_end(peer_off_, peer_ids_, s));
}

void Medium::mark_corrupt(NodeId tx_src, NodeId receiver) {
  assert(receiver != tx_src);  // no source decodes itself
  // kCatMark, not kCatMedium: the profiler's marking bucket. Mark volume
  // is a marking detail (the decode mask skips unread marks), not part of
  // the medium's observable record.
  WLAN_OBS_POINT(sim_, obs::kCatMark, obs::ev::kMarkCorrupt, receiver, tx_src,
                 0);
  corrupt_words(tx_src)[static_cast<std::size_t>(receiver) >> 6] |=
      std::uint64_t{1} << (static_cast<unsigned>(receiver) & 63u);
}

// Mutual-corruption bookkeeping for the pair (new tx from `src`, in-flight
// tx from `o`):
//  * each source is a dead receiver for the other frame (half-duplex),
//    capture or not;
//  * every receiver audible to either source has that source's frame as a
//    (capture-aware) interferer of the other.
// Every mark is pre-filtered by the decode mask: a mark on source f's frame
// at receiver r is only ever READ by delivery when r is in D(f), so marks
// failing that test can be skipped without changing any delivered `clean`
// flag. Mark order is irrelevant — marking only sets per-receiver bits.
void Medium::mark_pair(NodeId src, NodeId o) {
  if (decode_bit(o, src)) mark_corrupt(o, src);
  if (decode_bit(src, o)) mark_corrupt(src, o);
  mark_interference(o, src);
  mark_interference(src, o);
}

void Medium::mark_interference(NodeId victim, NodeId interferer) {
  const auto ii = static_cast<std::size_t>(interferer);
  const std::uint32_t end = aud_off_[ii + 1];
  if (capture_ratio_ <= 0.0) {
    for (std::uint32_t k = aud_off_[ii]; k < end; ++k) {
      if (!decode_bit(victim, aud_ids_[k])) continue;
      ++interference_checks_;
      mark_corrupt(victim, aud_ids_[k]);
    }
    return;
  }
  if (aud_power_.size() != aud_ids_.size()) {
    aud_power_.assign(aud_ids_.size(), kUnfilled);
    dec_power_.assign(dec_ids_.size(), kUnfilled);
  }
  // The interferer's power at r is entry k of its own sense row. r decodes
  // the victim, so it is in the victim's ascending decode row too: that
  // row is walked alongside this ascending one to r's entry.
  std::uint32_t d = dec_off_[static_cast<std::size_t>(victim)];
  for (std::uint32_t k = aud_off_[ii]; k < end; ++k) {
    const NodeId r = aud_ids_[k];
    if (!decode_bit(victim, r)) continue;
    ++interference_checks_;
    while (dec_ids_[d] != r) ++d;
    const double wanted = link_power(dec_power_, d, victim, r);
    const double noise = link_power(aud_power_, k, interferer, r);
    if (wanted >= capture_ratio_ * noise) continue;  // captured: copy survives
    mark_corrupt(victim, r);
  }
}

double Medium::link_power(const std::vector<double>& power, std::uint32_t k,
                          NodeId from, NodeId to) {
  const double p = power[k];
  return std::isnan(p) ? fill_power(from, to) : p;
}

double Medium::fill_power(NodeId from, NodeId to) {
  // A pair that both senses and decodes has an entry in each row set; one
  // model call fills both, so each ordered pair is asked at most once.
  const double p = propagation_.rx_power(position(from), position(to));
  const auto fill = [&](const std::vector<std::uint32_t>& off,
                        const std::vector<NodeId>& ids,
                        std::vector<double>& power) {
    const NodeId* b = row_begin(off, ids, from);
    const NodeId* e = row_end(off, ids, from);
    const NodeId* at = std::lower_bound(b, e, to);
    if (at != e && *at == to)
      power[static_cast<std::size_t>(at - ids.data())] = p;
  };
  fill(aud_off_, aud_ids_, aud_power_);
  fill(dec_off_, dec_ids_, dec_power_);
  return p;
}

void Medium::start_transmission(NodeId src, const Frame& frame,
                                sim::Duration airtime, bool slot_committed) {
  if (!finalized_) throw std::logic_error("Medium: not finalized");
  last_start_slot_committed_ = slot_committed;
  const auto si = static_cast<std::size_t>(src);
  if (transmitting_[si])
    throw std::logic_error("Medium: node already transmitting");
  assert(frame.src == src);
  assert(airtime > sim::Duration::zero());

  const sim::Time start = sim_.now();
  const sim::Time end = start + airtime;
  const std::uint64_t id = next_tx_id_++;
  ++tx_started_;
  WLAN_OBS_POINT(sim_, obs::kCatMedium, obs::ev::kTxStart, src,
                 obs::pack_frame_detail(static_cast<unsigned>(frame.kind),
                                        frame.dst, frame.seq),
                 airtime.ns());

  // Reuse this node's pooled slot: overwrite the previous occupant in
  // place and reset its corruption marks.
  TxSlot& tx = tx_slots_[si];
  tx.id = id;
  tx.end = end;
  tx.frame = frame;
  std::fill_n(corrupt_words(src), words_per_tx_, std::uint64_t{0});

  // Interference marking against transmissions already in flight.
  // Transmissions are half-open intervals [start, end): one that ends
  // exactly now does not overlap us, even if its end event has not fired
  // yet (event ordering at equal timestamps is insertion order). Only
  // peers can observably interact (see build_peer_index); in-flight
  // non-peers are skipped without even a timestamp load.
  {
    const NodeId* e = row_end(peer_off_, peer_ids_, src);
    for (const NodeId* p = row_begin(peer_off_, peer_ids_, src); p != e; ++p) {
      const NodeId o = *p;
      if (!transmitting_[static_cast<std::size_t>(o)]) continue;
      ++pairs_scanned_;
      if (tx_slots_[static_cast<std::size_t>(o)].end <= start) continue;
      mark_pair(src, o);
    }
  }

  transmitting_[si] = 1;
  tx.active_pos = static_cast<std::uint32_t>(active_.size());
  active_.push_back(src);

  // Carrier-sense: every listener audible to us sees one more transmission.
  {
    const NodeId* e = row_end(aud_off_, aud_ids_, src);
    for (const NodeId* p = row_begin(aud_off_, aud_ids_, src); p != e; ++p) {
      const auto o = static_cast<std::size_t>(*p);
      if (++sensed_count_[o] == 1) {
        idle_ns_[o] += (start - last_sense_change_[o]).ns();
        last_sense_change_[o] = start;
        clients_[o]->on_channel_busy(start);
      }
    }
  }
  // The flag is only meaningful inside the synchronous busy cascade above;
  // drop it so a later out-of-cascade read gets the conservative answer.
  last_start_slot_committed_ = false;

  sim_.schedule_at(end, [this, src, id] { end_transmission(src, id); });
}

void Medium::end_transmission(NodeId src, std::uint64_t tx_id) {
  const auto si = static_cast<std::size_t>(src);
  TxSlot& tx = tx_slots_[si];
  assert(tx.id == tx_id && "transmission ended twice");
  (void)tx_id;

  // O(1) removal from the in-flight list via the slot's back-pointer.
  const std::uint32_t pos = tx.active_pos;
  const NodeId moved = active_.back();
  active_[pos] = moved;
  tx_slots_[static_cast<std::size_t>(moved)].active_pos = pos;
  active_.pop_back();
  tx.id = 0;

  transmitting_[si] = 0;
  ++tx_ended_;

  const sim::Time now = sim_.now();

  // Snapshot the frame and this slot's corruption marks into reusable
  // scratch storage: a delivery callback may start a new transmission from
  // this very source, which would overwrite the slot mid-loop.
  const Frame frame = tx.frame;
  std::copy_n(corrupt_words(src), words_per_tx_, scratch_corrupt_.begin());
  WLAN_OBS_POINT(sim_, obs::kCatMedium, obs::ev::kTxEnd, src,
                 obs::pack_frame_detail(static_cast<unsigned>(frame.kind),
                                        frame.dst, frame.seq),
                 0);

  // Promiscuous delivery to every receiver that can decode the source —
  // BEFORE the carrier-sense release, so that when the idle transition
  // fires a receiver already knows whether the ending busy period carried
  // an intelligible frame (the MAC's EIFS rule depends on this).
  {
    const NodeId* e = row_end(dec_off_, dec_ids_, src);
    for (const NodeId* p = row_begin(dec_off_, dec_ids_, src); p != e; ++p) {
      const auto r = static_cast<std::size_t>(*p);
      const bool clean =
          ((scratch_corrupt_[r >> 6] >> (r & 63u)) & 1u) == 0;
      if (!clean) ++corrupt_deliveries_;
      WLAN_OBS_POINT(sim_, obs::kCatMedium, obs::ev::kDeliver, r,
                     obs::pack_frame_detail(static_cast<unsigned>(frame.kind),
                                            frame.dst, frame.seq),
                     clean);
      clients_[r]->on_frame_received(frame, clean, now);
    }
  }

  const NodeId* e = row_end(aud_off_, aud_ids_, src);
  for (const NodeId* p = row_begin(aud_off_, aud_ids_, src); p != e; ++p) {
    const auto o = static_cast<std::size_t>(*p);
    assert(sensed_count_[o] > 0);
    if (--sensed_count_[o] == 0) {
      busy_ns_[o] += (now - last_sense_change_[o]).ns();
      last_sense_change_[o] = now;
      clients_[o]->on_channel_idle(now);
    }
  }
}

}  // namespace wlan::phy
