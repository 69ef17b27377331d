// Propagation models: who can carrier-sense whom, and who can decode whom.
//
// The paper configures ns-3 so that decoding works up to 16 units and
// sensing up to 24 units (Table I thresholds); hidden nodes are pairs more
// than 24 units apart. DiscPropagation models exactly that. ExplicitGraph
// lets tests construct precise hidden-node configurations (e.g. the
// shadowed-obstacle case from Section I) independent of geometry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "phy/geometry.hpp"

namespace wlan::phy {

/// Both predicates of one ordered pair (see PropagationModel::link).
struct Link {
  bool sense = false;
  bool decode = false;
};

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  /// True if a transmission from `from` is detectable (energy above the CCA
  /// threshold) at `to`. Interference uses the same predicate.
  virtual bool can_sense(const Vec2& from, const Vec2& to) const = 0;

  /// True if a frame from `from` is decodable at `to` absent interference.
  virtual bool can_decode(const Vec2& from, const Vec2& to) const = 0;

  /// can_sense and can_decode of one ordered pair from one call: phy::Medium
  /// builds its adjacency through this. An override must return exactly
  /// the two predicates; the default calls them.
  virtual Link link(const Vec2& from, const Vec2& to) const {
    return {can_sense(from, to), can_decode(from, to)};
  }

  /// True when link(a, b) == link(b, a) for every pair of positions; the
  /// Medium then evaluates each unordered pair once. Default: no claim.
  virtual bool symmetric() const { return false; }

  /// Relative received power of a transmission from `from` at `to`
  /// (arbitrary linear units; only ratios matter — used by the optional
  /// capture model). Default: all links equally strong, which makes
  /// capture impossible for any threshold > 1.
  virtual double rx_power(const Vec2& from, const Vec2& to) const;

  /// Upper bound on the distance at which can_sense or can_decode can be
  /// true; <= 0 means "no bound known". When a bound exists, phy::Medium
  /// builds its adjacency through a spatial index instead
  /// of testing every node pair — the adjacency itself is identical either
  /// way (candidates are filtered by the exact predicates).
  virtual double max_range() const { return 0.0; }
};

/// Hard-threshold discs: sense iff distance <= sense_radius, decode iff
/// distance <= decode_radius. This is the paper's model (16 / 24 units).
class DiscPropagation final : public PropagationModel {
 public:
  DiscPropagation(double decode_radius, double sense_radius,
                  double path_loss_exponent = 3.5);

  bool can_sense(const Vec2& from, const Vec2& to) const override;
  bool can_decode(const Vec2& from, const Vec2& to) const override;
  /// One distance, the same two `<=` comparisons.
  Link link(const Vec2& from, const Vec2& to) const override;
  bool symmetric() const override { return true; }

  /// Log-distance power law: (1 + d)^(-path_loss_exponent). The +1 keeps
  /// zero-distance links finite; only ratios matter.
  double rx_power(const Vec2& from, const Vec2& to) const override;

  double max_range() const override {
    return decode_radius_ > sense_radius_ ? decode_radius_ : sense_radius_;
  }

  double decode_radius() const { return decode_radius_; }
  double sense_radius() const { return sense_radius_; }

 private:
  double decode_radius_;
  double sense_radius_;
  double path_loss_exponent_;
};

/// Disc propagation plus obstacle shadowing (Section I: "obstacles may
/// cause strong shadowing between nodes ... even though the receiver would
/// be capable of decoding the data from both the nodes, the nodes will not
/// be able to sense each other's transmissions"). Each unordered station
/// pair is independently shadowed with probability `shadow_probability`
/// (deterministic given the seed and the pair's positions); a shadowed pair
/// can neither sense nor decode each other. Links involving any of the
/// protected positions (every cell's AP) are never shadowed, so
/// infrastructure connectivity is preserved while hidden pairs appear at
/// ANY distance — hidden nodes that the sensing-radius heuristic (Section
/// I's "sense radius = 2x transmit radius") cannot eliminate.
class ShadowedDisc final : public PropagationModel {
 public:
  ShadowedDisc(double decode_radius, double sense_radius,
               double shadow_probability, std::uint64_t seed,
               std::vector<Vec2> protected_positions);

  bool can_sense(const Vec2& from, const Vec2& to) const override;
  bool can_decode(const Vec2& from, const Vec2& to) const override;
  /// The disc link, then the shadowing hash only when the disc admits one.
  Link link(const Vec2& from, const Vec2& to) const override;
  /// Distance and the pair hash are both order-free.
  bool symmetric() const override { return true; }
  double rx_power(const Vec2& from, const Vec2& to) const override;
  /// Shadowing only removes links, so the disc bound still holds.
  double max_range() const override { return base_.max_range(); }

  /// True when the (unordered) pair is blocked by an obstacle.
  bool shadowed(const Vec2& a, const Vec2& b) const;

 private:
  DiscPropagation base_;
  double shadow_probability_;
  std::uint64_t seed_;
  std::vector<Vec2> protected_;
};

/// Position-independent model driven by explicit adjacency matrices, indexed
/// by node id order of registration. Used to build exact topologies in tests
/// (including asymmetric links and shadowed pairs).
class ExplicitGraph final : public PropagationModel {
 public:
  /// `sense[i][j]` — node j senses node i's transmissions.
  /// `decode[i][j]` — node j decodes node i's transmissions.
  /// Diagonals are ignored by the Medium (nodes do not sense themselves).
  ExplicitGraph(std::vector<std::vector<bool>> sense,
                std::vector<std::vector<bool>> decode);

  bool can_sense(const Vec2& from, const Vec2& to) const override;
  bool can_decode(const Vec2& from, const Vec2& to) const override;

  std::size_t size() const { return sense_.size(); }

 private:
  // ExplicitGraph identifies nodes by synthetic positions: node i is placed
  // at (i, 0) by convention; lookups recover the index from x.
  std::size_t index_of(const Vec2& v) const;

  std::vector<std::vector<bool>> sense_;
  std::vector<std::vector<bool>> decode_;
};

/// Synthetic position for node `i` when using ExplicitGraph.
inline Vec2 graph_position(std::size_t i) {
  return Vec2{static_cast<double>(i), 0.0};
}

}  // namespace wlan::phy
