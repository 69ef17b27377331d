#include "phy/propagation.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace wlan::phy {

namespace {
/// One splitmix64-style avalanche round (stateless).
std::uint64_t splitmix_step(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

double PropagationModel::rx_power(const Vec2&, const Vec2&) const {
  return 1.0;
}

DiscPropagation::DiscPropagation(double decode_radius, double sense_radius,
                                 double path_loss_exponent)
    : decode_radius_(decode_radius),
      sense_radius_(sense_radius),
      path_loss_exponent_(path_loss_exponent) {
  if (decode_radius < 0 || sense_radius < 0)
    throw std::invalid_argument("DiscPropagation: negative radius");
  if (path_loss_exponent <= 0)
    throw std::invalid_argument("DiscPropagation: non-positive exponent");
}

double DiscPropagation::rx_power(const Vec2& from, const Vec2& to) const {
  return std::pow(1.0 + distance(from, to), -path_loss_exponent_);
}

bool DiscPropagation::can_sense(const Vec2& from, const Vec2& to) const {
  return distance(from, to) <= sense_radius_;
}

bool DiscPropagation::can_decode(const Vec2& from, const Vec2& to) const {
  return distance(from, to) <= decode_radius_;
}

Link DiscPropagation::link(const Vec2& from, const Vec2& to) const {
  const double d = distance(from, to);
  return {d <= sense_radius_, d <= decode_radius_};
}

namespace {

std::uint64_t hash_double(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

ShadowedDisc::ShadowedDisc(double decode_radius, double sense_radius,
                           double shadow_probability, std::uint64_t seed,
                           std::vector<Vec2> protected_positions)
    : base_(decode_radius, sense_radius),
      shadow_probability_(shadow_probability),
      seed_(seed),
      protected_(std::move(protected_positions)) {
  if (shadow_probability < 0.0 || shadow_probability > 1.0)
    throw std::invalid_argument("ShadowedDisc: probability outside [0,1]");
}

bool ShadowedDisc::shadowed(const Vec2& a, const Vec2& b) const {
  for (const Vec2& p : protected_)
    if (a == p || b == p) return false;
  // Symmetric, deterministic per (seed, unordered pair): order the
  // endpoints lexicographically and hash their coordinate bit patterns.
  const Vec2* lo = &a;
  const Vec2* hi = &b;
  if (b.x < a.x || (b.x == a.x && b.y < a.y)) std::swap(lo, hi);
  std::uint64_t state = seed_ ^ 0x5eed5eed5eed5eedULL;
  state ^= splitmix_step(hash_double(lo->x));
  state ^= splitmix_step(hash_double(lo->y) * 3);
  state ^= splitmix_step(hash_double(hi->x) * 5);
  state ^= splitmix_step(hash_double(hi->y) * 7);
  const double u =
      static_cast<double>(splitmix_step(state) >> 11) * 0x1.0p-53;
  return u < shadow_probability_;
}

bool ShadowedDisc::can_sense(const Vec2& from, const Vec2& to) const {
  return base_.can_sense(from, to) && !shadowed(from, to);
}

bool ShadowedDisc::can_decode(const Vec2& from, const Vec2& to) const {
  return base_.can_decode(from, to) && !shadowed(from, to);
}

Link ShadowedDisc::link(const Vec2& from, const Vec2& to) const {
  const Link disc = base_.link(from, to);
  if ((disc.sense || disc.decode) && shadowed(from, to)) return {};
  return disc;
}

double ShadowedDisc::rx_power(const Vec2& from, const Vec2& to) const {
  return shadowed(from, to) ? 0.0 : base_.rx_power(from, to);
}

ExplicitGraph::ExplicitGraph(std::vector<std::vector<bool>> sense,
                             std::vector<std::vector<bool>> decode)
    : sense_(std::move(sense)), decode_(std::move(decode)) {
  if (sense_.size() != decode_.size())
    throw std::invalid_argument("ExplicitGraph: matrix size mismatch");
  for (std::size_t i = 0; i < sense_.size(); ++i) {
    if (sense_[i].size() != sense_.size() || decode_[i].size() != sense_.size())
      throw std::invalid_argument("ExplicitGraph: matrices must be square");
  }
}

std::size_t ExplicitGraph::index_of(const Vec2& v) const {
  const auto i = static_cast<std::size_t>(std::llround(v.x));
  if (i >= sense_.size())
    throw std::out_of_range("ExplicitGraph: position is not a graph_position");
  return i;
}

bool ExplicitGraph::can_sense(const Vec2& from, const Vec2& to) const {
  return sense_[index_of(from)][index_of(to)];
}

bool ExplicitGraph::can_decode(const Vec2& from, const Vec2& to) const {
  return decode_[index_of(from)][index_of(to)];
}

}  // namespace wlan::phy
