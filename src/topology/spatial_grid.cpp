#include "topology/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

namespace wlan::topology {

namespace {
// Upper bound on grid cells: beyond this the build coarsens the cell size.
// Purely a memory guard — query results are cell-size independent.
constexpr std::size_t kMaxCells = std::size_t{1} << 22;
}  // namespace

int SpatialGrid::cell_x(double x) const {
  const int c = static_cast<int>(std::floor((x - min_x_) / cell_));
  return std::clamp(c, 0, cols_ - 1);
}

int SpatialGrid::cell_y(double y) const {
  const int c = static_cast<int>(std::floor((y - min_y_) / cell_));
  return std::clamp(c, 0, rows_ - 1);
}

void SpatialGrid::build(const std::vector<phy::Vec2>& points,
                        double cell_size) {
  if (cell_size <= 0.0)
    throw std::invalid_argument("SpatialGrid: cell_size must be > 0");
  points_ = points;
  if (points_.empty()) {
    cols_ = rows_ = 0;
    offsets_.assign(1, 0);
    ids_.clear();
    return;
  }
  double max_x = points_[0].x, max_y = points_[0].y;
  min_x_ = points_[0].x;
  min_y_ = points_[0].y;
  for (const auto& p : points_) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  cell_ = cell_size;
  auto dims_for = [&](double cell) {
    const double w = std::max(max_x - min_x_, 0.0);
    const double h = std::max(max_y - min_y_, 0.0);
    return std::pair<int, int>{static_cast<int>(w / cell) + 1,
                               static_cast<int>(h / cell) + 1};
  };
  auto [cols, rows] = dims_for(cell_);
  while (static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows) >
         kMaxCells) {
    cell_ *= 2.0;
    std::tie(cols, rows) = dims_for(cell_);
  }
  cols_ = cols;
  rows_ = rows;

  // CSR fill in two passes; iterating ids ascending keeps every bucket's
  // id list ascending, which query_within's merge relies on.
  const std::size_t buckets =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  offsets_.assign(buckets + 1, 0);
  for (const auto& p : points_)
    ++offsets_[bucket(cell_x(p.x), cell_y(p.y)) + 1];
  for (std::size_t b = 1; b <= buckets; ++b) offsets_[b] += offsets_[b - 1];
  ids_.resize(points_.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (int i = 0; i < static_cast<int>(points_.size()); ++i) {
    const auto& p = points_[static_cast<std::size_t>(i)];
    ids_[cursor[bucket(cell_x(p.x), cell_y(p.y))]++] = i;
  }
}

void SpatialGrid::query_within(const phy::Vec2& center, double radius,
                               std::vector<int>& out) const {
  out.clear();
  if (points_.empty() || radius < 0.0) return;
  const double r2 = radius * radius;
  const int x0 = cell_x(center.x - radius), x1 = cell_x(center.x + radius);
  const int y0 = cell_y(center.y - radius), y1 = cell_y(center.y + radius);
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      const std::size_t b = bucket(cx, cy);
      for (std::size_t k = offsets_[b]; k < offsets_[b + 1]; ++k) {
        const int id = ids_[k];
        const phy::Vec2 d =
            points_[static_cast<std::size_t>(id)] - center;
        if (d.x * d.x + d.y * d.y <= r2) out.push_back(id);
      }
    }
  }
  // Buckets are visited row-major, so ids arrive sorted only per bucket.
  std::sort(out.begin(), out.end());
}

std::vector<int> SpatialGrid::query_within(const phy::Vec2& center,
                                           double radius) const {
  std::vector<int> out;
  query_within(center, radius, out);
  return out;
}

}  // namespace wlan::topology
