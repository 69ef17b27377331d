// Uniform spatial hash grid over 2-D points: the index behind
// phy::Medium's adjacency build.
//
// The grid buckets points into square cells of a caller-chosen size and
// answers query_within — all point ids within a Euclidean radius,
// ascending — without scanning every point. It is exact (candidate cells
// are filtered by true distance), so results are independent of the cell
// size — tests/test_cell_plan.cpp pins them against brute force under
// randomized placements.
#pragma once

#include <cstddef>
#include <vector>

#include "phy/geometry.hpp"

namespace wlan::topology {

class SpatialGrid {
 public:
  SpatialGrid() = default;

  /// Indexes `points` with square cells of roughly `cell_size` (> 0). The
  /// grid is rebuilt from scratch; ids are indices into `points`. The cell
  /// count is capped (degenerate spans fall back to coarser cells), which
  /// never changes query results, only their cost.
  void build(const std::vector<phy::Vec2>& points, double cell_size);

  /// Appends the ids of all points with distance(point, center) <= radius
  /// to `out` in ascending id order (out is cleared first).
  void query_within(const phy::Vec2& center, double radius,
                    std::vector<int>& out) const;
  std::vector<int> query_within(const phy::Vec2& center,
                                double radius) const;

  std::size_t size() const { return points_.size(); }

 private:
  int cell_x(double x) const;
  int cell_y(double y) const;
  std::size_t bucket(int cx, int cy) const {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(cx);
  }

  std::vector<phy::Vec2> points_;
  double cell_ = 1.0;
  double min_x_ = 0.0, min_y_ = 0.0;
  int cols_ = 0, rows_ = 0;
  // CSR buckets: ids of bucket b are ids_[offsets_[b] .. offsets_[b+1]),
  // ascending within each bucket.
  std::vector<std::size_t> offsets_;
  std::vector<int> ids_;
};

}  // namespace wlan::topology
