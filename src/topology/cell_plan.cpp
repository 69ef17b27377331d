#include "topology/cell_plan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "topology/placement.hpp"
#include "util/rng.hpp"

namespace wlan::topology {

std::vector<phy::Vec2> ap_grid(const CellPlanSpec& spec) {
  if (spec.cells < 1)
    throw std::invalid_argument("make_cell_plan: cells must be >= 1");
  if (spec.spacing <= 0.0)
    throw std::invalid_argument("make_cell_plan: spacing must be > 0");
  // Near-square, row-major, AP 0 at the origin (where a one-cell plan, the
  // single BSS, puts its AP).
  const int cols =
      spec.cols > 0
          ? spec.cols
          : static_cast<int>(std::ceil(std::sqrt(static_cast<double>(
                std::max(spec.cells, 1)))));
  std::vector<phy::Vec2> aps;
  aps.reserve(static_cast<std::size_t>(spec.cells));
  for (int c = 0; c < spec.cells; ++c) {
    aps.push_back(phy::Vec2{spec.spacing * (c % cols),
                            spec.spacing * (c / cols)});
  }
  return aps;
}

CellPlan make_cell_plan(const CellPlanSpec& spec, int num_stations,
                        std::uint64_t seed) {
  if (num_stations < 0)
    throw std::invalid_argument("make_cell_plan: negative num_stations");

  CellPlan plan;
  plan.aps = ap_grid(spec);

  // Stations: contiguous per-cell blocks, earlier cells absorb the
  // remainder. Uniform-disc draws come from ONE stream (0xD15C — the same
  // stream topology::uniform_disc seeds) consumed in placement order, so
  // cells == 1 reproduces the single-BSS placement draw-for-draw.
  util::Rng rng(seed, /*stream=*/0xD15C);
  plan.stations.reserve(static_cast<std::size_t>(num_stations));
  plan.placed_in.reserve(static_cast<std::size_t>(num_stations));
  const int base = spec.cells > 0 ? num_stations / spec.cells : 0;
  const int extra = spec.cells > 0 ? num_stations % spec.cells : 0;
  for (int c = 0; c < spec.cells; ++c) {
    const int count = base + (c < extra ? 1 : 0);
    Layout local;
    switch (spec.placement) {
      case CellPlacement::kCircleEdge:
        local = circle_edge(count, spec.cell_radius);
        break;
      case CellPlacement::kUniformDisc:
        local = uniform_disc(count, spec.cell_radius, rng);
        break;
    }
    for (const auto& p : local.stations) {
      plan.stations.push_back(p + plan.aps[static_cast<std::size_t>(c)]);
      plan.placed_in.push_back(c);
    }
  }

  // Nearest-AP association by squared distance; the strict < resolves
  // ties to the lowest cell id.
  plan.cell_of.reserve(plan.stations.size());
  for (const auto& p : plan.stations) {
    int best = 0;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < plan.aps.size(); ++c) {
      const phy::Vec2 d = plan.aps[c] - p;
      const double d2 = d.x * d.x + d.y * d.y;
      if (d2 < best_d2) {
        best_d2 = d2;
        best = static_cast<int>(c);
      }
    }
    plan.cell_of.push_back(best);
  }

  return plan;
}

}  // namespace wlan::topology
