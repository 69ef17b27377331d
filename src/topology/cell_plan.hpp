// Multi-cell (ESS) topology plan: many APs on a grid sharing one medium,
// each with its own population of stations, associated to the nearest AP.
//
// Every scenario is built from a plan; one cell is the single BSS:
//  * APs sit on a near-square grid with pitch `spacing`; AP 0 is at the
//    origin, the single BSS's AP.
//  * Stations are placed per cell (contiguous index blocks, cell 0 first)
//    around their cell's AP with the topology/placement.hpp generators —
//    from ONE RNG stream in placement order, so a one-cell uniform-disc
//    plan reproduces topology::uniform_disc bit-for-bit (the reduction
//    tests/test_medium_differential.cpp pins).
//  * Association is by nearest AP (ties: lowest cell id), a scan of the
//    AP list — total and unique by construction. With overlapping cells
//    (spacing < 2 * cell_radius) a station may associate with a
//    neighbouring cell's AP, exactly like a real ESS handover.
//
// Inter-cell interference needs no machinery of its own: all cells share
// the one phy::Medium, so stations of adjacent cells interact through the
// existing hidden/shadowed propagation rules.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/geometry.hpp"

namespace wlan::topology {

/// In-cell placement of a cell's stations around its AP.
enum class CellPlacement {
  kCircleEdge,   // evenly spaced on the circle of cell_radius (connected)
  kUniformDisc,  // area-uniform in the disc of cell_radius (hidden nodes)
};

struct CellPlanSpec {
  /// Number of APs / cells (>= 1).
  int cells = 1;
  /// AP grid columns; 0 = near-square (ceil(sqrt(cells))).
  int cols = 0;
  /// Pitch between adjacent APs. Rule of thumb: > 2 * cell_radius keeps
  /// cells disjoint; <= sense radius couples neighbours via carrier sense;
  /// larger spacings make neighbouring cells mutually hidden.
  double spacing = 40.0;
  /// Station placement radius around each AP.
  double cell_radius = 8.0;
  CellPlacement placement = CellPlacement::kCircleEdge;
};

struct CellPlan {
  std::vector<phy::Vec2> aps;
  std::vector<phy::Vec2> stations;
  /// Association (nearest AP, ties to the lowest cell id): total — every
  /// station has exactly one entry — and unique by construction.
  std::vector<int> cell_of;
  /// The cell each station was PLACED around (contiguous blocks). Differs
  /// from cell_of only for stations that strayed into a neighbour's disc.
  std::vector<int> placed_in;
};

/// The AP positions a spec implies (near-square row-major grid, AP 0 at
/// the origin) — exactly the `aps` field of make_cell_plan's result.
/// Separated out so propagation setup (e.g. ShadowedDisc's protected
/// positions) can know the AP sites without placing any stations.
std::vector<phy::Vec2> ap_grid(const CellPlanSpec& spec);

/// Builds the plan: AP grid, per-cell station placement (`num_stations`
/// split as evenly as possible, earlier cells take the remainder), and
/// nearest-AP association. `seed` drives the uniform-disc draws (stream
/// 0xD15C, shared across cells in placement order — see header comment).
CellPlan make_cell_plan(const CellPlanSpec& spec, int num_stations,
                        std::uint64_t seed);

}  // namespace wlan::topology
