// Full-scan checker: replays a run's kCatMedium trace against the scenario's
// geometry and recomputes every delivered `clean` flag from the definition
// in phy/medium.hpp — with none of the medium's machinery (no CSR
// adjacency, spatial grid, peer index or decode masks):
//
//   receiver r's copy of source s's frame [start, end) is clean iff no
//   other transmission overlapping it in time (half-open intervals) came
//   from r itself (half-duplex), or was sensed at r without r capturing
//   s's frame (capture: rx_power(s, r) >= capture_ratio * rx_power(i, r),
//   only when capture_ratio > 0).
//
// It also checks that each frame is delivered to exactly the nodes that
// can decode its source, in ascending id order, right after its tx_end.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "obs/trace.hpp"
#include "phy/propagation.hpp"

namespace wlan::reference {

/// Node positions (APs first, then stations, as mac::Network numbers them)
/// and the propagation predicates, straight from exp::make_plan and
/// exp::make_propagation.
class Geometry {
 public:
  explicit Geometry(const exp::ScenarioConfig& scenario);

  int num_nodes() const { return static_cast<int>(positions_.size()); }
  bool senses(int source, int observer) const;
  bool decodes(int source, int observer) const;
  /// True when `receiver` keeps its copy of `victim`'s frame despite an
  /// overlapping `interferer` (pairwise capture).
  bool captures(int victim, int interferer, int receiver) const;

 private:
  std::vector<phy::Vec2> positions_;
  std::unique_ptr<phy::PropagationModel> propagation_;
  double capture_ratio_;
};

struct FullScanResult {
  std::uint64_t transmissions = 0;
  /// (new tx, in-flight tx) pairs a full scan of the in-flight list visits:
  /// the work the medium's peer index exists to avoid.
  std::uint64_t pairs_in_flight = 0;
  /// The first record that disagrees with the definition; empty if none.
  std::string error;
};

FullScanResult full_scan_check(const exp::ScenarioConfig& scenario,
                               const std::vector<obs::TraceRecord>& records);

}  // namespace wlan::reference
