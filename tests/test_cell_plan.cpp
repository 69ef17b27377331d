// Property tests for the ESS cell plan and the medium built over it:
//  * AP grid shape and station association (total, uniqueness, nearest-AP,
//    ties to the lowest cell id);
//  * SpatialGrid query_within agrees with brute-force distance checks
//    under randomized placements and arbitrary cell sizes;
//  * the Medium's interference-peer relation matches its four-condition
//    brute-force definition, evaluated on the reference geometry
//    (tests/reference/: plan positions + propagation model, no medium
//    adjacency), on ESS, shadowed and the benchmark's own geometries, and
//    is symmetric cell-to-cell (corruption marks can only flow between
//    mutual peers);
//  * the sense/decode rows and decode masks it reads out of its bit rows
//    match can_sense/can_decode pair by pair, for disc, shadowed and
//    asymmetric models at sizes on both sides of every 64-bit word
//    boundary and of the grid-build threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "exp/scenario.hpp"
#include "mac/network.hpp"
#include "phy/geometry.hpp"
#include "phy/medium.hpp"
#include "phy/propagation.hpp"
#include "reference/full_scan.hpp"
#include "topology/cell_plan.hpp"
#include "topology/spatial_grid.hpp"
#include "util/rng.hpp"

namespace {

using namespace wlan;
using topology::CellPlacement;
using topology::CellPlan;
using topology::CellPlanSpec;
using topology::SpatialGrid;

double dist(const phy::Vec2& a, const phy::Vec2& b) {
  const double dx = a.x - b.x, dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

std::vector<phy::Vec2> random_points(int n, double span, util::Rng& rng) {
  std::vector<phy::Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(-span, span), rng.uniform(-span, span)});
  return pts;
}

// ---------------------------------------------------------------- AP grid

TEST(CellPlan, ApGridIsRowMajorWithApZeroAtOrigin) {
  CellPlanSpec spec;
  spec.cells = 6;
  spec.cols = 3;
  spec.spacing = 40.0;
  const auto aps = topology::ap_grid(spec);
  ASSERT_EQ(aps.size(), 6u);
  EXPECT_EQ(aps[0].x, 0.0);
  EXPECT_EQ(aps[0].y, 0.0);
  EXPECT_EQ(aps[1].x, 40.0);  // row-major: columns advance first
  EXPECT_EQ(aps[1].y, 0.0);
  EXPECT_EQ(aps[3].x, 0.0);  // second row
  EXPECT_EQ(aps[3].y, 40.0);
  EXPECT_EQ(aps[5].x, 80.0);
  EXPECT_EQ(aps[5].y, 40.0);
}

TEST(CellPlan, ApGridDefaultsToNearSquare) {
  CellPlanSpec spec;
  spec.spacing = 10.0;
  spec.cells = 9;  // 3 x 3
  auto aps = topology::ap_grid(spec);
  EXPECT_EQ(aps[8].x, 20.0);
  EXPECT_EQ(aps[8].y, 20.0);
  spec.cells = 5;  // ceil(sqrt(5)) = 3 cols -> rows of 3, 2
  aps = topology::ap_grid(spec);
  EXPECT_EQ(aps[4].x, 10.0);
  EXPECT_EQ(aps[4].y, 10.0);
}

TEST(CellPlan, ApGridRejectsBadSpecs) {
  CellPlanSpec spec;
  spec.cells = 0;
  EXPECT_THROW(topology::ap_grid(spec), std::invalid_argument);
  spec.cells = 4;
  spec.spacing = 0.0;
  EXPECT_THROW(topology::ap_grid(spec), std::invalid_argument);
}

// ------------------------------------------------------------ association

TEST(CellPlan, AssociationIsTotalAndUnique) {
  // Every station appears exactly once, lands in a valid cell, and the
  // per-cell placement blocks split num_stations with earlier cells
  // absorbing the remainder.
  for (const int cells : {1, 4, 7}) {
    for (const int n : {0, 5, 23}) {
      CellPlanSpec spec;
      spec.cells = cells;
      spec.spacing = 40.0;
      spec.placement = CellPlacement::kUniformDisc;
      const CellPlan plan = topology::make_cell_plan(spec, n, /*seed=*/7);
      ASSERT_EQ(plan.stations.size(), static_cast<std::size_t>(n));
      ASSERT_EQ(plan.cell_of.size(), static_cast<std::size_t>(n));
      ASSERT_EQ(plan.placed_in.size(), static_cast<std::size_t>(n));
      std::vector<int> placed_count(static_cast<std::size_t>(cells), 0);
      for (int i = 0; i < n; ++i) {
        ASSERT_GE(plan.cell_of[static_cast<std::size_t>(i)], 0);
        ASSERT_LT(plan.cell_of[static_cast<std::size_t>(i)], cells);
        ++placed_count[static_cast<std::size_t>(
            plan.placed_in[static_cast<std::size_t>(i)])];
      }
      const int base = cells > 0 ? n / cells : 0;
      const int extra = cells > 0 ? n % cells : 0;
      for (int c = 0; c < cells; ++c)
        EXPECT_EQ(placed_count[static_cast<std::size_t>(c)],
                  base + (c < extra ? 1 : 0))
            << "cells=" << cells << " n=" << n << " c=" << c;
    }
  }
}

/// Checks every station's cell_of against a brute-force nearest-AP scan
/// (ties to the lowest id); returns how many stations strayed from the
/// cell they were placed in.
int check_association(const CellPlan& plan) {
  int strayed = 0;
  for (std::size_t i = 0; i < plan.stations.size(); ++i) {
    int best = 0;
    double best_d = dist(plan.stations[i], plan.aps[0]);
    for (std::size_t a = 1; a < plan.aps.size(); ++a) {
      const double d = dist(plan.stations[i], plan.aps[a]);
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(a);
      }
    }
    EXPECT_EQ(plan.cell_of[i], best) << "station " << i;
    if (plan.cell_of[i] != plan.placed_in[i]) ++strayed;
  }
  return strayed;
}

TEST(CellPlan, AssociationIsNearestAp) {
  CellPlanSpec spec;
  spec.cells = 12;
  spec.spacing = 25.0;
  spec.cell_radius = 20.0;  // > spacing/2: stations can stray into
                            // neighbour cells, exercising real handoffs
  spec.placement = CellPlacement::kUniformDisc;
  // The wide discs must actually produce cross-cell associations, or the
  // test is not exercising anything.
  EXPECT_GT(check_association(topology::make_cell_plan(spec, 150, 3)), 0);

  // An exact tie: two circle-edge cells of one station each, spacing 40,
  // radius 20. Station 0 sits at (20, 0), 20 from both APs, and goes to
  // the lower cell id.
  CellPlanSpec tie;
  tie.cells = 2;
  tie.spacing = 40.0;
  tie.cell_radius = 20.0;
  tie.placement = CellPlacement::kCircleEdge;
  const CellPlan plan = topology::make_cell_plan(tie, 2, /*seed=*/1);
  ASSERT_EQ(plan.stations[0], (phy::Vec2{20.0, 0.0}));
  ASSERT_EQ(dist(plan.stations[0], plan.aps[0]),
            dist(plan.stations[0], plan.aps[1]));
  EXPECT_EQ(plan.cell_of[0], 0);
  EXPECT_EQ(plan.cell_of[1], 1);
  check_association(plan);
}

TEST(CellPlan, PlacedInBlocksAreContiguous) {
  // Station indices are per-cell blocks in cell order — the property the
  // Network's contiguous node-id layout and counter rows rely on.
  CellPlanSpec spec;
  spec.cells = 5;
  spec.spacing = 40.0;
  spec.placement = CellPlacement::kUniformDisc;
  const CellPlan plan = topology::make_cell_plan(spec, 17, /*seed=*/11);
  for (std::size_t i = 1; i < plan.placed_in.size(); ++i)
    EXPECT_LE(plan.placed_in[i - 1], plan.placed_in[i]) << i;
}

TEST(CellPlan, ScenarioSpecMapping) {
  // exp::cell_spec_of carries every ESS field of the ScenarioConfig into
  // the CellPlanSpec (a dropped field here would silently change plans).
  auto scenario = exp::ScenarioConfig::multicell(6, 4, /*spacing=*/33.0, 2);
  scenario.cell_cols = 2;
  const auto spec = exp::cell_spec_of(scenario);
  EXPECT_EQ(spec.cells, 6);
  EXPECT_EQ(spec.cols, 2);
  EXPECT_EQ(spec.spacing, 33.0);
  EXPECT_EQ(spec.cell_radius, scenario.radius);
  EXPECT_EQ(spec.placement, CellPlacement::kUniformDisc);
  const auto connected = exp::ScenarioConfig::connected(5, 1);
  EXPECT_EQ(exp::cell_spec_of(connected).placement,
            CellPlacement::kCircleEdge);
}

TEST(CellPlan, MulticellFactorySetsEssDefaults) {
  const auto s = exp::ScenarioConfig::multicell(9, 10, 40.0, 3);
  EXPECT_EQ(s.num_stations, 90);
  EXPECT_EQ(s.cells, 9);
  EXPECT_EQ(s.cell_spacing, 40.0);
  EXPECT_EQ(s.decode_radius, 16.0);  // Table I discs, not the 1e9 default
  EXPECT_EQ(s.sense_radius, 24.0);
  EXPECT_GT(s.phy.capture_ratio, 0.0);  // near/far capture separates cells
  EXPECT_EQ(s.seed, 3u);
}

// ------------------------------------------------------------ SpatialGrid

TEST(SpatialGrid, QueryWithinMatchesBruteForce) {
  util::Rng rng(99, 1);
  for (const int n : {1, 17, 200}) {
    const auto pts = random_points(n, 50.0, rng);
    for (const double cell : {0.5, 7.0, 300.0}) {
      SpatialGrid grid;
      grid.build(pts, cell);
      ASSERT_EQ(grid.size(), static_cast<std::size_t>(n));
      for (int q = 0; q < 20; ++q) {
        const phy::Vec2 c{rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)};
        const double radius = rng.uniform(0.0, 40.0);
        std::vector<int> expected;
        for (int i = 0; i < n; ++i)
          if (dist(pts[static_cast<std::size_t>(i)], c) <= radius)
            expected.push_back(i);
        EXPECT_EQ(grid.query_within(c, radius), expected)
            << "n=" << n << " cell=" << cell << " r=" << radius;
      }
    }
  }
}

TEST(SpatialGrid, ResultsIndependentOfCellSize) {
  // Exactness means the cell size is a pure cost knob: wildly different
  // sizes must return element-for-element identical answers.
  util::Rng rng(12, 5);
  const auto pts = random_points(120, 25.0, rng);
  SpatialGrid fine, coarse;
  fine.build(pts, 0.75);
  coarse.build(pts, 60.0);
  for (int q = 0; q < 25; ++q) {
    const phy::Vec2 c{rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)};
    const double r = rng.uniform(0.0, 20.0);
    EXPECT_EQ(fine.query_within(c, r), coarse.query_within(c, r));
  }
}

TEST(SpatialGrid, EmptyAndDegenerate) {
  SpatialGrid grid;
  EXPECT_TRUE(grid.query_within({0.0, 0.0}, 10.0).empty());
  // All points coincident: a zero-extent bounding box must still index.
  const std::vector<phy::Vec2> same(7, phy::Vec2{3.0, -2.0});
  grid.build(same, 1.0);
  const auto all = grid.query_within({3.0, -2.0}, 0.0);
  EXPECT_EQ(all.size(), 7u);
}

// ---------------------------------------------- interference-peer relation

/// Brute-force the Medium's documented peer definition on a geometry (the
/// reference one, or a PairTable): o is a peer of s iff a transmission
/// from o overlapping one from s can change an observable reception (see
/// build_peer_index in phy/medium.cpp).
template <class Geo>
std::vector<phy::NodeId> brute_peers(const Geo& geo, phy::NodeId s) {
  const int n = geo.num_nodes();
  std::vector<phy::NodeId> peers;
  for (phy::NodeId o = 0; o < n; ++o) {
    if (o == s) continue;
    bool peer = geo.decodes(s, o) || geo.decodes(o, s);  // cond1b/1a
    for (phy::NodeId r = 0; !peer && r < n; ++r) {
      peer = (geo.senses(s, r) && geo.decodes(o, r)) ||  // cond2
             (geo.senses(o, r) && geo.decodes(s, r));    // cond3
    }
    if (peer) peers.push_back(o);
  }
  return peers;
}

/// The sense and decode rows, the decode mask and the senses()/decodes()
/// queries of `medium` against the geometry's predicates, pair by pair.
template <class Geo>
void expect_rows_exact(const Geo& geo, const phy::Medium& medium) {
  const int n = static_cast<int>(medium.num_nodes());
  ASSERT_EQ(n, geo.num_nodes());
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  for (phy::NodeId s = 0; s < n; ++s) {
    std::vector<phy::NodeId> sensed, decoded;
    std::vector<std::uint64_t> mask(words, 0);
    for (phy::NodeId o = 0; o < n; ++o) {
      const bool sense = geo.senses(s, o);
      const bool decode = geo.decodes(s, o);
      if (sense) sensed.push_back(o);
      if (decode) {
        decoded.push_back(o);
        mask[static_cast<std::size_t>(o) / 64] |= std::uint64_t{1} << (o % 64);
      }
      ASSERT_EQ(medium.senses(s, o), sense) << s << " -> " << o;
      ASSERT_EQ(medium.decodes(s, o), decode) << s << " -> " << o;
    }
    const auto a = medium.audible_at(s);
    const auto d = medium.decodable_at(s);
    const auto m = medium.decode_mask(s);
    ASSERT_EQ(std::vector<phy::NodeId>(a.begin(), a.end()), sensed)
        << "sense row " << s;
    ASSERT_EQ(std::vector<phy::NodeId>(d.begin(), d.end()), decoded)
        << "decode row " << s;
    ASSERT_EQ(std::vector<std::uint64_t>(m.begin(), m.end()), mask)
        << "decode mask " << s;
  }
}

void expect_peer_index_exact(const exp::ScenarioConfig& scenario,
                             const phy::Medium& medium) {
  const reference::Geometry geo(scenario);
  const int n = static_cast<int>(medium.num_nodes());
  ASSERT_EQ(n, geo.num_nodes());
  expect_rows_exact(geo, medium);
  for (phy::NodeId s = 0; s < n; ++s) {
    const auto row = medium.interference_peers(s);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
    EXPECT_EQ(row, brute_peers(geo, s)) << "node " << s;
    // Symmetry: corruption can only flow between mutual peers, so a
    // one-sided row would mean one direction of marks is silently lost.
    for (const phy::NodeId o : row) {
      const auto back = medium.interference_peers(o);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), s))
          << s << " lists " << o << " but not vice versa";
    }
  }
}

void expect_peer_index_exact(const exp::ScenarioConfig& scenario) {
  const auto net = exp::build_network(scenario, exp::SchemeConfig::standard());
  expect_peer_index_exact(scenario, net->medium());
}

/// can_sense/can_decode of every ordered pair of `positions`, straight from
/// the model (the diagonal is false, as in reference::Geometry).
class PairTable {
 public:
  PairTable(const phy::PropagationModel& model,
            const std::vector<phy::Vec2>& positions)
      : n_(static_cast<int>(positions.size())) {
    sense_.assign(positions.size() * positions.size(), 0);
    decode_ = sense_;
    for (int s = 0; s < n_; ++s) {
      for (int o = 0; o < n_; ++o) {
        if (o == s) continue;
        const auto& from = positions[static_cast<std::size_t>(s)];
        const auto& to = positions[static_cast<std::size_t>(o)];
        sense_[at(s, o)] = model.can_sense(from, to);
        decode_[at(s, o)] = model.can_decode(from, to);
      }
    }
  }
  int num_nodes() const { return n_; }
  bool senses(int source, int observer) const {
    return sense_[at(source, observer)] != 0;
  }
  bool decodes(int source, int observer) const {
    return decode_[at(source, observer)] != 0;
  }

 private:
  std::size_t at(int s, int o) const {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(o);
  }
  int n_;
  std::vector<char> sense_, decode_;
};

struct SilentClient final : phy::MediumClient {
  void on_channel_busy(sim::Time) override {}
  void on_channel_idle(sim::Time) override {}
  void on_frame_received(const phy::Frame&, bool, sim::Time) override {}
};

/// Finalizes a medium over `positions` under `model`, then holds its rows,
/// mask and hidden-pair counts to the model pair by pair and its peer rows
/// to brute force.
void expect_medium_exact(const phy::PropagationModel& model,
                         const std::vector<phy::Vec2>& positions) {
  sim::Simulator simulator;
  phy::Medium medium(simulator, model);
  SilentClient client;
  for (const auto& p : positions) medium.add_node(p, client);
  medium.finalize();
  const PairTable table(model, positions);
  const int n = table.num_nodes();
  expect_rows_exact(table, medium);
  for (const int first : {0, 1, n / 2}) {
    std::size_t hidden = 0;
    for (int a = first; a < n; ++a)
      for (int b = a + 1; b < n; ++b)
        if (!table.senses(a, b) || !table.senses(b, a)) ++hidden;
    EXPECT_EQ(medium.hidden_pairs(first), hidden) << "from node " << first;
  }
  for (phy::NodeId s = 0; s < n; ++s)
    ASSERT_EQ(medium.interference_peers(s), brute_peers(table, s))
        << "peer row " << s;
}

/// n x n link matrix with independent entries, true with probability p.
std::vector<std::vector<bool>> random_links(int n, double p, util::Rng& rng) {
  const auto size = static_cast<std::size_t>(n);
  std::vector<std::vector<bool>> m(size, std::vector<bool>(size));
  for (auto& row : m)
    for (std::size_t o = 0; o < row.size(); ++o) row[o] = rng.bernoulli(p);
  return m;
}

/// Every node but `s`, ascending: the peer row of a fully connected node.
std::vector<phy::NodeId> all_but(phy::NodeId n, phy::NodeId s) {
  std::vector<phy::NodeId> row;
  for (phy::NodeId o = 0; o < n; ++o)
    if (o != s) row.push_back(o);
  return row;
}

TEST(CellPlan, PeerIndexMatchesBruteForceAcrossCells) {
  // A 3x3 ESS: peers must span exactly the local neighbourhood — stations
  // of adjacent cells that share a receiver, never the far corners.
  const auto scenario = exp::ScenarioConfig::multicell(9, 5, 40.0, 6);
  auto net = exp::build_network(scenario, exp::SchemeConfig::standard());
  expect_peer_index_exact(scenario, net->medium());
  // Sanity: the relation is genuinely sparse here (an all-pairs peer set
  // would mean the scenario exercises nothing).
  const auto row0 = net->medium().interference_peers(net->num_aps());
  EXPECT_LT(row0.size(), net->medium().num_nodes() - 1);
  // At pitch 40 the rows are cell-local. At 30, neighbour cells share
  // receivers, and a receiver that decodes one source while only sensing
  // the other makes pairs that cond2 or cond3 alone admits.
  for (const std::uint64_t seed : {1, 2}) {
    SCOPED_TRACE(seed);
    expect_peer_index_exact(exp::ScenarioConfig::multicell(9, 5, 30.0, seed));
  }
}

TEST(CellPlan, PeerIndexMatchesBruteForceUnderShadowing) {
  // Random pairwise shadowing: the decode graph is irregular (not a disc),
  // so the reverse-adjacency unions are the only way to get the rows right.
  for (const std::uint64_t seed : {8, 1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    expect_peer_index_exact(exp::ScenarioConfig::shadowed(12, 0.4, seed));
  }
}

TEST(CellPlan, PeerIndexMatchesBruteForceOnBenchmarkGeometries) {
  // The geometries wlanbench times. dyn60_wtop: connected(60), where every
  // row holds all 60 others.
  const auto connected = exp::ScenarioConfig::connected(60);
  const auto net = exp::build_network(connected, exp::SchemeConfig::standard());
  expect_peer_index_exact(connected, net->medium());
  ASSERT_EQ(net->medium().num_nodes(), 61u);
  for (phy::NodeId s = 0; s < 61; ++s)
    EXPECT_EQ(net->medium().interference_peers(s), all_but(61, s));
  // sweep_light: hidden(20, 16) at its four seeds.
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    expect_peer_index_exact(exp::ScenarioConfig::hidden(20, 16.0, seed));
  }
  // ess9x10_std: nine cells of ten stations.
  expect_peer_index_exact(exp::ScenarioConfig::multicell(9, 10, 40.0, 1));
}

TEST(CellPlan, PeerIndexMatchesBruteForceAtWordBoundaries) {
  // The medium fills sense/decode bit rows from one pass over the pairs,
  // reads its CSR rows and decode masks out of them, counts hidden pairs
  // from the sense rows and builds the peer rows by ORing (transposed)
  // rows, stopping once a row is full. Sizes sit
  // on both sides of each 64-bit word boundary and of the grid-build
  // threshold; each model runs sparse (most peer rows partial) and dense
  // (rows fill early). ExplicitGraph is asymmetric, so only it takes the
  // block transposes; the disc models are symmetric and bounded, so they
  // take the halved pair pass and, from kGridBuildMin on, the grid.
  std::set<int> sizes{1, 2, 63, 64, 65, 127, 128, 129};
  sizes.insert(static_cast<int>(phy::Medium::kGridBuildMin) - 1);
  sizes.insert(static_cast<int>(phy::Medium::kGridBuildMin));
  for (const int n : sizes) {
    for (const bool dense : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << n << (dense ? " dense" : " sparse"));
      util::Rng rng(static_cast<std::uint64_t>(n), dense ? 2 : 1);
      // Sparse: about 7 sensing and 3 decoding neighbours per node. Dense:
      // every pair within the 6-unit decode disc. Node 0 sits at the
      // origin, ShadowedDisc's protected position.
      const double span = dense ? 2.0 : 3.0 * std::sqrt(static_cast<double>(n));
      std::vector<phy::Vec2> positions{{0.0, 0.0}};
      for (int i = 1; i < n; ++i)
        positions.push_back(
            {rng.uniform(-span, span), rng.uniform(-span, span)});
      {
        SCOPED_TRACE("DiscPropagation");
        expect_medium_exact(phy::DiscPropagation(6.0, 9.0), positions);
      }
      {
        SCOPED_TRACE("ShadowedDisc");
        expect_medium_exact(phy::ShadowedDisc(6.0, 9.0, 0.3, 11, {{0.0, 0.0}}),
                            positions);
      }
      {
        SCOPED_TRACE("ExplicitGraph");
        const double p = dense ? 0.6 : std::min(0.5, 6.0 / n);
        const phy::ExplicitGraph graph(random_links(n, p, rng),
                                       random_links(n, p / 2, rng));
        std::vector<phy::Vec2> slots;
        for (int i = 0; i < n; ++i) slots.push_back(phy::graph_position(i));
        expect_medium_exact(graph, slots);
      }
    }
  }
}

}  // namespace
