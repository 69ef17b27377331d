// Figure 5: throughput of RandomReset(0; p0) vs the reset probability p0 in
// networks WITH hidden nodes (20/40 nodes, two random scenarios each).
//
// Paper shape: quasi-concave in p0, flatter around the peak than the
// p-persistent curve (the paper's argument for why TORA oscillation hurts
// less than wTOP oscillation). The 4-curve × p0 grid runs as one
// declarative sweep on the thread pool.
#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::hidden_curves(
      "Figure 5",
      "RandomReset(j=0; p0) throughput vs p0 with hidden nodes (disc r=16), "
      "20/40 nodes, two scenarios (seeds)",
      "fig05_randomreset_hidden_curve.csv", "p0",
      bench::arange(0.0, 1.0, util::bench_fast() ? 0.25 : 0.1),
      [](double p0) {
        return exp::SchemeConfig::fixed_random_reset(0, std::min(p0, 1.0));
      });
  return 0;
}
