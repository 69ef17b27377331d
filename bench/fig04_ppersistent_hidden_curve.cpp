// Figure 4: throughput of fixed p-persistent CSMA vs log(attempt
// probability) in networks WITH hidden nodes (20/40 nodes, two random
// scenarios each).
//
// Paper shape: still bell-shaped (quasi-concave) — the evidence that lets
// Kiefer-Wolfowitz tuning work without a model (Section V). The whole
// 4-curve × log(p) grid runs as one declarative sweep on the thread pool.
#include <cmath>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::hidden_curves(
      "Figure 4",
      "p-persistent throughput vs log(p) with hidden nodes (disc r=16), "
      "20/40 nodes, two scenarios (seeds)",
      "fig04_ppersistent_hidden_curve.csv", "log_p",
      bench::arange(-9.1, -1.4, util::bench_fast() ? 1.4 : 0.7),
      [](double logp) {
        return exp::SchemeConfig::fixed_p_persistent(std::exp(logp));
      });
  return 0;
}
