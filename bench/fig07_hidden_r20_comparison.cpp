// Figure 7: scheme comparison vs number of stations, nodes uniform in a
// disc of radius 20 m (more hidden pairs than Fig. 6).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  wlan::bench::init(argc, argv);
  wlan::bench::hidden_comparison(
      20.0, "Figure 7", "fig07_hidden_r20_comparison.csv",
      "Expected shape: as Fig. 6 but with larger gaps (more hidden pairs at "
      "radius 20).");
  return 0;
}
