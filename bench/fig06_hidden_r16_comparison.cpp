// Figure 6: scheme comparison vs number of stations, nodes uniform in a
// disc of radius 16 m (hidden nodes present).
//
// Paper shape: TORA-CSMA on top, then wTOP-CSMA, standard 802.11 close
// behind, IdleSense far below.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  wlan::bench::init(argc, argv);
  wlan::bench::hidden_comparison(
      16.0, "Figure 6", "fig06_hidden_r16_comparison.csv",
      "Expected shape: TORA >= wTOP and both well above IdleSense; "
      "standard 802.11 competitive (Fig. 6 of the paper).");
  return 0;
}
