// Figure 12: the fixed-point construction behind the RandomReset analysis —
// tau_c(p0; j=0) as a function of the conditional collision probability c
// for p0 in {0, 0.2, 0.4, 0.6, 0.8}, together with the coupling curve
// c = 1 - (1 - tau)^(N-1); N = 10, m = 5, CWmin = 2 (the paper's settings).
//
// Paper shape: the tau curves decrease in c and stack monotonically in p0;
// the coupling curve crosses each exactly once, and the intersections move
// up-right as p0 grows (Lemma 5's monotone attempt probability).
#include <cmath>

#include "analysis/randomreset.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Figure 12",
                "Fixed point: tau_c(p0; j=0) vs c, plus c(tau) coupling; "
                "N=10, m=5, CWmin=2");

  constexpr int kN = 10;
  constexpr int kM = 5;
  constexpr int kCwMin = 2;
  const std::vector<double> p0s{0.0, 0.2, 0.4, 0.6, 0.8};

  util::CsvWriter csv("fig12_fixed_point.csv");
  csv.header({"c", "tau_p0_0", "tau_p0_02", "tau_p0_04", "tau_p0_06",
              "tau_p0_08", "tau_from_coupling"});

  for (double c = 0.0; c <= 1.0 + 1e-9; c += 0.05) {
    std::vector<double> row{c};
    for (double p0 : p0s)
      row.push_back(
          analysis::random_reset_tau_given_c(0, p0, std::min(c, 1.0), kCwMin,
                                             kM));
    // The coupling curve c = 1-(1-tau)^(N-1), expressed as tau(c) so both
    // families share the x axis: tau = 1 - (1-c)^(1/(N-1)).
    const double tau_coupling = 1.0 - std::pow(1.0 - std::min(c, 1.0),
                                               1.0 / (kN - 1));
    row.push_back(tau_coupling);
    csv.row_numeric(row);
  }
  csv.print(std::cout);

  std::printf("\nFixed points (intersections):\n");
  for (double p0 : p0s) {
    const auto fp = analysis::random_reset_fixed_point(0, p0, kN, kCwMin, kM);
    std::printf("  p0=%.1f: tau=%.4f c=%.4f\n", p0, fp.tau, fp.c);
  }
  std::printf("Expected: both tau and c at the fixed point increase "
              "monotonically with p0 (Lemma 5 / Fig. 12).\n");
  return 0;
}
