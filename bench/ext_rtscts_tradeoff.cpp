// Extension: quantifies Section I's RTS/CTS argument. The paper dismisses
// RTS/CTS because control frames go at 6 Mb/s while data goes at 54 Mb/s,
// so the overhead is large even though RTS/CTS eliminates most hidden-node
// data collisions. This bench measures both sides of that trade:
// connected (overhead only) and hidden (protection vs overhead), for
// standard 802.11 and for TORA-CSMA — showing that model-free tuning over
// BASIC access (the paper's proposal) beats turning RTS/CTS on.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Extension: RTS/CTS trade-off (Section I)",
                "Basic vs RTS/CTS access, connected and hidden (disc r=16), "
                "standard 802.11 and TORA-CSMA");

  const std::vector<int> nodes = util::bench_fast()
                                     ? std::vector<int>{20}
                                     : std::vector<int>{10, 20, 40};

  // One sweep: per node count, connected and hidden (disc r=16) under
  // basic access and RTS/CTS, for 802.11 and TORA-CSMA.
  exp::SweepSpec spec;
  for (int n : nodes) {
    for (bool hidden : {false, true}) {
      for (bool rts : {false, true}) {
        auto scenario = hidden ? exp::ScenarioConfig::hidden(n, 16.0, 1)
                               : exp::ScenarioConfig::connected(n, 1);
        if (rts) scenario.phy.rts_threshold_bits = 0;
        spec.scenarios.push_back(scenario);
      }
    }
  }
  spec.schemes = {exp::SchemeConfig::standard(),
                  exp::SchemeConfig::tora_csma()};
  spec.options = bench::adaptive_options();
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  util::CsvWriter csv("ext_rtscts_tradeoff.csv");
  csv.header({"nodes", "scheme", "connected_basic", "connected_rtscts",
              "hidden_basic", "hidden_rtscts"});

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t k = 0; k < spec.schemes.size(); ++k) {
      std::vector<double> mbps;  // connected basic/RTS, hidden basic/RTS
      for (std::size_t c = 0; c < 4; ++c)
        mbps.push_back(sweep.at(4 * i + c, k).runs[0].total_mbps);
      csv.row({std::to_string(nodes[i]), spec.schemes[k].name(),
               util::format_double(mbps[0], 6), util::format_double(mbps[1], 6),
               util::format_double(mbps[2], 6),
               util::format_double(mbps[3], 6)});
    }
  }
  csv.print(std::cout);
  std::printf("\nExpected: RTS/CTS costs throughput when connected (6 Mb/s "
              "control frames), and TORA-CSMA over basic access matches or "
              "beats RTS/CTS under hidden nodes — the paper's rationale for "
              "tuning instead of reserving.\n");
  return 0;
}
