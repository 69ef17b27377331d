#include "obs/profile.hpp"

#include <cstdio>

namespace wlan::obs {

std::uint64_t PhaseProfiler::total_events() const {
  std::uint64_t total = 0;
  for (unsigned i = 0; i < kNumCategories; ++i) total += events_[i];
  return total;
}

std::int64_t PhaseProfiler::total_wall_ns() const {
  std::int64_t total = 0;
  for (unsigned i = 0; i < kNumCategories; ++i) total += wall_ns_[i];
  return total;
}

void PhaseProfiler::add(const PhaseProfiler& other) {
  for (unsigned i = 0; i < kNumCategories; ++i) {
    events_[i] += other.events_[i];
    wall_ns_[i] += other.wall_ns_[i];
  }
}

std::string PhaseProfiler::report(const std::string& label) const {
  const std::uint64_t ev_total = total_events();
  const std::int64_t ns_total = total_wall_ns();
  char line[160];
  std::snprintf(line, sizeof(line),
                "[obs] %s: %llu events, %.3f ms dispatch wall\n", label.c_str(),
                static_cast<unsigned long long>(ev_total),
                static_cast<double>(ns_total) / 1e6);
  std::string out = line;
  for (unsigned i = 0; i < kNumCategories; ++i) {
    if (events_[i] == 0) continue;
    const double ev_pct =
        ev_total ? 100.0 * static_cast<double>(events_[i]) /
                       static_cast<double>(ev_total)
                 : 0.0;
    const double ns_pct =
        ns_total ? 100.0 * static_cast<double>(wall_ns_[i]) /
                       static_cast<double>(ns_total)
                 : 0.0;
    std::snprintf(line, sizeof(line),
                  "[obs]   %-8s %12llu events (%5.1f%%)  %10.3f ms (%5.1f%%)\n",
                  category_name(static_cast<Category>(i)),
                  static_cast<unsigned long long>(events_[i]), ev_pct,
                  static_cast<double>(wall_ns_[i]) / 1e6, ns_pct);
    out += line;
  }
  return out;
}

}  // namespace wlan::obs
