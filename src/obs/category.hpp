// Trace/profile categories: the coarse "which subsystem did this" axis
// shared by the trace recorder (per-record tag + enable bitmask) and the
// phase profiler (per-category event/wall-time buckets).
//
// kCatMark is deliberately separate from kCatMedium: it is the profiler's
// bucket for interference marking, the medium's hottest inner loop, so
// marking cost shows up apart from transmission start/end and delivery.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace wlan::obs {

enum Category : std::uint16_t {
  kCatSim = 0,   // executive dispatch (one record per event fired)
  kCatMedium,    // transmission start/end + per-receiver delivery
  kCatMark,      // interference corruption marks
  kCatStation,   // MAC state-machine transitions
  kCatCohort,    // contention-arbiter cohort lifecycle
  kCatTraffic,   // packet arrivals and tail drops
  kCatOther,     // events with no trace point (profiler bucket only)
  kNumCategories
};

constexpr std::uint32_t category_bit(Category c) {
  return 1u << static_cast<unsigned>(c);
}

constexpr std::uint32_t kAllCategories = (1u << kNumCategories) - 1;

/// Short lowercase name ("sim", "medium", "mark", ...); "?" out of range.
const char* category_name(Category c);

/// Parses a comma-separated category list ("medium,station"); "all" (or an
/// empty spec) selects every category. nullopt when any name is unknown.
std::optional<std::uint32_t> parse_categories(const std::string& spec);

}  // namespace wlan::obs
