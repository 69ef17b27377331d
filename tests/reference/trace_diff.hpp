// first_divergence: turn "series hashes differ" into "record 1234 is the
// first place these two runs disagree". Because trace records carry only
// simulated time and deterministic detail words, two simulations of the
// same scenario with the same physics (e.g. production vs the per-slot
// reference model in tests/reference/) must produce IDENTICAL kCatMedium
// streams — the first differing record is the bug's address, not a
// symptom downstream of it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace wlan::reference {

struct Divergence {
  bool identical = true;
  /// First index where the streams disagree; when one stream is a strict
  /// prefix of the other this is the shorter stream's size.
  std::size_t index = 0;
  std::size_t a_size = 0;
  std::size_t b_size = 0;
};

Divergence first_divergence(const std::vector<obs::TraceRecord>& a,
                            const std::vector<obs::TraceRecord>& b);

/// One record, one line: "t=0.001234567s medium tx_start node=3 a=... b=...".
std::string format_record(const obs::TraceRecord& r);

/// Human-readable report: the divergence location, `context` records of
/// shared history before it, and both sides' view of the divergent record.
/// Empty string when the streams are identical.
std::string divergence_report(const std::vector<obs::TraceRecord>& a,
                              const std::vector<obs::TraceRecord>& b,
                              std::size_t context = 4);

/// Drops records whose category bit is not in `mask` (e.g. keep only
/// kCatMedium before diffing against a model with different MAC events).
std::vector<obs::TraceRecord> filter_categories(
    const std::vector<obs::TraceRecord>& records, std::uint32_t mask);

}  // namespace wlan::reference
