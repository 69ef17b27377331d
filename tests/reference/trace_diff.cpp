#include "reference/trace_diff.hpp"

#include <algorithm>
#include <cstdio>

namespace wlan::reference {

Divergence first_divergence(const std::vector<obs::TraceRecord>& a,
                            const std::vector<obs::TraceRecord>& b) {
  Divergence d;
  d.a_size = a.size();
  d.b_size = b.size();
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!(a[i] == b[i])) {
      d.identical = false;
      d.index = i;
      return d;
    }
  }
  if (a.size() != b.size()) {
    d.identical = false;
    d.index = common;
  }
  return d;
}

std::string format_record(const obs::TraceRecord& r) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "t=%.9fs %-7s %-13s node=%-4u a=%llu b=%llu",
                static_cast<double>(r.time_ns) / 1e9,
                obs::category_name(static_cast<obs::Category>(r.category)),
                obs::event_name(r.event), r.node,
                static_cast<unsigned long long>(r.a),
                static_cast<unsigned long long>(r.b));
  return buf;
}

std::string divergence_report(const std::vector<obs::TraceRecord>& a,
                              const std::vector<obs::TraceRecord>& b,
                              std::size_t context) {
  const Divergence d = first_divergence(a, b);
  if (d.identical) return {};
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "first trace divergence at record %zu (a: %zu records, "
                "b: %zu records)\n",
                d.index, d.a_size, d.b_size);
  std::string out = buf;
  const std::size_t from = d.index > context ? d.index - context : 0;
  for (std::size_t i = from; i < d.index; ++i)
    out += "  both[" + std::to_string(i) + "]: " + format_record(a[i]) + "\n";
  if (d.index < a.size())
    out += "     a[" + std::to_string(d.index) + "]: " +
           format_record(a[d.index]) + "\n";
  else
    out += "     a[" + std::to_string(d.index) + "]: <end of stream>\n";
  if (d.index < b.size())
    out += "     b[" + std::to_string(d.index) + "]: " +
           format_record(b[d.index]) + "\n";
  else
    out += "     b[" + std::to_string(d.index) + "]: <end of stream>\n";
  return out;
}

std::vector<obs::TraceRecord> filter_categories(
    const std::vector<obs::TraceRecord>& records, std::uint32_t mask) {
  std::vector<obs::TraceRecord> out;
  out.reserve(records.size());
  for (const obs::TraceRecord& r : records)
    if ((mask >> r.category) & 1u) out.push_back(r);
  return out;
}

}  // namespace wlan::reference
