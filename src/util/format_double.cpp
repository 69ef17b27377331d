#include "util/csv.hpp"

#include <cmath>
#include <sstream>

namespace wlan::util {

std::string format_double(double v, int significant_digits) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  std::ostringstream os;
  os.precision(significant_digits);
  os << v;
  return os.str();
}

}  // namespace wlan::util
