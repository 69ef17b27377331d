#include "util/env.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace wlan::util {

void reject_env(const std::string& name, const char* raw,
                const char* expected) {
  std::fprintf(stderr, "error: environment variable %s='%s' is not %s\n",
               name.c_str(), raw, expected);
  std::_Exit(2);
}

std::optional<double> parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    return std::nullopt;
  return v;
}

std::optional<std::int64_t> parse_int(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    return std::nullopt;
  return static_cast<std::int64_t>(v);
}

std::optional<bool> parse_bool(const std::string& text) {
  if (text == "1" || text == "true" || text == "yes" || text == "on")
    return true;
  if (text == "0" || text == "false" || text == "no" || text == "off")
    return false;
  return std::nullopt;
}

double env_double(const std::string& name, double fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  const auto v = parse_double(raw);
  if (!v) reject_env(name, raw, "a number");
  return *v;
}

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  const auto v = parse_int(raw);
  if (!v) reject_env(name, raw, "an integer");
  return *v;
}

bool env_bool(const std::string& name, bool fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  const auto v = parse_bool(raw);
  if (!v)
    reject_env(name, raw, "a boolean (1/true/yes/on or 0/false/no/off)");
  return *v;
}

double bench_time_scale() { return env_double("WLAN_BENCH_SECONDS", 1.0); }

int bench_seeds(int fallback) {
  return static_cast<int>(env_int("WLAN_BENCH_SEEDS", fallback));
}

bool bench_fast() { return env_bool("WLAN_BENCH_FAST", false); }

int env_threads() {
  const auto v = env_int("WLAN_THREADS", 0);
  return v > 0 ? static_cast<int>(v) : 0;
}

}  // namespace wlan::util
