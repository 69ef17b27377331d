// Tiny command-line flag parser shared by examples and benches.
//
// Supports `--name value` and `--name=value`; unknown flags are an error so
// typos fail loudly. Not a general-purpose library — just enough for the
// executables in this repo.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace wlan::util {

class Cli {
 public:
  /// Parses argv; throws std::invalid_argument on a malformed flag.
  Cli(int argc, const char* const* argv);

  /// True if `--name` was present (with or without a value).
  bool has(const std::string& name) const;

  /// Typed getters with defaults; throw std::invalid_argument if the value
  /// does not parse.
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// The `--threads N` flag shared by every executable that sweeps:
  /// returns N when given, else the WLAN_THREADS env value, else
  /// `fallback` (0 = let par::ThreadPool pick hardware concurrency).
  int threads(int fallback = 0) const;

  /// Positional arguments (everything not starting with `--`).
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;  // name -> raw value ("" if none)
  std::vector<std::string> positional_;
};

}  // namespace wlan::util
