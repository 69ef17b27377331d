#include "util/cli.hpp"

#include <cstdlib>
#include <stdexcept>

#include "util/env.hpp"

namespace wlan::util {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) throw std::invalid_argument("bare '--' not supported");
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` form: consume the next token if it is not a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0')
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                it->second + "'");
  return v;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0')
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                it->second + "'");
  return static_cast<std::int64_t>(v);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on")
    return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              v + "'");
}

int Cli::threads(int fallback) const {
  if (has("threads")) {
    const auto v = get_int("threads", 0);
    if (v < 0)
      throw std::invalid_argument("flag --threads expects a count >= 0");
    return static_cast<int>(v);
  }
  const int env = env_threads();
  return env > 0 ? env : fallback;
}

}  // namespace wlan::util
