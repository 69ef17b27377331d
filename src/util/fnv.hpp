// FNV-1a, the one hash core everything content-addressed shares: the run
// cache's config keys (src/exp/run_cache.cpp), and the bit-pattern output
// hashes of wlanbench and the repeat-run determinism tests. Keeping a
// single definition means a future change cannot silently diverge cache
// keys from output hashes — and since wlanbench/expected.json records
// these values for seed 1, any change here requires re-recording them
// (and makes every stored run-cache entry a miss).
#pragma once

#include <cstdint>
#include <cstring>

namespace wlan::util {

class Fnv1a {
 public:
  void mix_byte(unsigned char byte) {
    h_ ^= byte;
    h_ *= 1099511628211ULL;
  }
  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  /// Hashes the exact bit pattern (NaN-safe, -0.0 != +0.0 — what the
  /// bit-identity checks want).
  void mix_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix_u64(bits);
  }
  /// Whole-word step used by the output hashes: xor-multiply the 64-bit
  /// value in one round (NOT byte-wise; wlanbench/expected.json records
  /// hashes built this way).
  void mix_u64_word(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ULL;
  }
  void mix_double_word(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix_u64_word(bits);
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace wlan::util
