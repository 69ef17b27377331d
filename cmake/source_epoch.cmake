# Writes the header that defines wlan::exp::run_cache::kSourceEpoch, the
# result store's source epoch: the first 64 bits of a SHA-256 over the
# compiler id and version and, in sorted order, the path and the SHA-256
# of the contents of every file under src/ plus CMakeLists.txt. Any edit
# to those files, or another compiler, gives another epoch, so a store
# never serves an entry that other sources built.
#
# Run at build time by the custom command in CMakeLists.txt:
#   cmake -DROOT=<source dir> -DOUT=<header> "-DCOMPILER=<id> <version>"
#         -P cmake/source_epoch.cmake
# The command runs only when one of those files changes, and rewrites the
# header each time, so run_cache.cpp, its one includer, recompiles with
# the edited file.
cmake_minimum_required(VERSION 3.21)

file(GLOB_RECURSE files RELATIVE "${ROOT}" "${ROOT}/src/*")
list(APPEND files CMakeLists.txt)
list(SORT files)

set(manifest "${COMPILER}\n")
foreach(f IN LISTS files)
  file(SHA256 "${ROOT}/${f}" digest)
  string(APPEND manifest "${f} ${digest}\n")
endforeach()
string(SHA256 epoch "${manifest}")
string(SUBSTRING "${epoch}" 0 16 epoch)

file(WRITE "${OUT}"
"// Generated by cmake/source_epoch.cmake from src/, CMakeLists.txt and
// the compiler (${COMPILER}); do not edit.
#pragma once

#include <cstdint>

namespace wlan::exp::run_cache {

inline constexpr std::uint64_t kSourceEpoch = 0x${epoch}ull;

}  // namespace wlan::exp::run_cache
")
