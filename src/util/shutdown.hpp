// Graceful-shutdown plumbing: SIGINT/SIGTERM handlers that flush partial
// output before the process dies, so an interrupted bench driver leaves
// complete CSV lines (and stdio buffers) on disk instead of torn tails.
//
// Model: long-lived output sinks (util::CsvWriter registers itself)
// enroll a flush callback in a process-wide registry; install_handlers()
// (called from bench::init) points SIGINT/SIGTERM at a handler that runs
// every registered flush, flushes stdio, writes a one-line note to
// stderr, and _exit()s with the conventional 128+signo status.
//
// Signal-safety caveat, by design: std::ofstream::flush is not
// async-signal-safe, so the handler is best-effort — it can only make an
// interrupted run's output BETTER than the default instant death, never
// worse, and the crash-safety story never depends on it (the run cache,
// which sweeps resume from, uses atomic per-entry renames precisely so
// correctness needs no shutdown hook at all).
//
// The registry is also usable directly: shutdown_flush() runs every
// callback immediately (tests exercise this without raising signals).
#pragma once

#include <cstddef>
#include <functional>

namespace wlan::util {

/// Opaque handle for unregistering a flush callback.
using FlushHandle = std::size_t;

/// Registers `fn` to run on SIGINT/SIGTERM (and via shutdown_flush()).
/// `fn` must stay valid until unregister_flush(handle).
FlushHandle register_flush(std::function<void()> fn);
void unregister_flush(FlushHandle handle);

/// Runs every registered flush callback now (exceptions swallowed — a sink
/// that cannot flush must not stop the others).
void shutdown_flush();

/// Installs the SIGINT/SIGTERM handlers (idempotent). The handler flushes
/// all registered sinks and stdio, then _exit(128 + signo).
void install_shutdown_handlers();

}  // namespace wlan::util
