#include "exp/shard.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "exp/progress.hpp"
#include "exp/run_cache.hpp"
#include "util/env.hpp"
#include "util/fnv.hpp"
#include "util/liveness.hpp"

#ifndef _WIN32
extern char** environ;
#endif

namespace wlan::exp::shard {

namespace fs = std::filesystem;

namespace {

double steady_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// --------------------------------------------------- child-side assignment

std::mutex g_mu;
bool g_latched = false;
std::optional<ChildBlock> g_child;
std::vector<std::string> g_argv;       // captured by bench::init
std::vector<std::string> g_child_cmd;  // test override

bool parse_spec(const std::string& spec, ChildBlock& out) {
  // "<dir>:<lo>:<hi>", parsed from the right so the dir may contain ':'.
  const std::size_t p2 = spec.rfind(':');
  if (p2 == std::string::npos || p2 == 0) return false;
  const std::size_t p1 = spec.rfind(':', p2 - 1);
  if (p1 == std::string::npos || p1 == 0) return false;
  const auto lo = util::parse_int(spec.substr(p1 + 1, p2 - p1 - 1));
  const auto hi = util::parse_int(spec.substr(p2 + 1));
  if (!lo || !hi || *lo < 0 || *hi < *lo) return false;
  out.dir = spec.substr(0, p1);
  out.lo = static_cast<std::size_t>(*lo);
  out.hi = static_cast<std::size_t>(*hi);
  return !out.dir.empty();
}

std::string fail_path(const std::string& work_dir, std::size_t job) {
  char name[48];
  std::snprintf(name, sizeof name, "job_%zu.fail", job);
  return (fs::path(work_dir) / name).string();
}

std::string shard_file(const std::string& work_dir, int index,
                       const char* ext) {
  char name[48];
  std::snprintf(name, sizeof name, "shard_%d.%s", index, ext);
  return (fs::path(work_dir) / name).string();
}

std::string read_file_text(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char chunk[1024];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) out.append(chunk, n);
  std::fclose(f);
  return out;
}

bool write_file_atomic(const std::string& path, const std::string& text) {
#ifdef _WIN32
  const long long pid = 0;
#else
  const long long pid = static_cast<long long>(::getpid());
#endif
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, ".%llx.tmp", pid);
  const std::string tmp = path + suffix;
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool flushed = std::fclose(f) == 0 && wrote;
  std::error_code ec;
  if (!flushed) {
    fs::remove(tmp, ec);
    return false;
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::int64_t clamp_env(const char* name, std::int64_t fallback,
                       std::int64_t lo, std::int64_t hi) {
  return std::clamp(util::env_int(name, fallback), lo, hi);
}

}  // namespace

const ChildBlock* child_block() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (!g_latched) {
    g_latched = true;
    if (const char* spec = std::getenv("WLAN_SHARD_SPEC");
        spec != nullptr && *spec != '\0') {
      ChildBlock b;
      if (parse_spec(spec, b)) {
        b.index = static_cast<int>(
            std::max<std::int64_t>(0, util::env_int("WLAN_SHARD_INDEX", 0)));
        g_child = std::move(b);
      }
    }
  }
  return g_child.has_value() ? &*g_child : nullptr;
}

void configure_child(const std::string& spec) {
  if (spec.empty()) return;
  ChildBlock b;
  if (!parse_spec(spec, b)) return;
  b.index = static_cast<int>(
      std::max<std::int64_t>(0, util::env_int("WLAN_SHARD_INDEX", 0)));
  std::lock_guard<std::mutex> lock(g_mu);
  g_latched = true;
  g_child = std::move(b);
}

void capture_argv(int argc, const char* const* argv) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_argv.clear();
  for (int i = 0; i < argc; ++i)
    if (argv[i] != nullptr) g_argv.emplace_back(argv[i]);
}

Policy resolve_policy(int spec_processes, int spec_backoff_ms) {
  Policy p;
#ifdef _WIN32
  (void)spec_processes;
  p.processes = 1;
#else
  const std::int64_t procs =
      spec_processes >= 1
          ? spec_processes
          : std::max<std::int64_t>(1, util::env_int("WLAN_SWEEP_PROCS", 1));
  p.processes = static_cast<int>(std::clamp<std::int64_t>(procs, 1, 256));
#endif
  p.crash_limit = static_cast<int>(
      std::max<std::int64_t>(1, util::env_int("WLAN_SHARD_CRASH_LIMIT", 3)));
  p.stall_ms = std::max<std::int64_t>(0, util::env_int("WLAN_SHARD_STALL_MS", 0));
  p.poll_ms = clamp_env("WLAN_SHARD_POLL_MS", 100, 10, 10'000);
  p.backoff_ms = std::max(0, spec_backoff_ms);
  return p;
}

std::uint64_t sweep_fingerprint(const std::vector<std::uint64_t>& job_keys) {
  util::Fnv1a h;
  h.mix_u64(run_cache::kFormatVersion);
  h.mix_u64(job_keys.size());
  for (std::uint64_t k : job_keys) h.mix_u64(k);
  return h.digest();
}

std::string work_directory(const std::string& store,
                           const std::vector<std::uint64_t>& job_keys) {
  char name[40];
  std::snprintf(name, sizeof name, "sweep_%016llx",
                static_cast<unsigned long long>(sweep_fingerprint(job_keys)));
  return (fs::path(store) / name).string();
}

std::string scratch_store() {
#ifdef _WIN32
  return {};
#else
  static std::once_flag once;
  static std::string base;
  std::call_once(once, [] {
    std::error_code ec;
    const fs::path tmp = fs::temp_directory_path(ec);
    if (ec) return;
    char name[48];
    std::snprintf(name, sizeof name, "wlan_sweep_scratch.%lld",
                  static_cast<long long>(::getpid()));
    const fs::path path = tmp / name;
    fs::create_directories(path, ec);
    if (ec) return;
    base = path.string();
    // Parent-only cleanup: children leave through _Exit (or execve into a
    // fresh image), so this handler never fires in a shard.
    std::atexit([] {
      std::error_code rm;
      fs::remove_all(base, rm);
    });
  });
  return base;
#endif
}

// ------------------------------------------------------------- heartbeats

struct Heartbeat::Impl {
  std::string path;
  int index = 0;
  std::int64_t poll_ms = 100;
  std::atomic<std::size_t> jobs_done{0};

  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::thread thread;

  std::size_t last_done = static_cast<std::size_t>(-1);  // force first beat
  std::uint64_t last_ticks = ~std::uint64_t{0};

  void beat() {
    const std::size_t d = jobs_done.load(std::memory_order_relaxed);
    const std::uint64_t t = util::progress_ticks();
    if (d == last_done && t == last_ticks) return;  // no progress: freeze
    last_done = d;
    last_ticks = t;
    char text[128];
#ifdef _WIN32
    const long long pid = 0;
#else
    const long long pid = static_cast<long long>(::getpid());
#endif
    std::snprintf(text, sizeof text, "pid=%lld index=%d done=%zu ticks=%llu\n",
                  pid, index, d, static_cast<unsigned long long>(t));
    write_file_atomic(path, text);
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      lock.unlock();
      beat();
      lock.lock();
      if (cv.wait_for(lock, std::chrono::milliseconds(poll_ms),
                      [this] { return stop; }))
        break;
    }
    lock.unlock();
    beat();
  }
};

Heartbeat::Heartbeat(const std::string& dir, int index) : impl_(new Impl) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  impl_->path = shard_file(dir, index, "hb");
  impl_->index = index;
  impl_->poll_ms = clamp_env("WLAN_SHARD_POLL_MS", 100, 10, 10'000);
  impl_->thread = std::thread([impl = impl_] { impl->loop(); });
}

Heartbeat::~Heartbeat() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  impl_->thread.join();
  delete impl_;
}

void Heartbeat::note_job_done() {
  impl_->jobs_done.fetch_add(1, std::memory_order_relaxed);
}

// ----------------------------------------------- tombstones / poison list

bool write_tombstone(const std::string& work_dir, std::size_t job,
                     const Tombstone& tomb) {
  std::error_code ec;
  fs::create_directories(work_dir, ec);
  std::string text = "kind=";
  text += kind_name(tomb.kind);
  text += " attempts=" + std::to_string(tomb.attempts) + "\n";
  text += tomb.what;
  return write_file_atomic(fail_path(work_dir, job), text);
}

bool read_tombstone(const std::string& work_dir, std::size_t job,
                    Tombstone& out) {
  const std::string text = read_file_text(fail_path(work_dir, job));
  if (text.empty()) return false;
  char kind[32] = {0};
  int attempts = 0;
  if (std::sscanf(text.c_str(), "kind=%31s attempts=%d", kind, &attempts) != 2)
    return false;
  Tombstone t;
  if (!kind_from_name(kind, t.kind)) return false;
  t.attempts = attempts;
  const std::size_t nl = text.find('\n');
  t.what = nl == std::string::npos ? std::string() : text.substr(nl + 1);
  out = std::move(t);
  return true;
}

std::vector<std::size_t> read_poison_list(const std::string& work_dir) {
  std::vector<std::size_t> out;
  const std::string text =
      read_file_text((fs::path(work_dir) / "poison.list").string());
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const auto v = util::parse_int(text.substr(start, end - start));
    if (v && *v >= 0) out.push_back(static_cast<std::size_t>(*v));
    start = end + 1;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool append_poison(const std::string& work_dir, std::size_t job) {
  std::vector<std::size_t> list = read_poison_list(work_dir);
  list.push_back(job);
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end()), list.end());
  std::string text;
  for (std::size_t i : list) text += std::to_string(i) + "\n";
  return write_file_atomic((fs::path(work_dir) / "poison.list").string(),
                           text);
}

namespace testing {

void set_child_command(const std::vector<std::string>& argv) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_child_cmd = argv;
  g_latched = false;
  g_child.reset();
}

void reset_child_block() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_latched = false;
  g_child.reset();
}

}  // namespace testing

// -------------------------------------------------------------- supervisor

#ifndef _WIN32

namespace {

/// One shard's supervision state.
struct ShardProc {
  int index = 0;
  std::size_t lo = 0, hi = 0;
  pid_t pid = -1;
  bool finished = false;
  bool ever_spawned = false;
  int crashes_in_row = 0;
  /// The job blamed for a crash: the first unresolved index at spawn time
  /// (the block is contiguous and lanes sweep it in order, so a repeat
  /// killer keeps reappearing at the front).
  std::size_t suspect = static_cast<std::size_t>(-1);
  int suspect_crashes = 0;
  double next_spawn_s = 0.0;
  std::string hb_content;
  double hb_changed_s = 0.0;
  std::size_t hb_done = 0;
  /// Resolution counts from the last full scan of the block.
  std::size_t resolved_known = 0;
  std::size_t failed_known = 0;
};

/// What the supervisor reads to decide whether a job is resolved: the
/// sweep's work directory, the store that is its parent, and the keys
/// naming each job's store entry.
struct SweepFiles {
  std::string work_dir;
  std::string store;
  const std::vector<std::uint64_t>& job_keys;
};

bool job_resolved(const SweepFiles& f, std::size_t i,
                  const std::set<std::size_t>& poisoned) {
  if (poisoned.count(i) != 0) return true;
  std::error_code ec;
  return fs::exists(run_cache::entry_path(f.store, f.job_keys[i]), ec) ||
         fs::exists(fail_path(f.work_dir, i), ec);
}

/// Rescans a shard's block: resolved/tombstone counts and the first
/// unresolved job. Returns true when the whole block is resolved.
bool scan_block(const SweepFiles& f, ShardProc& s,
                const std::set<std::size_t>& poisoned,
                std::size_t& first_unresolved) {
  s.resolved_known = 0;
  s.failed_known = 0;
  first_unresolved = static_cast<std::size_t>(-1);
  std::error_code ec;
  for (std::size_t i = s.lo; i < s.hi; ++i) {
    if (poisoned.count(i) == 0 && fs::exists(fail_path(f.work_dir, i), ec))
      ++s.failed_known;
    if (job_resolved(f, i, poisoned)) {
      ++s.resolved_known;
    } else if (first_unresolved == static_cast<std::size_t>(-1)) {
      first_unresolved = i;
    }
  }
  return first_unresolved == static_cast<std::size_t>(-1);
}

/// Prints the last ~15 lines of a crashed shard's captured log to stderr,
/// prefixed so interleaved shard output stays attributable.
void relay_log_tail(const std::string& dir, int index) {
  const std::string path = shard_file(dir, index, "log");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  const long want = 4096;
  const long from = size > want ? size - want : 0;
  std::fseek(f, from, SEEK_SET);
  std::string tail(static_cast<std::size_t>(size - from), '\0');
  const std::size_t got = std::fread(tail.data(), 1, tail.size(), f);
  tail.resize(got);
  std::fclose(f);
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < tail.size()) {
    std::size_t end = tail.find('\n', start);
    if (end == std::string::npos) end = tail.size();
    if (end > start) lines.push_back(tail.substr(start, end - start));
    start = end + 1;
  }
  const std::size_t first = lines.size() > 15 ? lines.size() - 15 : 0;
  for (std::size_t i = first; i < lines.size(); ++i)
    std::fprintf(stderr, "[shard %d] %s\n", index, lines[i].c_str());
}

/// Fork+execve one shard child: stdout/stderr redirected into its log,
/// cwd moved into a private shard_<i>.wd directory (several drivers open
/// CSVs before run_sweep — a child must never truncate the parent's), and
/// the block assignment carried in both the environment and a hidden
/// --wlan-shard flag. Returns the pid, or -1.
pid_t spawn_shard(const SweepFiles& f, const ShardProc& s,
                  const std::vector<std::string>& base_cmd,
                  bool append_flag) {
  const std::string spec = f.work_dir + ":" + std::to_string(s.lo) + ":" +
                           std::to_string(s.hi);

  // argv: the driver's own invocation (or the test override), any prior
  // --wlan-shard flag dropped, ours appended.
  std::vector<std::string> argv_s;
  for (const std::string& a : base_cmd)
    if (a.rfind("--wlan-shard", 0) != 0) argv_s.push_back(a);
  if (argv_s.empty()) argv_s.push_back("/proc/self/exe");
  if (append_flag) argv_s.push_back("--wlan-shard=" + spec);

  // The exec target must be absolute: the child chdirs into its working
  // directory first, which would break a relative argv[0].
  char exe[4096];
  const ssize_t exe_len = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  std::string exec_path =
      base_cmd.empty() ? std::string() : base_cmd.front();
  if (exec_path.empty() || exec_path.front() != '/') {
    if (exe_len <= 0) return -1;
    exe[exe_len] = '\0';
    exec_path = exe;
  }

  // Environment: inherit everything except our own controls, then pin the
  // shard assignment, force children to stay single-process, name the
  // store absolutely (children run in a different cwd) with no size bound
  // (a child must never prune its siblings' results before the parent
  // reads them), and silence the telemetry sinks — the parent owns the
  // ticker and the heartbeat JSON.
  static const char* kDropped[] = {
      "WLAN_SHARD_SPEC=", "WLAN_SHARD_INDEX=",      "WLAN_SWEEP_PROCS=",
      "WLAN_RUN_CACHE=",  "WLAN_RUN_CACHE_MAX_MB=", "WLAN_PROGRESS=",
      "WLAN_PROGRESS_JSON="};
  std::vector<std::string> env_s;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string entry(*e);
    bool drop = false;
    for (const char* prefix : kDropped)
      if (entry.rfind(prefix, 0) == 0) drop = true;
    if (!drop) env_s.push_back(entry);
  }
  env_s.push_back("WLAN_SHARD_SPEC=" + spec);
  env_s.push_back("WLAN_SHARD_INDEX=" + std::to_string(s.index));
  env_s.push_back("WLAN_SWEEP_PROCS=1");
  env_s.push_back("WLAN_RUN_CACHE=" + f.store);

  std::vector<char*> argv_c;
  for (std::string& a : argv_s) argv_c.push_back(a.data());
  argv_c.push_back(nullptr);
  std::vector<char*> env_c;
  for (std::string& e : env_s) env_c.push_back(e.data());
  env_c.push_back(nullptr);

  const std::string wd = shard_file(f.work_dir, s.index, "wd");
  std::error_code ec;
  fs::create_directories(wd, ec);
  const std::string log = shard_file(f.work_dir, s.index, "log");
  const int log_fd =
      ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);

  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: async-signal-safe calls only until execve.
    if (log_fd >= 0) {
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::close(log_fd);
    }
    if (::chdir(wd.c_str()) != 0) ::_exit(126);
    ::execve(exec_path.c_str(), argv_c.data(), env_c.data());
    ::_exit(127);
  }
  if (log_fd >= 0) ::close(log_fd);
  return pid;
}

}  // namespace

SuperviseOutcome supervise(const std::string& work_dir,
                           const std::vector<std::uint64_t>& job_keys,
                           const Policy& policy, ProgressTracker* progress) {
  SuperviseOutcome out;
  const std::size_t num_jobs = job_keys.size();
  if (num_jobs == 0) return out;

  std::error_code ec;
  const fs::path abs_dir = fs::absolute(work_dir, ec);
  fs::create_directories(abs_dir, ec);
  const SweepFiles files{abs_dir.string(), abs_dir.parent_path().string(),
                         job_keys};

  // A fresh supervisor invocation is a fresh attempt: stored SUCCESSES
  // persist (that is the whole point), but stale failure verdicts,
  // heartbeats and logs from an earlier invocation are cleared so a
  // transient failure gets re-tried and stale liveness never masks a hang.
  for (const auto& de : fs::directory_iterator(abs_dir, ec)) {
    const std::string name = de.path().filename().string();
    const bool stale = de.path().extension() == ".fail" ||
                       de.path().extension() == ".hb" ||
                       de.path().extension() == ".log" ||
                       name == "poison.list";
    if (stale) fs::remove_all(de.path(), ec);
  }

  const std::size_t P = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, policy.processes)), num_jobs);
  const std::size_t base = num_jobs / P;
  const std::size_t rem = num_jobs % P;

  std::set<std::size_t> poisoned;
  std::vector<ShardProc> shards(P);
  for (std::size_t i = 0; i < P; ++i) {
    ShardProc& s = shards[i];
    s.index = static_cast<int>(i);
    s.lo = i * base + std::min(i, rem);
    s.hi = s.lo + base + (i < rem ? 1 : 0);
    std::size_t first;
    s.finished = scan_block(files, s, poisoned, first);
  }

  // The child command: the test override, else the driver's captured argv
  // (bench::init), else /proc/self/exe bare.
  std::vector<std::string> base_cmd;
  bool append_flag = true;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (!g_child_cmd.empty()) {
      base_cmd = g_child_cmd;
      append_flag = false;  // a gtest binary has no --wlan-shard parser
    } else {
      base_cmd = g_argv;
    }
  }

  const double poll_s = static_cast<double>(policy.poll_ms) / 1000.0;
  std::size_t live = 0;
  auto all_finished = [&] {
    for (const ShardProc& s : shards)
      if (!s.finished) return false;
    return true;
  };

  while (!all_finished()) {
    const double now = steady_seconds();
    live = 0;
    for (ShardProc& s : shards) {
      if (s.finished) continue;

      if (s.pid < 0) {
        if (now < s.next_spawn_s) continue;
        std::size_t first;
        if (scan_block(files, s, poisoned, first)) {
          s.finished = true;
          continue;
        }
        const pid_t pid = spawn_shard(files, s, base_cmd, append_flag);
        if (pid < 0) {
          // fork/exec failure: back off like a crash and try again.
          ++s.crashes_in_row;
          s.next_spawn_s =
              now + static_cast<double>(std::min<std::int64_t>(
                        static_cast<std::int64_t>(std::max(1, policy.backoff_ms))
                            << std::min(s.crashes_in_row - 1, 20),
                        30'000)) /
                        1000.0;
          continue;
        }
        if (s.ever_spawned) {
          ++out.respawns;
          fault_counters::add_shard_respawn();
        }
        s.ever_spawned = true;
        s.pid = pid;
        s.suspect = first;
        s.hb_content.clear();
        s.hb_changed_s = now;
        s.hb_done = 0;
        ++live;
        continue;
      }

      // A live child: reap or watch.
      int status = 0;
      const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
      if (r == s.pid) {
        s.pid = -1;
        std::size_t first;
        const bool resolved = scan_block(files, s, poisoned, first);
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (clean && resolved) {
          s.finished = true;
          continue;
        }
        // Anything else — a signal, a nonzero exit, or a "clean" exit that
        // left work unresolved — is a crash.
        ++out.crashes;
        fault_counters::add_shard_crash();
        if (WIFSIGNALED(status))
          std::fprintf(stderr,
                       "[sweep] shard %d (jobs %zu..%zu) died on signal %d\n",
                       s.index, s.lo, s.hi, WTERMSIG(status));
        else
          std::fprintf(stderr,
                       "[sweep] shard %d (jobs %zu..%zu) exited with "
                       "status %d before finishing its block\n",
                       s.index, s.lo, s.hi,
                       WIFEXITED(status) ? WEXITSTATUS(status) : -1);
        relay_log_tail(files.work_dir, s.index);
        if (resolved) {
          // Crashed on the way out, but every job is accounted for.
          s.finished = true;
          continue;
        }
        // Poison attribution: blame the first unresolved job; if the same
        // job fronts `crash_limit` consecutive crashes, quarantine it.
        if (first == s.suspect) {
          ++s.suspect_crashes;
        } else {
          s.suspect = first;
          s.suspect_crashes = 1;
        }
        ++s.crashes_in_row;
        if (s.suspect_crashes >= policy.crash_limit) {
          poisoned.insert(s.suspect);
          append_poison(files.work_dir, s.suspect);
          fault_counters::add_job_poisoned();
          out.poisoned.push_back(s.suspect);
          std::fprintf(stderr,
                       "[sweep] job %zu poisoned: it crashed shard %d %d "
                       "time%s in a row; quarantining and moving on\n",
                       s.suspect, s.index, s.suspect_crashes,
                       s.suspect_crashes == 1 ? "" : "s");
          s.suspect_crashes = 0;
          s.crashes_in_row = 0;  // the fleet can make progress again
        }
        s.next_spawn_s =
            now + static_cast<double>(std::min<std::int64_t>(
                      static_cast<std::int64_t>(std::max(1, policy.backoff_ms))
                          << std::min(std::max(s.crashes_in_row, 1) - 1, 20),
                      30'000)) /
                      1000.0;
        continue;
      }

      ++live;
      // Heartbeat liveness: the file content freezes exactly when the
      // child stops making progress (no event ticks, no completed jobs),
      // so staleness == hang, not slowness.
      const std::string hb =
          read_file_text(shard_file(files.work_dir, s.index, "hb"));
      if (hb != s.hb_content) {
        s.hb_content = hb;
        s.hb_changed_s = now;
        std::size_t done_n = 0;
        if (std::sscanf(hb.c_str(), "%*s %*s done=%zu", &done_n) == 1)
          s.hb_done = done_n;
      } else if (policy.stall_ms > 0 &&
                 now - s.hb_changed_s >
                     static_cast<double>(policy.stall_ms) / 1000.0) {
        std::fprintf(stderr,
                     "[sweep] shard %d (jobs %zu..%zu) heartbeat stale for "
                     "%lld ms; SIGKILL\n",
                     s.index, s.lo, s.hi,
                     static_cast<long long>(policy.stall_ms));
        ::kill(s.pid, SIGKILL);
        ++out.stall_kills;
        fault_counters::add_shard_stall_kill();
        s.hb_changed_s = now;  // reaped as a crash on the next poll
      }
    }

    if (progress != nullptr) {
      std::size_t done_total = 0, failed_total = poisoned.size();
      for (const ShardProc& s : shards) {
        done_total += s.finished
                          ? s.hi - s.lo
                          : std::min(s.resolved_known + s.hb_done,
                                     s.hi - s.lo);
        failed_total += s.failed_known;
      }
      char note[96];
      std::snprintf(note, sizeof note,
                    "procs %zu (%zu live, %llu respawns%s%s)", P, live,
                    static_cast<unsigned long long>(out.respawns),
                    out.poisoned.empty() ? "" : ", ",
                    out.poisoned.empty()
                        ? ""
                        : (std::to_string(out.poisoned.size()) + " poisoned")
                              .c_str());
      progress->update_absolute(done_total, failed_total, note);
    }

    std::this_thread::sleep_for(
        std::chrono::duration<double>(poll_s));
  }

  // Children are gone; their private working directories served their
  // purpose (isolating stray driver output). Logs and heartbeats stay for
  // post-mortems.
  for (const ShardProc& s : shards)
    fs::remove_all(shard_file(files.work_dir, s.index, "wd"), ec);

  std::sort(out.poisoned.begin(), out.poisoned.end());
  return out;
}

#else  // _WIN32

SuperviseOutcome supervise(const std::string&,
                           const std::vector<std::uint64_t>&, const Policy&,
                           ProgressTracker*) {
  return {};
}

#endif

}  // namespace wlan::exp::shard
