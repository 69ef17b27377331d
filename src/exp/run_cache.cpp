#include "exp/run_cache.hpp"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/collect.hpp"
#include "util/fnv.hpp"

namespace wlan::exp::run_cache {

namespace {

std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};
std::atomic<std::uint64_t> g_stores{0};
std::atomic<std::uint64_t> g_store_failures{0};
std::atomic<std::uint64_t> g_quarantined{0};

// ------------------------------------------------------------- key hashing

/// util::Fnv1a over a canonical little-endian field stream. Field-count
/// markers keep adjacent variable-length fields from aliasing (e.g.
/// weights {1.0} + {} vs {} + {1.0}).
class KeyHasher {
 public:
  void add_u64(std::uint64_t v) { h_.mix_u64(v); }
  void add_i64(std::int64_t v) { add_u64(static_cast<std::uint64_t>(v)); }
  void add_double(double d) { h_.mix_double(d); }
  void add_bool(bool b) { h_.mix_byte(b ? 1 : 2); }
  void add_duration(sim::Duration d) { add_i64(d.ns()); }
  void add_count(std::size_t n) { add_u64(0xC0u); add_u64(n); }

  std::uint64_t digest() const { return h_.digest(); }

 private:
  util::Fnv1a h_;
};

// Key coverage, checked at compile time: the direct-member count of every
// struct the hashers below read. A field added to one of them changes its
// count and stops the build here until the matching hash_* function (and
// its count) is updated, so an unhashed field can never serve a stale
// result. A braced list of N AnyField initializers compiles exactly when
// the aggregate has at least N direct members.
struct AnyField {
  template <class T>
  operator T() const;  // declaration only: used in unevaluated contexts
};

template <class T, std::size_t... I>
constexpr bool brace_constructible_from(std::index_sequence<I...>) {
  return requires { T{(static_cast<void>(I), AnyField{})...}; };
}

template <class T, std::size_t N = 0>
constexpr std::size_t member_count() {
  if constexpr (brace_constructible_from<T>(std::make_index_sequence<N + 1>{}))
    return member_count<T, N + 1>();
  else
    return N;
}

static_assert(member_count<ScenarioConfig>() == 13);
static_assert(member_count<PopulationStep>() == 2);
static_assert(member_count<mac::WifiParams>() == 19);
static_assert(member_count<traffic::TrafficConfig>() == 7);
static_assert(member_count<SchemeConfig>() == 8);
static_assert(member_count<core::KwOptions>() == 12);
static_assert(member_count<core::WTopCsmaController::Options>() == 3);
static_assert(member_count<core::ToraCsmaController::Options>() == 5);
static_assert(member_count<core::IdleSenseStrategy::Options>() == 7);
// Only warmup and measure are keyed: sample_period and record_series only
// shape series (which bypass the cache).
static_assert(member_count<RunOptions>() == 4);

void hash_wifi_params(KeyHasher& h, const mac::WifiParams& p) {
  h.add_double(p.data_rate_bps);
  h.add_double(p.control_rate_bps);
  h.add_i64(p.payload_bits);
  h.add_i64(p.mac_header_bits);
  h.add_i64(p.ack_bits);
  h.add_i64(p.beacon_bits);
  h.add_i64(p.rts_bits);
  h.add_i64(p.cts_bits);
  h.add_duration(p.slot);
  h.add_duration(p.sifs);
  h.add_duration(p.difs);
  h.add_duration(p.preamble);
  h.add_i64(p.cw_min);
  h.add_i64(p.cw_max);
  h.add_i64(p.rts_threshold_bits);
  h.add_bool(p.beacons_enabled);
  h.add_double(p.frame_error_rate);
  h.add_double(p.capture_ratio);
  h.add_bool(p.eifs_in_collision_model);
}

void hash_traffic(KeyHasher& h, const traffic::TrafficConfig& t) {
  h.add_i64(static_cast<std::int64_t>(t.model));
  h.add_double(t.offered_load_mbps);
  h.add_double(t.mean_on_s);
  h.add_double(t.mean_off_s);
  h.add_count(t.trace_gaps_s.size());
  for (double g : t.trace_gaps_s) h.add_double(g);
  h.add_bool(t.trace_repeat);
  h.add_u64(t.queue_capacity);
}

void hash_kw(KeyHasher& h, const core::KwOptions& k) {
  h.add_double(k.initial);
  h.add_double(k.probe_min);
  h.add_double(k.probe_max);
  h.add_double(k.value_min);
  h.add_double(k.value_max);
  h.add_double(k.gain);
  h.add_double(k.b_exponent);
  h.add_i64(k.initial_k);
  h.add_bool(k.log_space);
  h.add_double(k.dead_measurement_threshold);
  h.add_double(k.dead_zone_floor);
  h.add_double(k.max_step);
}

void hash_scenario(KeyHasher& h, const ScenarioConfig& s) {
  h.add_i64(s.num_stations);
  h.add_i64(static_cast<std::int64_t>(s.topology));
  h.add_double(s.radius);
  h.add_double(s.decode_radius);
  h.add_double(s.sense_radius);
  hash_wifi_params(h, s.phy);
  h.add_u64(s.seed);
  h.add_double(s.shadow_probability);
  hash_traffic(h, s.traffic);
  h.add_i64(s.cells);
  h.add_i64(s.cell_cols);
  h.add_double(s.cell_spacing);
  // Mixed only when set, so a static run keeps the key it had before the
  // schedule was a scenario field and older stores still replay.
  if (!s.population.empty()) {
    h.add_count(s.population.size());
    for (const PopulationStep& step : s.population) {
      h.add_double(step.t_seconds);
      h.add_i64(step.active_stations);
    }
  }
}

void hash_scheme(KeyHasher& h, const SchemeConfig& s) {
  h.add_i64(static_cast<std::int64_t>(s.kind));
  h.add_double(s.fixed_p);
  h.add_i64(s.reset_stage);
  h.add_double(s.reset_p0);
  h.add_count(s.weights.size());
  for (double w : s.weights) h.add_double(w);
  h.add_duration(s.wtop.update_period);
  hash_kw(h, s.wtop.kw);
  h.add_bool(s.wtop.record_history);
  h.add_duration(s.tora.update_period);
  h.add_double(s.tora.delta_low);
  h.add_double(s.tora.delta_high);
  hash_kw(h, s.tora.kw);
  h.add_bool(s.tora.record_history);
  h.add_double(s.idle_sense.target_idle_slots);
  h.add_double(s.idle_sense.epsilon);
  h.add_double(s.idle_sense.alpha);
  h.add_i64(s.idle_sense.max_trans);
  h.add_double(s.idle_sense.initial_cw);
  h.add_double(s.idle_sense.cw_min);
  h.add_double(s.idle_sense.cw_max);
}

// --------------------------------------------------------- (de)serializing

constexpr std::uint32_t kMagic = 0x57524C43;  // "WRLC"

/// Little-endian serializer into a memory buffer: the whole entry is
/// assembled (and checksummed) before a single fwrite, so the on-disk
/// bytes are either absent or complete-and-verifiable.
struct Writer {
  std::vector<unsigned char>& buf;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    u64(bits);
  }
};

struct Reader {
  const std::vector<unsigned char>& buf;
  std::size_t pos = 0;
  bool ok = true;
  std::uint64_t u64() {
    if (buf.size() - pos < 8) {
      ok = false;
      pos = buf.size();
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(buf[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    pos += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }
  std::string str(std::size_t len) {
    if (buf.size() - pos < len) {
      ok = false;
      pos = buf.size();
      return {};
    }
    std::string s(reinterpret_cast<const char*>(buf.data()) + pos, len);
    pos += len;
    return s;
  }
};

std::uint64_t checksum_of(const std::vector<unsigned char>& buf,
                          std::size_t len) {
  util::Fnv1a h;
  for (std::size_t i = 0; i < len; ++i) h.mix_byte(buf[i]);
  return h.digest();
}

void write_result(Writer& w, std::uint64_t key, const RunResult& r) {
  w.u64((static_cast<std::uint64_t>(kFormatVersion) << 32) | kMagic);
  w.u64(key);
  w.f64(r.total_mbps);
  w.f64(r.ap_avg_idle_slots);
  w.u64(r.hidden_pairs);
  w.f64(r.mean_attempt_probability);
  w.u64(r.successes);
  w.u64(r.failures);
  w.u64(r.packets_offered);
  w.u64(r.packets_dropped);
  w.f64(r.offered_mbps);
  w.f64(r.drop_rate);
  w.f64(r.mean_queue_occupancy);
  w.f64(r.mean_delay_s);
  w.f64(r.delay_p50_s);
  w.f64(r.delay_p95_s);
  w.f64(r.delay_p99_s);
  w.u64(r.per_station_mbps.size());
  for (double v : r.per_station_mbps) w.f64(v);
  // Delay histogram: its nonzero buckets as ascending (index, count) pairs.
  const auto buckets = r.delays.nonzero_buckets();
  w.u64(r.delays.count());
  w.u64(r.delays.raw_sum_ns());
  w.u64(r.delays.raw_min_ns());
  w.u64(r.delays.raw_max_ns());
  w.u64(buckets.size());
  for (const auto& b : buckets) {
    w.u64(b.index);
    w.u64(b.count);
  }
  // Metrics section: count then (name-length, name bytes, value) tuples,
  // insertion order preserved. Only the per-run counters are persisted:
  // the process-cumulative names (cache.*, exp.fault.*, profile.*) count
  // whichever process ran the job, and merge_run_metrics skips them
  // anyway, so a hit folds exactly like the fresh run it replays.
  std::vector<const obs::Metric*> kept;
  for (const obs::Metric& m : r.metrics.entries())
    if (!obs::is_process_cumulative_metric(m.name)) kept.push_back(&m);
  w.u64(kept.size());
  for (const obs::Metric* m : kept) {
    w.u64(m->name.size());
    w.buf.insert(w.buf.end(), m->name.begin(), m->name.end());
    w.f64(m->value);
  }
}

bool read_result(Reader& rd, std::uint64_t key, RunResult& out,
                 std::size_t payload_end) {
  if (rd.u64() != ((static_cast<std::uint64_t>(kFormatVersion) << 32) |
                   kMagic))
    return false;
  if (rd.u64() != key) return false;
  RunResult r;
  r.total_mbps = rd.f64();
  r.ap_avg_idle_slots = rd.f64();
  r.hidden_pairs = rd.u64();
  r.mean_attempt_probability = rd.f64();
  r.successes = rd.u64();
  r.failures = rd.u64();
  r.packets_offered = rd.u64();
  r.packets_dropped = rd.u64();
  r.offered_mbps = rd.f64();
  r.drop_rate = rd.f64();
  r.mean_queue_occupancy = rd.f64();
  r.mean_delay_s = rd.f64();
  r.delay_p50_s = rd.f64();
  r.delay_p95_s = rd.f64();
  r.delay_p99_s = rd.f64();
  const std::uint64_t stations = rd.u64();
  if (!rd.ok || stations > 1u << 20) return false;
  r.per_station_mbps.resize(stations);
  for (auto& v : r.per_station_mbps) v = rd.f64();
  const std::uint64_t count = rd.u64();
  const std::uint64_t sum_ns = rd.u64();
  const std::uint64_t min_ns = rd.u64();
  const std::uint64_t max_ns = rd.u64();
  const std::uint64_t nonzero = rd.u64();
  if (!rd.ok || nonzero > stats::DelayHistogram::kNumBuckets) return false;
  std::vector<stats::DelayHistogram::Bucket> buckets(nonzero);
  for (auto& b : buckets) {
    b.index = rd.u64();
    b.count = rd.u64();
  }
  // A histogram record() could not have built is as corrupt as a failed
  // checksum: the caller quarantines the entry and recomputes.
  if (!rd.ok || !r.delays.restore(buckets, count, sum_ns, min_ns, max_ns))
    return false;
  const std::uint64_t num_metrics = rd.u64();
  if (!rd.ok || num_metrics > 1u << 16) return false;
  for (std::uint64_t i = 0; i < num_metrics; ++i) {
    const std::uint64_t name_len = rd.u64();
    if (!rd.ok || name_len > 4096) return false;
    const std::string name = rd.str(static_cast<std::size_t>(name_len));
    const double value = rd.f64();
    if (!rd.ok) return false;
    r.metrics.set(name, value);
  }
  // Trailing payload bytes => foreign/corrupt file.
  if (!rd.ok || rd.pos != payload_end) return false;
  out = std::move(r);
  return true;
}

}  // namespace

std::string directory() {
  const char* dir = std::getenv("WLAN_RUN_CACHE");
  return dir == nullptr ? std::string() : std::string(dir);
}

std::uint64_t key_hash(const ScenarioConfig& scenario,
                       const SchemeConfig& scheme,
                       const RunOptions& options) {
  KeyHasher h;
  h.add_u64(kFormatVersion);
  hash_scenario(h, scenario);
  hash_scheme(h, scheme);
  h.add_duration(options.warmup);
  h.add_duration(options.measure);
  return h.digest();
}

std::vector<unsigned char> serialize_entry(std::uint64_t key,
                                           const RunResult& result) {
  std::vector<unsigned char> buf;
  Writer w{buf};
  write_result(w, key, result);
  // Content checksum footer: FNV-1a over every payload byte. A torn write
  // that survives a crash (or bit rot) cannot both truncate/flip bytes and
  // keep the footer consistent.
  w.u64(checksum_of(buf, buf.size()));
  return buf;
}

EntryStatus deserialize_entry(const std::vector<unsigned char>& buf,
                              std::uint64_t key, RunResult& out) {
  if (buf.size() < 8) return EntryStatus::kCorrupt;
  const std::size_t payload_end = buf.size() - 8;
  Reader footer{buf, payload_end};
  if (footer.u64() != checksum_of(buf, payload_end))
    return EntryStatus::kCorrupt;
  Reader rd{buf};
  if (!read_result(rd, key, out, payload_end)) return EntryStatus::kCorrupt;
  return EntryStatus::kOk;
}

std::string entry_path(const std::string& dir, std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.run",
                static_cast<unsigned long long>(key));
  return (std::filesystem::path(dir) / name).string();
}

namespace {

unsigned long long current_pid() {
#ifdef _WIN32
  return static_cast<unsigned long long>(::_getpid());
#else
  return static_cast<unsigned long long>(::getpid());
#endif
}

/// Reads and validates the entry file at `path` against `key`.
EntryStatus read_entry_file(const std::string& path, std::uint64_t key,
                            RunResult& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return EntryStatus::kMissing;
  std::vector<unsigned char> buf;
  unsigned char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    buf.insert(buf.end(), chunk, chunk + n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return EntryStatus::kCorrupt;
  return deserialize_entry(buf, key, out);
}

/// Atomically writes an entry file: unique temp name per process + call,
/// renamed into place, so concurrent drivers (and lanes within one) and a
/// crash mid-write only ever leave complete entries or nothing (rename
/// within one directory is atomic on POSIX).
bool write_entry_file(const std::string& path, std::uint64_t key,
                      const RunResult& result) {
  static std::atomic<std::uint64_t> store_counter{0};
  char suffix[64];
  std::snprintf(suffix, sizeof suffix, ".%llx.%llx.tmp", current_pid(),
                static_cast<unsigned long long>(
                    store_counter.fetch_add(1, std::memory_order_relaxed)));
  const std::string tmp_path = path + suffix;
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::vector<unsigned char> buf = serialize_entry(key, result);
  const bool wrote = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  const bool flushed = std::fclose(f) == 0 && wrote;
  std::error_code ec;
  if (!flushed) {
    std::filesystem::remove(tmp_path, ec);
    return false;
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return false;
  }
  return true;
}

/// Renames a corrupt entry aside to `<path>.quarantined.<pid>` so it is
/// preserved for inspection but never re-read; removes it when the rename
/// fails (e.g. cross-device or permissions).
void quarantine_entry(const std::string& path) {
  char suffix[48];
  std::snprintf(suffix, sizeof suffix, ".quarantined.%llx", current_pid());
  std::error_code ec;
  std::filesystem::rename(path, path + suffix, ec);
  if (ec) std::filesystem::remove(path, ec);
}

}  // namespace

bool lookup(const std::string& dir, std::uint64_t key, RunResult& out) {
  const std::string path = entry_path(dir, key);
  switch (read_entry_file(path, key, out)) {
    case EntryStatus::kOk:
      g_hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    case EntryStatus::kCorrupt:
      quarantine_entry(path);
      g_quarantined.fetch_add(1, std::memory_order_relaxed);
      [[fallthrough]];
    case EntryStatus::kMissing:
      break;
  }
  g_misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool store(const std::string& dir, std::uint64_t key,
           const RunResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const bool ok = write_entry_file(entry_path(dir, key), key, result);
  (ok ? g_stores : g_store_failures).fetch_add(1, std::memory_order_relaxed);
  return ok;
}

Stats stats() {
  Stats s;
  s.hits = g_hits.load(std::memory_order_relaxed);
  s.misses = g_misses.load(std::memory_order_relaxed);
  s.stores = g_stores.load(std::memory_order_relaxed);
  s.store_failures = g_store_failures.load(std::memory_order_relaxed);
  s.quarantined = g_quarantined.load(std::memory_order_relaxed);
  return s;
}

void reset_stats() {
  g_hits = 0;
  g_misses = 0;
  g_stores = 0;
  g_store_failures = 0;
  g_quarantined = 0;
}

}  // namespace wlan::exp::run_cache
