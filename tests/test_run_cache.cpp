// Tests for the result store: key sensitivity, bit-exact round-tripping of
// every stored field (including the delay histogram, the per-run counters
// and the time series), the run_sweep integration (a hit short-circuits
// the simulation and folds like a fresh run; run_scenario never touches
// the store), the source epoch, corruption tolerance, and the pinned bytes
// and validation of the histogram's store section.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/run_cache.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "obs/collect.hpp"
#include "par/thread_pool.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;
namespace rc = exp::run_cache;

/// Unique per-test cache directory, removed on destruction; points
/// WLAN_RUN_CACHE at itself for the integration tests.
struct CacheDirGuard {
  std::filesystem::path dir;
  explicit CacheDirGuard(const char* tag) {
    dir = std::filesystem::temp_directory_path() /
          (std::string("wlan_run_cache_") + tag);
    std::filesystem::remove_all(dir);
    ::setenv("WLAN_RUN_CACHE", dir.c_str(), 1);
    rc::reset_stats();
  }
  ~CacheDirGuard() {
    ::unsetenv("WLAN_RUN_CACHE");
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

exp::RunOptions tiny_options() {
  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(0.05);
  opts.measure = sim::Duration::seconds(0.3);
  return opts;
}

/// One run through the store: a one-point, one-seed sweep.
exp::RunResult stored_run(const ScenarioConfig& scenario,
                          const SchemeConfig& scheme,
                          const exp::RunOptions& opts) {
  const auto sweep =
      exp::run_sweep(exp::SweepSpec::single(scenario, scheme, opts));
  sweep.throw_if_failed();
  return sweep.at(0).runs[0];
}

TEST(RunCache, DisabledWithoutEnvironment) {
  ::unsetenv("WLAN_RUN_CACHE");
  EXPECT_TRUE(rc::directory().empty());
}

TEST(RunCache, KeyIsSensitiveToEveryAxis) {
  const auto scenario = ScenarioConfig::connected(10, 1);
  const auto scheme = SchemeConfig::wtop_csma();
  const auto opts = tiny_options();
  const std::uint64_t base = rc::key_hash(scenario, scheme, opts);

  auto other_seed = scenario;
  other_seed.seed = 2;
  EXPECT_NE(base, rc::key_hash(other_seed, scheme, opts));

  auto other_n = scenario;
  other_n.num_stations = 11;
  EXPECT_NE(base, rc::key_hash(other_n, scheme, opts));

  auto other_phy = scenario;
  other_phy.phy.cw_min = 16;
  EXPECT_NE(base, rc::key_hash(other_phy, scheme, opts));

  auto other_traffic = scenario;
  other_traffic.traffic = traffic::TrafficConfig::poisson(2.0);
  EXPECT_NE(base, rc::key_hash(other_traffic, scheme, opts));

  auto other_scheme = scheme;
  other_scheme.wtop.kw.gain = 2.0;
  EXPECT_NE(base, rc::key_hash(scenario, other_scheme, opts));

  auto weighted = scheme;
  weighted.weights = {2.0, 1.0};
  EXPECT_NE(base, rc::key_hash(scenario, weighted, opts));

  // Variable-length fields must not alias across adjacent fields.
  auto w_a = scheme, w_b = scheme;
  w_a.weights = {1.0};
  w_b.weights = {1.0, 1.0};
  EXPECT_NE(rc::key_hash(scenario, w_a, opts),
            rc::key_hash(scenario, w_b, opts));

  auto other_opts = opts;
  other_opts.measure = sim::Duration::seconds(0.4);
  EXPECT_NE(base, rc::key_hash(scenario, scheme, other_opts));
  auto other_warmup = opts;
  other_warmup.warmup = sim::Duration::seconds(0.1);
  EXPECT_NE(base, rc::key_hash(scenario, scheme, other_warmup));

  // Series options: recording series, and the period they are sampled
  // at, each change the key.
  auto series = opts;
  series.record_series = true;
  EXPECT_NE(base, rc::key_hash(scenario, scheme, series));
  auto other_period = series;
  other_period.sample_period = sim::Duration::seconds(0.5);
  EXPECT_NE(rc::key_hash(scenario, scheme, series),
            rc::key_hash(scenario, scheme, other_period));

  // Population schedule: having one step, and moving one step's time or
  // count, each change the key.
  auto stepped = scenario;
  stepped.population = {{0.0, 10}};
  EXPECT_NE(base, rc::key_hash(stepped, scheme, opts));
  auto sched_a = scenario, sched_t = scenario, sched_n = scenario;
  sched_a.population = {{0.0, 10}, {0.2, 4}};
  sched_t.population = {{0.0, 10}, {0.25, 4}};
  sched_n.population = {{0.0, 10}, {0.2, 5}};
  EXPECT_NE(rc::key_hash(sched_a, scheme, opts),
            rc::key_hash(sched_t, scheme, opts));
  EXPECT_NE(rc::key_hash(sched_a, scheme, opts),
            rc::key_hash(sched_n, scheme, opts));

  EXPECT_EQ(base, rc::key_hash(scenario, scheme, opts));  // stable
}

/// The six series of `r`, in RunResult's order.
std::vector<const stats::TimeSeries*> series_of(const exp::RunResult& r) {
  return {&r.throughput_series,   &r.control_series, &r.stage_series,
          &r.active_nodes_series, &r.queue_series,   &r.drop_series};
}

/// Every series of `a` equals `b`'s: name, length and each sample's bits.
void expect_same_series(const exp::RunResult& a, const exp::RunResult& b) {
  const auto sa = series_of(a), sb = series_of(b);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i]->name(), sb[i]->name());
    ASSERT_EQ(sa[i]->size(), sb[i]->size()) << sa[i]->name();
    for (std::size_t k = 0; k < sa[i]->size(); ++k) {
      const stats::Sample& x = sa[i]->samples()[k];
      const stats::Sample& y = sb[i]->samples()[k];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.t_seconds),
                std::bit_cast<std::uint64_t>(y.t_seconds));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.value),
                std::bit_cast<std::uint64_t>(y.value));
    }
  }
}

TEST(RunCache, RoundTripsEveryFieldBitExactly) {
  CacheDirGuard guard("roundtrip");
  // Traffic run with series: populates the delay histogram, drops,
  // occupancy and all six series — the full serialized surface.
  auto scenario = ScenarioConfig::hidden(6, 16.0, 3);
  scenario.traffic = traffic::TrafficConfig::poisson(1.5, /*capacity=*/4);
  auto opts = tiny_options();
  opts.record_series = true;
  opts.sample_period = sim::Duration::seconds(0.05);
  const auto fresh = stored_run(scenario, SchemeConfig::standard(), opts);
  ASSERT_GT(fresh.delays.count(), 0u);
  for (const stats::TimeSeries* s : series_of(fresh))
    ASSERT_FALSE(s->empty()) << s->name();

  const std::uint64_t key =
      rc::key_hash(scenario, SchemeConfig::standard(), opts);
  exp::RunResult cached;
  ASSERT_TRUE(rc::lookup(rc::directory(), key, cached));

  EXPECT_EQ(fresh.total_mbps, cached.total_mbps);
  EXPECT_EQ(fresh.per_station_mbps, cached.per_station_mbps);
  EXPECT_EQ(fresh.ap_avg_idle_slots, cached.ap_avg_idle_slots);
  EXPECT_EQ(fresh.hidden_pairs, cached.hidden_pairs);
  EXPECT_EQ(fresh.mean_attempt_probability, cached.mean_attempt_probability);
  EXPECT_EQ(fresh.successes, cached.successes);
  EXPECT_EQ(fresh.failures, cached.failures);
  EXPECT_EQ(fresh.packets_offered, cached.packets_offered);
  EXPECT_EQ(fresh.packets_dropped, cached.packets_dropped);
  EXPECT_EQ(fresh.offered_mbps, cached.offered_mbps);
  EXPECT_EQ(fresh.drop_rate, cached.drop_rate);
  EXPECT_EQ(fresh.mean_queue_occupancy, cached.mean_queue_occupancy);
  EXPECT_EQ(fresh.mean_delay_s, cached.mean_delay_s);
  EXPECT_EQ(fresh.delay_p50_s, cached.delay_p50_s);
  EXPECT_EQ(fresh.delay_p95_s, cached.delay_p95_s);
  EXPECT_EQ(fresh.delay_p99_s, cached.delay_p99_s);
  // Histogram internals: identical buckets => identical future quantiles.
  EXPECT_EQ(fresh.delays.count(), cached.delays.count());
  EXPECT_EQ(fresh.delays.nonzero_buckets(), cached.delays.nonzero_buckets());
  EXPECT_EQ(fresh.delays.stored_buckets(), cached.delays.stored_buckets());
  EXPECT_EQ(fresh.delays.raw_sum_ns(), cached.delays.raw_sum_ns());
  EXPECT_EQ(fresh.delays.raw_min_ns(), cached.delays.raw_min_ns());
  EXPECT_EQ(fresh.delays.raw_max_ns(), cached.delays.raw_max_ns());
  EXPECT_EQ(fresh.delays.quantile(0.5), cached.delays.quantile(0.5));
  expect_same_series(fresh, cached);

  // An empty series round-trips as empty, and the others around it keep
  // their samples.
  auto partial = fresh;
  partial.stage_series = stats::TimeSeries("stage");
  exp::RunResult decoded;
  ASSERT_EQ(rc::deserialize_entry(rc::serialize_entry(key, partial), key,
                                  decoded),
            rc::EntryStatus::kOk);
  EXPECT_TRUE(decoded.stage_series.empty());
  expect_same_series(partial, decoded);
}

TEST(RunCache, SecondRunHitsAndMatchesTheFirst) {
  CacheDirGuard guard("hits");
  const auto scenario = ScenarioConfig::connected(6, 1);
  const auto opts = tiny_options();

  const auto first =
      stored_run(scenario, SchemeConfig::idle_sense_scheme(), opts);
  const auto after_first = rc::stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.stores, 1u);

  const auto second =
      stored_run(scenario, SchemeConfig::idle_sense_scheme(), opts);
  const auto after_second = rc::stats();
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(after_second.stores, 1u);  // no re-store on a hit

  EXPECT_EQ(first.total_mbps, second.total_mbps);
  EXPECT_EQ(first.per_station_mbps, second.per_station_mbps);
  EXPECT_EQ(first.successes, second.successes);
}

TEST(RunCache, RunScenarioNeverTouchesTheStore) {
  // Only run_sweep reads or writes the store: a run_scenario call, store
  // set or not, always simulates and leaves nothing on disk.
  CacheDirGuard guard("run_scenario");
  const auto scenario = ScenarioConfig::connected(4, 1);
  const auto opts = tiny_options();
  const auto a = exp::run_scenario(scenario, SchemeConfig::standard(), opts);
  const auto b = exp::run_scenario(scenario, SchemeConfig::standard(), opts);
  const auto stats = rc::stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.stores, 0u);
  EXPECT_FALSE(std::filesystem::exists(guard.dir));
  EXPECT_EQ(a.total_mbps, b.total_mbps);
  EXPECT_EQ(a.successes, b.successes);
}

TEST(RunCache, SweepEntriesLandUnderTheEpochDirectory) {
  // A sweep files its entries under <WLAN_RUN_CACHE>/<epoch as 16 hex
  // digits>/, so every other epoch's entries sit in other directories.
  CacheDirGuard guard("epoch_dir");
  char epoch[17];
  std::snprintf(epoch, sizeof epoch, "%016llx",
                static_cast<unsigned long long>(rc::source_epoch()));
  const std::string epoch_dir = (guard.dir / epoch).string();
  EXPECT_EQ(rc::directory(), epoch_dir);

  const auto scenario = ScenarioConfig::connected(4, 6);
  const auto opts = tiny_options();
  stored_run(scenario, SchemeConfig::standard(), opts);
  const std::uint64_t key =
      rc::key_hash(scenario, SchemeConfig::standard(), opts);
  std::vector<std::string> children;
  for (const auto& e : std::filesystem::directory_iterator(guard.dir))
    children.push_back(e.path().string());
  EXPECT_EQ(children, std::vector<std::string>{epoch_dir});
  std::vector<std::string> entries;
  for (const auto& e : std::filesystem::directory_iterator(epoch_dir))
    entries.push_back(e.path().string());
  EXPECT_EQ(entries,
            std::vector<std::string>{rc::entry_path(epoch_dir, key)});
}

TEST(RunCache, ParallelSweepPopulatesAndThenHitsBitIdentically) {
  // Concurrent lanes store into the cache (atomic temp+rename per entry);
  // a second identical sweep is served entirely from cache and must be
  // exactly equal, lane count notwithstanding.
  CacheDirGuard guard("sweep");
  exp::SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(4, 1),
                    ScenarioConfig::hidden(4, 16.0, 2)};
  spec.schemes = {SchemeConfig::standard(),
                  SchemeConfig::fixed_p_persistent(0.05)};
  spec.seeds = 2;
  spec.options = tiny_options();
  par::ThreadPool pool(3);

  // Each job is looked up exactly once and stored at most once.
  const auto first = exp::run_sweep(spec, &pool);
  const auto populated = rc::stats();
  EXPECT_EQ(populated.misses, 8u);  // 2 scenarios x 2 schemes x 2 seeds
  EXPECT_EQ(populated.stores, 8u);
  EXPECT_EQ(populated.hits, 0u);

  const auto second = exp::run_sweep(spec, &pool);
  const auto warm = rc::stats();
  EXPECT_EQ(warm.hits, 8u);
  EXPECT_EQ(warm.misses, 8u);  // no new misses
  EXPECT_EQ(warm.stores, 8u);  // and no new stores

  ASSERT_EQ(first.points.size(), second.points.size());
  for (std::size_t i = 0; i < first.points.size(); ++i) {
    EXPECT_EQ(first.points[i].averaged.mean_mbps,
              second.points[i].averaged.mean_mbps);
    EXPECT_EQ(first.points[i].averaged.mean_idle_slots,
              second.points[i].averaged.mean_idle_slots);
  }
}

/// The sweep-level metrics a store must reproduce: every name except
/// sweep.jobs_replayed (which counts what the store served), sorted by
/// name.
std::vector<std::pair<std::string, double>> per_run_totals(
    const obs::MetricsRegistry& reg) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& m : reg.entries())
    if (m.name != "sweep.jobs_replayed") out.emplace_back(m.name, m.value);
  std::sort(out.begin(), out.end());
  return out;
}

/// The 2 x 2 x 2 grid of eight short jobs the lane-count test sweeps.
exp::SweepSpec eight_job_grid() {
  exp::SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(3, 1),
                    ScenarioConfig::hidden(4, 16.0, 2)};
  spec.schemes = {SchemeConfig::standard(),
                  SchemeConfig::fixed_p_persistent(0.05)};
  spec.seeds = 2;
  spec.options.warmup = sim::Duration::zero();
  spec.options.measure = sim::Duration::seconds(0.2);
  spec.job_retries = 0;
  spec.job_backoff_ms = 0;
  return spec;
}

/// Every point's seed-averaged fields, in point order.
std::vector<double> averaged_fields(const exp::SweepResult& result) {
  std::vector<double> out;
  for (const auto& point : result.points) {
    const exp::AveragedResult& a = point.averaged;
    out.insert(out.end(),
               {a.mean_mbps, a.min_mbps, a.max_mbps, a.mean_idle_slots,
                a.mean_hidden_pairs, a.mean_offered_mbps, a.mean_drop_rate,
                a.mean_queue_occupancy, a.mean_delay_s, a.mean_delay_p50_s,
                a.mean_delay_p95_s, a.mean_delay_p99_s});
  }
  return out;
}

TEST(RunCache, WarmSweepReplaysEveryJobAndFoldsTheColdCounters) {
  // At 1, 2 and 4 lanes, a cold sweep into a fresh store and the warm
  // re-run the store serves entirely fold the same averages and per-run
  // counters (sim.*, medium.*, mac.*) as one lane with no store, and the
  // warm pass says so in sweep.jobs_replayed.
  ::unsetenv("WLAN_RUN_CACHE");
  const exp::SweepSpec spec = eight_job_grid();
  par::ThreadPool one_lane(1);
  const auto reference = exp::run_sweep(spec, &one_lane);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference.metrics.get("sim.events_executed", 0.0), 0.0);

  for (const int lanes : {1, 2, 4}) {
    const std::string tag = "warm_sweep_" + std::to_string(lanes);
    CacheDirGuard guard(tag.c_str());
    par::ThreadPool pool(lanes);
    const auto cold = exp::run_sweep(spec, &pool);
    const auto warm = exp::run_sweep(spec, &pool);
    EXPECT_EQ(cold.metrics.get("sweep.jobs_replayed", -1.0), 0.0) << tag;
    EXPECT_EQ(warm.metrics.get("sweep.jobs_replayed", -1.0), 8.0) << tag;
    EXPECT_EQ(rc::stats().hits, 8u) << tag;
    for (const exp::SweepResult* pass : {&cold, &warm}) {
      EXPECT_TRUE(pass->ok()) << tag;
      EXPECT_EQ(per_run_totals(pass->metrics),
                per_run_totals(reference.metrics))
          << tag;
      EXPECT_EQ(averaged_fields(*pass), averaged_fields(reference)) << tag;
    }
  }
}

TEST(RunCache, EntryFromAnotherEpochIsNotServed) {
  // An entry that other sources built, planted where this build looks for
  // the job, must not be served: the job simulates instead.
  CacheDirGuard guard("other_epoch");
  const auto scenario = ScenarioConfig::connected(4, 5);
  const auto scheme = SchemeConfig::standard();
  const auto opts = tiny_options();
  const std::uint64_t key = rc::key_hash(scenario, scheme, opts);

  exp::RunResult planted;
  planted.total_mbps = 12345.0;
  auto bytes = rc::serialize_entry(key, planted);
  const std::uint64_t other_epoch = rc::source_epoch() ^ 1u;
  for (int i = 0; i < 8; ++i)
    bytes[static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(other_epoch >> (8 * i));
  // Recompute the footer, so only the epoch tells the entry apart.
  bytes.resize(bytes.size() - 8);
  util::Fnv1a footer;
  for (unsigned char c : bytes) footer.mix_byte(c);
  for (int i = 0; i < 8; ++i)
    bytes.push_back(static_cast<unsigned char>(footer.digest() >> (8 * i)));
  std::filesystem::create_directories(rc::directory());
  {
    std::ofstream out(rc::entry_path(rc::directory(), key),
                      std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  const auto served = stored_run(scenario, scheme, opts);
  const auto stats = rc::stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
  const auto simulated = exp::run_scenario(scenario, scheme, opts);
  EXPECT_NE(served.total_mbps, planted.total_mbps);
  EXPECT_EQ(served.total_mbps, simulated.total_mbps);
  EXPECT_EQ(served.successes, simulated.successes);
}

TEST(RunCache, CorruptEntryIsQuarantinedAndRecomputed) {
  CacheDirGuard guard("corrupt");
  const auto scenario = ScenarioConfig::connected(4, 2);
  const auto opts = tiny_options();
  const auto first = stored_run(scenario, SchemeConfig::standard(), opts);

  // Overwrite the single cache entry with garbage.
  std::filesystem::path entry;
  for (const auto& e : std::filesystem::directory_iterator(rc::directory()))
    entry = e.path();
  ASSERT_FALSE(entry.empty());
  std::FILE* f = std::fopen(entry.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage", f);
  std::fclose(f);

  rc::reset_stats();
  const auto second = stored_run(scenario, SchemeConfig::standard(), opts);
  const auto stats = rc::stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);       // re-stored a good entry
  EXPECT_EQ(stats.quarantined, 1u);  // the garbage was renamed aside
  EXPECT_EQ(first.total_mbps, second.total_mbps);

  // The corrupt bytes survive for inspection under a .quarantined name
  // (and are never re-read as a cache entry).
  bool found_quarantined = false;
  for (const auto& e : std::filesystem::directory_iterator(rc::directory()))
    if (e.path().string().find(".quarantined.") != std::string::npos)
      found_quarantined = true;
  EXPECT_TRUE(found_quarantined);

  // The rewritten entry now hits.
  const auto third = stored_run(scenario, SchemeConfig::standard(), opts);
  EXPECT_EQ(rc::stats().hits, 1u);
  EXPECT_EQ(first.successes, third.successes);
}

TEST(RunCache, ChecksumCatchesASingleFlippedByte) {
  // A flipped byte deep in the payload (not the header, not the key) must
  // fail the checksum footer — the pre-checksum format would have parsed
  // it as a plausible but wrong result.
  CacheDirGuard guard("bitflip");
  const auto scenario = ScenarioConfig::connected(4, 3);
  const auto opts = tiny_options();
  stored_run(scenario, SchemeConfig::standard(), opts);

  std::filesystem::path entry;
  for (const auto& e : std::filesystem::directory_iterator(rc::directory()))
    entry = e.path();
  ASSERT_FALSE(entry.empty());
  std::FILE* f = std::fopen(entry.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  // Bytes 0-15 are the header (epoch, key) and 16-23 total_mbps; byte 24
  // is the first byte of ap_avg_idle_slots.
  ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  std::fseek(f, 24, SEEK_SET);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);

  rc::reset_stats();
  const std::uint64_t key =
      rc::key_hash(scenario, SchemeConfig::standard(), opts);
  exp::RunResult out;
  EXPECT_FALSE(rc::lookup(rc::directory(), key, out));
  EXPECT_EQ(rc::stats().quarantined, 1u);
}

TEST(RunCache, EntrySerializationRoundTripsThroughTheBuffer) {
  exp::RunResult r;
  r.total_mbps = 3.25;
  r.successes = 42;
  r.per_station_mbps = {1.0, 2.25};
  // Per-run counters round-trip; the wall-clock profile.* buckets are
  // dropped.
  r.metrics.set("sim.events_executed", 13949.0);
  r.metrics.set("medium.tx_started", 0.1 + 0.2);  // not a round double
  r.metrics.set("profile.sim.wall_ns", 123456.0);
  r.metrics.set("mac.cohort.enrolled", 7.0);
  const std::uint64_t key = 0xDEADBEEFCAFEBABEull;
  const auto buf = rc::serialize_entry(key, r);

  exp::RunResult out;
  EXPECT_EQ(rc::deserialize_entry(buf, key, out), rc::EntryStatus::kOk);
  EXPECT_EQ(out.total_mbps, r.total_mbps);
  EXPECT_EQ(out.successes, r.successes);
  EXPECT_EQ(out.per_station_mbps, r.per_station_mbps);
  ASSERT_EQ(out.metrics.entries().size(), 3u);
  EXPECT_EQ(out.metrics.get("sim.events_executed"), 13949.0);
  EXPECT_EQ(out.metrics.get("medium.tx_started"), 0.1 + 0.2);
  EXPECT_EQ(out.metrics.get("mac.cohort.enrolled"), 7.0);
  EXPECT_FALSE(out.metrics.contains("profile.sim.wall_ns"));

  // Wrong key: corrupt (the entry is not the requested content).
  EXPECT_EQ(rc::deserialize_entry(buf, key + 1, out),
            rc::EntryStatus::kCorrupt);

  // Truncation and bit flips: corrupt.
  auto truncated = buf;
  truncated.pop_back();
  EXPECT_EQ(rc::deserialize_entry(truncated, key, out),
            rc::EntryStatus::kCorrupt);
  auto flipped = buf;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_EQ(rc::deserialize_entry(flipped, key, out),
            rc::EntryStatus::kCorrupt);

  // Trailing junk after the footer: corrupt, not silently ignored.
  auto padded = buf;
  padded.push_back(0);
  EXPECT_EQ(rc::deserialize_entry(padded, key, out),
            rc::EntryStatus::kCorrupt);
}

// --- The delay histogram's store section -----------------------------------

/// An entry for `key`, assembled word by word: this build's source epoch,
/// the key, 15 zero scalar fields, no per-station rates, the given
/// histogram section, an empty metrics section, six empty series and the
/// FNV-1a footer over all of it.
std::vector<unsigned char> histogram_entry(
    std::uint64_t key, const std::vector<std::uint64_t>& histogram) {
  std::vector<std::uint64_t> words = {rc::source_epoch(), key};
  words.insert(words.end(), 16, 0);
  words.insert(words.end(), histogram.begin(), histogram.end());
  words.insert(words.end(), 7, 0);
  std::vector<unsigned char> buf;
  for (std::uint64_t w : words)
    for (int i = 0; i < 8; ++i)
      buf.push_back(static_cast<unsigned char>(w >> (8 * i)));
  util::Fnv1a footer;
  for (unsigned char c : buf) footer.mix_byte(c);
  for (int i = 0; i < 8; ++i)
    buf.push_back(static_cast<unsigned char>(footer.digest() >> (8 * i)));
  return buf;
}

// Delays 1000, 0, 100, 7 and 100 ns land in buckets 190, 0, 82, 7, 82.
const std::vector<std::uint64_t> kKnownSection = {
    5, 1207, 0, 1000,           // count, sum, min, max
    4,                          // nonzero buckets, then (index, count):
    0, 1, 7, 1, 82, 2, 190, 1,  // ascending
};

TEST(RunCache, HistogramSectionKeepsItsBytes) {
  // The layout of a known entry is pinned word by word, so a change to
  // the histogram section's bytes is a deliberate one.
  exp::RunResult r;
  for (int ns : {1000, 0, 100, 7, 100})
    r.delays.record(sim::Duration::nanoseconds(ns));
  const std::uint64_t key = 0x0123456789ABCDEFull;
  const auto pinned = histogram_entry(key, kKnownSection);
  EXPECT_EQ(rc::serialize_entry(key, r), pinned);

  exp::RunResult out;
  ASSERT_EQ(rc::deserialize_entry(pinned, key, out), rc::EntryStatus::kOk);
  EXPECT_EQ(out.delays.nonzero_buckets(), r.delays.nonzero_buckets());
  EXPECT_EQ(out.delays.stored_buckets(), 191u);
  EXPECT_EQ(out.delays.raw_sum_ns(), 1207u);
  for (double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_EQ(out.delays.quantile(q), r.delays.quantile(q));
}

TEST(RunCache, HistogramThatRecordCouldNotBuildIsCorrupt) {
  // Each shape below is checksummed correctly; the histogram's own
  // validation must still refuse it.
  const std::uint64_t key = 42;
  exp::RunResult out;
  ASSERT_EQ(
      rc::deserialize_entry(histogram_entry(key, kKnownSection), key, out),
      rc::EntryStatus::kOk);
  const std::vector<std::pair<const char*, std::vector<std::uint64_t>>>
      shapes = {
          {"index >= kNumBuckets", {1, 5000, 5000, 5000, 1, 2048, 1}},
          {"duplicate index", {5, 1207, 0, 1000, 4, 0, 1, 7, 1, 7, 2, 190, 1}},
          {"descending index",
           {5, 1207, 0, 1000, 4, 0, 1, 82, 2, 7, 1, 190, 1}},
          {"zero count",
           {5, 1207, 0, 1000, 5, 0, 1, 7, 1, 50, 0, 82, 2, 190, 1}},
          {"counts short of count",
           {6, 1207, 0, 1000, 4, 0, 1, 7, 1, 82, 2, 190, 1}},
          {"counts beyond count",
           {4, 1207, 0, 1000, 4, 0, 1, 7, 1, 82, 2, 190, 1}},
          {"first index is not bucket_of(min)",
           {4, 1207, 0, 1000, 3, 7, 1, 82, 2, 190, 1}},
          {"last index is not bucket_of(max)",
           {4, 207, 0, 1000, 3, 0, 1, 7, 1, 82, 2}},
          {"min above max, one bucket", {1, 100, 101, 100, 1, 82, 1}},
          {"empty with a nonzero sum", {0, 5, 0, 0, 0}},
          {"buckets but no count", {0, 0, 0, 0, 1, 0, 1}},
      };
  for (const auto& [what, section] : shapes) {
    EXPECT_EQ(rc::deserialize_entry(histogram_entry(key, section), key, out),
              rc::EntryStatus::kCorrupt)
        << what;
  }
}

TEST(RunCache, InvalidHistogramIsQuarantinedAndMissed) {
  CacheDirGuard guard("bad_histogram");
  std::filesystem::create_directories(guard.dir);
  const std::uint64_t key = 7;
  const auto bytes =
      histogram_entry(key, {5, 1207, 0, 1000, 4, 0, 1, 82, 2, 7, 1, 190, 1});
  {
    std::ofstream out(rc::entry_path(guard.dir.string(), key),
                      std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  exp::RunResult out;
  EXPECT_FALSE(rc::lookup(guard.dir.string(), key, out));
  EXPECT_EQ(rc::stats().misses, 1u);
  EXPECT_EQ(rc::stats().quarantined, 1u);
  EXPECT_FALSE(
      std::filesystem::exists(rc::entry_path(guard.dir.string(), key)));
}

}  // namespace
