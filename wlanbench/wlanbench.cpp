// wlanbench: the measuring half of the repository benchmark (run.py is the
// other half: it builds this binary, runs it, checks its outputs and prints
// the metrics). Every number is taken from OUTSIDE the library, by timing
// calls into its public functions and reading its deterministic counters.
//
//   wlanbench --workload NAME --seed N --seconds T --mode MODE --workdir DIR
//
// Workloads (README.md says why each was chosen):
//   dyn60_wtop   exp::run_dynamic: 60 connected stations under wTOP,
//                population 10 -> 40 -> 20 -> 60 over 40 s (Figs. 8-9 shape)
//   ess9x10_std  exp::run_scenario: 9 cells x 10 stations, standard 802.11,
//                16/24 discs, 0.4 s warm-up + 4 s measured, series recorded
//   sweep_light  exp::run_sweep: a grid of light Poisson-load runs on two
//                pool lanes, cold pass into a fresh store, then a warm pass
//                that must be served from the store
//
// Modes:
//   timed    repeats the workload's call until T seconds have elapsed, with
//            every tracer off; reports sim rate, setup time, peak RSS, the
//            per-call output hashes and the sanity-band checks.
//   layers   untraced calls plus timed public calls into each layer (plan,
//            build, event-queue and medium replays, store, collect) and the
//            serial per-job pass on sweep_light; reports raw counters and
//            host times.
//   profile  the workload's call with WLAN_PROFILE on (run.py sets it);
//            reports the profiler's per-category buckets and the sim rate.
//
// The last stdout line is one JSON object; everything else goes to stderr.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/run_cache.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "obs/collect.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "phy/medium.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// --- Minimal JSON writer (flat objects, numbers printed with all digits) ---

std::string quote(const std::string& v) {
  std::string q = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') q += '\\';
    q += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return q + "\"";
}

class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  Json& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  Json& strs(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + quote(v[i]);
    return raw(key, s + "]");
  }
  Json& obj(const std::string& key, const Json& v) { return raw(key, v.text()); }
  /// Inserts `json`, already serialised, as the value of `key`; newlines
  /// become spaces so the whole object stays on one line.
  Json& raw(const std::string& key, std::string json) {
    std::replace(json.begin(), json.end(), '\n', ' ');
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- Workload definitions --------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string mode = "timed";
  std::string workdir = ".bench_build/work";
};

/// One long simulation: exp::run_dynamic when it has population steps,
/// exp::run_scenario (series recorded) otherwise.
struct NetworkWorkload {
  exp::ScenarioConfig scenario;
  exp::SchemeConfig scheme;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  double sample_s = 1.0;
  std::vector<exp::PopulationStep> steps;

  double sim_seconds() const { return warmup_s + measure_s; }
};

NetworkWorkload dyn60_wtop(std::uint64_t seed) {
  NetworkWorkload w;
  w.scenario = exp::ScenarioConfig::connected(60, seed);
  w.scheme = exp::SchemeConfig::wtop_csma();
  w.measure_s = 40.0;
  w.sample_s = 1.0;
  w.steps = {{0.0, 10}, {10.0, 40}, {20.0, 20}, {30.0, 60}};
  return w;
}

NetworkWorkload ess9x10_std(std::uint64_t seed) {
  NetworkWorkload w;
  w.scenario = exp::ScenarioConfig::multicell(9, 10, /*spacing=*/40.0, seed);
  w.scheme = exp::SchemeConfig::standard();
  w.warmup_s = 0.4;
  w.measure_s = 4.0;
  w.sample_s = 0.25;
  return w;
}

/// The workload's library call. With `simulate` false it runs with zero
/// simulated time: everything the call does except simulating (placement,
/// propagation, hidden-pair count, build_network, start, collection,
/// teardown). That is what setup_s times.
exp::RunResult run_network(const NetworkWorkload& w, bool simulate = true) {
  const double scale = simulate ? 1.0 : 0.0;
  const auto sample = sim::Duration::seconds(w.sample_s);
  if (!w.steps.empty())
    return exp::run_dynamic(w.scenario, w.scheme, w.steps,
                            sim::Duration::seconds(scale * w.measure_s), sample);
  exp::RunOptions o;
  o.warmup = sim::Duration::seconds(scale * w.warmup_s);
  o.measure = sim::Duration::seconds(scale * w.measure_s);
  o.sample_period = sample;
  o.record_series = true;  // hashed; also keeps the run out of any store
  return exp::run_scenario(w.scenario, w.scheme, o);
}

constexpr int kSweepLanes = 2;
constexpr double kSweepWarmupS = 2.0;
constexpr double kSweepMeasureS = 10.0;

exp::SweepSpec sweep_light(std::uint64_t seed) {
  exp::SweepSpec spec;
  auto connected = exp::ScenarioConfig::connected(20, seed);
  auto hidden = exp::ScenarioConfig::hidden(20, 16.0, seed);
  connected.traffic = traffic::TrafficConfig::poisson(1.0);
  hidden.traffic = traffic::TrafficConfig::poisson(1.0);
  spec.scenarios = {connected, hidden};
  // TORA, not wTOP: wTOP collapses under hidden nodes even at 0.04 Mb/s per
  // station (the paper's motivation for TORA), which no light-load band
  // survives. README.md has the probe.
  spec.schemes = {exp::SchemeConfig::standard(), exp::SchemeConfig::tora_csma()};
  spec.loads = {0.1, 0.2, 0.3};  // per-station Mb/s: 2-6 Mb/s offered in all
  spec.seeds = 4;
  spec.options.warmup = sim::Duration::seconds(kSweepWarmupS);
  spec.options.measure = sim::Duration::seconds(kSweepMeasureS);
  spec.keep_runs = false;
  spec.job_retries = 0;  // a deterministic failure would only repeat
  spec.job_backoff_ms = 0;
  spec.processes = 1;
  return spec;
}

/// Checks with a pass/fail outcome; run.py turns them into `failed` /
/// `attempted` and pass_rate.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

// --- Network outputs (dyn60_wtop, ess9x10_std) -----------------------------

/// The per-run counters that repeat exactly for a given seed; cache.* is
/// process-cumulative and profile.* is wall-clock.
bool deterministic_counter(const std::string& name) {
  for (const char* prefix : {"sim.", "medium.", "mac.", "traffic."})
    if (name.rfind(prefix, 0) == 0) return true;
  return false;
}

/// FNV over the raw bits of the throughput, control and population series
/// (the construction bench/macro_dynamic.cpp uses) and the counters.
std::uint64_t hash_run(const exp::RunResult& r) {
  util::Fnv1a h;
  for (const stats::TimeSeries* s :
       {&r.throughput_series, &r.control_series, &r.active_nodes_series}) {
    for (const auto& sample : s->samples()) {
      h.mix_double_word(sample.t_seconds);
      h.mix_double_word(sample.value);
    }
  }
  for (const auto& m : r.metrics.entries())
    if (deterministic_counter(m.name)) h.mix_double_word(m.value);
  return h.digest();
}

/// Mean delivered Mb/s over the second half of each population phase, when
/// the controller has re-converged; empty for a static population.
std::vector<double> phase_mbps(const NetworkWorkload& w, const exp::RunResult& r) {
  const int phases = static_cast<int>(w.steps.size());
  if (phases == 0) return {};
  const double phase_s = w.measure_s / phases;
  std::vector<double> total(static_cast<std::size_t>(phases), 0.0);
  std::vector<double> count(total.size(), 0.0);
  for (const auto& s : r.throughput_series.samples()) {
    const int p = std::min(phases - 1, static_cast<int>((s.t_seconds - 1e-9) / phase_s));
    if (s.t_seconds - p * phase_s > 0.5 * phase_s + 1e-9) {
      total[static_cast<std::size_t>(p)] += s.value;
      count[static_cast<std::size_t>(p)] += 1.0;
    }
  }
  for (std::size_t p = 0; p < total.size(); ++p) total[p] = ratio(total[p], count[p]);
  return total;
}

// --- Sweep outputs (sweep_light) -------------------------------------------

double sweep_sim_seconds(const exp::SweepSpec& spec, std::size_t jobs) {
  return static_cast<double>(jobs) *
         (spec.options.warmup.s() + spec.options.measure.s());
}

/// FNV over the folded sweep points (every AveragedResult field, raw bits).
std::uint64_t hash_sweep(const exp::SweepResult& r) {
  util::Fnv1a h;
  for (const auto& p : r.points) {
    const exp::AveragedResult& a = p.averaged;
    for (double v : {p.load, a.mean_mbps, a.min_mbps, a.max_mbps,
                     a.mean_idle_slots, a.mean_hidden_pairs,
                     a.mean_offered_mbps, a.mean_drop_rate,
                     a.mean_queue_occupancy, a.mean_delay_s,
                     a.mean_delay_p50_s, a.mean_delay_p95_s,
                     a.mean_delay_p99_s})
      h.mix_double_word(v);
  }
  return h.digest();
}

/// Points a fresh, empty store at `dir` (run cache + sweep journal). Called
/// before any timer starts.
void open_store(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir + "/cache");
  fs::create_directories(dir + "/journal");
  setenv("WLAN_RUN_CACHE", (dir + "/cache").c_str(), 1);
  setenv("WLAN_SWEEP_JOURNAL", (dir + "/journal").c_str(), 1);
}

void close_store(const std::string& dir) {
  unsetenv("WLAN_RUN_CACHE");
  unsetenv("WLAN_SWEEP_JOURNAL");
  fs::remove_all(dir);
}

/// Delivered vs offered within 2 %, no tail drops: the grid is far below
/// saturation, so anything else is a traffic/MAC regression.
void check_light_load(const exp::SweepResult& r, Checks& checks) {
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const exp::AveragedResult& a = r.points[i].averaged;
    const double rel = std::fabs(a.mean_mbps - a.mean_offered_mbps) /
                       std::max(a.mean_offered_mbps, 1e-12);
    char what[160];
    std::snprintf(what, sizeof what,
                  "point %zu: delivered %.4f vs offered %.4f Mb/s, drop %.4g",
                  i, a.mean_mbps, a.mean_offered_mbps, a.mean_drop_rate);
    checks.expect(a.mean_offered_mbps > 0.0 && rel <= 0.02, what);
    checks.expect(a.mean_drop_rate == 0.0, what);
  }
}

/// run_sweep over the same grid with zero simulated time: grid expansion,
/// job keys and every job's pre- and post-simulation work (placement,
/// hidden-pair count, build_network, start, collection). No store is open:
/// its file I/O swung these samples between 10 and 20 ms on one host, so
/// the layers pass times it instead. One lane: with two, the second lane's
/// wake-up latency moved the median by up to 1.7x between runs.
double sweep_setup(const exp::SweepSpec& spec) {
  exp::SweepSpec zero = spec;
  zero.options.warmup = sim::Duration::zero();
  zero.options.measure = sim::Duration::zero();
  par::ThreadPool serial(1);
  const auto t0 = Clock::now();
  const exp::SweepResult r = exp::run_sweep(zero, &serial);
  const double s = since(t0);
  r.throw_if_failed();
  return s;
}

struct SweepUnit {
  double cold_s = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t cold_hash = 0;
};

SweepUnit run_sweep_unit(const exp::SweepSpec& spec, par::ThreadPool& pool,
                         const std::string& dir, Checks& checks) {
  SweepUnit u;
  const std::size_t jobs = exp::expand(spec).size();
  u.sim_seconds = sweep_sim_seconds(spec, jobs);
  open_store(dir);

  const auto t0 = Clock::now();
  const exp::SweepResult cold = exp::run_sweep(spec, &pool);
  u.cold_s = since(t0);
  for (const auto& e : cold.errors)
    checks.expect(false, "job " + std::to_string(e.job_index) + ": " + e.what);
  checks.expect(cold.ok(), "cold sweep finished without JobErrors");
  check_light_load(cold, checks);
  u.cold_hash = hash_sweep(cold);

  const exp::SweepResult warm = exp::run_sweep(spec, &pool);
  checks.expect(warm.ok() && warm.metrics.get("sweep.jobs_replayed") ==
                                 static_cast<double>(jobs),
                "warm pass served every job from the store");
  checks.expect(hash_sweep(warm) == u.cold_hash,
                "warm pass folds to the cold pass's points");
  close_store(dir);
  return u;
}

// --- Layer replays ----------------------------------------------------------

inline std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x >> 33;
}

/// sim: replays a schedule:cancel:fire mix through a bare EventQueue held at
/// `live` pending events. Returns ns per queue operation.
double queue_replay_ns(double sched_per_fire, double cancel_frac,
                       std::size_t live, double budget_s) {
  live = std::max<std::size_t>(live, 16);
  sim::EventQueue q;
  std::uint64_t x = 99, fired = 0, ops = 0;
  std::int64_t now = 0;
  std::vector<sim::EventId> recent(live);
  std::size_t next = 0;
  auto schedule = [&] {
    const auto at = now + 1 + static_cast<std::int64_t>(lcg(x) % 20000);
    recent[next++ % live] =
        q.schedule(sim::Time::from_ns(at), [p = &fired] { ++*p; });
    ++ops;
  };
  for (std::size_t i = 0; i < live; ++i) schedule();
  double acc_s = 0.0, acc_c = 0.0;
  const auto t0 = Clock::now();
  double wall = 0.0;
  do {
    for (int i = 0; i < 4096; ++i) {
      auto f = q.pop();
      now = f.time.ns();
      f.callback();
      ++ops;
      for (acc_s += sched_per_fire; acc_s >= 1.0; acc_s -= 1.0) {
        schedule();
        acc_c += cancel_frac;
        if (acc_c >= 1.0) {
          acc_c -= 1.0;
          q.cancel(recent[lcg(x) % live]);
          ++ops;
        }
      }
      while (q.size() < live / 2) schedule();
    }
    wall = since(t0);
  } while (wall < budget_s);
  return wall * 1e9 / static_cast<double>(ops);
}

/// The schedule:cancel:fire mix and the pending-event count at the end of a
/// run, from its counters: (schedules per fired event, cancelled share,
/// live events).
struct QueueMix {
  double sched_per_fire = 0.0;
  double cancel_frac = 0.0;
  std::size_t live = 0;
};

QueueMix queue_mix(const obs::MetricsRegistry& c) {
  const double scheduled = c.get("sim.queue.scheduled");
  const double fired = c.get("sim.queue.fired");
  const double cancelled = c.get("sim.queue.cancelled");
  return {ratio(scheduled, fired), ratio(cancelled, scheduled),
          static_cast<std::size_t>(std::max(0.0, scheduled - fired - cancelled))};
}

class NullClient : public phy::MediumClient {
 public:
  void on_channel_busy(sim::Time) override {}
  void on_channel_idle(sim::Time) override {}
  void on_frame_received(const phy::Frame&, bool, sim::Time) override {}
};

std::vector<phy::Vec2> node_positions(const exp::ScenarioConfig& s) {
  const auto plan = exp::make_plan(s);  // APs first, as mac::Network numbers them
  std::vector<phy::Vec2> pos = plan.aps;
  pos.insert(pos.end(), plan.stations.begin(), plan.stations.end());
  return pos;
}

/// phy: replays the workload's placement and transmission rate through
/// Medium::start_transmission with null clients (Poisson starts from random
/// idle nodes, data-frame airtime). Returns ns of host time per transmission.
double medium_replay_ns(const exp::ScenarioConfig& s, double tx_per_sim_s,
                        double budget_s) {
  const auto prop = exp::make_propagation(s);
  const auto pos = node_positions(s);
  sim::Simulator simulator;
  phy::Medium medium(simulator, *prop);
  std::vector<NullClient> clients(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) medium.add_node(pos[i], clients[i]);
  medium.finalize();
  const sim::Duration airtime = s.phy.data_airtime();
  const double rate = std::max(tx_per_sim_s, 1.0);
  std::uint64_t x = 7;
  const auto n = static_cast<std::uint64_t>(pos.size());
  struct Arrivals {
    sim::Simulator& simulator;
    phy::Medium& medium;
    sim::Duration airtime;
    double rate;
    std::uint64_t& x;
    std::uint64_t n;
    void next() {
      const double u = (static_cast<double>(lcg(x)) + 1.0) / 2147483649.0;
      simulator.schedule_after(sim::Duration::seconds(-std::log(u) / rate), [this] {
        const auto src = static_cast<phy::NodeId>(lcg(x) % n);
        if (!medium.is_transmitting(src)) {
          phy::Frame f;
          f.src = src;
          f.dst = 0;
          medium.start_transmission(src, f, airtime);
        }
        next();
      });
    }
  } arrivals{simulator, medium, airtime, rate, x, n};
  arrivals.next();
  const auto t0 = Clock::now();
  double wall = 0.0;
  const sim::Duration chunk = sim::Duration::seconds(std::max(1e-3, 2000.0 / rate));
  do {
    simulator.run_until(simulator.now() + chunk);
    wall = since(t0);
  } while (wall < budget_s);
  return wall * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                          1, medium.transmissions_started()));
}

/// exp: run_cache::store / lookup over `keys` in a fresh directory,
/// repeated until `budget_s`; medians of the per-call times.
void time_store(const std::vector<std::uint64_t>& keys,
                const std::vector<exp::RunResult>& results,
                const std::string& dir, double budget_s, Json& t) {
  std::vector<double> put, hit;
  std::uint64_t lookups = 0, hits = 0;
  const auto t0 = Clock::now();
  do {
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto ts = Clock::now();
      exp::run_cache::store(dir, keys[i], results[i]);
      put.push_back(since(ts) * 1e6);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      exp::RunResult out;
      const auto ts = Clock::now();
      const bool ok = exp::run_cache::lookup(dir, keys[i], out);
      hit.push_back(since(ts) * 1e6);
      ++lookups;
      hits += ok ? 1 : 0;
    }
  } while (since(t0) < budget_s);
  fs::remove_all(dir);
  t.num("exp.store_put_us", median(put)).num("exp.store_hit_us", median(hit));
  t.num("exp.store_hit_frac",
        ratio(static_cast<double>(hits), static_cast<double>(lookups)));
}

/// topology + exp setup: median wall of make_plan + make_propagation and of
/// build_network over `targets`, `reps` times each.
void time_setup_calls(
    const std::vector<std::pair<exp::ScenarioConfig, exp::SchemeConfig>>& targets,
    int reps, Json& t) {
  std::vector<double> plan, build;
  for (int r = 0; r < reps; ++r) {
    for (const auto& [scenario, scheme] : targets) {
      auto ts = Clock::now();
      {
        const auto p = exp::make_plan(scenario);
        const auto prop = exp::make_propagation(scenario);
      }
      plan.push_back(since(ts) * 1e3);
      ts = Clock::now();
      auto net = exp::build_network(scenario, scheme);
      build.push_back(since(ts) * 1e3);
    }
  }
  t.num("topology.plan_ms", median(plan)).num("exp.build_ms", median(build));
}

/// obs: collect_metrics on a network that has run `run_s` simulated seconds.
void time_collect(const exp::ScenarioConfig& scenario,
                  const exp::SchemeConfig& scheme, double run_s, Json& t) {
  auto net = exp::build_network(scenario, scheme);
  net->start();
  net->run_for(sim::Duration::seconds(run_s));
  std::vector<double> ms;
  for (int i = 0; i < 64; ++i) {
    const auto tc = Clock::now();
    const auto reg = obs::collect_metrics(*net);
    ms.push_back(since(tc) * 1e3);
  }
  t.num("obs.collect_ms", median(ms));
}

/// Peak resident set of this process image, MiB. VmHWM first: getrusage's
/// ru_maxrss survives execve on Linux, so it would report the launching
/// interpreter's peak whenever that was larger.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

/// Adds a run's profile.<category>.{events,wall_ns} metrics to `total`.
void add_profile(obs::PhaseProfiler& total, const obs::MetricsRegistry& metrics) {
  for (unsigned i = 0; i < obs::kNumCategories; ++i) {
    const auto c = static_cast<obs::Category>(i);
    const std::string base = std::string("profile.") + obs::category_name(c);
    if (!metrics.contains(base + ".events")) continue;
    total.add_bucket(c, static_cast<std::uint64_t>(metrics.get(base + ".events")),
                     static_cast<std::int64_t>(metrics.get(base + ".wall_ns")));
  }
}

Json profile_json(const obs::PhaseProfiler& p) {
  Json j;
  for (unsigned i = 0; i < obs::kNumCategories; ++i) {
    const auto c = static_cast<obs::Category>(i);
    Json b;
    b.num("events", static_cast<double>(p.events(c)));
    b.num("wall_ns", static_cast<double>(p.wall_ns(c)));
    j.obj(obs::category_name(c), b);
  }
  return j;
}

// --- Modes -------------------------------------------------------------------

// Setup-only calls before every timed call, spread over the whole run, and
// setup_s is the fastest of them. Single set-up calls are bimodal on a
// shared host: a 0.7 ms call on dyn60_wtop takes 1.2-1.4 ms while other
// tenants contend for the caches, and the share of slow calls drifts over
// minutes, so the median jumped 1.7x between runs of the same code. The
// slowdown only ever adds time, and a run of hundreds of samples almost
// always catches uncontended moments, so the minimum is the steady reading
// of the set-up work itself (README.md has the numbers). A sweep set-up
// call takes ~5 ms, so it gets fewer samples.
constexpr int kSetupPerUnit = 32;
constexpr int kSweepSetupPerUnit = 8;
constexpr int kSetupReps = 15;  // per layers pass

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// sim_rate is simulated seconds over wall seconds of all timed calls (a
/// ratio of sums, not a median of per-call rates: the host drifts between
/// fast and slow spells, and the sum weighs them by the time they last).
Json timed_network(const NetworkWorkload& w, double seconds) {
  std::vector<double> setup;
  std::vector<std::string> hashes;
  std::vector<double> phases;  // call-major, phase-minor
  double sim_total = 0.0, wall_total = 0.0;
  const auto t0 = Clock::now();
  do {
    for (int i = 0; i < kSetupPerUnit; ++i) {
      const auto ts = Clock::now();
      run_network(w, /*simulate=*/false);
      setup.push_back(since(ts));
    }
    const auto tr = Clock::now();
    const exp::RunResult r = run_network(w);
    wall_total += since(tr);
    sim_total += w.sim_seconds();
    hashes.push_back(hex64(hash_run(r)));
    const auto p = phase_mbps(w, r);
    phases.insert(phases.end(), p.begin(), p.end());
  } while (since(t0) < seconds);
  Json j;
  j.num("sim_rate", sim_total / wall_total).num("sim_seconds", sim_total);
  j.num("setup_s", fastest(setup)).num("setup_samples", static_cast<double>(setup.size()));
  j.strs("hashes", hashes).nums("phase_mbps", phases);
  return j;
}

Json timed_sweep(const exp::SweepSpec& spec, double seconds,
                 const std::string& workdir, Checks& checks) {
  par::ThreadPool pool(kSweepLanes);
  std::vector<double> setup;
  std::vector<std::string> hashes;
  double sim_total = 0.0, wall_total = 0.0;
  const auto t0 = Clock::now();
  do {
    for (int i = 0; i < kSweepSetupPerUnit; ++i) setup.push_back(sweep_setup(spec));
    const SweepUnit u = run_sweep_unit(spec, pool, workdir + "/unit", checks);
    hashes.push_back(hex64(u.cold_hash));
    sim_total += u.sim_seconds;
    wall_total += u.cold_s;
  } while (since(t0) < seconds);
  Json j;
  j.num("sim_rate", sim_total / wall_total).num("sim_seconds", sim_total);
  j.num("setup_s", fastest(setup)).num("setup_samples", static_cast<double>(setup.size()));
  j.strs("hashes", hashes);
  return j;
}

/// Raw counters + host-time layer numbers for a network workload.
Json layers_network(const NetworkWorkload& w, double seconds,
                    const std::string& workdir) {
  exp::RunResult first;
  std::vector<double> job_ms;
  const auto t0 = Clock::now();
  do {
    const auto t = Clock::now();
    exp::RunResult r = run_network(w);
    job_ms.push_back(since(t) * 1e3);
    if (job_ms.size() == 1) first = std::move(r);
  } while (since(t0) < 0.4 * seconds);
  const double loop_s = since(t0);
  const double run_s = sum(job_ms) / 1e3;

  const auto& c = first.metrics;
  const QueueMix mix = queue_mix(c);
  Json t;
  time_setup_calls({{w.scenario, w.scheme}}, kSetupReps, t);
  t.num("sim.queue_ns_per_op",
        queue_replay_ns(mix.sched_per_fire, mix.cancel_frac, mix.live, 0.3));
  t.num("phy.ns_per_tx", medium_replay_ns(w.scenario,
                                          c.get("medium.tx_started") / w.sim_seconds(),
                                          0.3));
  // Each call is this workload's only job, on one lane.
  t.num("exp.job_ms.p50", median(job_ms))
      .num("exp.job_ms.max", *std::max_element(job_ms.begin(), job_ms.end()));
  t.num("par.lane_eff", ratio(run_s, loop_s));

  std::vector<std::uint64_t> keys;
  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(w.warmup_s);
  opts.measure = sim::Duration::seconds(w.measure_s);
  for (std::uint64_t s = 0; s < 16; ++s) {
    auto scenario = w.scenario;
    scenario.seed += s;
    keys.push_back(exp::run_cache::key_hash(scenario, w.scheme, opts));
  }
  time_store(keys, std::vector<exp::RunResult>(keys.size(), first),
             workdir + "/store", 0.2, t);
  time_collect(w.scenario, w.scheme, w.sample_s, t);

  Json j;
  j.num("unit_sim_rate", static_cast<double>(job_ms.size()) * w.sim_seconds() / run_s);
  j.num("sim_seconds", w.sim_seconds()).num("measure_seconds", w.measure_s);
  j.raw("counters", c.to_json()).obj("timings", t);
  return j;
}

Json layers_sweep(const exp::SweepSpec& spec, double seconds,
                  const std::string& workdir) {
  const auto jobs = exp::expand(spec);
  // Serial per-job pass: each job's run_scenario, timed, no store.
  std::vector<double> job_ms;
  std::vector<exp::RunResult> results;
  std::vector<std::uint64_t> keys;
  obs::MetricsRegistry counters;
  for (const auto& job : jobs) {
    const auto t = Clock::now();
    exp::RunResult r = exp::run_scenario(job.scenario, job.scheme, spec.options);
    job_ms.push_back(since(t) * 1e3);
    obs::merge_run_metrics(counters, r.metrics);
    keys.push_back(exp::run_cache::key_hash(job.scenario, job.scheme, spec.options));
    results.push_back(std::move(r));
  }
  const double serial_s = sum(job_ms) / 1e3;

  // Untraced cold sweeps on the pool, no store (the profile pass matches).
  par::ThreadPool pool(kSweepLanes);
  std::vector<double> walls;
  const double sim_s = sweep_sim_seconds(spec, jobs.size());
  const auto t0 = Clock::now();
  do {
    const auto t = Clock::now();
    const auto r = exp::run_sweep(spec, &pool);
    walls.push_back(since(t));
    r.throw_if_failed();
  } while (since(t0) < 0.25 * seconds);

  Json t;
  std::vector<std::pair<exp::ScenarioConfig, exp::SchemeConfig>> targets;
  for (const auto& job : jobs) targets.emplace_back(job.scenario, job.scheme);
  time_setup_calls(targets, 1, t);
  const QueueMix mix = queue_mix(counters);
  t.num("sim.queue_ns_per_op",
        queue_replay_ns(mix.sched_per_fire, mix.cancel_frac, 64, 0.3));
  // The last job's placement: a hidden(20, 16) disc at the top load.
  t.num("phy.ns_per_tx",
        medium_replay_ns(jobs.back().scenario,
                         counters.get("medium.tx_started") / sim_s, 0.3));
  t.num("exp.job_ms.p50", median(job_ms))
      .num("exp.job_ms.max", *std::max_element(job_ms.begin(), job_ms.end()));
  t.num("par.lane_eff", ratio(serial_s, kSweepLanes * median(walls)));
  time_store(keys, results, workdir + "/store", 0.2, t);
  time_collect(jobs.front().scenario, jobs.front().scheme, spec.options.warmup.s(), t);

  Json j;
  j.num("unit_sim_rate", static_cast<double>(walls.size()) * sim_s / sum(walls));
  j.num("sim_seconds", sim_s);
  j.num("measure_seconds", static_cast<double>(jobs.size()) * spec.options.measure.s());
  j.raw("counters", counters.to_json()).obj("timings", t);
  return j;
}

Json profile_network(const NetworkWorkload& w, double seconds) {
  obs::PhaseProfiler total;
  double sim_s = 0.0, run_s = 0.0;
  const auto t0 = Clock::now();
  do {
    const auto t = Clock::now();
    const exp::RunResult r = run_network(w);
    run_s += since(t);
    sim_s += w.sim_seconds();
    add_profile(total, r.metrics);
  } while (since(t0) < 0.4 * seconds);
  Json j;
  j.num("unit_sim_rate", sim_s / run_s).obj("profile", profile_json(total));
  return j;
}

Json profile_sweep(exp::SweepSpec spec, double seconds) {
  spec.keep_runs = true;  // profile buckets live in the per-run registries
  par::ThreadPool pool(kSweepLanes);
  const double sim_s = sweep_sim_seconds(spec, exp::expand(spec).size());
  obs::PhaseProfiler total;
  double sim_total = 0.0, wall_total = 0.0;
  const auto t0 = Clock::now();
  do {
    const auto t = Clock::now();
    const auto r = exp::run_sweep(spec, &pool);
    wall_total += since(t);
    sim_total += sim_s;
    r.throw_if_failed();
    for (const auto& point : r.points)
      for (const auto& run : point.runs) add_profile(total, run.metrics);
  } while (since(t0) < 0.4 * seconds);
  Json j;
  j.num("unit_sim_rate", sim_total / wall_total).obj("profile", profile_json(total));
  return j;
}

Json provenance() {
  Json p;
  p.str("build_type", WLANBENCH_BUILD_TYPE).str("compiler", WLANBENCH_COMPILER);
#ifdef WLAN_OBS_NO_TRACE
  p.str("obs", "compiled-out");
#else
  p.str("obs", "compiled-in");
#endif
#ifdef NDEBUG
  p.str("asserts", "off");
#else
  p.str("asserts", "on");
#endif
  return p;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--mode") a.mode = v;
    else if (k == "--workdir") a.workdir = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         (a.mode == "timed" || a.mode == "layers" || a.mode == "profile");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: wlanbench --workload dyn60_wtop|ess9x10_std|sweep_light "
                 "--seed N --seconds T --mode timed|layers|profile "
                 "[--workdir DIR]\n");
    return 2;
  }
  if (std::strcmp(WLANBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "wlanbench: refusing to time a %s build (need Release)\n",
                 WLANBENCH_BUILD_TYPE);
    return 2;
  }
  const bool sweep = a.workload == "sweep_light";
  if (!sweep && a.workload != "dyn60_wtop" && a.workload != "ess9x10_std") {
    std::fprintf(stderr, "wlanbench: unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  const std::string workdir = a.workdir + "/" + std::to_string(getpid());
  // The store is opened per call; nothing from the caller's environment may
  // leak in.
  unsetenv("WLAN_RUN_CACHE");
  unsetenv("WLAN_SWEEP_JOURNAL");

  Checks checks;
  Json out;
  try {
    const NetworkWorkload w =
        a.workload == "dyn60_wtop" ? dyn60_wtop(a.seed) : ess9x10_std(a.seed);
    const exp::SweepSpec spec = sweep_light(a.seed);
    if (a.mode == "timed")
      out = sweep ? timed_sweep(spec, a.seconds, workdir, checks)
                  : timed_network(w, a.seconds);
    else if (a.mode == "layers")
      out = sweep ? layers_sweep(spec, a.seconds, workdir)
                  : layers_network(w, a.seconds, workdir);
    else
      out = sweep ? profile_sweep(spec, a.seconds) : profile_network(w, a.seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wlanbench: %s\n", e.what());
    fs::remove_all(workdir);
    return 1;
  }
  fs::remove_all(workdir);
  out.num("peak_rss_mb", peak_rss_mb());
  out.num("checks_attempted", static_cast<double>(checks.attempted));
  out.num("checks_failed", static_cast<double>(checks.failed));
  out.strs("check_failures", checks.failures);
  out.obj("provenance", provenance());
  std::printf("%s\n", out.text().c_str());
  return 0;
}
