// Engine benchmark: the three measurements only a whole-engine run on this
// host can make. dcabench covers throughput, transport and per-layer costs
// with repeats and spread; this driver keeps what it does not:
//
//  * scaling curve — the dense 16x16 scenario across shards {1, 2, 4, 8} x
//    threads, workers pinned to distinct allowed CPUs. Results are
//    bit-identical at every point (the determinism contract), so only
//    wall-clock moves; on a box with fewer CPUs than threads a point
//    measures oversubscription, and hardware_threads says so.
//  * crash recovery — the same scenario with stations failing ~1/min, cold
//    restarts and resync, shards=1 vs 4: throughput plus uptime fraction
//    and mean time to resync, so a change that slows recovery shows up.
//  * metro memory — a 60x60 streaming run's peak RSS per cell (the budget
//    the metro smoke test gates on) and the median of five world set-ups.
//
// Takes no arguments. Appends one timestamped entry to the JSON array in
// BENCH_engine.json (working directory); bench/compare_trajectory.py
// compares it with the entry before. If any run reports a Theorem-1
// violation or does not reach quiescence, it records nothing and exits 1.
//
// The scenario is chosen for event density rather than paper fidelity:
// short holding times at high load on a large grid keep every cell's
// queue busy, so the per-window parallelism is real work, not idle
// barriers.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/json.hpp"
#include "runner/experiment.hpp"

namespace {

using dca::runner::RunResult;
using dca::runner::ScenarioConfig;

constexpr double kRho = 0.9;
constexpr int kShards = 4;  // the sharded side of crash_recovery and metro_memory
constexpr double kCrashRatePerMin = 1.0;
constexpr double kCrashMeanS = 2.0;
// A crash orphans the handshakes in flight to the crashed station, and a
// restarted station re-sends its resync requests only on this timeout;
// without it the run cannot drain (and validate_scenario rejects it). The
// chaos campaign's value.
constexpr dca::sim::Duration kCrashRequestTimeout = dca::sim::milliseconds(500);

void heading(const char* title) { std::printf("\n=== %s ===\n\n", title); }

ScenarioConfig bench_config() {
  ScenarioConfig c;
  c.rows = 16;
  c.cols = 16;
  c.interference_radius = 2;
  c.n_channels = 70;
  c.cluster = 7;
  c.mean_holding_s = 5.0;  // short calls => high event density
  c.latency = dca::sim::milliseconds(5);
  c.seed = 7;
  c.duration = dca::sim::minutes(2);
  c.warmup = dca::sim::seconds(10);
  return c;
}

struct Timed {
  RunResult r;
  double wall_s = 0.0;
  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(r.executed_events) / wall_s : 0.0;
  }
};

int unclean_runs = 0;

/// One adaptive run at kRho, timed. A run with a Theorem-1 violation or one
/// that does not drain is counted, and main exits 1: its timing means
/// nothing.
Timed timed_run(const ScenarioConfig& c) {
  const auto t0 = std::chrono::steady_clock::now();
  Timed t{dca::runner::run_uniform(c, dca::runner::Scheme::kAdaptive, kRho)};
  t.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (t.r.violations != 0 || !t.r.quiescent) {
    std::fprintf(stderr,
                 "engine_bench: %dx%d shards=%d run: violations=%llu quiescent=%d\n",
                 c.rows, c.cols, c.shards,
                 static_cast<unsigned long long>(t.r.violations),
                 t.r.quiescent ? 1 : 0);
    ++unclean_runs;
  }
  return t;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// The checked-out revision, with "-dirty" when tracked files differ from it
/// (a measurement of uncommitted code).
std::string git_rev() {
  std::string rev;
  if (FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p)) rev.assign(buf);
    pclose(p);
  }
  while (!rev.empty() && std::isspace(static_cast<unsigned char>(rev.back())))
    rev.pop_back();
  return rev.empty() ? "unknown" : rev;
}

/// Appends `entry` (a JSON object) to the JSON array in `path`, creating
/// the array if the file is missing or empty.
bool append_trajectory(const char* path, const std::string& entry) {
  std::string prior;
  if (FILE* f = std::fopen(path, "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) prior.append(buf, n);
    std::fclose(f);
  }
  const auto trim = [&prior] {
    while (!prior.empty() && std::isspace(static_cast<unsigned char>(prior.back())))
      prior.pop_back();
  };
  trim();
  std::string merged;
  if (prior.empty()) {
    merged = "[\n" + entry + "\n]\n";
  } else if (prior.front() == '[' && prior.back() == ']') {
    prior.pop_back();
    trim();
    merged = prior + (prior == "[" ? "\n" : ",\n") + entry + "\n]\n";
  } else {
    std::fprintf(stderr, "engine_bench: %s is not a JSON array\n", path);
    return false;
  }
  FILE* f = std::fopen(path, "w");
  if (!f) return false;
  const bool ok = std::fwrite(merged.data(), 1, merged.size(), f) == merged.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char**) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: engine_bench (takes no arguments)\n");
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u, rho=%.2f\n", hw, kRho);

  heading("scaling curve: shards x threads (pinned)");
  struct ScalePoint {
    int shards;
    int threads;
    Timed run;
  };
  std::vector<ScalePoint> scale_points;
  for (const int shards : {1, 2, 4, 8}) {
    for (const int threads : {1, 2, 4, 8}) {
      if (threads > shards) continue;  // extra workers would idle
      ScenarioConfig c = bench_config();
      c.shards = shards;
      c.threads = threads;
      c.pin = true;
      const ScalePoint& p = scale_points.emplace_back(
          ScalePoint{shards, threads, timed_run(c)});
      std::printf("  shards=%d threads=%d  %9.3f s  %12.0f ev/s\n", p.shards,
                  p.threads, p.run.wall_s, p.run.events_per_sec());
    }
  }

  heading("crash recovery: events/sec and availability");
  struct CrashRun {
    int shards;
    Timed run;
    double uptime_fraction;
  };
  std::vector<CrashRun> crash_runs;
  for (const int shards : {1, kShards}) {
    ScenarioConfig c = bench_config();
    c.fault.crash_rate_per_min = kCrashRatePerMin;
    c.fault.crash_mean_s = kCrashMeanS;
    c.request_timeout = kCrashRequestTimeout;
    c.shards = shards;
    Timed t = timed_run(c);
    const double uptime =
        t.r.availability.uptime_fraction(c.duration, c.rows * c.cols);
    const CrashRun& cr =
        crash_runs.emplace_back(CrashRun{shards, std::move(t), uptime});
    std::printf("  adaptive+crashes shards=%d  %9.3f s  %12.0f ev/s  "
                "crashes=%llu uptime=%.4f mttr=%.2fs\n",
                cr.shards, cr.run.wall_s, cr.run.events_per_sec(),
                static_cast<unsigned long long>(cr.run.r.availability.crashes),
                cr.uptime_fraction,
                cr.run.r.availability.mean_time_to_resync_s());
  }

  // Peak RSS is the process high-water mark, so it is an upper bound (the
  // sections above allocated too), but this run's working set dominates
  // the process by an order of magnitude.
  heading("metro memory: 60x60 streaming, peak RSS per cell");
  ScenarioConfig metro = bench_config();
  metro.rows = 60;
  metro.cols = 60;
  metro.duration = dca::sim::seconds(30);
  metro.warmup = dca::sim::seconds(5);
  metro.shards = kShards;
  metro.stream_metrics = true;
  const Timed metro_run = timed_run(metro);
  const double metro_bytes_per_cell =
      static_cast<double>(metro_run.r.peak_rss_bytes) /
      static_cast<double>(metro.rows * metro.cols);
  std::printf("  %dx%d cells  %9.3f s  offered=%llu  peak_rss=%.1f MiB  %.0f bytes/cell\n",
              metro.rows, metro.cols, metro_run.wall_s,
              static_cast<unsigned long long>(metro_run.r.offered_calls),
              static_cast<double>(metro_run.r.peak_rss_bytes) / (1024.0 * 1024.0),
              metro_bytes_per_cell);
  // World set-up of the same scenario: a 1 us arrival horizon and no warmup
  // build and tear down the world but simulate nothing. Median of five
  // builds, since one is mostly noise.
  ScenarioConfig metro_setup = metro;
  metro_setup.duration = 1;
  metro_setup.warmup = 0;
  std::vector<double> setup_probes;
  for (int k = 0; k < 5; ++k) setup_probes.push_back(timed_run(metro_setup).wall_s);
  std::sort(setup_probes.begin(), setup_probes.end());
  const double metro_setup_s = setup_probes[setup_probes.size() / 2];
  std::printf("  world set-up %.4f s (median of %zu)\n", metro_setup_s,
              setup_probes.size());

  dca::metrics::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("engine");
  w.key("timestamp_utc");
  w.value(utc_timestamp());
  w.key("git_rev");
  w.value(git_rev());
  w.key("hardware_threads");
  w.value(static_cast<std::int64_t>(hw));
  w.key("rho");
  w.value(kRho);
  w.key("crash_recovery");
  w.begin_object();
  w.key("scheme");
  w.value("adaptive");
  w.key("crash_rate_per_min");
  w.value(kCrashRatePerMin);
  w.key("crash_mean_s");
  w.value(kCrashMeanS);
  w.key("runs");
  w.begin_array();
  for (const CrashRun& cr : crash_runs) {
    w.begin_object();
    w.key("shards");
    w.value(cr.shards);
    w.key("wall_s");
    w.value(cr.run.wall_s);
    w.key("events");
    w.value(cr.run.r.executed_events);
    w.key("events_per_sec");
    w.value(cr.run.events_per_sec());
    w.key("crashes");
    w.value(cr.run.r.availability.crashes);
    w.key("uptime_fraction");
    w.value(cr.uptime_fraction);
    w.key("mean_time_to_resync_s");
    w.value(cr.run.r.availability.mean_time_to_resync_s());
    w.key("violations");
    w.value(cr.run.r.violations);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("scaling_curve");
  w.begin_object();
  w.key("grid");
  w.value("16x16");
  w.key("scheme");
  w.value("adaptive");
  w.key("pinned");
  w.value(true);
  w.key("hardware_threads");
  w.value(static_cast<std::int64_t>(hw));
  w.key("points");
  w.begin_array();
  for (const ScalePoint& p : scale_points) {
    w.begin_object();
    w.key("shards");
    w.value(p.shards);
    w.key("threads");
    w.value(p.threads);
    w.key("wall_s");
    w.value(p.run.wall_s);
    w.key("events");
    w.value(p.run.r.executed_events);
    w.key("events_per_sec");
    w.value(p.run.events_per_sec());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("metro_memory");
  w.begin_object();
  w.key("grid");
  w.value("60x60");
  w.key("scheme");
  w.value("adaptive");
  w.key("stream_metrics");
  w.value(true);
  w.key("shards");
  w.value(metro.shards);
  w.key("duration_s");
  w.value(dca::sim::to_seconds(metro.duration));
  w.key("offered_calls");
  w.value(metro_run.r.offered_calls);
  w.key("wall_s");
  w.value(metro_run.wall_s);
  w.key("peak_rss_bytes");
  w.value(metro_run.r.peak_rss_bytes);
  w.key("bytes_per_cell");
  w.value(metro_bytes_per_cell);
  w.key("setup_s");
  w.value(metro_setup_s);
  w.end_object();
  w.end_object();

  if (unclean_runs > 0) {
    std::fprintf(stderr, "engine_bench: %d run(s) had violations or did not "
                         "drain; no entry recorded\n", unclean_runs);
    return 1;
  }
  if (!append_trajectory("BENCH_engine.json", w.str())) {
    std::fprintf(stderr, "engine_bench: cannot write BENCH_engine.json\n");
    return 1;
  }
  std::printf("\nappended trajectory entry to BENCH_engine.json\n");
  return 0;
}
