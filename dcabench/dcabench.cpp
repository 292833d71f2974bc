// dcabench — the repository's benchmark.
//
//   dcabench --workload=NAME [--seed=N] [--seconds=S] [--layers] [--smoke]
//            [--spans=PATH]
//
// Runs one workload in this process and prints one `name value unit` line
// per metric, after a `# manifest {...}` line that says what was measured
// where. Exits 1 when any output check fails, 2 on bad arguments or on an
// unoptimized or sanitized build (whose timings must never be compared).
//
// Every workload is a fixed batch of simulations: open-loop Poisson call
// arrivals in simulated time, so the host measures time to completion and
// there is no host-side latency limit. The seed fixes every input; the same
// seed gives bit-identical simulated results, which the benchmark checks.
//
// Default mode (tracing off) measures the end-to-end metrics: it probes
// set-up time, then runs the batch back to back until --seconds have
// passed (at least three times) and reports medians. --layers instead runs
// each point untraced and traced, replays the trace through the conformance
// checker, and times probes of single layers, all wrapped in spans whose
// self time is reported per span name (and written as JSON to --spans).
// --smoke runs both modes on a short horizon; it is the ctest smoke test.
//
// The benchmark reaches the simulator only through its public entry points
// (runner::run_uniform, RunResult, TraceRecorder, check_trace,
// ShardedKernel, the cell/ and net/ tables, AggregateBuilder, erlang_b), so
// it keeps measuring the same thing while the engines behind them change.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/erlang.hpp"
#include "cell/grid.hpp"
#include "cell/partition.hpp"
#include "cell/reuse.hpp"
#include "metrics/collector.hpp"
#include "metrics/json.hpp"
#include "net/link_table.hpp"
#include "runner/cli.hpp"
#include "runner/config_file.hpp"
#include "runner/conformance.hpp"
#include "runner/experiment.hpp"
#include "sim/cpuset.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "sim/trace.hpp"

namespace {

using namespace dca;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -- workloads ----------------------------------------------------------------

/// Smoke runs divide every horizon (and scheduled fault instant) by this.
constexpr int kSmokeDivisor = 8;

struct Point {
  runner::ScenarioConfig cfg;
  runner::Scheme scheme = runner::Scheme::kAdaptive;
  double rho = 0.9;
};

struct Workload {
  std::string name;
  std::vector<Point> points;
  /// One point per distinct (scheme, rho): the points setup_s probes.
  std::vector<std::size_t> setup_points;
};

/// The shared 16x16 grid of dense_clean and lossy_crash: short calls at
/// high load keep every cell's queue busy.
runner::ScenarioConfig dense_grid(std::uint64_t seed) {
  runner::ScenarioConfig c;
  c.rows = 16;
  c.cols = 16;
  c.interference_radius = 2;
  c.n_channels = 70;
  c.cluster = 7;
  c.mean_holding_s = 5.0;
  c.latency = sim::milliseconds(5);
  c.seed = seed;
  c.duration = sim::minutes(4);
  c.warmup = sim::minutes(1);
  return c;
}

/// The paper's scenario (8x8, holding 180 s, theta 2/4, alpha 3). Kept
/// here rather than shared with the table benches so that no later change
/// to them can move this workload.
runner::ScenarioConfig paper_grid(std::uint64_t seed) {
  runner::ScenarioConfig c;
  c.rows = 8;
  c.cols = 8;
  c.interference_radius = 2;
  c.n_channels = 70;
  c.cluster = 7;
  c.mean_holding_s = 180.0;
  c.latency = sim::milliseconds(5);
  c.seed = seed;
  c.duration = sim::minutes(10);
  c.warmup = sim::minutes(5);
  c.adaptive.theta_low = 2;
  c.adaptive.theta_high = 4;
  c.adaptive.alpha = 3;
  c.adaptive.window = sim::seconds(30);
  return c;
}

/// CPUs this process may run on: its affinity mask, so taskset and cpusets
/// count, falling back to the online CPUs where no mask can be read.
int nproc() {
  const std::size_t allowed = sim::allowed_cpus().size();
  if (allowed > 0) return static_cast<int>(allowed);
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// One worker per shard, but one core is left to the rest of the machine:
/// the window barrier waits for the slowest worker, so a worker sharing its
/// core with anything else sets the pace. On a shared 4-core host, 4 pinned
/// workers gave an IQR of 14-21% of the median over ten seeds, 3 unpinned
/// workers 8-13%.
int metro_threads() { return std::clamp(nproc() - 1, 1, 4); }

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                      bool smoke) {
  const auto scale = [smoke](sim::Duration d) {
    return smoke ? d / kSmokeDivisor : d;
  };
  Workload w;
  w.name = name;
  if (name == "dense_clean" || name == "lossy_crash") {
    runner::ScenarioConfig c = dense_grid(seed);
    if (name == "lossy_crash") {
      c.duration = sim::minutes(3);
      c.fault.drop_prob = 0.05;
      c.fault.dup_prob = 0.01;
      c.fault.jitter = sim::milliseconds(2);
      c.fault.crash_rate_per_min = 0.5;
      c.fault.crash_mean_s = 2.0;
      c.fault.partitions.push_back(
          net::PartitionSpec{{0, 1, 2, 16, 17, 18},
                             scale(sim::seconds(120)),
                             scale(sim::seconds(180))});
      c.request_timeout = sim::milliseconds(100);
    }
    c.duration = scale(c.duration);
    c.warmup = scale(c.warmup);
    w.points.push_back(Point{c, runner::Scheme::kAdaptive, 0.9});
  } else if (name == "metro_stream") {
    runner::ScenarioConfig c = dense_grid(seed);
    c.rows = 100;
    c.cols = 100;
    c.mean_dwell_s = 10.0;
    c.duration = scale(sim::seconds(12));
    c.warmup = scale(sim::from_seconds(1.2));
    c.stream_metrics = true;
    c.shards = 4;
    c.partition = cell::Partition::kBlocks;
    c.threads = metro_threads();
    w.points.push_back(Point{c, runner::Scheme::kAdaptive, 0.9});
  } else if (name == "paper_sweep") {
    // Eight replications per (scheme, rho), seeded as run_replicated seeds
    // them, so the sweep is the paper's table experiment point for point.
    constexpr int kSeeds = 8;
    for (const runner::Scheme s : runner::kAllSchemes) {
      for (int k = 1; k <= 7; ++k) {
        const double rho = k / 5.0;
        w.setup_points.push_back(w.points.size());
        for (int i = 0; i < kSeeds; ++i) {
          runner::ScenarioConfig c = paper_grid(
              sim::mix64(seed + static_cast<std::uint64_t>(i) * std::uint64_t{0x9E37}));
          c.duration = scale(c.duration);
          c.warmup = scale(c.warmup);
          w.points.push_back(Point{c, s, rho});
        }
      }
    }
  } else {
    return std::nullopt;
  }
  if (w.setup_points.empty()) w.setup_points.push_back(0);
  return w;
}

// -- results ------------------------------------------------------------------

class Digest {
 public:
  void add(std::uint64_t v) noexcept { h_ = sim::mix64(h_ ^ v); }
  void add_double(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Digest of every simulated output of one run. Engine-cost counters
/// (cross_shard_messages, peak RSS) are left out: they are not results.
std::uint64_t result_digest(const runner::RunResult& r) {
  Digest d;
  const metrics::Aggregate& a = r.agg;
  d.add(static_cast<std::uint64_t>(r.scheme));
  for (const std::uint64_t v :
       {r.offered_calls, r.executed_events, r.total_messages, r.violations,
        static_cast<std::uint64_t>(r.quiescent), a.offered, a.acquired, a.blocked,
        a.starved, a.timed_out, a.downed, a.handoff_offered, a.handoff_failures,
        a.delay_in_T.count(), a.messages_per_call.count(),
        r.transport.frames_dropped, r.transport.frames_duplicated,
        r.transport.retransmissions, r.transport.acks_sent,
        r.availability.crashes, r.availability.resyncs, r.availability.down_us,
        r.availability.resync_us, r.availability.resync_rounds}) {
    d.add(v);
  }
  for (const std::uint64_t m : r.messages_by_kind) d.add(m);
  for (const double v :
       {a.xi1, a.xi2, a.xi3, a.mean_update_attempts, a.mean_borrowing_neighbors,
        a.mean_searching_neighbors, a.delay_in_T.mean(), a.messages_per_call.mean(),
        a.attempts.mean(), r.carried_erlangs}) {
    d.add_double(v);
  }
  return d.value();
}

/// Sums over the runs of one pass through a workload's points.
struct Totals {
  double wall_s = 0.0;  // Σ run_uniform walls
  double sim_s = 0.0;   // Σ simulated arrival horizons
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;  // runs that failed a check
  std::uint64_t events = 0, messages = 0, cross_shard = 0;
  std::array<std::uint64_t, net::kNumMsgKinds> by_kind{};
  std::uint64_t offered = 0, acquired = 0, dropped = 0, starved = 0,
                timed_out = 0, handoffs = 0;
  double msgs_sum = 0.0, delay_sum = 0.0, attempts_sum = 0.0;
  std::uint64_t msgs_n = 0, delay_n = 0, attempts_n = 0;
  // ξ and N_borrow are per acquisition, N_search per search acquisition.
  double xi1_w = 0.0, xi2_w = 0.0, xi3_w = 0.0, borrow_w = 0.0,
         search_w = 0.0, search_n = 0.0;
  net::TransportStats transport;
  metrics::Availability availability;
  double cell_s = 0.0, up_cell_s = 0.0;
  std::uint64_t violations = 0;
  std::uint64_t peak_rss = 0;
  int max_cells = 0;
  std::vector<std::uint64_t> digests;  // per point, in point order
  std::map<double, std::vector<double>> fca_drop;  // rho -> per-seed drop

  void add(const Point& p, const runner::RunResult& r, double wall) {
    const metrics::Aggregate& a = r.agg;
    ++runs;
    wall_s += wall;
    sim_s += sim::to_seconds(p.cfg.duration);
    events += r.executed_events;
    messages += r.total_messages;
    cross_shard += r.cross_shard_messages;
    for (std::size_t k = 0; k < by_kind.size(); ++k) by_kind[k] += r.messages_by_kind[k];
    offered += a.offered;
    acquired += a.acquired;
    dropped += a.blocked + a.starved + a.timed_out + a.downed;
    starved += a.starved;
    timed_out += a.timed_out;
    handoffs += a.handoff_offered;
    msgs_sum += a.messages_per_call.sum();
    msgs_n += a.messages_per_call.count();
    delay_sum += a.delay_in_T.sum();
    delay_n += a.delay_in_T.count();
    attempts_sum += a.attempts.sum();
    attempts_n += a.attempts.count();
    const auto acq = static_cast<double>(a.acquired);
    xi1_w += a.xi1 * acq;
    xi2_w += a.xi2 * acq;
    xi3_w += a.xi3 * acq;
    borrow_w += a.mean_borrowing_neighbors * acq;
    search_w += a.mean_searching_neighbors * a.xi3 * acq;
    search_n += a.xi3 * acq;
    transport.frames_dropped += r.transport.frames_dropped;
    transport.frames_duplicated += r.transport.frames_duplicated;
    transport.retransmissions += r.transport.retransmissions;
    transport.acks_sent += r.transport.acks_sent;
    availability.merge(r.availability);
    const int cells = p.cfg.rows * p.cfg.cols;
    const double cs = cells * sim::to_seconds(p.cfg.duration);
    cell_s += cs;
    up_cell_s += cs * r.availability.uptime_fraction(p.cfg.duration, cells);
    violations += r.violations;
    peak_rss = std::max(peak_rss, r.peak_rss_bytes);
    max_cells = std::max(max_cells, cells);
    digests.push_back(result_digest(r));
    if (p.scheme == runner::Scheme::kFca) fca_drop[p.rho].push_back(a.drop_rate());

    if (r.violations != 0 || !r.quiescent || a.offered == 0 ||
        a.messages_per_call.count() != a.offered) {
      ++failed;
      std::fprintf(stderr,
                   "dcabench: check failed (%s rho %.1f seed %llu): violations=%llu "
                   "quiescent=%d offered=%llu\n",
                   runner::scheme_name(p.scheme).c_str(), p.rho,
                   static_cast<unsigned long long>(p.cfg.seed),
                   static_cast<unsigned long long>(r.violations), r.quiescent ? 1 : 0,
                   static_cast<unsigned long long>(a.offered));
    }
  }

  [[nodiscard]] static double ratio(double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  }
  [[nodiscard]] double drop_rate() const {
    return ratio(static_cast<double>(dropped), static_cast<double>(offered));
  }
  [[nodiscard]] double msgs_per_call() const {
    return ratio(msgs_sum, static_cast<double>(msgs_n));
  }
  [[nodiscard]] double acq_delay_T() const {
    return ratio(delay_sum, static_cast<double>(delay_n));
  }
};

/// Mean over rho of |FCA drop rate - Erlang-B|: under FCA every cell is an
/// independent M/M/c/c loss system with c = |PR| trunks. Negative when the
/// pass ran no FCA point.
double erlang_b_error(const Totals& t, const runner::ScenarioConfig& cfg) {
  if (t.fca_drop.empty()) return -1.0;
  const int servers = cfg.n_channels / cfg.cluster;
  double sum = 0.0;
  for (const auto& [rho, drops] : t.fca_drop) {
    double mean = 0.0;
    for (const double d : drops) mean += d;
    mean /= static_cast<double>(drops.size());
    sum += std::fabs(mean - analysis::erlang_b(servers, rho * servers));
  }
  return sum / static_cast<double>(t.fca_drop.size());
}

/// FCA blocking must sit this close to Erlang-B on every benchmark grid.
/// Smoke horizons are too short for the loss systems to reach steady
/// state, so smoke runs skip the check.
constexpr double kErlangTolerance = 0.02;

bool erlang_ok(double error, bool smoke) {
  if (smoke || error <= kErlangTolerance) return true;
  std::fprintf(stderr, "dcabench: FCA drop is %.4f from Erlang-B (limit %.2f)\n",
               error, kErlangTolerance);
  return false;
}

/// Number of runs whose results differ from the same run in `ref`.
std::uint64_t count_mismatches(const Totals& ref, const Totals& t, const char* what) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < t.digests.size(); ++i) {
    if (i >= ref.digests.size() || t.digests[i] != ref.digests[i]) ++bad;
  }
  if (bad != 0) {
    std::fprintf(stderr, "dcabench: %llu runs changed results %s\n",
                 static_cast<unsigned long long>(bad), what);
  }
  return bad;
}

runner::RunResult timed_run(const Point& p, double& wall,
                            sim::TraceRecorder* trace = nullptr) {
  const auto t0 = Clock::now();
  runner::RunResult r = runner::run_uniform(p.cfg, p.scheme, p.rho, trace);
  wall = seconds_since(t0);
  return r;
}

Totals run_pass(const Workload& w) {
  Totals t;
  for (const Point& p : w.points) {
    double wall = 0.0;
    const runner::RunResult r = timed_run(p, wall);
    t.add(p, r, wall);
  }
  return t;
}

/// Set-up cost of one point: its run with a 1 us arrival horizon and no
/// warmup, which builds and tears down the world but simulates nothing.
double setup_probe(Point p) {
  p.cfg.duration = 1;
  p.cfg.warmup = 0;
  double wall = 0.0;
  (void)timed_run(p, wall);
  return wall;
}

double setup_probe(const Workload& w) {
  double total = 0.0;
  for (const std::size_t i : w.setup_points) total += setup_probe(w.points[i]);
  return total;
}

/// Median of at least five probes and of at least `min_s` seconds of them:
/// small grids set up in milliseconds, so one probe is mostly noise.
double measure_setup(const Workload& w, double min_s) {
  std::vector<double> probes;
  const auto t0 = Clock::now();
  while (probes.size() < 5 || (seconds_since(t0) < min_s && probes.size() < 2000)) {
    probes.push_back(setup_probe(w));
  }
  return median(probes);
}

// -- spans --------------------------------------------------------------------

/// Host-time spans the benchmark records around its own calls into the
/// simulator: name, start, end, parent. Kept in memory, written at exit.
class Spans {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Spans& spans, const char* name) : spans_(spans), id_(spans.open(name)) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

  /// Self time per span name: duration minus the time child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_s - spans_[i].start_s;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end_s - spans_[i].start_s;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }

  [[nodiscard]] std::string to_json() const {
    metrics::JsonWriter j;
    j.begin_array();
    for (const Record& r : spans_) {
      j.begin_object();
      j.key("name");
      j.value(r.name);
      j.key("parent");
      j.value(r.parent);
      j.key("start_s");
      j.value(r.start_s);
      j.key("end_s");
      j.value(r.end_s);
      j.end_object();
    }
    j.end_array();
    return j.str();
  }

 private:
  int open(const char* name) {
    spans_.push_back(Record{name, seconds_since(origin_), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  int current_ = -1;
};

/// The span names --layers reports self time for, in output order.
constexpr const char* kSpanNames[] = {
    "workload",     "point",       "setup_probe",   "run",
    "traced_run",   "check_trace", "serial_run",    "fca_reference",
    "cell_build",   "kernel_probe", "barrier_probe", "aggregate_probe"};

// -- layer probes -------------------------------------------------------------

/// Rebuilds call records (request, decision instant, outcome) from a trace,
/// as the metrics layer would see them, for the AggregateBuilder probe.
/// Message tallies are not in the trace and stay zero.
class RecordsFromTrace {
 public:
  void feed(const sim::TraceEvent& e) {
    if (e.kind == sim::TraceKind::kRequest) {
      open_[e.serial] = records_.size();
      metrics::CallRecord r;
      r.serial = e.serial;
      r.cellId = e.cell;
      r.t_request = e.t;
      r.t_decision = e.t;
      records_.push_back(r);
      return;
    }
    if (e.kind != sim::TraceKind::kAcquire && e.kind != sim::TraceKind::kBlock) return;
    const auto it = open_.find(e.serial);
    if (it == open_.end()) return;
    metrics::CallRecord& r = records_[it->second];
    r.t_decision = e.t;
    r.outcome = e.kind == sim::TraceKind::kAcquire
                    ? proto::Outcome::kAcquiredLocal
                    : static_cast<proto::Outcome>(std::clamp<std::int64_t>(e.a, 3, 6));
    open_.erase(it);
  }
  [[nodiscard]] const std::vector<metrics::CallRecord>& records() const {
    return records_;
  }

 private:
  std::vector<metrics::CallRecord> records_;
  std::unordered_map<std::uint64_t, std::size_t> open_;
};

/// ns per record of an AggregateBuilder fold, repeated for >= min_s.
double aggregate_probe(const std::vector<metrics::CallRecord>& records,
                       const runner::ScenarioConfig& cfg, double min_s) {
  if (records.empty()) return 0.0;
  std::uint64_t folded = 0;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  do {
    metrics::AggregateBuilder b(cfg.latency, cfg.warmup);
    for (const metrics::CallRecord& r : records) b.add(r);
    sink += b.finish().acquired;
    folded += records.size();
  } while (seconds_since(t0) < min_s);
  const double wall = seconds_since(t0);
  if (sink == std::numeric_limits<std::uint64_t>::max()) std::fputc(' ', stderr);
  return wall * 1e9 / static_cast<double>(folded);
}

struct GridTables {
  double build_s = 0.0;
  std::int64_t links = 0;
};

/// HexGrid + ReusePlan + LinkTable + shard partition: the static tables
/// every world is built on. Median of >= 5 builds and >= min_s seconds.
GridTables cell_build(const runner::ScenarioConfig& c, double min_s) {
  GridTables out;
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (walls.size() < 5 || seconds_since(t0) < min_s) {
    const auto t1 = Clock::now();
    const cell::HexGrid grid(c.rows, c.cols, c.interference_radius, c.wrap);
    const cell::ReusePlan plan = cell::ReusePlan::cluster(grid, c.n_channels, c.cluster);
    const net::LinkTable links(grid);
    const std::vector<int> part = cell::make_partition(grid, c.shards, c.partition);
    walls.push_back(seconds_since(t1));
    out.links = links.n_links();
    if (part.size() != static_cast<std::size_t>(grid.n_cells()) || plan.n_colors() <= 0) {
      std::abort();
    }
  }
  out.build_s = median(walls);
  return out;
}

/// Worker threads the sharded kernel runs a config with (1 on the classic
/// single-queue path). Every sharded workload sets its thread count.
int resolved_threads(const runner::ScenarioConfig& c) {
  if (c.shards <= 1 && !c.stream_metrics) return 1;
  return std::min(c.threads, c.shards);
}

/// A ShardedKernel shaped like a workload: same cells, shards, threads and
/// lookahead, the workload's events per cell-second, and the workload's
/// share of events that cross shards.
struct KernelShape {
  std::vector<int> partition;
  int shards = 1;
  int threads = 1;
  sim::Duration lookahead = 1;
  double events_per_cell_s = 1.0;
  double cross_fraction = 0.0;
};

struct ProbePlan {
  sim::Duration period = 1;
  sim::Duration lookahead = 1;
  sim::SimTime horizon = 0;
  std::uint64_t cross_threshold = 0;
  std::vector<std::int32_t> remote;  // per cell: a cell on another shard
};

/// One self-rescheduling event chain; every hop either stays on its cell
/// or, with the workload's cross-shard probability, moves to another shard
/// one lookahead later.
struct ProbeChain {
  sim::ShardedKernel* kernel;
  const ProbePlan* plan;
  std::int32_t cell;
  std::int32_t origin;
  sim::SimTime when;
  std::uint64_t hop;

  void operator()() const {
    const std::uint64_t h =
        sim::mix64((static_cast<std::uint64_t>(origin) << 32) ^ hop);
    const bool cross = h < plan->cross_threshold;
    const std::int32_t next = cross ? plan->remote[static_cast<std::size_t>(cell)] : cell;
    const sim::SimTime t =
        when + (cross ? std::max(plan->period, plan->lookahead) : plan->period);
    if (t > plan->horizon) return;
    kernel->schedule(sim::EventKey{t, next, sim::kClassTimer, origin, hop + 1},
                     ProbeChain{kernel, plan, next, origin, t, hop + 1});
  }
};

struct KernelProbe {
  double ns_per_event = 0.0;
  double windows_per_sim_s = 0.0;
};

KernelProbe kernel_probe(const KernelShape& s, double target_events) {
  const auto n_cells = static_cast<std::int32_t>(s.partition.size());
  ProbePlan plan;
  plan.lookahead = s.lookahead;
  plan.period = std::max<sim::Duration>(
      1, static_cast<sim::Duration>(1e6 / std::max(s.events_per_cell_s, 1e-3)));
  plan.horizon = static_cast<sim::SimTime>(
      target_events / (n_cells * std::max(s.events_per_cell_s, 1e-3)) * 1e6);
  plan.cross_threshold =
      s.cross_fraction >= 1.0
          ? std::numeric_limits<std::uint64_t>::max()
          : static_cast<std::uint64_t>(s.cross_fraction * 18446744073709551616.0);
  plan.remote.resize(static_cast<std::size_t>(n_cells));
  for (std::int32_t c = 0; c < n_cells; ++c) {
    // First cell of the next shard: any cell elsewhere will do, since the
    // hop already waits a full lookahead.
    const int want = (s.partition[static_cast<std::size_t>(c)] + 1) % s.shards;
    const auto it = std::find(s.partition.begin(), s.partition.end(), want);
    plan.remote[static_cast<std::size_t>(c)] =
        static_cast<std::int32_t>(it - s.partition.begin());
  }

  sim::ShardedKernel kernel(s.partition, s.shards, s.lookahead, s.threads);
  std::uint64_t windows = 0;
  kernel.set_window_hook([&windows](sim::SimTime) { ++windows; });
  for (std::int32_t c = 0; c < n_cells; ++c) {
    const sim::SimTime t0 = 1 + plan.period * c / n_cells;
    kernel.schedule(sim::EventKey{t0, c, sim::kClassTimer, c, 0},
                    ProbeChain{&kernel, &plan, c, c, t0, 0});
  }
  const auto t0 = Clock::now();
  kernel.run_until(plan.horizon);
  const double wall = seconds_since(t0);
  KernelProbe out;
  out.ns_per_event = wall * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, kernel.executed()));
  out.windows_per_sim_s = static_cast<double>(windows) / sim::to_seconds(plan.horizon);
  return out;
}

/// A chain that does nothing but come back one lookahead later.
struct IdleChain {
  sim::ShardedKernel* kernel;
  std::int32_t cell;
  sim::SimTime when;
  sim::Duration step;
  sim::SimTime horizon;
  void operator()() const {
    if (when + step > horizon) return;
    kernel->schedule(sim::EventKey{when + step, cell, sim::kClassTimer, 0, 0},
                     IdleChain{kernel, cell, when + step, step, horizon});
  }
};

/// ns per window barrier: one idle chain per shard, one event per shard
/// per window, so the windows hold no work.
double barrier_probe(const KernelShape& s, int windows_target) {
  sim::ShardedKernel kernel(s.partition, s.shards, s.lookahead, s.threads);
  std::uint64_t windows = 0;
  kernel.set_window_hook([&windows](sim::SimTime) { ++windows; });
  const sim::SimTime horizon = s.lookahead * windows_target;
  for (int shard = 0; shard < s.shards; ++shard) {
    const auto it = std::find(s.partition.begin(), s.partition.end(), shard);
    const auto cell = static_cast<std::int32_t>(it - s.partition.begin());
    kernel.schedule(sim::EventKey{s.lookahead, cell, sim::kClassTimer, 0, 0},
                    IdleChain{&kernel, cell, s.lookahead, s.lookahead, horizon});
  }
  const auto t0 = Clock::now();
  kernel.run_until(horizon);
  const double wall = seconds_since(t0);
  return wall * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, windows));
}

// -- output -------------------------------------------------------------------

void emit(const char* name, double value, const char* unit) {
  std::printf("%s %.17g %s\n", name, value, unit);
}
void emit(const std::string& name, double value, const char* unit) {
  emit(name.c_str(), value, unit);
}

std::string git_rev() {
  std::string rev;
  if (FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr) rev.assign(buf);
    pclose(p);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) rev.pop_back();
  return rev.empty() ? "unknown" : rev;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_manifest(const Workload& w, std::uint64_t seed, const std::string& mode) {
  Digest cfg;
  for (const Point& p : w.points) {
    for (const char ch : runner::scenario_to_text(p.cfg)) {
      cfg.add(static_cast<unsigned char>(ch));
    }
    cfg.add(static_cast<std::uint64_t>(p.scheme));
    cfg.add_double(p.rho);
  }
  std::string cpus;
  for (const int c : sim::allowed_cpus()) {
    if (!cpus.empty()) cpus += ',';
    cpus += std::to_string(c);
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(cfg.value()));
  metrics::JsonWriter j;
  j.begin_object();
  j.key("workload");
  j.value(w.name);
  j.key("mode");
  j.value(mode);
  j.key("seed");
  j.value(seed);
  j.key("config_digest");
  j.value(digest);
  j.key("git_rev");
  j.value(git_rev());
  j.key("build_type");
  j.value(DCABENCH_BUILD_TYPE);
  j.key("compiler");
  j.value(compiler());
  j.key("nproc");
  j.value(static_cast<std::uint64_t>(nproc()));
  j.key("allowed_cpus");
  j.value(cpus);
  j.key("cpu_model");
  j.value(cpu_model());
  j.end_object();
  std::printf("# manifest %s\n", j.str().c_str());
}

// -- modes --------------------------------------------------------------------

/// Minimum measured passes per run, whatever --seconds says.
constexpr int kMinPasses = 3;

/// Default mode: set-up probes, then back-to-back passes for `seconds`.
/// Returns the number of failed runs; `attempted` gets the runs made.
std::uint64_t run_end_to_end(const Workload& w, double seconds, bool smoke,
                             std::uint64_t& attempted) {
  const double setup_s = measure_setup(w, smoke ? 0.0 : 1.0);

  std::vector<double> walls, events_per_s, sim_per_wall;
  std::optional<Totals> ref;
  std::uint64_t failed = 0;
  attempted = 0;
  const auto t0 = Clock::now();
  const int min_passes = smoke ? 2 : kMinPasses;
  for (int pass = 0; pass < min_passes || seconds_since(t0) < seconds; ++pass) {
    Totals t = run_pass(w);
    attempted += t.runs;
    failed += t.failed;
    if (ref) {
      failed += count_mismatches(*ref, t, "between in-process passes");
    }
    walls.push_back(t.wall_s);
    events_per_s.push_back(static_cast<double>(t.events) / t.wall_s);
    sim_per_wall.push_back(t.sim_s / t.wall_s);
    if (!ref) ref = std::move(t);
  }
  if (!erlang_ok(erlang_b_error(*ref, w.points.front().cfg), smoke)) ++failed;

  std::printf("# wall_s of each pass:");
  for (const double x : walls) std::printf(" %.4f", x);
  std::printf("\n");
  emit("wall_s", median(walls), "s");
  emit("events_per_s", median(events_per_s), "events/s");
  emit("sim_s_per_wall_s", median(sim_per_wall), "ratio");
  emit("setup_s", setup_s, "s");
  emit("peak_rss_bytes_per_cell",
       static_cast<double>(ref->peak_rss) / std::max(1, ref->max_cells), "B");
  emit("drop_rate", ref->drop_rate(), "fraction");
  emit("msgs_per_call", ref->msgs_per_call(), "msgs");
  emit("acq_delay_T", ref->acq_delay_T(), "T");
  return failed;
}

/// --layers: untraced and traced passes, conformance replay and the layer
/// probes, all inside spans. Returns the number of failed checks.
std::uint64_t run_layers(const Workload& w, double seconds, bool smoke,
                         const std::string& spans_path, std::uint64_t& attempted) {
  Spans spans;
  std::uint64_t failed = 0;
  attempted = 0;
  const runner::ScenarioConfig& cfg0 = w.points.front().cfg;
  const bool streaming = cfg0.stream_metrics;

  std::optional<Totals> ref;
  RecordsFromTrace rebuilt;
  std::vector<double> overheads, conformance_ns, untraced_walls;
  std::uint64_t violations = 0;
  {
    Spans::Scope workload_span(spans, "workload");
    const auto t0 = Clock::now();
    // At least two passes, alternating which of each point's untraced and
    // traced runs goes first, so the cold first run of the process does not
    // land on one side of runner.trace_overhead.
    const int min_passes = smoke ? 1 : 2;
    for (int pass = 0; pass < min_passes || seconds_since(t0) < seconds; ++pass) {
      Totals untraced, traced;
      double trace_events = 0.0, check_s = 0.0;
      for (const Point& p : w.points) {
        Spans::Scope point_span(spans, "point");
        {
          Spans::Scope s(spans, "setup_probe");
          (void)setup_probe(p);
        }
        const auto run_untraced = [&] {
          Spans::Scope s(spans, "run");
          double wall = 0.0;
          const runner::RunResult r = timed_run(p, wall);
          untraced.add(p, r, wall);
        };
        // Streaming runs hand the trace to a sink as it is folded (and run
        // the conformance checker in the engine); buffered runs keep it.
        sim::TraceRecorder rec;
        RecordsFromTrace* sink_target = pass == 0 ? &rebuilt : nullptr;
        if (streaming) {
          rec.set_sink([sink_target](const sim::TraceEvent& e) {
            if (sink_target != nullptr) sink_target->feed(e);
          });
        }
        runner::RunResult r;
        const auto run_traced = [&] {
          Spans::Scope s(spans, "traced_run");
          double wall = 0.0;
          r = timed_run(p, wall, &rec);
          traced.add(p, r, wall);
        };
        if (pass % 2 == 0) {
          run_untraced();
          run_traced();
        } else {
          run_traced();
          run_untraced();
        }
        trace_events += static_cast<double>(rec.size());
        if (streaming) {
          if (!r.conformance_ok()) {
            ++failed;
            std::fprintf(stderr, "dcabench: in-engine conformance failed (%llu)\n",
                         static_cast<unsigned long long>(r.conformance_violations));
          }
          violations += r.conformance_violations;
          continue;
        }
        const cell::HexGrid grid(p.cfg.rows, p.cfg.cols, p.cfg.interference_radius,
                                 p.cfg.wrap);
        const auto c0 = Clock::now();
        runner::ConformanceReport report;
        {
          Spans::Scope s(spans, "check_trace");
          report = runner::check_trace(grid, p.cfg.n_channels, rec.events());
        }
        check_s += seconds_since(c0);
        if (!report.ok() || !report.saw_run_end) {
          ++failed;
          std::fprintf(stderr, "dcabench: conformance: %s\n", report.to_string().c_str());
        }
        violations += report.violations.size();
        if (pass == 0) {
          for (const sim::TraceEvent& e : rec.events()) rebuilt.feed(e);
        }
      }
      attempted += untraced.runs + traced.runs;
      failed += untraced.failed + traced.failed;
      failed += count_mismatches(untraced, traced, "when traced");
      if (ref) failed += count_mismatches(*ref, untraced, "between in-process passes");
      const double extra = traced.wall_s - untraced.wall_s;
      overheads.push_back(extra / untraced.wall_s);
      conformance_ns.push_back(
          (streaming ? extra : check_s) * 1e9 / std::max(1.0, trace_events));
      untraced_walls.push_back(untraced.wall_s);
      if (!ref) ref = std::move(untraced);
    }

    const Totals& t = *ref;
    double erlang = erlang_b_error(t, cfg0);
    if (erlang < 0.0) {
      // No FCA point in the workload: run one on its grid and load, with
      // faults and mobility off so Erlang-B applies, and a warmup of four
      // holding times so the loss systems start near steady state.
      Spans::Scope s(spans, "fca_reference");
      Point p = w.points.front();
      p.scheme = runner::Scheme::kFca;
      p.cfg.fault = net::FaultConfig{};
      p.cfg.request_timeout = 0;
      p.cfg.mean_dwell_s = 0.0;
      const sim::Duration measured = p.cfg.duration - p.cfg.warmup;
      p.cfg.warmup = std::max(p.cfg.warmup, sim::from_seconds(4 * p.cfg.mean_holding_s));
      p.cfg.duration = p.cfg.warmup + measured;
      Totals fca;
      double wall = 0.0;
      const runner::RunResult r = timed_run(p, wall);
      fca.add(p, r, wall);
      failed += fca.failed;
      erlang = erlang_b_error(fca, p.cfg);
    }
    if (!erlang_ok(erlang, smoke)) ++failed;

    // Only metro_stream runs on several threads, and it has one point.
    double speedup = 1.0;
    if (resolved_threads(cfg0) > 1) {
      Spans::Scope s(spans, "serial_run");
      Point p = w.points.front();
      p.cfg.threads = 1;
      double wall = 0.0;
      const runner::RunResult r = timed_run(p, wall);
      if (result_digest(r) != t.digests.front()) {
        ++failed;
        std::fprintf(stderr, "dcabench: results changed with the thread count\n");
      }
      speedup = wall / median(untraced_walls);
    }

    GridTables tables;
    {
      Spans::Scope s(spans, "cell_build");
      tables = cell_build(cfg0, smoke ? 0.0 : 0.3);
    }
    const cell::HexGrid grid(cfg0.rows, cfg0.cols, cfg0.interference_radius, cfg0.wrap);
    KernelShape shape;
    shape.partition = cell::make_partition(grid, cfg0.shards, cfg0.partition);
    shape.shards = cfg0.shards;
    shape.threads = resolved_threads(cfg0);
    shape.lookahead = cfg0.latency - cfg0.latency_jitter;
    shape.events_per_cell_s =
        static_cast<double>(t.events) / (static_cast<double>(grid.n_cells()) * t.sim_s);
    shape.cross_fraction =
        Totals::ratio(static_cast<double>(t.cross_shard), static_cast<double>(t.events));
    KernelProbe kp;
    {
      Spans::Scope s(spans, "kernel_probe");
      kp = kernel_probe(shape, smoke ? 1e5 : 2e6);
    }
    double barrier_ns = 0.0;
    {
      Spans::Scope s(spans, "barrier_probe");
      barrier_ns = barrier_probe(shape, smoke ? 1000 : 20000);
    }
    double aggregate_ns = 0.0;
    {
      Spans::Scope s(spans, "aggregate_probe");
      aggregate_ns = aggregate_probe(rebuilt.records(), cfg0, smoke ? 0.0 : 0.2);
    }

    const double messages = static_cast<double>(t.messages);
    emit("sim.events", static_cast<double>(t.events), "count");
    emit("sim.events_per_call", Totals::ratio(static_cast<double>(t.events),
                                              static_cast<double>(t.offered)),
         "events");
    emit("sim.kernel_ns_per_event", kp.ns_per_event, "ns");
    emit("sim.barrier_ns_per_window", barrier_ns, "ns");
    emit("sim.windows", kp.windows_per_sim_s * t.sim_s, "count");
    emit("sim.parallel_speedup", speedup, "ratio");
    emit("net.messages", messages, "count");
    for (int k = 0; k < net::kNumMsgKinds; ++k) {
      net::Message m;
      m.kind = static_cast<net::MsgKind>(k);
      emit("net.msgs." + std::string(m.kind_name()),
           static_cast<double>(t.by_kind[static_cast<std::size_t>(k)]), "count");
    }
    emit("net.cross_shard_fraction",
         Totals::ratio(static_cast<double>(t.cross_shard), messages), "fraction");
    emit("net.transport.retransmissions",
         static_cast<double>(t.transport.retransmissions), "count");
    emit("net.transport.frames_dropped", static_cast<double>(t.transport.frames_dropped),
         "count");
    emit("net.transport.frames_duplicated",
         static_cast<double>(t.transport.frames_duplicated), "count");
    emit("net.transport.acks_sent", static_cast<double>(t.transport.acks_sent), "count");
    emit("net.transport.overhead",
         Totals::ratio(static_cast<double>(t.transport.retransmissions +
                                           t.transport.frames_duplicated +
                                           t.transport.acks_sent),
                       messages),
         "ratio");
    emit("proto.offered", static_cast<double>(t.offered), "count");
    emit("proto.acquired", static_cast<double>(t.acquired), "count");
    emit("proto.success_ratio",
         Totals::ratio(static_cast<double>(t.acquired), static_cast<double>(t.offered)),
         "fraction");
    emit("proto.timed_out", static_cast<double>(t.timed_out), "count");
    emit("proto.starved", static_cast<double>(t.starved), "count");
    emit("proto.update_attempts",
         Totals::ratio(t.attempts_sum, static_cast<double>(t.attempts_n)), "attempts");
    const auto acquired = static_cast<double>(t.acquired);
    emit("core.xi1", Totals::ratio(t.xi1_w, acquired), "fraction");
    emit("core.xi2", Totals::ratio(t.xi2_w, acquired), "fraction");
    emit("core.xi3", Totals::ratio(t.xi3_w, acquired), "fraction");
    emit("core.n_borrow", Totals::ratio(t.borrow_w, acquired), "cells");
    emit("core.n_search", Totals::ratio(t.search_w, t.search_n), "cells");
    emit("runner.trace_overhead", median(overheads), "ratio");
    emit("runner.conformance_ns_per_event", median(conformance_ns), "ns");
    emit("runner.violations", static_cast<double>(t.violations + violations), "count");
    emit("runner.crashes", static_cast<double>(t.availability.crashes), "count");
    emit("runner.resync_rounds", static_cast<double>(t.availability.resync_rounds),
         "count");
    emit("runner.uptime_fraction", Totals::ratio(t.up_cell_s, t.cell_s), "fraction");
    emit("metrics.aggregate_ns_per_record", aggregate_ns, "ns");
    emit("cell.build_s", tables.build_s * static_cast<double>(w.setup_points.size()),
         "s");
    emit("cell.links", static_cast<double>(tables.links), "count");
    emit("traffic.handoffs_offered", static_cast<double>(t.handoffs), "count");
    emit("analysis.erlang_b_error", erlang, "fraction");
  }

  const auto self = spans.self_seconds();
  for (const char* name : kSpanNames) {
    const auto it = self.find(name);
    emit(std::string("span.") + name + ".self_s", it == self.end() ? 0.0 : it->second,
         "s");
  }
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    out << spans.to_json() << '\n';
    if (!out) {
      std::fprintf(stderr, "dcabench: cannot write %s\n", spans_path.c_str());
      ++failed;
    }
  }
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || defined(DCABENCH_SANITIZED) || \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "dcabench: unoptimized or sanitized build; its timings must not "
               "be compared (build RelWithDebInfo or Release)\n");
  return 2;
#endif
  runner::ArgParser args("dcabench", "the repository benchmark (see README.md)");
  args.add_string("workload", "",
                  "dense_clean | lossy_crash | metro_stream | paper_sweep")
      .add_int("seed", 7, "workload seed (1009 is held out for claims)")
      .add_double("seconds", 10.0, "how long to repeat the measured batch")
      .add_flag("layers", "traced run: per-layer metrics and spans")
      .add_flag("smoke", "short horizon, both modes, every check")
      .add_string("spans", "", "write the --layers spans as JSON here");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "dcabench: %s\n", args.error().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::printf("%s", args.help_text().c_str());
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const bool smoke = args.get_flag("smoke");
  const double seconds = smoke ? 0.0 : args.get_double("seconds");
  const auto workload = make_workload(args.get_string("workload"), seed, smoke);
  if (!workload) {
    std::fprintf(stderr, "dcabench: unknown workload '%s'\n",
                 args.get_string("workload").c_str());
    return 2;
  }
  for (const Point& p : workload->points) {
    if (const std::string problem = runner::validate_scenario(p.cfg); !problem.empty()) {
      std::fprintf(stderr, "dcabench: invalid scenario: %s\n", problem.c_str());
      return 2;
    }
  }

  const bool layers = args.get_flag("layers");
  print_manifest(*workload, seed, smoke ? "smoke" : layers ? "layers" : "end_to_end");
  std::uint64_t failed = 0, attempted = 0, layer_runs = 0;
  if (smoke || !layers) failed += run_end_to_end(*workload, seconds, smoke, attempted);
  if (smoke || layers) {
    failed += run_layers(*workload, seconds, smoke, args.get_string("spans"), layer_runs);
    attempted += layer_runs;
  }
  std::printf("# attempted %llu\n# failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  return failed == 0 ? 0 : 1;
}
