// Engine throughput benchmark: the sharded deterministic-parallel engine at
// shards=N against the same engine at shards=1 on a large fixed-seed
// scenario.
//
// Appends one timestamped trajectory entry per run to BENCH_engine.json
// (a JSON array; a legacy single-object file is wrapped on first append)
// so the performance trajectory is tracked run over run, with
// scheme/shards/partition/git-rev metadata per entry. Each run also
// measures the striped-vs-blocks partition on a 12x12 grid at shards=4
// (cross-shard protocol messages — the engine-cost metric the
// geometry-aware partition exists to shrink) and finishes with a
// ConformanceChecker pass over the merged sharded trace (the speedup is
// worthless if the merge is wrong).
//
// The scenario is chosen for event density rather than paper fidelity:
// short holding times at high load on a large grid keep every cell's
// queue busy, so the per-window parallelism is real work, not idle
// barriers.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cell/partition.hpp"
#include "metrics/json.hpp"
#include "net/latency.hpp"
#include "net/link_table.hpp"
#include "net/transport.hpp"
#include "runner/conformance.hpp"
#include "runner/experiment.hpp"
#include "sim/shard.hpp"
#include "sim/trace.hpp"

namespace {

using dca::runner::RunResult;
using dca::runner::Scheme;

dca::runner::ScenarioConfig bench_config() {
  dca::runner::ScenarioConfig c;
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

const char* partition_name(dca::cell::Partition p) {
  return p == dca::cell::Partition::kStriped ? "striped" : "blocks";
}

/// Worker threads a config actually runs with — the kernel's resolution of
/// threads <= 0 ("one per shard, capped by the hardware"), so trajectory
/// entries record real parallelism instead of the raw knob (which was
/// recorded as a meaningless 0 before).
int resolved_workers(const dca::runner::ScenarioConfig& c) {
  int t = c.threads;
  if (t <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    t = static_cast<int>(std::min<unsigned>(static_cast<unsigned>(c.shards),
                                            hw == 0 ? 1u : hw));
  }
  return std::min(t, c.shards);
}

struct Measurement {
  std::string scheme;
  std::string policy;  // canonical describe(), params filled in
  int shards = 1;
  int threads = 1;
  std::string partition;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  double events_per_sec = 0.0;
};

Measurement measure(const dca::runner::ScenarioConfig& cfg, Scheme scheme,
                    const std::string& name, const std::string& policy_desc,
                    double rho) {
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = dca::runner::run_uniform(cfg, scheme, rho);
  const auto t1 = std::chrono::steady_clock::now();
  Measurement m;
  m.scheme = name;
  m.policy = policy_desc;
  m.shards = cfg.shards;
  m.threads = resolved_workers(cfg);
  m.partition = partition_name(cfg.partition);
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  m.events = r.executed_events;
  m.messages = r.total_messages;
  m.events_per_sec = m.wall_s > 0 ? static_cast<double>(m.events) / m.wall_s : 0;
  std::printf("  %-14s policy=%-9s shards=%d threads=%d partition=%-7s  %9.3f s  %12llu events  %12.0f ev/s\n",
              name.c_str(), m.policy.c_str(), m.shards, m.threads,
              m.partition.c_str(), m.wall_s,
              static_cast<unsigned long long>(m.events), m.events_per_sec);
  return m;
}

// -- transport-layer breakdown ----------------------------------------------
//
// Two micro-timings isolate what one engine event and one network message
// cost on the flattened hot path, then the shards=1 run's (events, messages,
// wall) decomposes into estimated shares of wall time: transport
// (send+deliver, including the delivery event), queue (the remaining
// non-delivery events' schedule+dispatch overhead), and protocol logic (the
// residual — the allocator state machines themselves).

/// Self-scheduling chain functor: stays inside EventFn's inline buffer, so
/// this times the flattened schedule -> heap -> window -> dispatch path
/// of a one-cell, one-shard kernel alone.
struct ChainTick {
  dca::sim::ShardedKernel* kernel;
  int* remaining;
  void operator()() const {
    if (--*remaining > 0) {
      (void)kernel->schedule_local(0, dca::sim::kClassTimer, kernel->now(0) + 1,
                                   ChainTick{kernel, remaining});
    }
  }
};

double measure_queue_ns_per_event() {
  dca::sim::ShardedKernel kernel(1, 1, dca::sim::milliseconds(1), 1);
  int remaining = 2'000'000;
  const int total = remaining;
  const auto t0 = std::chrono::steady_clock::now();
  (void)kernel.schedule_local(0, dca::sim::kClassTimer, 1,
                              ChainTick{&kernel, &remaining});
  kernel.run_to_quiescence();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / total;
}

double measure_transport_ns_per_message(const dca::runner::ScenarioConfig& cfg) {
  // Drives Transport::send over the real link table of the bench grid on a
  // one-shard kernel, round-robin across one cell's interference
  // neighbourhood, with deliveries drained in batches (mirrors the running
  // engine: sends and deliveries interleave).
  const dca::cell::HexGrid grid(cfg.rows, cfg.cols, cfg.interference_radius,
                                cfg.wrap);
  const dca::net::LinkTable links(grid);
  dca::net::FixedLatency latency(cfg.latency);
  const dca::net::FaultConfig no_faults;
  dca::sim::ShardedKernel kernel(grid.n_cells(), 1, cfg.latency, 1);
  dca::net::Transport net(kernel, links, latency, no_faults, cfg.seed);
  std::uint64_t delivered = 0;
  net.set_receiver([&delivered](const dca::net::Message&) { ++delivered; });

  const dca::cell::CellId center =
      static_cast<dca::cell::CellId>(grid.n_cells() / 2 + cfg.cols / 2);
  const auto neighbours = grid.interference(center);
  constexpr std::uint64_t kMessages = 1'000'000;
  constexpr std::uint64_t kBatch = 64;
  dca::net::Message msg;
  msg.kind = dca::net::MsgKind::kRequest;
  msg.from = center;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sent = 0;
  while (sent < kMessages) {
    for (std::uint64_t b = 0; b < kBatch && sent < kMessages; ++b, ++sent) {
      msg.to = neighbours[sent % neighbours.size()];
      net.send(msg);
    }
    kernel.run_to_quiescence();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (delivered != kMessages) std::abort();  // FIFO floor must not drop any
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(kMessages);
}

struct Breakdown {
  double queue_ns_per_event = 0.0;
  double transport_ns_per_message = 0.0;
  double messages_per_sec = 0.0;
  double transport_share = 0.0;
  double queue_share = 0.0;
  double protocol_share = 0.0;
};

Breakdown transport_breakdown(const dca::runner::ScenarioConfig& cfg,
                              const Measurement& run) {
  Breakdown b;
  b.queue_ns_per_event = measure_queue_ns_per_event();
  b.transport_ns_per_message = measure_transport_ns_per_message(cfg);
  const double wall_ns = run.wall_s * 1e9;
  if (wall_ns <= 0) return b;
  const double msgs = static_cast<double>(run.messages);
  const double other_events =
      static_cast<double>(run.events) - msgs;  // non-delivery events
  b.messages_per_sec = msgs / run.wall_s;
  b.transport_share = msgs * b.transport_ns_per_message / wall_ns;
  b.queue_share = other_events * b.queue_ns_per_event / wall_ns;
  b.protocol_share = 1.0 - b.transport_share - b.queue_share;
  if (b.protocol_share < 0) b.protocol_share = 0;
  return b;
}

/// Cross-shard protocol messages under a given partition on the 12x12
/// comparison scenario. Simulation outputs are bit-identical either way;
/// only this engine-cost metric moves.
std::uint64_t cross_shard_count(dca::cell::Partition p) {
  dca::runner::ScenarioConfig c = bench_config();
  c.rows = 12;
  c.cols = 12;
  c.duration = dca::sim::seconds(30);
  c.shards = 4;
  c.partition = p;
  const RunResult r = dca::runner::run_uniform(c, Scheme::kAdaptive, 0.9);
  return r.cross_shard_messages;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string git_rev() {
  std::string rev = "unknown";
  if (FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p)) {
      rev.assign(buf);
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
        rev.pop_back();
    }
    pclose(p);
    if (rev.empty()) rev = "unknown";
  }
  return rev;
}

std::string read_file(const char* path) {
  std::string out;
  if (FILE* f = std::fopen(path, "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

/// Appends `entry` (a JSON object) to the trajectory array in `path`.
/// Handles three prior states: missing/empty file, a legacy single-object
/// file (wrapped into a one-element array first), and an existing array.
bool append_trajectory(const char* path, const std::string& entry) {
  std::string prior = read_file(path);
  // Trim trailing whitespace so we can splice before the closing bracket.
  while (!prior.empty() && std::isspace(static_cast<unsigned char>(prior.back())))
    prior.pop_back();

  std::string merged;
  if (prior.empty()) {
    merged = "[\n" + entry + "\n]";
  } else if (prior.front() == '[' && prior.back() == ']') {
    prior.pop_back();
    while (!prior.empty() && std::isspace(static_cast<unsigned char>(prior.back())))
      prior.pop_back();
    const bool was_empty_array = prior == "[";
    merged = prior + (was_empty_array ? "\n" : ",\n") + entry + "\n]";
  } else {
    // Legacy single-object format: preserve it as the first entry.
    merged = "[\n" + prior + ",\n" + entry + "\n]";
  }

  FILE* f = std::fopen(path, "w");
  if (!f) return false;
  std::fwrite(merged.data(), 1, merged.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int shards_n = 4;
  double rho = 0.9;
  std::vector<std::string> scheme_filter;
  std::vector<std::string> policy_filter;
  const auto split_csv = [](const char* list_text,
                            std::vector<std::string>& out) {
    std::string list(list_text);
    std::size_t pos = 0;
    while (pos <= list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::string name =
          list.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!name.empty()) out.push_back(name);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--rho=", 6) == 0) {
      rho = std::atof(arg + 6);
      if (rho <= 0) {
        std::fprintf(stderr, "engine_bench: bad --rho value '%s'\n", arg + 6);
        return 2;
      }
    } else if (std::strncmp(arg, "--schemes=", 10) == 0) {
      split_csv(arg + 10, scheme_filter);
    } else if (std::strncmp(arg, "--policies=", 11) == 0) {
      split_csv(arg + 11, policy_filter);
    } else if (std::isdigit(static_cast<unsigned char>(arg[0]))) {
      shards_n = std::atoi(arg);  // legacy positional shard count
    } else {
      std::fprintf(stderr,
                   "usage: engine_bench [shards] [--schemes=a,b] "
                   "[--policies=p,q] [--rho=X]\n"
                   "  schemes: adaptive basic_search (default: both)\n"
                   "  policies: registry specs, e.g. default or "
                   "tuned-threshold(theta_low=3,theta_high=6)\n"
                   "    (default: default only, so trajectory keys stay "
                   "comparable run over run)\n");
      return 2;
    }
  }
  if (shards_n < 2) shards_n = 2;

  // Resolve policy specs up front: reject typos before burning bench time,
  // and record the canonical describe() string (defaults filled in).
  if (policy_filter.empty()) policy_filter.push_back("default");
  struct PolicyChoice {
    dca::proto::PolicySpec spec;
    std::string desc;
  };
  std::vector<PolicyChoice> policy_choices;
  for (const std::string& text : policy_filter) {
    PolicyChoice pc;
    std::string perr;
    if (!dca::proto::parse_policy_spec(text, pc.spec, perr)) {
      std::fprintf(stderr, "engine_bench: %s\n", perr.c_str());
      return 2;
    }
    const auto policy =
        dca::proto::PolicyRegistry::instance().make(pc.spec, perr);
    if (policy == nullptr) {
      std::fprintf(stderr, "engine_bench: %s\n", perr.c_str());
      return 2;
    }
    pc.desc = policy->describe();
    policy_choices.push_back(std::move(pc));
  }

  dca::benchutil::heading("engine throughput: shards=1 vs sharded");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u, sharded run uses shards=%d, rho=%.2f\n\n",
              hw, shards_n, rho);

  const struct {
    Scheme scheme;
    const char* name;
  } kSchemes[] = {
      {Scheme::kAdaptive, "adaptive"},
      {Scheme::kBasicSearch, "basic_search"},
  };
  const auto scheme_selected = [&scheme_filter](const char* name) {
    if (scheme_filter.empty()) return true;
    for (const std::string& s : scheme_filter) {
      if (s == name) return true;
    }
    return false;
  };

  std::vector<Measurement> results;
  for (const auto& s : kSchemes) {
    if (!scheme_selected(s.name)) continue;
    for (const PolicyChoice& pc : policy_choices) {
      dca::runner::ScenarioConfig c1 = bench_config();
      c1.policy = pc.spec;
      c1.shards = 1;
      results.push_back(measure(c1, s.scheme, s.name, pc.desc, rho));

      dca::runner::ScenarioConfig cn = bench_config();
      cn.policy = pc.spec;
      cn.shards = shards_n;
      cn.threads = 0;  // one worker per shard, capped by the hardware
      results.push_back(measure(cn, s.scheme, s.name, pc.desc, rho));

      const double base = results[results.size() - 2].events_per_sec;
      const double par = results.back().events_per_sec;
      std::printf("  %-14s speedup: %.2fx\n\n", s.name,
                  base > 0 ? par / base : 0.0);
    }
  }
  if (results.empty()) {
    std::fprintf(stderr, "engine_bench: --schemes matched nothing\n");
    return 2;
  }

  // Where the wall time goes at shards=1: micro-timed per-event queue cost
  // and per-message transport cost, scaled by the first scheme's shards=1
  // run.
  dca::benchutil::heading("transport-layer breakdown (shards=1 run)");
  const Measurement& one_shard = results.front();
  const Breakdown bd = transport_breakdown(bench_config(), one_shard);
  std::printf("queue dispatch: %6.1f ns/event   transport send+deliver: %6.1f ns/message\n",
              bd.queue_ns_per_event, bd.transport_ns_per_message);
  std::printf("%s shards=1 run: %.0f messages/s  ->  est. shares: transport %.1f%%  queue %.1f%%  protocol %.1f%%\n",
              one_shard.scheme.c_str(), bd.messages_per_sec,
              100.0 * bd.transport_share, 100.0 * bd.queue_share,
              100.0 * bd.protocol_share);

  // Link-table shape of the bench grid (recorded with the trajectory so
  // regressions can be traced to topology changes).
  const dca::runner::ScenarioConfig shape = bench_config();
  const dca::cell::HexGrid bench_grid(shape.rows, shape.cols,
                                      shape.interference_radius, shape.wrap);
  const dca::net::LinkTable bench_links(bench_grid);

  // Partition engine-cost comparison: same simulation, different cell->
  // shard maps. Blocks should need far fewer cross-shard messages than
  // stripes because interference neighbourhoods are geometrically local.
  dca::benchutil::heading("cross-shard messages: striped vs blocks (12x12, shards=4)");
  const std::uint64_t xs_striped = cross_shard_count(dca::cell::Partition::kStriped);
  const std::uint64_t xs_blocks = cross_shard_count(dca::cell::Partition::kBlocks);
  const double xs_ratio =
      xs_striped > 0 ? static_cast<double>(xs_blocks) / static_cast<double>(xs_striped)
                     : 0.0;
  std::printf("striped=%llu blocks=%llu  blocks/striped=%.3f\n",
              static_cast<unsigned long long>(xs_striped),
              static_cast<unsigned long long>(xs_blocks), xs_ratio);

  // Mobility/handoff throughput: the same scenario with short dwells, so
  // nearly every call migrates several times. Handoffs ride HANDOFF
  // messages over the ordinary links — at shards > 1 many cross a
  // shard boundary, so this measures the migration machinery's cost and
  // its cross-shard traffic, shards=1 vs sharded.
  dca::benchutil::heading("mobility/handoff: events/sec and cross-shard messages");
  struct MobilityRun {
    int shards = 1;
    double wall_s = 0.0;
    std::uint64_t events = 0;
    double events_per_sec = 0.0;
    std::uint64_t cross_shard = 0;
    std::uint64_t handoff_messages = 0;
    std::uint64_t handoffs_offered = 0;
  };
  const double kBenchDwellS = 3.0;  // mean holding 5 s => ~1-2 hops per call
  std::vector<MobilityRun> mobility_runs;
  for (const int shards : {1, shards_n}) {
    dca::runner::ScenarioConfig mc = bench_config();
    mc.mean_dwell_s = kBenchDwellS;
    mc.shards = shards;
    mc.threads = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = dca::runner::run_uniform(mc, Scheme::kAdaptive, rho);
    const auto t1 = std::chrono::steady_clock::now();
    MobilityRun mr;
    mr.shards = shards;
    mr.wall_s = std::chrono::duration<double>(t1 - t0).count();
    mr.events = r.executed_events;
    mr.events_per_sec =
        mr.wall_s > 0 ? static_cast<double>(mr.events) / mr.wall_s : 0.0;
    mr.cross_shard = r.cross_shard_messages;
    mr.handoff_messages = r.messages_by_kind[static_cast<std::size_t>(
        dca::net::MsgKind::kHandoff)];
    mr.handoffs_offered = r.agg.handoff_offered;
    mobility_runs.push_back(mr);
    std::printf("  adaptive+mobility shards=%d  %9.3f s  %12.0f ev/s  "
                "handoff_msgs=%llu cross_shard=%llu handoffs=%llu\n",
                shards, mr.wall_s, mr.events_per_sec,
                static_cast<unsigned long long>(mr.handoff_messages),
                static_cast<unsigned long long>(mr.cross_shard),
                static_cast<unsigned long long>(mr.handoffs_offered));
  }

  // Crash-recovery overhead: the bench scenario with the crash fault model
  // on (stations failing ~1/min, cold restarts, resync), shards=1 vs
  // sharded. Alongside throughput the trajectory records the availability
  // metrics — uptime fraction and mean time-to-resync — so a protocol
  // change that slows recovery shows up run over run.
  dca::benchutil::heading("crash-recovery: events/sec and availability");
  struct CrashRun {
    int shards = 1;
    double wall_s = 0.0;
    std::uint64_t events = 0;
    double events_per_sec = 0.0;
    std::uint64_t crashes = 0;
    double uptime_fraction = 1.0;
    double mttr_s = 0.0;
    std::uint64_t violations = 0;
  };
  std::vector<CrashRun> crash_runs;
  for (const int shards : {1, shards_n}) {
    dca::runner::ScenarioConfig kc = bench_config();
    kc.fault.crash_rate_per_min = 1.0;
    kc.fault.crash_mean_s = 2.0;
    kc.shards = shards;
    kc.threads = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = dca::runner::run_uniform(kc, Scheme::kAdaptive, rho);
    const auto t1 = std::chrono::steady_clock::now();
    CrashRun cr;
    cr.shards = shards;
    cr.wall_s = std::chrono::duration<double>(t1 - t0).count();
    cr.events = r.executed_events;
    cr.events_per_sec =
        cr.wall_s > 0 ? static_cast<double>(cr.events) / cr.wall_s : 0.0;
    cr.crashes = r.availability.crashes;
    cr.uptime_fraction =
        r.availability.uptime_fraction(kc.duration, kc.rows * kc.cols);
    cr.mttr_s = r.availability.mean_time_to_resync_s();
    cr.violations = r.violations;
    crash_runs.push_back(cr);
    std::printf("  adaptive+crashes shards=%d  %9.3f s  %12.0f ev/s  "
                "crashes=%llu uptime=%.4f mttr=%.2fs violations=%llu\n",
                shards, cr.wall_s, cr.events_per_sec,
                static_cast<unsigned long long>(cr.crashes),
                cr.uptime_fraction, cr.mttr_s,
                static_cast<unsigned long long>(cr.violations));
  }

  // Multi-core scaling curve: the same scenario across shards x threads,
  // workers pinned to distinct allowed CPUs. Results are bit-identical at
  // every point (the determinism contract), so only wall-clock moves; the
  // curve is honest by construction — on a 1-CPU box every threads > 1
  // point just measures oversubscription, and hardware_threads recorded
  // alongside says so.
  dca::benchutil::heading("scaling curve: shards x threads (pinned)");
  struct ScalePoint {
    int shards = 1;
    int threads = 1;
    double wall_s = 0.0;
    std::uint64_t events = 0;
    double events_per_sec = 0.0;
  };
  std::vector<ScalePoint> scale_points;
  for (const int shards : {1, 2, 4, 8}) {
    for (const int threads : {1, 2, 4, 8}) {
      if (threads > shards) continue;  // extra workers would idle
      dca::runner::ScenarioConfig sc = bench_config();
      sc.shards = shards;
      sc.threads = threads;
      sc.pin = true;
      const auto t0 = std::chrono::steady_clock::now();
      const RunResult r = dca::runner::run_uniform(sc, Scheme::kAdaptive, rho);
      const auto t1 = std::chrono::steady_clock::now();
      ScalePoint p;
      p.shards = shards;
      p.threads = resolved_workers(sc);
      p.wall_s = std::chrono::duration<double>(t1 - t0).count();
      p.events = r.executed_events;
      p.events_per_sec =
          p.wall_s > 0 ? static_cast<double>(p.events) / p.wall_s : 0.0;
      scale_points.push_back(p);
      std::printf("  shards=%d threads=%d  %9.3f s  %12.0f ev/s\n", p.shards,
                  p.threads, p.wall_s, p.events_per_sec);
    }
  }

  // Metro-scale memory: a 60x60 streaming run records peak RSS per cell —
  // the budget the metro smoke test gates on. Process-wide high-water, so
  // it is an upper bound (earlier bench sections allocated too), but this
  // run's working set dominates the process by an order of magnitude.
  dca::benchutil::heading("metro memory: 60x60 streaming, peak RSS per cell");
  dca::runner::ScenarioConfig metro = bench_config();
  metro.rows = 60;
  metro.cols = 60;
  metro.duration = dca::sim::seconds(30);
  metro.warmup = dca::sim::seconds(5);
  metro.shards = shards_n;
  metro.stream_metrics = true;
  const auto metro_t0 = std::chrono::steady_clock::now();
  const RunResult metro_r = dca::runner::run_uniform(metro, Scheme::kAdaptive, rho);
  const auto metro_t1 = std::chrono::steady_clock::now();
  const double metro_wall =
      std::chrono::duration<double>(metro_t1 - metro_t0).count();
  const std::int64_t metro_cells = metro.rows * metro.cols;
  const double metro_bytes_per_cell =
      static_cast<double>(metro_r.peak_rss_bytes) /
      static_cast<double>(metro_cells);
  std::printf("  %lldx cells  %9.3f s  offered=%llu  peak_rss=%.1f MiB  %.0f bytes/cell\n",
              static_cast<long long>(metro_cells), metro_wall,
              static_cast<unsigned long long>(metro_r.offered_calls),
              static_cast<double>(metro_r.peak_rss_bytes) / (1024.0 * 1024.0),
              metro_bytes_per_cell);

  // Determinism sanity for the record: events/sec means nothing if the
  // sharded run diverged. The merged trace must satisfy every
  // conformance invariant (incl. reuse-distance, which substitutes for
  // the cross-shard half of the online Theorem-1 check).
  dca::benchutil::heading("conformance of the merged sharded trace");
  dca::runner::ScenarioConfig cc = bench_config();
  cc.shards = shards_n;
  dca::sim::TraceRecorder rec;
  const RunResult traced =
      dca::runner::run_uniform(cc, Scheme::kAdaptive, rho, &rec);
  const dca::cell::HexGrid grid(cc.rows, cc.cols, cc.interference_radius,
                                cc.wrap);
  const auto report =
      dca::runner::check_trace(grid, cc.n_channels, rec.events());
  std::printf("events=%llu quiescent=%d -> %s\n",
              static_cast<unsigned long long>(report.events),
              traced.quiescent ? 1 : 0,
              report.ok() ? "OK" : report.to_string().c_str());

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
  w.value(rho);
  w.key("conformance_ok");
  w.value(report.ok());
  w.key("link_table");
  w.begin_object();
  w.key("links");
  w.value(static_cast<std::int64_t>(bench_links.n_links()));
  w.key("max_degree");
  w.value(static_cast<std::int64_t>(bench_grid.max_interference_degree()));
  w.end_object();
  w.key("transport_breakdown");
  w.begin_object();
  w.key("queue_ns_per_event");
  w.value(bd.queue_ns_per_event);
  w.key("transport_ns_per_message");
  w.value(bd.transport_ns_per_message);
  w.key("scheme");
  w.value(one_shard.scheme);
  w.key("messages_per_sec");
  w.value(bd.messages_per_sec);
  w.key("transport_share");
  w.value(bd.transport_share);
  w.key("queue_share");
  w.value(bd.queue_share);
  w.key("protocol_share");
  w.value(bd.protocol_share);
  w.end_object();
  w.key("results");
  w.begin_array();
  for (const auto& m : results) {
    w.begin_object();
    w.key("scheme");
    w.value(m.scheme);
    w.key("policy");
    w.value(m.policy);
    w.key("shards");
    w.value(m.shards);
    w.key("threads");
    w.value(m.threads);
    w.key("hardware_threads");
    w.value(static_cast<std::int64_t>(hw));
    w.key("partition");
    w.value(m.partition);
    w.key("wall_s");
    w.value(m.wall_s);
    w.key("events");
    w.value(m.events);
    w.key("messages");
    w.value(m.messages);
    w.key("events_per_sec");
    w.value(m.events_per_sec);
    w.end_object();
  }
  w.end_array();
  w.key("mobility");
  w.begin_object();
  w.key("scheme");
  w.value("adaptive");
  w.key("mean_dwell_s");
  w.value(kBenchDwellS);
  w.key("runs");
  w.begin_array();
  for (const auto& mr : mobility_runs) {
    w.begin_object();
    w.key("shards");
    w.value(mr.shards);
    w.key("wall_s");
    w.value(mr.wall_s);
    w.key("events");
    w.value(mr.events);
    w.key("events_per_sec");
    w.value(mr.events_per_sec);
    w.key("cross_shard_messages");
    w.value(mr.cross_shard);
    w.key("handoff_messages");
    w.value(mr.handoff_messages);
    w.key("handoffs_offered");
    w.value(mr.handoffs_offered);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("crash_recovery");
  w.begin_object();
  w.key("scheme");
  w.value("adaptive");
  w.key("crash_rate_per_min");
  w.value(1.0);
  w.key("crash_mean_s");
  w.value(2.0);
  w.key("runs");
  w.begin_array();
  for (const auto& cr : crash_runs) {
    w.begin_object();
    w.key("shards");
    w.value(cr.shards);
    w.key("wall_s");
    w.value(cr.wall_s);
    w.key("events");
    w.value(cr.events);
    w.key("events_per_sec");
    w.value(cr.events_per_sec);
    w.key("crashes");
    w.value(cr.crashes);
    w.key("uptime_fraction");
    w.value(cr.uptime_fraction);
    w.key("mean_time_to_resync_s");
    w.value(cr.mttr_s);
    w.key("violations");
    w.value(cr.violations);
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
  for (const auto& p : scale_points) {
    w.begin_object();
    w.key("shards");
    w.value(p.shards);
    w.key("threads");
    w.value(p.threads);
    w.key("wall_s");
    w.value(p.wall_s);
    w.key("events");
    w.value(p.events);
    w.key("events_per_sec");
    w.value(p.events_per_sec);
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
  w.value(metro_r.offered_calls);
  w.key("wall_s");
  w.value(metro_wall);
  w.key("peak_rss_bytes");
  w.value(metro_r.peak_rss_bytes);
  w.key("bytes_per_cell");
  w.value(metro_bytes_per_cell);
  w.end_object();
  w.key("partition_comparison");
  w.begin_object();
  w.key("grid");
  w.value("12x12");
  w.key("shards");
  w.value(std::int64_t{4});
  w.key("scheme");
  w.value("adaptive");
  w.key("striped_cross_shard_messages");
  w.value(xs_striped);
  w.key("blocks_cross_shard_messages");
  w.value(xs_blocks);
  w.key("blocks_over_striped");
  w.value(xs_ratio);
  w.end_object();
  w.end_object();

  if (append_trajectory("BENCH_engine.json", w.str())) {
    std::printf("\nappended trajectory entry to BENCH_engine.json\n");
  } else {
    std::fprintf(stderr, "engine_bench: cannot write BENCH_engine.json\n");
    return 1;
  }
  return report.ok() ? 0 : 1;
}
