// chaos — the crash-recovery campaign harness.
//
// Sweeps seeds x crash rates x partition patterns x schemes, runs every
// point with full tracing, replays each trace through the conformance
// checker, and gates on ZERO safety violations: reuse-distance holds
// through every crash, every restart resyncs in a bounded number of
// request waves, and every run drains to quiescence. Availability
// (uptime fraction, mean time to resync) is reported per campaign cell
// as an aligned table and machine-readable JSON.
//
//   $ chaos                  # full campaign -> CHAOS.{txt,json}
//   $ chaos --smoke          # reduced matrix (CI-sized, a few seconds)
//   $ chaos --soak           # overnight matrix (more seeds, longer runs)
//   $ chaos --out=/tmp/c     # write /tmp/c.txt and /tmp/c.json
//
// Exit status is 0 only when every run in the campaign was clean; any
// violation prints the offending (scheme, rate, partition, seed) cell so
// the failure is reproducible with dcasim --crash-rate-per-min/--net-partition.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "metrics/json.hpp"
#include "metrics/table.hpp"
#include "runner/conformance.hpp"
#include "runner/experiment.hpp"
#include "sim/trace.hpp"

namespace {

using namespace dca;

struct PartitionPattern {
  const char* name;
  std::vector<net::PartitionSpec> specs;
};

struct CampaignPoint {
  const char* scheme_name;
  runner::Scheme scheme;
  double crash_rate;  // per minute per cell
  const PartitionPattern* partition;
};

// One row of the report: a campaign point aggregated over all its seeds.
struct Row {
  CampaignPoint point;
  int seeds = 0;
  std::uint64_t offered = 0;
  std::uint64_t downed = 0;
  double blocking_pct = 0.0;  // mean over seeds
  metrics::Availability avail;
  double uptime = 1.0;  // mean over seeds
  std::uint64_t violations = 0;
  std::uint64_t conformance_violations = 0;
  bool all_quiescent = true;
};

struct Knobs {
  int seeds = 20;
  sim::Duration duration = sim::seconds(60);
  double rho = 0.6;
};

runner::ScenarioConfig base_config(const Knobs& k) {
  runner::ScenarioConfig c;
  c.rows = 6;
  c.cols = 6;
  c.interference_radius = 2;
  c.n_channels = 70;
  c.cluster = 7;
  c.mean_holding_s = 20.0;
  c.duration = k.duration;
  c.warmup = sim::seconds(5);
  // Crashes and partitions both orphan in-flight handshakes; the timeout
  // is what turns those into clean aborts (validate_scenario enforces it).
  c.request_timeout = sim::milliseconds(500);
  return c;
}

// The gate needs bounded resync: a restarted node re-requests missing
// neighbour replies every request_timeout, so waves accumulate only while
// a reply source is unreachable. The two legitimate sources of delay are
// an unhealed partition and neighbours that are themselves down (a dead
// process discards the request; back-to-back neighbour outages compound,
// so allow a generous exponential-tail multiple of the mean outage).
// Anything past this bound means resync stopped converging — livelock.
std::uint64_t resync_round_bound(const runner::ScenarioConfig& c) {
  sim::Duration worst_gap = 0;
  for (const net::PartitionSpec& p : c.fault.partitions)
    worst_gap = std::max(worst_gap, p.end - p.start);
  const sim::Duration outage_tail =
      sim::from_seconds(12.0 * c.fault.crash_mean_s);
  return 8 + static_cast<std::uint64_t>(
                 (worst_gap + outage_tail) /
                 std::max<sim::Duration>(c.request_timeout, 1));
}

bool write_file(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool soak = false;
  std::string out = "CHAOS";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(arg, "--soak") == 0) {
      soak = true;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else {
      std::fprintf(stderr,
                   "usage: chaos [--smoke|--soak] [--out=BASE]\n"
                   "  writes BASE.txt and BASE.json (default BASE = CHAOS)\n");
      return 2;
    }
  }

  Knobs knobs;
  if (smoke) {
    knobs.seeds = 3;
    knobs.duration = sim::seconds(30);
  } else if (soak) {
    knobs.seeds = 64;
    knobs.duration = sim::minutes(3);
  }

  // Partition patterns over the 6x6 grid: a severed corner (cells that
  // keep full connectivity among themselves but lose the rest of the
  // network for 10 s), and a column split. Both heal before the run ends
  // so resync completion is always reachable.
  const PartitionPattern kNone{"none", {}};
  const PartitionPattern kCorner{
      "corner",
      {net::PartitionSpec{{0, 1, 6}, sim::seconds(12), sim::seconds(22)}}};
  const PartitionPattern kSplit{
      "split",
      {net::PartitionSpec{{0, 6, 12, 18, 24, 30}, sim::seconds(10),
                          sim::seconds(18)},
       net::PartitionSpec{{5, 11, 17}, sim::seconds(20), sim::seconds(26)}}};
  std::vector<const PartitionPattern*> patterns = {&kNone, &kCorner, &kSplit};
  std::vector<double> rates = {0.5, 2.0, 6.0};
  if (smoke) {
    patterns = {&kNone, &kCorner};
    rates = {2.0, 6.0};
  }

  const struct {
    runner::Scheme scheme;
    const char* name;
  } kSchemes[] = {
      {runner::Scheme::kAdaptive, "adaptive"},
      {runner::Scheme::kBasicSearch, "basic_search"},
      {runner::Scheme::kBasicUpdate, "basic_update"},
      {runner::Scheme::kAdvancedUpdate, "advanced_update"},
      {runner::Scheme::kAdvancedSearch, "advanced_search"},
  };

  std::vector<CampaignPoint> points;
  for (const auto& s : kSchemes)
    for (const double rate : rates)
      for (const PartitionPattern* p : patterns)
        points.push_back(CampaignPoint{s.name, s.scheme, rate, p});

  const std::size_t total_runs = points.size() * static_cast<std::size_t>(knobs.seeds);
  std::printf("chaos: %zu campaign points x %d seeds = %zu runs (%s)\n",
              points.size(), knobs.seeds, total_runs,
              smoke ? "smoke" : (soak ? "soak" : "full"));

  std::vector<Row> rows;
  rows.reserve(points.size());
  bool all_clean = true;
  std::size_t done = 0;
  for (const CampaignPoint& pt : points) {
    Row row;
    row.point = pt;
    row.seeds = knobs.seeds;
    double blocking_sum = 0.0;
    double uptime_sum = 0.0;
    for (int s = 0; s < knobs.seeds; ++s) {
      runner::ScenarioConfig c = base_config(knobs);
      c.seed = 1000 + static_cast<std::uint64_t>(s);
      c.fault.crash_rate_per_min = pt.crash_rate;
      c.fault.crash_mean_s = 3.0;
      c.fault.partitions = pt.partition->specs;
      const std::string problem = runner::validate_scenario(c);
      if (!problem.empty()) {
        std::fprintf(stderr, "chaos: invalid scenario point: %s\n",
                     problem.c_str());
        return 1;
      }

      sim::TraceRecorder trace;
      const runner::RunResult r = runner::run_uniform(c, pt.scheme, knobs.rho, &trace);

      const cell::HexGrid grid(c.rows, c.cols, c.interference_radius, c.wrap);
      const runner::ConformanceReport conf =
          runner::check_trace(grid, c.n_channels, trace.events());

      row.offered += r.agg.offered;
      row.downed += r.agg.downed;
      blocking_sum += r.agg.drop_rate();
      row.avail.merge(r.availability);
      uptime_sum += r.availability.uptime_fraction(c.duration, c.rows * c.cols);
      row.violations += r.violations;
      row.conformance_violations += conf.violations.size();
      row.all_quiescent = row.all_quiescent && r.quiescent;

      const std::uint64_t bound = resync_round_bound(c);
      const bool clean = r.violations == 0 && conf.violations.empty() &&
                         r.quiescent &&
                         r.availability.max_resync_rounds <= bound;
      if (!clean) {
        all_clean = false;
        std::fprintf(stderr,
                     "chaos: DIRTY run scheme=%s rate=%.1f partition=%s "
                     "seed=%llu: violations=%llu conformance=%zu "
                     "quiescent=%d max_resync_rounds=%llu (bound %llu)\n",
                     pt.scheme_name, pt.crash_rate, pt.partition->name,
                     static_cast<unsigned long long>(c.seed),
                     static_cast<unsigned long long>(r.violations),
                     conf.violations.size(), r.quiescent ? 1 : 0,
                     static_cast<unsigned long long>(
                         r.availability.max_resync_rounds),
                     static_cast<unsigned long long>(bound));
        for (const runner::ConformanceViolation& v : conf.violations)
          std::fprintf(stderr, "  [%s] t=%lld %s\n", v.rule.c_str(),
                       static_cast<long long>(v.t), v.detail.c_str());
      }
      ++done;
      if (done % 16 == 0 || done == total_runs)
        std::printf("  ... %zu/%zu\n", done, total_runs);
    }
    row.blocking_pct = 100.0 * blocking_sum / knobs.seeds;
    row.uptime = uptime_sum / knobs.seeds;
    rows.push_back(std::move(row));
  }

  metrics::Table table({"scheme", "rate/min", "partition", "seeds", "crashes",
                        "resyncs", "uptime%", "mttr_s", "max_rounds", "block%",
                        "clean"});
  for (const Row& r : rows) {
    const bool clean = r.violations == 0 && r.conformance_violations == 0 &&
                       r.all_quiescent;
    table.add_row({r.point.scheme_name, metrics::Table::num(r.point.crash_rate, 1),
                   r.point.partition->name, std::to_string(r.seeds),
                   std::to_string(r.avail.crashes), std::to_string(r.avail.resyncs),
                   metrics::Table::num(100.0 * r.uptime, 2),
                   metrics::Table::num(r.avail.mean_time_to_resync_s(), 3),
                   std::to_string(r.avail.max_resync_rounds),
                   metrics::Table::num(r.blocking_pct, 2),
                   clean ? "yes" : "NO"});
  }
  const std::string text = table.render();
  std::printf("\n%s", text.c_str());

  metrics::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("chaos");
  w.key("matrix");
  w.value(smoke ? "smoke" : (soak ? "soak" : "full"));
  w.key("seeds");
  w.value(knobs.seeds);
  w.key("all_clean");
  w.value(all_clean);
  w.key("rows");
  w.begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.key("scheme");
    w.value(r.point.scheme_name);
    w.key("crash_rate_per_min");
    w.value(r.point.crash_rate);
    w.key("partition");
    w.value(r.point.partition->name);
    w.key("offered");
    w.value(r.offered);
    w.key("downed");
    w.value(r.downed);
    w.key("blocking_pct");
    w.value(r.blocking_pct);
    w.key("crashes");
    w.value(r.avail.crashes);
    w.key("resyncs");
    w.value(r.avail.resyncs);
    w.key("uptime_fraction");
    w.value(r.uptime);
    w.key("mean_time_to_resync_s");
    w.value(r.avail.mean_time_to_resync_s());
    w.key("max_resync_rounds");
    w.value(r.avail.max_resync_rounds);
    w.key("violations");
    w.value(r.violations);
    w.key("conformance_violations");
    w.value(r.conformance_violations);
    w.key("quiescent");
    w.value(r.all_quiescent);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  if (!write_file(out + ".txt", text) || !write_file(out + ".json", w.str())) {
    std::fprintf(stderr, "chaos: cannot write %s.{txt,json}\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s.txt and %s.json (%zu rows); campaign %s\n",
              out.c_str(), out.c_str(), rows.size(),
              all_clean ? "CLEAN" : "DIRTY");
  return all_clean ? 0 : 1;
}
