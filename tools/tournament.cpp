// tournament — the scheme × variant sweep harness.
//
// Runs every allocation scheme under three allocation variants — the
// paper's behaviour, guard channels (`handoff_guard = 2`) and a wider
// adaptive hysteresis (`theta_low = 3`, `theta_high = 6`), each a
// scenario-text override — across a scenario matrix (load × spatial
// profile × fault cocktail × mobility × shards) and emits one comparison
// row per combination, as an aligned text table and as machine-readable
// JSON. Add a scenario axis or a variant and every combination gets
// measured.
//
//   $ tournament                 # full matrix -> TOURNAMENT.{txt,json}
//   $ tournament --smoke         # reduced matrix (CI-sized, a few seconds)
//   $ tournament --out=/tmp/t    # write /tmp/t.txt and /tmp/t.json
//
// Columns: blocking% (drop rate over offered requests), retry (mean borrow
// attempts over update-style acquisitions), msgs/call, events/sec (engine
// throughput), uptime% and mttr_s (crash-recovery availability; 100 / 0 on
// crash-free axes), plus the scenario axes. Simulation outputs depend only on
// (scenario, scheme, variant, seed) — never on shards/threads — so a shards
// axis row differing from its shards=1 twin in anything but events/sec is
// itself a regression.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "metrics/json.hpp"
#include "metrics/table.hpp"
#include "runner/config_file.hpp"
#include "runner/experiment.hpp"

namespace {

using namespace dca;

struct Axes {
  double rho = 0.7;
  const char* profile = "uniform";  // uniform | hotspot
  const char* fault = "clean";      // clean | lossy | crashy
  bool mobility = false;
  int shards = 1;
};

/// A named allocation variant: scenario text applied over each point.
struct Variant {
  const char* name;
  const char* overrides;
};

constexpr Variant kVariants[] = {
    {"paper", ""},
    {"guard=2", "handoff_guard = 2\n"},
    {"theta=3/6", "theta_low = 3\ntheta_high = 6\n"},
};

struct Row {
  Axes axes;
  std::string scheme;
  std::string variant;
  double blocking_pct = 0.0;
  double retry = 0.0;
  double msgs_per_call = 0.0;
  double events_per_sec = 0.0;
  double uptime_pct = 100.0;
  double mttr_s = 0.0;  // mean restart -> resync-done latency
  std::uint64_t crashes = 0;
  std::uint64_t offered = 0;
  std::uint64_t violations = 0;
  bool quiescent = false;
};

runner::ScenarioConfig base_config(bool smoke) {
  runner::ScenarioConfig c;
  c.interference_radius = 2;
  c.n_channels = 70;
  c.cluster = 7;
  c.seed = 17;
  if (smoke) {
    c.rows = 6;
    c.cols = 6;
    c.mean_holding_s = 20.0;
    c.duration = sim::seconds(40);
    c.warmup = sim::seconds(5);
  } else {
    c.rows = 8;
    c.cols = 8;
    c.mean_holding_s = 30.0;
    c.duration = sim::minutes(2);
    c.warmup = sim::seconds(20);
  }
  return c;
}

runner::ScenarioConfig configure(const Axes& a, const Variant& v, bool smoke) {
  runner::ScenarioConfig c = base_config(smoke);
  c.shards = a.shards;
  if (a.mobility) c.mean_dwell_s = c.mean_holding_s / 2.0;  // ~1-2 hops/call
  if (std::strcmp(a.fault, "lossy") == 0) {
    c.fault.drop_prob = 0.05;
    c.fault.dup_prob = 0.02;
    c.request_timeout = sim::milliseconds(500);
  } else if (std::strcmp(a.fault, "crashy") == 0) {
    // Lossy links plus the crash-recovery fault model: stations fail and
    // cold-restart mid-run, so rows also report uptime and resync latency.
    c.fault.drop_prob = 0.02;
    c.fault.crash_rate_per_min = 1.0;
    c.fault.crash_mean_s = 2.0;
    c.request_timeout = sim::milliseconds(500);
  }
  std::string error;
  if (!runner::apply_scenario_text(v.overrides, c, error)) {
    std::fprintf(stderr, "tournament: variant %s: %s\n", v.name, error.c_str());
    std::exit(1);
  }
  return c;
}

Row run_one(const Axes& a, runner::Scheme scheme, const std::string& schemeName,
            const Variant& v, bool smoke) {
  const runner::ScenarioConfig c = configure(a, v, smoke);

  const auto t0 = std::chrono::steady_clock::now();
  runner::RunResult r;
  if (std::strcmp(a.profile, "hotspot") == 0) {
    // Central cell at 8x the base load for the statistics window.
    r = runner::run_hotspot(c, scheme, a.rho, 8.0, c.warmup,
                            c.warmup + c.duration);
  } else {
    r = runner::run_uniform(c, scheme, a.rho);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();

  Row row;
  row.axes = a;
  row.scheme = schemeName;
  row.variant = v.name;
  row.blocking_pct = 100.0 * r.agg.drop_rate();
  row.retry = r.agg.mean_update_attempts;
  row.msgs_per_call = r.agg.messages_per_call.mean();
  row.events_per_sec =
      wall > 0 ? static_cast<double>(r.executed_events) / wall : 0.0;
  row.uptime_pct =
      100.0 * r.availability.uptime_fraction(c.duration, c.rows * c.cols);
  row.mttr_s = r.availability.mean_time_to_resync_s();
  row.crashes = r.availability.crashes;
  row.offered = r.agg.offered;
  row.violations = r.violations;
  row.quiescent = r.quiescent;
  return row;
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
  std::string out = "TOURNAMENT";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else {
      std::fprintf(stderr, "usage: tournament [--smoke] [--out=BASE]\n"
                           "  writes BASE.txt and BASE.json (default BASE = "
                           "TOURNAMENT)\n");
      return 2;
    }
  }

  // The scenario matrix. Smoke keeps one point per axis (plus the shards
  // axis, which is the shard-count check) so CI exercises every scheme ×
  // variant combination in seconds; full crosses all axes.
  std::vector<Axes> matrix;
  if (smoke) {
    for (const int shards : {1, 2})
      matrix.push_back(Axes{0.7, "uniform", "clean", false, shards});
  } else {
    for (const double rho : {0.5, 0.9})
      for (const char* profile : {"uniform", "hotspot"})
        for (const char* fault : {"clean", "lossy", "crashy"})
          for (const bool mobility : {false, true})
            for (const int shards : {1, 4})
              matrix.push_back(Axes{rho, profile, fault, mobility, shards});
  }

  const struct {
    runner::Scheme scheme;
    const char* name;
  } kSchemes[] = {
      {runner::Scheme::kFca, "fca"},
      {runner::Scheme::kBasicSearch, "basic_search"},
      {runner::Scheme::kBasicUpdate, "basic_update"},
      {runner::Scheme::kAdvancedUpdate, "advanced_update"},
      {runner::Scheme::kAdvancedSearch, "advanced_search"},
      {runner::Scheme::kAdaptive, "adaptive"},
  };

  // Validate every scenario in the matrix once, before burning sweep time.
  for (const Axes& a : matrix) {
    for (const Variant& v : kVariants) {
      const std::string problem = runner::validate_scenario(configure(a, v, smoke));
      if (!problem.empty()) {
        std::fprintf(stderr, "tournament: invalid scenario point (%s): %s\n",
                     v.name, problem.c_str());
        return 1;
      }
    }
  }

  const std::size_t total =
      matrix.size() * std::size(kSchemes) * std::size(kVariants);
  std::printf("tournament: %zu scenario points x %zu schemes x %zu variants = "
              "%zu runs (%s matrix)\n",
              matrix.size(), std::size(kSchemes), std::size(kVariants), total,
              smoke ? "smoke" : "full");

  std::vector<Row> rows;
  rows.reserve(total);
  std::size_t done = 0;
  bool all_clean = true;
  for (const Axes& a : matrix) {
    for (const auto& s : kSchemes) {
      for (const Variant& v : kVariants) {
        rows.push_back(run_one(a, s.scheme, s.name, v, smoke));
        const Row& row = rows.back();
        if (row.violations != 0 || !row.quiescent) all_clean = false;
        ++done;
        if (done % 32 == 0 || done == total)
          std::printf("  ... %zu/%zu\n", done, total);
      }
    }
  }

  metrics::Table table({"scheme", "variant", "rho", "profile", "fault", "mob",
                        "shards", "block%", "retry", "msgs/call", "ev/s",
                        "uptime%", "mttr_s"});
  for (const Row& r : rows) {
    table.add_row({r.scheme, r.variant, metrics::Table::num(r.axes.rho, 1),
                   r.axes.profile, r.axes.fault, r.axes.mobility ? "on" : "off",
                   std::to_string(r.axes.shards),
                   metrics::Table::num(r.blocking_pct, 2),
                   metrics::Table::num(r.retry, 2),
                   metrics::Table::num(r.msgs_per_call, 1),
                   metrics::Table::num(r.events_per_sec, 0),
                   metrics::Table::num(r.uptime_pct, 2),
                   metrics::Table::num(r.mttr_s, 2)});
  }
  const std::string text = table.render();
  std::printf("\n%s", text.c_str());
  if (!all_clean)
    std::printf("\nWARNING: some runs reported violations or failed to "
                "reach quiescence (see JSON)\n");

  metrics::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("tournament");
  w.key("matrix");
  w.value(smoke ? "smoke" : "full");
  w.key("rows");
  w.begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.key("scheme");
    w.value(r.scheme);
    w.key("variant");
    w.value(r.variant);
    w.key("rho");
    w.value(r.axes.rho);
    w.key("profile");
    w.value(r.axes.profile);
    w.key("fault");
    w.value(r.axes.fault);
    w.key("mobility");
    w.value(r.axes.mobility);
    w.key("shards");
    w.value(r.axes.shards);
    w.key("blocking_pct");
    w.value(r.blocking_pct);
    w.key("retry");
    w.value(r.retry);
    w.key("msgs_per_call");
    w.value(r.msgs_per_call);
    w.key("events_per_sec");
    w.value(r.events_per_sec);
    w.key("uptime_fraction");
    w.value(r.uptime_pct / 100.0);
    w.key("mean_time_to_resync_s");
    w.value(r.mttr_s);
    w.key("crashes");
    w.value(r.crashes);
    w.key("offered");
    w.value(r.offered);
    w.key("violations");
    w.value(r.violations);
    w.key("quiescent");
    w.value(r.quiescent);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  if (!write_file(out + ".txt", text) || !write_file(out + ".json", w.str())) {
    std::fprintf(stderr, "tournament: cannot write %s.{txt,json}\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s.txt and %s.json (%zu rows)\n", out.c_str(),
              out.c_str(), rows.size());
  return all_clean ? 0 : 1;
}
