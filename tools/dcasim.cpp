// dcasim — the command-line front end of the simulator.
//
// Runs any allocation scheme (or all of them) on a configurable cellular
// system and traffic pattern, printing an aligned results table or CSV.
//
//   $ dcasim --scheme adaptive --rho 0.7
//   $ dcasim --scheme all --rho 0.9 --rows 14 --cols 14 --torus --csv
//   $ dcasim --profile hotspot --hot-factor 10 --scheme fca
//   $ dcasim --help
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "metrics/json.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"
#include "runner/config_file.hpp"
#include "runner/conformance.hpp"
#include "runner/experiment.hpp"
#include "runner/world.hpp"
#include "traffic/profile.hpp"

namespace {

using namespace dca;

std::vector<runner::Scheme> parse_schemes(const std::string& s) {
  if (s == "all")
    return {std::begin(runner::kAllSchemes), std::end(runner::kAllSchemes)};
  if (s == "fca") return {runner::Scheme::kFca};
  if (s == "search") return {runner::Scheme::kBasicSearch};
  if (s == "update") return {runner::Scheme::kBasicUpdate};
  if (s == "advupdate") return {runner::Scheme::kAdvancedUpdate};
  if (s == "advsearch") return {runner::Scheme::kAdvancedSearch};
  if (s == "adaptive") return {runner::Scheme::kAdaptive};
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  runner::ArgParser args(
      "dcasim",
      "distributed dynamic channel allocation simulator (Kahol et al. 1998)");
  args.add_string("scheme", "adaptive",
                  "fca | search | update | advupdate | advsearch | adaptive | all")
      .add_double("rho", 0.6, "offered Erlang/cell, normalized to |PR|")
      .add_string("profile", "uniform", "uniform | hotspot")
      .add_double("hot-factor", 10.0, "hot-spot load multiplier")
      .add_int("hot-cell", -1, "hot cell id (-1 = grid center)")
      .add_int("seeds", 1, "replications (mean +/- sd when > 1)")
      .add_string("config", "", "scenario file applied before other options")
      .add_string("trace", "", "write the structured event trace (JSONL) here")
      .add_flag("conformance", "check the trace against the paper's invariants")
      .add_flag("dump-config", "print the effective scenario file and exit")
      .add_flag("csv", "emit CSV instead of an aligned table")
      .add_flag("json", "emit a JSON array of result objects");
  // Scenario options: one flag per scenario-file key (`_` -> `-`).
  runner::add_scenario_flags(args);
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "dcasim: %s\n(use --help)\n", args.error().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::printf("%s", args.help_text().c_str());
    return 0;
  }

  const auto schemes = parse_schemes(args.get_string("scheme"));
  if (schemes.empty()) {
    std::fprintf(stderr, "dcasim: unknown scheme '%s'\n",
                 args.get_string("scheme").c_str());
    return 2;
  }

  // Defaults come from ScenarioConfig, a scenario file overrides them, and
  // the scenario flags the user set win.
  runner::ScenarioConfig cfg;
  const std::string config_path = args.get_string("config");
  if (std::string err;
      (!config_path.empty() && !runner::load_scenario_file(config_path, cfg, err)) ||
      !runner::apply_scenario_flags(args, cfg, err)) {
    std::fprintf(stderr, "dcasim: %s\n", err.c_str());
    return 2;
  }

  if (const std::string problem = runner::validate_scenario(cfg); !problem.empty()) {
    std::fprintf(stderr, "dcasim: invalid scenario: %s\n", problem.c_str());
    return 2;
  }
  // The load flags: rejected here, before any run, so a malformed value
  // never reaches the arrival planner (a non-finite rate never ends).
  const double rho = args.get_double("rho");
  const double hot_factor = args.get_double("hot-factor");
  const std::int64_t hot_cell = args.get_int("hot-cell");
  const std::int64_t seeds = args.get_int("seeds");
  const char* bad_flag = nullptr;
  if (!std::isfinite(rho) || rho < 0.0) {
    bad_flag = "--rho must be a finite number >= 0";
  } else if (!std::isfinite(hot_factor) || hot_factor < 1.0) {
    bad_flag = "--hot-factor must be a finite number >= 1";
  } else if (hot_cell < -1 || hot_cell >= std::int64_t{cfg.rows} * cfg.cols) {
    bad_flag = "--hot-cell must be -1 (the grid centre) or a cell id of the grid";
  } else if (seeds < 1 || seeds > std::numeric_limits<int>::max()) {
    bad_flag = "--seeds must be between 1 and 2147483647";
  }
  if (bad_flag != nullptr) {
    std::fprintf(stderr, "dcasim: %s\n", bad_flag);
    return 2;
  }
  {
    // The hot-spot profile raises one cell (the default hot spot) by
    // hot_factor; every other cell offers the base rate.
    const double n_cells = static_cast<double>(cfg.rows) * cfg.cols;
    const double peak_cells =
        args.get_string("profile") == "hotspot" ? n_cells - 1.0 + hot_factor
                                                : n_cells;
    if (const std::string problem = runner::validate_load(
            cfg, cfg.arrival_rate_for_load(rho) * peak_cells);
        !problem.empty()) {
      std::fprintf(stderr, "dcasim: invalid scenario: %s\n", problem.c_str());
      return 2;
    }
  }
  if (cfg.warmup >= cfg.duration) {
    cfg.warmup = cfg.duration / 10;
    std::fprintf(stderr,
                 "dcasim: warmup >= duration would discard every record; "
                 "clamped warmup to %.1f min\n",
                 sim::to_seconds(cfg.warmup) / 60.0);
  }

  if (args.get_flag("dump-config")) {
    std::printf("%s", runner::scenario_to_text(cfg).c_str());
    return 0;
  }

  const int n_seeds = static_cast<int>(seeds);
  const std::string profile_name = args.get_string("profile");
  if (profile_name != "uniform" && profile_name != "hotspot") {
    std::fprintf(stderr, "dcasim: unknown profile '%s'\n", profile_name.c_str());
    return 2;
  }
  const bool hotspot = profile_name == "hotspot";
  if (hotspot && n_seeds > 1) {
    std::fprintf(stderr,
                 "dcasim: --seeds replication currently supports the uniform "
                 "profile only\n");
    return 2;
  }
  const std::string trace_path = args.get_string("trace");
  const bool conformance = args.get_flag("conformance");
  if ((conformance || !trace_path.empty()) && n_seeds > 1) {
    std::fprintf(stderr,
                 "dcasim: --trace/--conformance need a single run per scheme "
                 "(drop --seeds)\n");
    return 2;
  }

  metrics::Table table(
      n_seeds > 1
          ? std::vector<std::string>{"scheme", "drop% mean", "drop% sd",
                                     "AcqT[T] mean", "msgs/call mean", "xi1 mean"}
          : std::vector<std::string>{"scheme", "offered", "drop%", "AcqT[T]",
                                     "msgs/call", "xi1/xi2/xi3", "carried E",
                                     "violations"});
  metrics::JsonWriter json;
  json.begin_array();

  for (const runner::Scheme s : schemes) {
    if (n_seeds > 1) {
      const runner::Replicated rep = runner::run_replicated(cfg, s, rho, n_seeds);
      table.add_row({runner::scheme_name(s),
                     metrics::Table::num(100 * rep.drop_rate.mean(), 2),
                     metrics::Table::num(100 * rep.drop_rate.stddev(), 2),
                     metrics::Table::num(rep.mean_delay_in_T.mean(), 3),
                     metrics::Table::num(rep.mean_msgs_per_call.mean(), 1),
                     metrics::Table::num(rep.xi1.mean(), 3)});
      json.begin_object();
      json.key("scheme");
      json.value(runner::scheme_name(s));
      json.key("seeds");
      json.value(rep.seeds);
      json.key("drop_rate_mean");
      json.value(rep.drop_rate.mean());
      json.key("drop_rate_sd");
      json.value(rep.drop_rate.stddev());
      json.key("acq_time_T_mean");
      json.value(rep.mean_delay_in_T.mean());
      json.key("msgs_per_call_mean");
      json.value(rep.mean_msgs_per_call.mean());
      json.key("xi1_mean");
      json.value(rep.xi1.mean());
      json.end_object();
      if (rep.violations != 0) return 1;
      continue;
    }
    runner::RunResult r;
    sim::TraceRecorder rec;
    sim::TraceRecorder* trace =
        (conformance || !trace_path.empty()) ? &rec : nullptr;
    // Streaming mode never buffers the trace: spill it to the JSONL file
    // as the engine folds it out (same line schema as trace_to_jsonl), or
    // discard it when only the in-engine conformance replay needs it.
    std::FILE* spill = nullptr;
    if (cfg.stream_metrics && trace != nullptr) {
      if (!trace_path.empty()) {
        std::string path = trace_path;
        if (schemes.size() > 1) path += "." + runner::scheme_name(s);
        spill = std::fopen(path.c_str(), "w");
        if (spill == nullptr) {
          std::fprintf(stderr, "dcasim: cannot write %s\n", path.c_str());
          return 2;
        }
        rec.set_sink([spill](const sim::TraceEvent& e) {
          const std::string line = runner::trace_event_to_json(e);
          std::fwrite(line.data(), 1, line.size(), spill);
          std::fputc('\n', spill);
        });
      } else {
        rec.set_sink([](const sim::TraceEvent&) {});
      }
    }
    if (hotspot) {
      const cell::CellId hot = hot_cell < 0 ? (cfg.rows / 2) * cfg.cols + cfg.cols / 2
                                            : static_cast<cell::CellId>(hot_cell);
      r = runner::run_hotspot(cfg, s, rho, hot_factor,
                              cfg.warmup, cfg.duration, {hot}, trace);
    } else {
      r = runner::run_uniform(cfg, s, rho, trace);
    }
    if (spill != nullptr) std::fclose(spill);
    if (!trace_path.empty() && !cfg.stream_metrics) {
      // One file per scheme; the scheme name is appended when several run.
      std::string path = trace_path;
      if (schemes.size() > 1) path += "." + runner::scheme_name(s);
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "dcasim: cannot write %s\n", path.c_str());
        return 2;
      }
      const std::string jsonl = runner::trace_to_jsonl(rec.events());
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
    }
    if (conformance) {
      if (cfg.stream_metrics) {
        // The engine already replayed the streamed trace through the
        // checker; the buffered events are gone (spilled or discarded).
        std::fprintf(stderr, "%s: conformance: %s (%llu violations, in-engine)\n",
                     runner::scheme_name(s).c_str(),
                     r.conformance_ok() ? "OK" : "FAILED",
                     static_cast<unsigned long long>(r.conformance_violations));
        if (!r.conformance_ok()) return 1;
      } else {
        const cell::HexGrid grid(cfg.rows, cfg.cols, cfg.interference_radius,
                                 cfg.wrap);
        const runner::ConformanceReport rep =
            runner::check_trace(grid, cfg.n_channels, rec.events());
        std::fprintf(stderr, "%s: conformance: %s\n",
                     runner::scheme_name(s).c_str(), rep.to_string().c_str());
        if (!rep.ok()) return 1;
      }
    }
    char xi[48];
    std::snprintf(xi, sizeof xi, "%.2f/%.2f/%.2f", r.agg.xi1, r.agg.xi2,
                  r.agg.xi3);
    table.add_row({runner::scheme_name(s), std::to_string(r.agg.offered),
                   metrics::Table::num(100 * r.agg.drop_rate(), 2),
                   metrics::Table::num(r.agg.delay_in_T.mean(), 3),
                   metrics::Table::num(r.agg.messages_per_call.mean(), 1), xi,
                   metrics::Table::num(r.carried_erlangs, 1),
                   std::to_string(r.violations)});
    json.begin_object();
    json.key("scheme");
    json.value(runner::scheme_name(s));
    json.key("rho");
    json.value(rho);
    json.key("offered");
    json.value(r.agg.offered);
    json.key("acquired");
    json.value(r.agg.acquired);
    json.key("blocked");
    json.value(r.agg.blocked);
    json.key("starved");
    json.value(r.agg.starved);
    json.key("drop_rate");
    json.value(r.agg.drop_rate());
    json.key("acq_time_T_mean");
    json.value(r.agg.delay_in_T.mean());
    json.key("acq_time_T_max");
    json.value(r.agg.delay_in_T.max());
    json.key("msgs_per_call_mean");
    json.value(r.agg.messages_per_call.mean());
    json.key("xi");
    json.begin_array();
    json.value(r.agg.xi1);
    json.value(r.agg.xi2);
    json.value(r.agg.xi3);
    json.end_array();
    json.key("carried_erlangs");
    json.value(r.carried_erlangs);
    json.key("total_messages");
    json.value(r.total_messages);
    json.key("violations");
    json.value(r.violations);
    json.key("quiescent");
    json.value(r.quiescent);
    json.key("downed");
    json.value(r.agg.downed);
    json.key("crashes");
    json.value(r.availability.crashes);
    json.key("uptime_fraction");
    json.value(r.availability.uptime_fraction(cfg.duration,
                                              cfg.rows * cfg.cols));
    json.key("mean_time_to_resync_s");
    json.value(r.availability.mean_time_to_resync_s());
    json.key("peak_rss_bytes");
    json.value(r.peak_rss_bytes);
    json.key("transport_bytes");
    json.value(r.transport_bytes);
    json.end_object();
    if (r.violations != 0) {
      std::fprintf(stderr, "dcasim: INTERFERENCE VIOLATIONS DETECTED\n");
      return 1;
    }
  }
  json.end_array();

  if (args.get_flag("json")) {
    std::printf("%s\n", json.str().c_str());
  } else if (args.get_flag("csv")) {
    std::printf("%s", table.csv().c_str());
  } else {
    std::printf("%s", table.render().c_str());
  }
  return 0;
}
