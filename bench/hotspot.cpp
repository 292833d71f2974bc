// E-S2 — The temporary hot-spot scenario from the paper's introduction:
// "in case of even temporary hot spots many calls may be dropped by a
// heavily loaded switching station even when there are enough idle
// channels in the interference region of that station."
//
// One central cell runs at `hot_factor` times the light base load for a
// bounded window. We report, per scheme: drop rate at the hot cell vs
// elsewhere, acquisition time, message cost, and how the adaptive
// acquisitions split across local/update/search.
#include <cstdio>

#include "bench_util.hpp"
#include "metrics/table.hpp"
#include "metrics/timeseries.hpp"
#include "runner/world.hpp"
#include "traffic/profile.hpp"

int main() {
  using namespace dca;
  using metrics::Table;
  using runner::Scheme;

  auto cfg = benchutil::paper_config();
  cfg.duration = sim::minutes(24);
  cfg.warmup = sim::minutes(2);
  const double rho_base = 0.15;
  const double hot_factor = 10.0;
  const auto hot_start = sim::minutes(6);
  const auto hot_end = sim::minutes(18);
  const cell::CellId hot_cell = (cfg.rows / 2) * cfg.cols + cfg.cols / 2;

  benchutil::heading("Hot-spot scenario: one cell at 10x base load for 12 minutes");
  std::printf("base rho = %.2f, hot cell = %d, hot window = [6, 18] min\n\n",
              rho_base, hot_cell);

  Table t({"Scheme", "drop% hot cell", "drop% elsewhere", "mean AcqT [T]",
           "msgs/call", "xi1/xi2/xi3"});

  for (const Scheme s : runner::kAllSchemes) {
    const traffic::HotspotProfile profile(cfg.arrival_rate_for_load(rho_base),
                                          {hot_cell}, hot_factor, hot_start,
                                          hot_end);
    runner::World w(cfg, s, &profile);
    w.run();

    if (w.interference_violations() != 0 || !w.quiescent()) {
      std::fprintf(stderr, "INVARIANT FAILURE in %s\n",
                   runner::scheme_name(s).c_str());
      return 1;
    }

    std::uint64_t hot_off = 0, hot_drop = 0, oth_off = 0, oth_drop = 0;
    for (const auto& rec : w.collector().records()) {
      if (rec.t_request < cfg.warmup) continue;
      const bool hot = (rec.cellId == hot_cell);
      (hot ? hot_off : oth_off)++;
      if (!proto::is_acquired(rec.outcome)) (hot ? hot_drop : oth_drop)++;
    }
    const auto agg = w.result().agg;
    char xi[64];
    std::snprintf(xi, sizeof xi, "%.2f/%.2f/%.2f", agg.xi1, agg.xi2, agg.xi3);
    const auto pct = [](std::uint64_t d, std::uint64_t n) {
      return n ? 100.0 * static_cast<double>(d) / static_cast<double>(n) : 0.0;
    };
    t.add_row({runner::scheme_name(s), Table::num(pct(hot_drop, hot_off), 2),
               Table::num(pct(oth_drop, oth_off), 2),
               Table::num(agg.delay_in_T.mean(), 3),
               Table::num(agg.messages_per_call.mean(), 1), xi});
  }
  std::printf("%s\n", t.render().c_str());

  // ---- transient timeline (figure-style): per-2-minute drop% at the hot
  // cell, FCA vs adaptive, through the burst ------------------------------
  benchutil::heading(
      "Hot-cell drop rate over time (2-minute buckets; burst at minutes 6-18)");
  const Scheme timeline_schemes[] = {Scheme::kFca, Scheme::kAdaptive};
  std::vector<metrics::TimeSeries> dropped_series;
  std::vector<metrics::TimeSeries> offered_series;
  for (const Scheme s : timeline_schemes) {
    const traffic::HotspotProfile profile(cfg.arrival_rate_for_load(rho_base),
                                          {hot_cell}, hot_factor, hot_start,
                                          hot_end);
    runner::World w(cfg, s, &profile);
    w.run();
    metrics::TimeSeries dropped(sim::minutes(2));
    metrics::TimeSeries offered(sim::minutes(2));
    for (const auto& rec : w.collector().records()) {
      if (rec.cellId != hot_cell) continue;
      offered.add(rec.t_request, 1.0);
      if (!proto::is_acquired(rec.outcome)) dropped.add(rec.t_request, 1.0);
    }
    dropped_series.push_back(dropped);
    offered_series.push_back(offered);
  }
  Table tl({"minute", "offered (FCA)", "drop% FCA", "drop% Adaptive", "burst?"});
  const std::size_t buckets = offered_series[0].n_buckets();
  for (std::size_t b = 0; b < buckets; ++b) {
    const auto start_min =
        static_cast<int>(offered_series[0].bucket_start(b) / sim::minutes(1));
    const auto pct = [&](std::size_t k) {
      const double off = k < offered_series.size() &&
                                 b < offered_series[k].n_buckets()
                             ? offered_series[k].sum(b)
                             : 0.0;
      const double drop =
          k < dropped_series.size() && b < dropped_series[k].n_buckets()
              ? dropped_series[k].sum(b)
              : 0.0;
      return off > 0 ? 100.0 * drop / off : 0.0;
    };
    const bool in_burst = offered_series[0].bucket_start(b) >= hot_start &&
                          offered_series[0].bucket_start(b) < hot_end;
    tl.add_row({std::to_string(start_min) + "-" + std::to_string(start_min + 2),
                Table::num(offered_series[0].sum(b), 0), Table::num(pct(0), 1),
                Table::num(pct(1), 1), in_burst ? "***" : ""});
  }
  std::printf("%s\n", tl.render().c_str());

  benchutil::note(
      "Shape checks: FCA drops a large share of hot-cell calls although the\n"
      "neighbourhood is nearly idle; every dynamic scheme rescues them by\n"
      "borrowing; the adaptive scheme does so while neighbours outside the\n"
      "hot region keep operating in message-free local mode (high xi1).\n"
      "The timeline shows FCA's drops tracking the burst while the adaptive\n"
      "scheme rides through it.");
  return 0;
}
