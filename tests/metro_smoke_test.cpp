// Metro-scale smoke: a 60x60-cell high-load streaming run in its own test
// binary (so getrusage's process-wide peak-RSS high-water mark measures
// this run, not a neighbouring test), gating on
//
//   * conformance — the in-engine checker replays the streamed trace
//     against every paper invariant while the trace itself is discarded
//     through a sink (nothing is buffered);
//   * a peak-RSS budget in bytes per cell — the regression tripwire for
//     the compact per-cell state. The floor, measured as this scenario at
//     zero load (no calls), is ~4.4 KiB/cell: node, link, transport and
//     truth state, one 56-byte protocol stream per cell, plus the fixed
//     process overhead (binary, gtest, allocator). Idle queues hold no
//     storage, and a stream builds its 2.5 KiB engine only at its fifth
//     draw; the arrival and holding streams are dropped once the arrival
//     plan is made. On top ride the ~9 Erlangs/cell of live-call state this
//     load sustains, the pending events (a 104-byte slab slot each), the
//     change points of each node's NFC history over its 30 s window, and
//     ~64 B per offered call of deferred message-tally state. Measured:
//     15.5-16.0 KiB/cell here (60x60, 30 s, ~194k calls). The 28 KiB
//     ceiling leaves ~1.6x headroom so real leaks (per-cell vectors sized
//     by n_cells again, un-pruned timelines, buffered records, a sample
//     per NFC record) trip it while allocator noise does not.
//
// Runs under the `metro` ctest label; CI's release lane includes it.
#include <cstdint>

#include <gtest/gtest.h>

#include "runner/experiment.hpp"
#include "sim/trace.hpp"

namespace dca {
namespace {

TEST(MetroSmoke, HighLoadStreamingRunStaysConformantWithinMemoryBudget) {
  runner::ScenarioConfig cfg;
  cfg.rows = 60;
  cfg.cols = 60;
  cfg.interference_radius = 2;
  cfg.n_channels = 70;
  cfg.cluster = 7;
  cfg.mean_holding_s = 5.0;  // short calls => high event density
  cfg.latency = sim::milliseconds(5);
  cfg.seed = 11;
  cfg.duration = sim::seconds(30);
  cfg.warmup = sim::seconds(5);
  cfg.shards = 4;
  cfg.stream_metrics = true;

  // Discarding sink: the engine folds the trace out in canonical order,
  // the conformance checker sees every event, and nothing accumulates.
  sim::TraceRecorder rec;
  rec.set_sink([](const sim::TraceEvent&) {});

  const runner::RunResult r =
      runner::run_uniform(cfg, runner::Scheme::kAdaptive, 0.9, &rec);

  // ~194k offered calls at these rates; the run must complete clean.
  EXPECT_GT(r.offered_calls, 100'000u);
  EXPECT_TRUE(r.quiescent);
  EXPECT_EQ(r.violations, 0u);
  ASSERT_TRUE(r.conformance_checked);
  EXPECT_EQ(r.conformance_violations, 0u);
  EXPECT_TRUE(r.conformance_ok());

#ifdef __linux__
  ASSERT_GT(r.peak_rss_bytes, 0u);
  const std::uint64_t cells =
      static_cast<std::uint64_t>(cfg.rows) * static_cast<std::uint64_t>(cfg.cols);
  const double bytes_per_cell =
      static_cast<double>(r.peak_rss_bytes) / static_cast<double>(cells);
  constexpr double kBytesPerCellBudget = 28.0 * 1024;
  EXPECT_LE(bytes_per_cell, kBytesPerCellBudget)
      << "peak RSS " << r.peak_rss_bytes << " bytes over " << cells
      << " cells = " << bytes_per_cell
      << " bytes/cell; the metro memory budget is " << kBytesPerCellBudget
      << ". If this is an intentional per-cell cost, re-derive the budget in "
         "docs/ARCHITECTURE.md (memory layout) and update it here.";
#endif
}

}  // namespace
}  // namespace dca
