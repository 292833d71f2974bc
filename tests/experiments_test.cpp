// The reproduction's results (EXPERIMENTS.md) as checks, ctest label
// `experiment`; each prints the values it asserts on, so
// `ctest -L experiment -V` regenerates the numbers the document quotes.
//
// Structural claims hold on every seed, or exactly. Statistical claims are
// asserted on a replicated 99% Student-t interval over kSeeds seeds, as
// ErlangBOracle does: "A below B" means the interval of the per-seed
// differences A - B lies below zero, "indistinguishable" that it covers
// zero. Every run must be safe (Theorem 1) and drain (Theorem 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analysis/formulas.hpp"
#include "core/adaptive.hpp"
#include "metrics/summary.hpp"
#include "proto/advanced_search.hpp"
#include "proto/advanced_update.hpp"
#include "radio/signal.hpp"
#include "runner/experiment.hpp"
#include "runner/world.hpp"
#include "test_util.hpp"
#include "traffic/profile.hpp"

namespace dca {
namespace {

using runner::RunResult;
using runner::ScenarioConfig;
using runner::Scheme;
using runner::World;
using Values = std::vector<double>;  // one metric, one value per seed

constexpr int kSeeds = 8;

/// run(cfg) for each of kSeeds seeds, derived as runner::run_replicated does.
template <class Run>
auto over_seeds(const ScenarioConfig& cfg, Run&& run) {
  std::vector<decltype(run(cfg))> out;
  for (int i = 0; i < kSeeds; ++i) {
    ScenarioConfig c = cfg;
    c.seed = sim::mix64(cfg.seed + static_cast<std::uint64_t>(i) * 0x9E37u);
    out.push_back(run(c));
  }
  return out;
}

template <class T, class Metric>
Values pluck(const std::vector<T>& runs, Metric metric) {
  Values xs;
  for (const T& r : runs) xs.push_back(static_cast<double>(std::invoke(metric, r)));
  return xs;
}

struct Ci {
  double mean = 0.0;
  double half = 0.0;
  [[nodiscard]] double lo() const { return mean - half; }
  [[nodiscard]] double hi() const { return mean + half; }
  [[nodiscard]] bool covers_zero() const { return lo() <= 0.0 && 0.0 <= hi(); }
};

/// Mean of `xs` with its two-sided 99% Student-t half-width, printed.
Ci ci99(const Values& xs, const std::string& what) {
  static constexpr double kT99[] = {63.657, 9.925, 5.841, 4.604, 4.032,
                                    3.707,  3.499, 3.355, 3.250};  // df 1..9
  metrics::Summary s;
  for (const double x : xs) s.add(x);
  const Ci c{s.mean(), kT99[xs.size() - 2] * s.stddev() / std::sqrt(double(xs.size()))};
  std::printf("  %-56s %10.4f +- %.4f  (99%%, %zu seeds)\n", what.c_str(), c.mean, c.half,
              xs.size());
  return c;
}

/// The interval of the per-seed differences a - b (ratios a / b).
Ci diff(const Values& a, const Values& b, const std::string& what, bool as_ratio = false) {
  Values d;
  for (std::size_t i = 0; i < a.size(); ++i) d.push_back(as_ratio ? a[i] / b[i] : a[i] - b[i]);
  return ci99(d, what);
}

/// Prints `metric` of a and of b, then returns diff(a, b).
Ci versus(const std::string& metric, const std::string& a_name, const Values& a,
          const std::string& b_name, const Values& b) {
  ci99(a, metric + ", " + a_name);
  ci99(b, metric + ", " + b_name);
  return diff(a, b, metric + ", " + a_name + " - " + b_name);
}

/// A value a structural check asserts on, printed.
void show(const std::string& what, double value) {
  std::printf("  %-56s %10.4f\n", what.c_str(), value);
}

std::string name(Scheme s) { return runner::scheme_name(s); }

std::vector<Scheme> all_but(Scheme s) {
  std::vector<Scheme> out;
  for (const Scheme o : runner::kAllSchemes)
    if (o != s) out.push_back(o);
  return out;
}

/// Runs one World under `load` and hands it to `inspect`.
template <class Inspect>
auto run_world(const ScenarioConfig& cfg, Scheme s, const traffic::LoadProfile& load,
               Inspect&& inspect) {
  World w(cfg, s, &load);
  w.run();
  EXPECT_EQ(w.interference_violations(), 0u) << name(s);
  EXPECT_TRUE(w.quiescent()) << name(s);
  return inspect(w);
}

/// A uniform-load run per seed.
std::vector<RunResult> uniform_runs(const ScenarioConfig& cfg, Scheme s, double rho) {
  return over_seeds(cfg, [&](const ScenarioConfig& c) {
    const traffic::UniformProfile load(c.arrival_rate_for_load(rho));
    return run_world(c, s, load, [](World& w) { return w.result(); });
  });
}

double drop(const RunResult& r) { return r.agg.drop_rate(); }
double msgs(const RunResult& r) { return r.agg.messages_per_call.mean(); }
double delay(const RunResult& r) { return r.agg.delay_in_T.mean(); }
double max_delay(const RunResult& r) { return r.agg.delay_in_T.max(); }
double attempts(const RunResult& r) { return r.agg.mean_update_attempts; }
const std::pair<double (*)(const RunResult&), const char*> kMsgsAndDelay[] = {
    {msgs, "msgs/call"}, {delay, "AcqT [T]"}};

ScenarioConfig paper(int minutes, int warmup_minutes) {
  ScenarioConfig cfg = testutil::paper_config();
  cfg.duration = sim::minutes(minutes);
  cfg.warmup = sim::minutes(warmup_minutes);
  return cfg;
}

/// The 14x14 torus: every cell has the interior N = 18 neighbourhood.
ScenarioConfig torus(int minutes = 30, int warmup_minutes = 5) {
  ScenarioConfig cfg = paper(minutes, warmup_minutes);
  cfg.rows = cfg.cols = 14;
  cfg.wrap = cell::Wrap::kToroidal;
  return cfg;
}

// ---- Table 1: general comparison (torus, rho = 0.6) ----------------------

TEST(Experiments, Table1AdaptiveCheapestOnBothAxes) {
  const auto ad = uniform_runs(torus(), Scheme::kAdaptive, 0.6);
  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kBasicUpdate, Scheme::kAdvancedUpdate}) {
    const auto other = uniform_runs(torus(), s, 0.6);
    for (const auto& [metric, label] : kMsgsAndDelay) {
      EXPECT_LT(versus(label, "adaptive", pluck(ad, metric), name(s), pluck(other, metric)).hi(),
                0.0);
    }
  }
}

TEST(Experiments, Table1ClosedFormsAtMeasuredParameters) {
  // The paper's rows evaluated at the parameters each adaptive run measures.
  const auto ad = uniform_runs(torus(), Scheme::kAdaptive, 0.6);
  std::vector<analysis::ModelParams> params;
  for (const RunResult& r : ad) {
    analysis::ModelParams& mp = params.emplace_back();
    mp.alpha = torus().adaptive.alpha;
    mp.xi1 = r.agg.xi1;
    mp.xi2 = r.agg.xi2;
    mp.xi3 = r.agg.xi3;
    mp.m = r.agg.mean_update_attempts > 0 ? r.agg.mean_update_attempts : 1.0;
    mp.N_borrow = r.agg.mean_borrowing_neighbors;
    mp.N_search = r.agg.mean_searching_neighbors > 0 ? r.agg.mean_searching_neighbors : 1.0;
  }
  ci99(pluck(params, &analysis::ModelParams::xi1), "adaptive xi1");
  ci99(pluck(params, &analysis::ModelParams::xi3), "adaptive xi3");
  ci99(pluck(params, &analysis::ModelParams::m), "adaptive m");
  ci99(pluck(params, &analysis::ModelParams::N_borrow), "adaptive N_borrow");
  ci99(pluck(uniform_runs(torus(), Scheme::kBasicUpdate, 0.6), attempts), "basic update m");
  using Form = analysis::Cost (*)(const analysis::ModelParams&);
  const std::pair<Form, std::string> forms[] = {{analysis::adaptive_general, "adaptive"},
                                                {analysis::advanced_update_general, "adv. update"}};
  for (const auto& [form, label] : forms) {
    ci99(pluck(params, [&](const auto& mp) { return form(mp).messages; }), label + " model msgs");
    ci99(pluck(params, [&](const auto& mp) { return form(mp).time_in_T; }), label + " model AcqT");
  }
  // CHANGE_MODE waves and their replies are billed to the triggering call
  // but are outside the paper's formula: measured sits above the form.
  const Values model =
      pluck(params, [](const auto& mp) { return analysis::adaptive_general(mp).messages; });
  EXPECT_GT(diff(pluck(ad, msgs), model, "adaptive measured - model msgs").lo(), 0.0);
}

// ---- Table 2: uniformly low load (rho = 0.1) -----------------------------

TEST(Experiments, Table2ExactOnTheTorus) {
  // Every call of every seed: search 3N (the paper's 2N plus the decision
  // announcement), update 4N, advanced update 2N, adaptive 0 messages;
  // advanced update and adaptive take no time, search and update at least
  // the 2T round trip (a request that overlaps another in its region waits
  // for it, so a rare call takes longer).
  const std::tuple<Scheme, double, double> rows[] = {{Scheme::kBasicSearch, 54, 2},
                                                     {Scheme::kBasicUpdate, 72, 2},
                                                     {Scheme::kAdvancedUpdate, 36, 0},
                                                     {Scheme::kAdaptive, 0, 0}};
  for (const auto& [s, n_msgs, min_delay] : rows) {
    const auto runs = uniform_runs(torus(), s, 0.1);
    for (const RunResult& r : runs) {
      EXPECT_EQ(r.agg.acquired, r.agg.offered) << name(s);
      EXPECT_EQ(r.agg.messages_per_call.min(), n_msgs) << name(s);
      EXPECT_EQ(r.agg.messages_per_call.max(), n_msgs) << name(s);
      EXPECT_EQ(r.agg.delay_in_T.min(), min_delay) << name(s);
      EXPECT_TRUE(min_delay > 0 || r.agg.delay_in_T.max() == 0) << name(s);
    }
    show(name(s) + " msgs/call (every call)", n_msgs);
    show(name(s) + " min AcqT [T] (every seed)", min_delay);
    ci99(pluck(runs, delay), name(s) + " AcqT [T]");
  }
}

TEST(Experiments, Table2BoundedGridScalesWithEachCellsDegree) {
  // On the bounded 8x8 grid every call costs the multiple of its own cell's
  // interference degree N_i that the torus shows for N = 18.
  const ScenarioConfig cfg = testutil::paper_config();
  const traffic::UniformProfile load(cfg.arrival_rate_for_load(0.1));
  const std::pair<Scheme, std::uint32_t> rows[] = {{Scheme::kBasicSearch, 3},
                                                   {Scheme::kBasicUpdate, 4},
                                                   {Scheme::kAdvancedUpdate, 2},
                                                   {Scheme::kAdaptive, 0}};
  for (const auto& [scheme, per_neighbour] : rows) {
    const auto off = over_seeds(cfg, [&](const ScenarioConfig& c) {
      return run_world(c, scheme, load, [&](const World& w) {
        return std::ranges::count_if(w.records(), [&](const auto& rec) {
          return rec.total_messages() != per_neighbour * w.grid().interference(rec.cellId).size();
        });
      });
    });
    for (const auto n : off) EXPECT_EQ(n, 0) << name(scheme);
    show(name(scheme) + " msgs/call / N_i (every call)", per_neighbour);
  }
}

// ---- Table 3: bounds, over rho in {0.1, 0.4, 0.7, 0.95} (8x8) ----------

struct Extremes {
  double zero_cost_call = 0;  // 1 if an acquired call took 0 messages, 0 time
  double max_msgs = 0, max_delay_T = 0, starved = 0;
};

std::vector<Extremes> sweeps(Scheme s) {
  return over_seeds(paper(20, 5), [&](const ScenarioConfig& c) {
    Extremes e;
    for (const double rho : {0.1, 0.4, 0.7, 0.95}) {
      const traffic::UniformProfile load(c.arrival_rate_for_load(rho));
      run_world(c, s, load, [&](World& w) {
        for (const auto& rec : w.records()) {
          const bool zero = rec.total_messages() == 0 && rec.delay() == 0;
          if (rec.t_request >= c.warmup && proto::is_acquired(rec.outcome) && zero) {
            e.zero_cost_call = 1;
          }
        }
        const auto agg = w.result().agg;
        e.max_msgs = std::max(e.max_msgs, agg.messages_per_call.max());
        e.max_delay_T = std::max(e.max_delay_T, agg.delay_in_T.max());
        e.starved += double(agg.starved);
      });
    }
    return e;
  });
}

TEST(Experiments, Table3OnlyAdaptiveAttainsTheZeroMinimum) {
  for (const Scheme s : runner::kPaperSchemes) {
    const Values zero = pluck(sweeps(s), &Extremes::zero_cost_call);
    for (const double z : zero) EXPECT_EQ(z, s == Scheme::kAdaptive ? 1.0 : 0.0) << name(s);
    show(name(s) + " seeds with a 0-msg 0-time call", double(std::ranges::count(zero, 1.0)));
  }
}

TEST(Experiments, Table3AdaptiveMaximaUnderBoundWhileAdvancedUpdateStarves) {
  const analysis::Bounds bound = analysis::adaptive_bounds(analysis::ModelParams{});
  show("adaptive bound: max msgs (2aN + 4N)", bound.maximum.messages);
  show("adaptive bound: max AcqT [T] (2aN + 1)", bound.maximum.time_in_T);
  const auto ad = sweeps(Scheme::kAdaptive);
  for (const Extremes& e : ad) {
    EXPECT_LE(e.max_msgs, bound.maximum.messages);
    EXPECT_LE(e.max_delay_T, bound.maximum.time_in_T);
    EXPECT_EQ(e.starved, 0.0);
  }
  show("adaptive max msgs over seeds", std::ranges::max(pluck(ad, &Extremes::max_msgs)));
  show("adaptive max AcqT [T] over seeds", std::ranges::max(pluck(ad, &Extremes::max_delay_T)));
  const auto adv = sweeps(Scheme::kAdvancedUpdate);
  for (const Extremes& e : adv) EXPECT_GT(e.starved, 0.0);
  ci99(pluck(adv, &Extremes::starved), "advanced update starved calls per sweep");
  ci99(pluck(adv, &Extremes::max_delay_T), "advanced update max AcqT [T] per sweep");
}

TEST(Experiments, Table3UpdateRetriesGrowWithControlLatency) {
  // Basic update at rho = 0.95, lowest-first picks (most contention): the
  // unbounded column surfaces as retries once T is large against the
  // traffic dynamics.
  ScenarioConfig fast = paper(15, 2);
  fast.update_pick = proto::ChannelPick::kLowest;
  ScenarioConfig slow = fast;
  slow.latency = sim::seconds(5);
  const auto f = uniform_runs(fast, Scheme::kBasicUpdate, 0.95);
  const auto s = uniform_runs(slow, Scheme::kBasicUpdate, 0.95);
  for (const RunResult& r : s) EXPECT_EQ(r.agg.attempts.max(), slow.max_update_attempts);
  show("max attempts at T = 5 s (every seed)", slow.max_update_attempts);
  EXPECT_GT(versus("m", "T = 5 s", pluck(s, attempts), "5 ms", pluck(f, attempts)).lo(), 0.0);
  EXPECT_GT(versus("AcqT [T]", "T = 5 s", pluck(s, delay), "5 ms", pluck(f, delay)).lo(), 0.0);
}

// ---- Figure 11: advanced-update unfairness (scripted, deterministic) ------
//
// A 7-channel spectrum gives every cell ONE primary. Requesters c1 (older
// timestamp) and c2 sit at hex distance 2; filler cells visible to both
// hold every colour of their common neighbourhood but one, r*, the only
// borrowable channel. Latency pins make c2's messages overtake c1's (c1
// sends at 6 ms, c2 at 1 ms, replies at the default 5 ms).

struct Fig11 {
  cell::CellId c1 = cell::kNoCell, c2 = cell::kNoCell;
  std::vector<cell::CellId> fillers;  // one per colour but r*'s
  bool c1_acquired = false, c2_acquired = false;
  std::uint64_t conditional_failures = 0;
};

ScenarioConfig fig11_config() {
  ScenarioConfig cfg = testutil::paper_config();
  cfg.n_channels = 7;
  cfg.adaptive.theta_low = 1;
  cfg.adaptive.theta_high = 2;
  return cfg;
}

Fig11 plan_fig11(const World& probe) {
  const auto& grid = probe.grid();
  const auto& plan = probe.plan();
  Fig11 s;
  s.c1 = 3 * grid.cols() + 3;
  auto in_lens = [&](int k, cell::CellId j) {  // a colour-k cell hearing c1 and j
    for (const cell::CellId p : grid.interference(s.c1))
      if (plan.color_of(p) == k && grid.interferes(p, j)) return p;
    return cell::kNoCell;
  };
  auto foreign = [&](int k, cell::CellId j) {
    return k != plan.color_of(s.c1) && k != plan.color_of(j);
  };
  for (const cell::CellId j : grid.interference(s.c1)) {
    // j > c1 makes c1's Lamport tie-break the older one.
    if (grid.distance(s.c1, j) != 2 || !foreign(plan.color_of(j), s.c1) || j <= s.c1) continue;
    std::vector<cell::CellId> lens;
    for (int k = 0; k < plan.n_colors(); ++k)
      if (foreign(k, j)) lens.push_back(in_lens(k, j));
    if (std::ranges::count(lens, cell::kNoCell) > 0) continue;
    s.c2 = j;
    s.fillers.assign(lens.begin() + 1, lens.end());  // r* is the first foreign colour
    break;
  }
  return s;
}

Fig11 run_fig11(Scheme scheme) {
  const World probe(fig11_config(), scheme);
  Fig11 s = plan_fig11(probe);
  if (s.c2 == cell::kNoCell) {
    ADD_FAILURE() << "no Fig. 11 scenario on this grid";
    return s;
  }
  std::vector<net::LinkDelay> pins;
  for (const cell::CellId j : probe.grid().interference(s.c1))
    pins.push_back({s.c1, j, sim::milliseconds(6)});
  for (const cell::CellId j : probe.grid().interference(s.c2))
    pins.push_back({s.c2, j, sim::milliseconds(1)});
  World w(fig11_config(), scheme, nullptr, pins);
  // T is c1's 6 ms: it sets the adaptive scheme's 2T round trip.
  EXPECT_EQ(w.latency_bound(), sim::milliseconds(6)) << name(scheme);
  // Exhaust c1's and c2's primaries and occupy the filler colours; then the
  // race: c1 requests first, c2 two ms later, but c2's messages arrive first.
  traffic::CallId id = 1;
  for (const cell::CellId c : {s.c1, s.c2}) testutil::offer_call(w, c, id++, sim::minutes(60));
  for (const cell::CellId p : s.fillers) testutil::offer_call(w, p, id++, sim::minutes(60));
  w.run_until(sim::seconds(2));
  testutil::offer_call(w, s.c1, 100, sim::minutes(60));
  w.run_until(w.now() + sim::milliseconds(2));
  testutil::offer_call(w, s.c2, 200, sim::minutes(60));
  w.run_until(w.now() + sim::minutes(1));
  EXPECT_EQ(w.interference_violations(), 0u) << name(scheme);
  for (const auto& r : w.records()) {
    if (r.call == 100) s.c1_acquired = proto::is_acquired(r.outcome);
    if (r.call == 200) s.c2_acquired = proto::is_acquired(r.outcome);
  }
  for (cell::CellId c = 0; scheme == Scheme::kAdvancedUpdate && c < w.grid().n_cells(); ++c) {
    s.conditional_failures +=
        dynamic_cast<const proto::AdvancedUpdateNode&>(w.node(c)).conditional_failures();
  }
  show(name(scheme) + ": older c1 acquired", s.c1_acquired);
  show(name(scheme) + ": younger c2 acquired", s.c2_acquired);
  show(name(scheme) + ": conditional-grant failures", double(s.conditional_failures));
  return s;
}

TEST(Experiments, Fig11ScenarioLeavesOneBorrowableChannel) {
  const Fig11 s = plan_fig11(World(fig11_config(), Scheme::kAdvancedUpdate));
  ASSERT_NE(s.c2, cell::kNoCell);
  EXPECT_EQ(s.fillers.size() + 3, 7u);  // c1, c2 and fillers hold all but r*
  std::printf("  c1 = cell %d, c2 = cell %d, %zu fillers\n", s.c1, s.c2, s.fillers.size());
}

TEST(Experiments, Fig11AdvancedUpdateDropsTheOlderRequest) {
  // The primaries promise r* to the overtaking younger c2 and answer the
  // older c1 with a conditional grant; c1 finds nothing else and drops.
  const Fig11 adv = run_fig11(Scheme::kAdvancedUpdate);
  EXPECT_FALSE(adv.c1_acquired);
  EXPECT_TRUE(adv.c2_acquired);
  EXPECT_GT(adv.conditional_failures, 0u);
}

TEST(Experiments, Fig11AdaptiveGrantsTheOlderRequest) {
  // The borrow request reaches ALL neighbours, c2 included, so the conflict
  // resolves by timestamp: the older c1 wins.
  const Fig11 ada = run_fig11(Scheme::kAdaptive);
  EXPECT_TRUE(ada.c1_acquired);
  EXPECT_FALSE(ada.c2_acquired);
}

// ---- Load sweep (8x8, 20 min): the empirical study of §1/§5 --------------

constexpr double kSweep[] = {0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95};

Values sweep(Scheme s, double rho, double (*metric)(const RunResult&)) {
  return pluck(uniform_runs(paper(20, 4), s, rho), metric);
}

TEST(Experiments, LoadSweepAdaptiveDropsFewestFromModerateLoad) {
  for (const double rho : {0.7, 0.85, 0.95}) {
    std::printf(" rho = %.2f\n", rho);
    const Values ad = sweep(Scheme::kAdaptive, rho, drop);
    for (const Scheme s : all_but(Scheme::kAdaptive)) {
      EXPECT_LT(versus("drop rate", "adaptive", ad, name(s), sweep(s, rho, drop)).hi(), 0.0) << rho;
    }
  }
}

TEST(Experiments, LoadSweepFcaDropsMostBelowSaturation) {
  for (const double rho : {0.4, 0.55, 0.7}) {
    std::printf(" rho = %.2f\n", rho);
    const Values fca = sweep(Scheme::kFca, rho, drop);
    for (const Scheme s : all_but(Scheme::kFca)) {
      EXPECT_GT(versus("drop rate", "FCA", fca, name(s), sweep(s, rho, drop)).lo(), 0.0) << rho;
    }
  }
}

TEST(Experiments, LoadSweepFcaNoLongerWorstAtSaturation) {
  // At rho = 0.95 search and update lose FCA's packing without the adaptive
  // scheme's cheap borrowing: FCA is not significantly worse than them.
  const Values fca = sweep(Scheme::kFca, 0.95, drop);
  for (const Scheme s : {Scheme::kBasicSearch, Scheme::kBasicUpdate, Scheme::kAdvancedUpdate}) {
    EXPECT_LE(versus("drop rate", "FCA", fca, name(s), sweep(s, 0.95, drop)).lo(), 0.0) << name(s);
  }
}

TEST(Experiments, LoadSweepAcquisitionTimes) {
  // Search and update pay at least the 2T round trip on every call; the
  // adaptive scheme pays nothing at rho = 0.1 and its worst call takes at
  // most two borrow rounds (4T), while advanced update's retry chains run
  // far longer.
  for (const double rho : kSweep) {
    std::printf(" rho = %.2f\n", rho);
    for (const Scheme s : {Scheme::kBasicSearch, Scheme::kBasicUpdate}) {
      const auto runs = uniform_runs(paper(20, 4), s, rho);
      for (const RunResult& r : runs) EXPECT_EQ(r.agg.delay_in_T.min(), 2.0) << name(s);
      ci99(pluck(runs, delay), name(s) + " AcqT [T]");
    }
    const auto ad = uniform_runs(paper(20, 4), Scheme::kAdaptive, rho);
    for (const RunResult& r : ad) EXPECT_LE(max_delay(r), rho == 0.1 ? 0.0 : 4.0) << rho;
    ci99(pluck(ad, delay), "adaptive AcqT [T]");
    ci99(pluck(ad, max_delay), "adaptive max AcqT [T]");
  }
  ci99(sweep(Scheme::kAdvancedUpdate, 0.95, max_delay), "advanced update max AcqT [T]");
}

TEST(Experiments, LoadSweepAdaptiveCheaperThanSearchAndUpdate) {
  for (const double rho : kSweep) {
    std::printf(" rho = %.2f\n", rho);
    const auto ad = uniform_runs(paper(20, 4), Scheme::kAdaptive, rho);
    ci99(pluck(ad, [](const RunResult& r) { return r.agg.xi1; }), "adaptive xi1");
    for (const Scheme s : {Scheme::kBasicSearch, Scheme::kBasicUpdate}) {
      EXPECT_LT(versus("msgs/call", "adaptive", pluck(ad, msgs), name(s), sweep(s, rho, msgs)).hi(),
                0.0);
    }
  }
}

// ---- Hot spot (§1): the centre cell at 10x a light load, minutes 6-18 ----

struct HotCell {
  double drop_rate = 0;            // hot-cell calls dropped
  double burst_drop_share = 0;     // ... of which requested inside the burst
  double burst_offered_share = 0;  // hot-cell calls requested inside the burst
  double msgs_per_call = 0, xi1 = 0;
};

std::vector<HotCell> hotspot_runs(Scheme s) {
  const ScenarioConfig cfg = paper(24, 2);
  const auto start = sim::minutes(6), end = sim::minutes(18);
  const cell::CellId hot = testutil::center_cell(cfg);
  const traffic::HotspotProfile load(cfg.arrival_rate_for_load(0.15), {hot}, 10.0, start, end);
  return over_seeds(cfg, [&](const ScenarioConfig& c) {
    return run_world(c, s, load, [&](World& w) {
      double offered = 0, offered_in = 0, dropped = 0, dropped_in = 0;
      for (const auto& rec : w.records()) {
        if (rec.t_request < c.warmup || rec.cellId != hot) continue;
        const bool in = rec.t_request >= start && rec.t_request < end;
        const bool lost = !proto::is_acquired(rec.outcome);
        offered += 1;
        offered_in += in;
        dropped += lost;
        dropped_in += in && lost;
      }
      const auto agg = w.result().agg;
      return HotCell{dropped / offered, dropped > 0 ? dropped_in / dropped : 0.0,
                     offered_in / offered, agg.messages_per_call.mean(), agg.xi1};
    });
  });
}

TEST(Experiments, HotspotFcaDropsTrackTheBurst) {
  // FCA's hot-cell drops fall inside the burst more than its calls do.
  const auto fca = hotspot_runs(Scheme::kFca);
  ci99(pluck(fca, &HotCell::drop_rate), "FCA hot-cell drop rate");
  EXPECT_GT(versus("share inside the burst", "FCA hot-cell drops",
                   pluck(fca, &HotCell::burst_drop_share), "calls",
                   pluck(fca, &HotCell::burst_offered_share))
                .lo(),
            0.0);
}

TEST(Experiments, HotspotDynamicSchemesRescueEveryHotCellCall) {
  for (const Scheme s : all_but(Scheme::kFca)) {
    for (const HotCell& h : hotspot_runs(s)) EXPECT_EQ(h.drop_rate, 0.0) << name(s);
    show(name(s) + " hot-cell drop rate (every seed)", 0.0);
  }
}

TEST(Experiments, HotspotAdaptiveCheapestDynamicScheme) {
  // Cells away from the hot spot stay in message-free local mode.
  const auto ad = hotspot_runs(Scheme::kAdaptive);
  ci99(pluck(ad, &HotCell::xi1), "adaptive xi1");
  for (const Scheme s : all_but(Scheme::kFca)) {
    if (s == Scheme::kAdaptive) continue;
    EXPECT_LT(versus("msgs/call", "adaptive", pluck(ad, &HotCell::msgs_per_call), name(s),
                     pluck(hotspot_runs(s), &HotCell::msgs_per_call))
                  .hi(),
              0.0);
  }
}

// ---- §6 comparison with advanced search [8] ------------------------------

// Twelve 2-minute bursts, each at one cell.
class BurstProfile final : public traffic::LoadProfile {
 public:
  BurstProfile(double base, double hot, std::vector<cell::CellId> cells)
      : base_(base), hot_(hot), cells_(std::move(cells)) {}
  [[nodiscard]] double rate(cell::CellId c, sim::SimTime t) const override {
    const auto idx = static_cast<std::size_t>(t / sim::minutes(2));
    return idx < cells_.size() && cells_[idx] == c ? hot_ : base_;
  }
  [[nodiscard]] double max_rate(cell::CellId c) const override {
    return std::ranges::find(cells_, c) != cells_.end() ? hot_ : base_;
  }

 private:
  double base_, hot_;
  std::vector<cell::CellId> cells_;
};

struct BurstRun {
  double delay = 0, transfers = 0, transfer_msgs = 0;
};

/// 35 channels (|PR| = 5), base rho 0.3, hot rho 3.0; `moving` puts each
/// burst at a different cell, otherwise all at the centre.
std::vector<BurstRun> burst_runs(Scheme s, bool moving) {
  ScenarioConfig cfg = paper(24, 2);
  cfg.n_channels = 35;
  std::vector<cell::CellId> cells(12, testutil::center_cell(cfg));
  for (int i = 0; moving && i < 12; ++i) {
    cells[std::size_t(i)] = ((2 + (i % 4)) * cfg.cols) + 2 + ((i / 4) % 4) * 2;
  }
  const BurstProfile load(cfg.arrival_rate_for_load(0.3), cfg.arrival_rate_for_load(3.0), cells);
  return over_seeds(cfg, [&](const ScenarioConfig& c) {
    return run_world(c, s, load, [&](World& w) {
      BurstRun b{w.result().agg.delay_in_T.mean(), 0,
                 double(w.sent_of(net::MsgKind::kTransfer))};
      for (cell::CellId i = 0; s == Scheme::kAdvancedSearch && i < w.grid().n_cells(); ++i) {
        b.transfers +=
            double(dynamic_cast<const proto::AdvancedSearchNode&>(w.node(i)).transfers_in());
      }
      return b;
    });
  });
}

TEST(Experiments, AdvancedSearchTransfersMoreWhenTheHotSpotMoves) {
  const auto returning = burst_runs(Scheme::kAdvancedSearch, false);
  ci99(pluck(returning, &BurstRun::transfer_msgs), "TRANSFER msgs, returning hot spot");
  EXPECT_GT(versus("transfers", "moving",
                   pluck(burst_runs(Scheme::kAdvancedSearch, true), &BurstRun::transfers),
                   "returning", pluck(returning, &BurstRun::transfers))
                .lo(),
            0.0);
}

TEST(Experiments, AdvancedSearchLagsAdaptiveWhenTheHotSpotMoves) {
  for (const bool moving : {false, true}) {
    std::printf(" %s hot spot, AcqT [T]\n", moving ? "moving" : "returning");
    const Values search = pluck(burst_runs(Scheme::kBasicSearch, moving), &BurstRun::delay);
    const Values adv = pluck(burst_runs(Scheme::kAdvancedSearch, moving), &BurstRun::delay);
    const Values ad = pluck(burst_runs(Scheme::kAdaptive, moving), &BurstRun::delay);
    EXPECT_LT(versus("AcqT [T]", "advanced search", adv, "basic search", search).hi(), 0.0);
    EXPECT_LT(versus("AcqT [T]", "adaptive", ad, "basic search", search).hi(), 0.0);
    if (!moving) continue;
    diff(adv, ad, "advanced search / adaptive", true);
    EXPECT_GT(diff(adv, ad, "advanced search - adaptive").lo(), 0.0);
  }
}

// ---- Mobility (§2.1): rho = 0.6, mean dwell 30 s -------------------------

TEST(Experiments, MobilityAdaptiveKeepsBothFailureClassesBelowFca) {
  ScenarioConfig cfg = paper(20, 3);
  cfg.mean_dwell_s = 30.0;
  auto handoffs = [](const RunResult& r) { return double(r.agg.handoff_offered); };
  auto fresh = [&](const RunResult& r) { return double(r.agg.offered) - handoffs(r); };
  auto fails = [](const RunResult& r) { return double(r.agg.handoff_failures); };
  auto block = [&](const RunResult& r) {
    return (double(r.agg.blocked + r.agg.starved) - fails(r)) / fresh(r);
  };
  auto fail = [&](const RunResult& r) { return fails(r) / handoffs(r); };
  const auto fca = uniform_runs(cfg, Scheme::kFca, 0.6);
  const auto ad = uniform_runs(cfg, Scheme::kAdaptive, 0.6);
  ci99(pluck(ad, [&](const RunResult& r) { return handoffs(r) / fresh(r); }),
       "adaptive handoffs per fresh call");
  EXPECT_LT(versus("new-call block", "adaptive", pluck(ad, block), "FCA", pluck(fca, block)).hi(),
            0.0);
  EXPECT_LT(versus("handoff fail", "adaptive", pluck(ad, fail), "FCA", pluck(fca, fail)).hi(),
            0.0);
}

// ---- Scalability (§6): adaptive at rho = 0.7, 12x12 vs 16x16 -------------

TEST(Experiments, ScalingAdaptivePerCallCostFlatInGridSize) {
  std::vector<RunResult> by_side[2];
  for (const int side : {12, 16}) {
    ScenarioConfig cfg = paper(12, 2);
    cfg.rows = cfg.cols = side;
    by_side[side / 16] = uniform_runs(cfg, Scheme::kAdaptive, 0.7);
  }
  for (const auto& [metric, label] : kMsgsAndDelay) {
    EXPECT_TRUE(versus(label, "16x16", pluck(by_side[1], metric), "12x12",
                       pluck(by_side[0], metric))
                    .covers_zero());
  }
}

// ---- Reuse distance: fixed 6 Erlang/cell, path-loss exponent 4 ----------

struct ReusePlan {
  int radius, cluster, primaries;  // cluster 0: greedy colouring
  double grid_sir_db;
};

constexpr ReusePlan kReusePlans[] = {{1, 3, 24, 8.7}, {2, 7, 10, 17.7}, {3, 0, 5, 25.0}};

ScenarioConfig reuse_config(const ReusePlan& p) {
  ScenarioConfig cfg = paper(20, 3);
  cfg.interference_radius = p.radius;
  cfg.greedy_plan = p.cluster == 0;
  if (p.cluster != 0) cfg.cluster = p.cluster;
  return cfg;
}

TEST(Experiments, ReuseDistancePlanGeometry) {
  for (const ReusePlan& p : kReusePlans) {
    const ScenarioConfig cfg = reuse_config(p);
    const World probe(cfg, Scheme::kFca);
    const int pr = probe.plan().primary(probe.grid().n_cells() / 2).size();
    const double sir =
        radio::worst_case_sir(probe.grid(), probe.plan(), testutil::center_cell(cfg), 4.0).sir_db;
    EXPECT_EQ(pr, p.primaries);
    EXPECT_NEAR(sir, p.grid_sir_db, 0.05);
    std::printf("  radius %d: |PR| = %d, grid SIR %.2f dB, first-tier %.2f dB\n", p.radius, pr,
                sir, radio::first_tier_sir_db(probe.plan().n_colors(), 4.0));
  }
}

TEST(Experiments, ReuseDistanceAdaptiveDropsLessThanFca) {
  for (const ReusePlan& p : kReusePlans) {
    std::printf(" radius %d\n", p.radius);
    const ScenarioConfig cfg = reuse_config(p);
    const traffic::UniformProfile load(6.0 / cfg.mean_holding_s);
    auto drops = [&](Scheme s) {
      return over_seeds(cfg, [&](const ScenarioConfig& c) {
        return run_world(c, s, load, [](World& w) { return w.result().agg.drop_rate(); });
      });
    };
    const Ci d = versus("drop rate", "adaptive", drops(Scheme::kAdaptive), "FCA",
                        drops(Scheme::kFca));
    // Radius 1: no call dropped on any seed by either scheme.
    EXPECT_TRUE(p.radius == 1 ? d.mean == 0 && d.half == 0 : d.hi() < 0.0) << p.radius;
  }
}

// ---- Adaptive design choices (§3.5) and the repack extension -------------

struct AdaptiveRun {
  RunResult run;
  double mode_switches = 0, change_mode_msgs = 0, repacks = 0;
};

/// Adaptive runs per seed at load `rho`, with `tweak` applied to the
/// config; `hot` puts the centre cell at 10x for minutes 5-15.
std::vector<AdaptiveRun> adaptive_runs(double rho, bool hot,
                                       const std::function<void(ScenarioConfig&)>& tweak) {
  ScenarioConfig cfg = paper(20, 2);
  tweak(cfg);
  return over_seeds(cfg, [&](const ScenarioConfig& c) {
    const traffic::UniformProfile uniform(c.arrival_rate_for_load(rho));
    const traffic::HotspotProfile hotspot(c.arrival_rate_for_load(rho),
                                          {testutil::center_cell(c)}, 10.0, sim::minutes(5),
                                          sim::minutes(15));
    const traffic::LoadProfile& load =
        hot ? static_cast<const traffic::LoadProfile&>(hotspot) : uniform;
    return run_world(c, Scheme::kAdaptive, load, [](World& w) {
      AdaptiveRun out{w.result(), 0, double(w.sent_of(net::MsgKind::kChangeMode)), 0};
      for (cell::CellId i = 0; i < w.grid().n_cells(); ++i) {
        const auto& n = dynamic_cast<const core::AdaptiveNode&>(w.node(i));
        out.mode_switches += double(n.switches_to_borrowing() + n.switches_to_local());
        out.repacks += double(n.repacks());
      }
      return out;
    });
  });
}

double a_drop(const AdaptiveRun& a) { return a.run.agg.drop_rate(); }
double a_msgs(const AdaptiveRun& a) { return a.run.agg.messages_per_call.mean(); }
double a_delay(const AdaptiveRun& a) { return a.run.agg.delay_in_T.mean(); }
double a_attempts(const AdaptiveRun& a) { return a.run.agg.mean_update_attempts; }
double a_switches(const AdaptiveRun& a) { return a.mode_switches; }

TEST(Experiments, RepackMigratesBorrowedCallsOnlyWhenOn) {
  const auto off = adaptive_runs(0.3, true, [](ScenarioConfig&) {});
  const auto on = adaptive_runs(0.3, true, [](ScenarioConfig& c) { c.adaptive.repack = true; });
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(off[i].repacks, 0.0);
    EXPECT_GT(on[i].repacks, 0.0);
  }
  ci99(pluck(on, &AdaptiveRun::repacks), "reassignments with repack on");
  diff(pluck(on, a_delay), pluck(off, a_delay), "on - off AcqT [T]");
  EXPECT_TRUE(diff(pluck(on, a_drop), pluck(off, a_drop), "on - off drop rate").covers_zero());
}

TEST(Experiments, AblationHysteresisCutsModeSwitchesFourfold) {
  const auto n = adaptive_runs(0.7, false, [](ScenarioConfig& c) {
    c.adaptive.theta_low = 1;
    c.adaptive.theta_high = 2;
  });
  const auto w = adaptive_runs(0.7, false, [](ScenarioConfig& c) {
    c.adaptive.theta_low = 4;
    c.adaptive.theta_high = 8;
  });
  ci99(pluck(n, a_switches), "mode switches, theta (1,2)");
  ci99(pluck(w, a_switches), "mode switches, theta (4,8)");
  EXPECT_GE(diff(pluck(n, a_switches), pluck(w, a_switches), "(1,2) / (4,8) switches", true).lo(),
            4.0);
  diff(pluck(n, &AdaptiveRun::change_mode_msgs), pluck(w, &AdaptiveRun::change_mode_msgs),
       "(1,2) / (4,8) CHANGE_MODE msgs", true);
  EXPECT_GT(versus("msgs/call", "(4,8)", pluck(w, a_msgs), "(1,2)", pluck(n, a_msgs)).lo(), 0.0);
  EXPECT_TRUE(diff(pluck(w, a_drop), pluck(n, a_drop), "(4,8) - (1,2) drop").covers_zero());
}

TEST(Experiments, AblationAlphaBarelyMattersWithSearchFallback) {
  // A slow control plane (T = 500 ms) at rho = 0.95, where rounds fail.
  auto alpha = [](int a) {
    return adaptive_runs(0.95, false, [a](ScenarioConfig& c) {
      c.latency = sim::milliseconds(500);
      c.adaptive.alpha = a;
    });
  };
  const auto a1 = alpha(1);
  const auto a8 = alpha(8);
  const Values xi3 = pluck(a8, [](const AdaptiveRun& a) { return a.run.agg.xi3; });
  for (const double x : xi3) EXPECT_GT(x, 0.0);
  ci99(xi3, "xi3, alpha 8");
  ci99(pluck(a8, a_attempts), "m, alpha 8");
  EXPECT_TRUE(diff(pluck(a1, a_drop), pluck(a8, a_drop), "alpha 1 - 8 drop").covers_zero());
}

TEST(Experiments, AblationBestLenderIndistinguishableFromRandom) {
  const auto best = adaptive_runs(0.3, true, [](ScenarioConfig&) {});
  const auto rnd = adaptive_runs(
      0.3, true, [](ScenarioConfig& c) { c.adaptive.use_best_heuristic = false; });
  EXPECT_TRUE(diff(pluck(best, a_drop), pluck(rnd, a_drop), "Best() - random drop").covers_zero());
  EXPECT_TRUE(diff(pluck(best, a_attempts), pluck(rnd, a_attempts), "Best() - random m")
                  .covers_zero());
  EXPECT_TRUE(diff(pluck(best, a_delay), pluck(rnd, a_delay), "Best() - random AcqT [T]")
                  .covers_zero());
}

TEST(Experiments, AblationLongerWindowDampsModeSwitching) {
  const auto s5 = adaptive_runs(0.7, false, [](ScenarioConfig& c) {
    c.adaptive.window = sim::seconds(5);
  });
  const auto s120 = adaptive_runs(0.7, false, [](ScenarioConfig& c) {
    c.adaptive.window = sim::seconds(120);
  });
  EXPECT_LT(
      versus("mode switches", "W 120 s", pluck(s120, a_switches), "5 s", pluck(s5, a_switches))
          .hi(),
      0.0);
  EXPECT_TRUE(diff(pluck(s120, a_drop), pluck(s5, a_drop), "W 120 s - 5 s drop").covers_zero());
}

TEST(Experiments, AblationStrictFig4RuleIndistinguishable) {
  const auto prose = adaptive_runs(0.7, false, [](ScenarioConfig&) {});
  const auto literal = adaptive_runs(0.7, false, [](ScenarioConfig& c) {
    c.adaptive.strict_fig4 = true;
  });
  EXPECT_TRUE(diff(pluck(literal, a_drop), pluck(prose, a_drop), "strict - prose drop rate")
                  .covers_zero());
  EXPECT_TRUE(diff(pluck(literal, a_msgs), pluck(prose, a_msgs), "strict - prose msgs/call")
                  .covers_zero());
}

// ---- Fairness and starvation (§6): rho 0.95, T = 100 ms, torus -----------

struct Fairness {
  double drop_rate = 0, starved = 0, jain = 0, p99_T = 0, max_T = 0;
};

std::vector<Fairness> fairness_runs(Scheme s) {
  ScenarioConfig cfg = torus(30, 3);
  cfg.latency = sim::milliseconds(100);
  return over_seeds(cfg, [&](const ScenarioConfig& c) {
    const traffic::UniformProfile load(c.arrival_rate_for_load(0.95));
    return run_world(c, s, load, [&](World& w) {
      const auto n = static_cast<std::size_t>(w.grid().n_cells());
      Values offered(n, 0.0), served(n, 0.0), success;
      metrics::SampledSummary delay_T;
      for (const auto& rec : w.records()) {
        if (rec.t_request < c.warmup) continue;
        const auto i = static_cast<std::size_t>(rec.cellId);
        offered[i] += 1;
        if (!proto::is_acquired(rec.outcome)) continue;
        served[i] += 1;
        delay_T.add(double(rec.delay()) / double(w.latency_bound()));
      }
      for (std::size_t i = 0; i < n; ++i)
        if (offered[i] > 0) success.push_back(served[i] / offered[i]);
      const auto agg = w.result().agg;
      return Fairness{agg.drop_rate(), double(agg.starved), metrics::jain_index(success),
                      delay_T.percentile(99), delay_T.max()};
    });
  });
}

TEST(Experiments, FairnessFcaDropsFewestAdaptiveLeadsDynamicJainIndex) {
  // FCA's engineered packing drops the fewest calls at this extreme uniform
  // overload, and no dynamic scheme's Jain index over per-cell success
  // rates is significantly above the adaptive scheme's.
  const auto fca = fairness_runs(Scheme::kFca);
  const auto ad = fairness_runs(Scheme::kAdaptive);
  ci99(pluck(fca, &Fairness::jain), "FCA Jain index");
  for (const Scheme s : all_but(Scheme::kFca)) {
    const auto runs = s == Scheme::kAdaptive ? ad : fairness_runs(s);
    EXPECT_GT(versus("drop rate", name(s), pluck(runs, &Fairness::drop_rate), "FCA",
                     pluck(fca, &Fairness::drop_rate))
                  .lo(),
              0.0);
    if (s == Scheme::kAdaptive) continue;
    EXPECT_LE(versus("Jain index", name(s), pluck(runs, &Fairness::jain), "adaptive",
                     pluck(ad, &Fairness::jain))
                  .lo(),
              0.0);
  }
}

TEST(Experiments, FairnessAdaptiveNeverStarvesAndBoundsItsTail) {
  const auto ad = fairness_runs(Scheme::kAdaptive);
  const auto adv = fairness_runs(Scheme::kAdvancedUpdate);
  for (std::size_t i = 0; i < ad.size(); ++i) {
    EXPECT_EQ(ad[i].starved, 0.0);
    EXPECT_GT(adv[i].starved, 0.0);
    EXPECT_LT(ad[i].max_T, adv[i].max_T);
  }
  ci99(pluck(adv, &Fairness::starved), "advanced update starved");
  ci99(pluck(ad, &Fairness::max_T), "adaptive AcqT max [T]");
  ci99(pluck(adv, &Fairness::max_T), "advanced update AcqT max [T]");
  EXPECT_LT(versus("AcqT p99 [T]", "adaptive", pluck(ad, &Fairness::p99_T), "advanced update",
                   pluck(adv, &Fairness::p99_T))
                .hi(),
            0.0);
}

}  // namespace
}  // namespace dca
