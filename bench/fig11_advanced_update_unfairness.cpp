// E-F11 — Reproduction of the paper's Figure 11 scenario (Section 6):
// the advanced update scheme's timestamp-inversion unfairness, and why
// the proposed adaptive scheme is immune to it.
//
// Scripted scenario, fully deterministic:
//  * spectrum of 7 channels, cluster 7 => every cell owns exactly ONE
//    primary channel;
//  * two requesters c1 (older timestamp) and c2 at hex distance 2;
//  * every other channel colour in their common neighbourhood is occupied
//    by a filler cell visible to both, leaving exactly ONE borrowable
//    channel r*;
//  * an asymmetric latency matrix makes c2's messages overtake c1's
//    (c1 sends at 6 ms, c2 at 1 ms; replies at the default 5 ms).
//
// Under ADVANCED UPDATE: the primaries promise r* to the younger c2 and
// answer the older c1 with a conditional grant -> c1 fails and, with no
// other channel left, drops. Under the ADAPTIVE scheme the borrow request
// goes to ALL neighbours including c2 itself, so the same-channel conflict
// is resolved by timestamp and the older request c1 wins.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "core/adaptive.hpp"
#include "metrics/table.hpp"
#include "net/latency.hpp"
#include "proto/advanced_update.hpp"
#include "runner/world.hpp"

namespace {

using namespace dca;
using runner::Scheme;
using runner::World;

struct Scenario {
  cell::CellId c1 = cell::kNoCell;
  cell::CellId c2 = cell::kNoCell;
  std::vector<cell::CellId> fillers;  // one per remaining foreign colour
  int free_color = -1;
};

runner::ScenarioConfig fig11_config() {
  auto cfg = benchutil::paper_config();
  cfg.n_channels = 7;  // one primary channel per cell
  cfg.adaptive.theta_low = 1;
  cfg.adaptive.theta_high = 2;
  return cfg;
}

// Finds c2 and the filler cells on the topology (scheme-independent).
Scenario plan_scenario(const World& probe) {
  Scenario s;
  const auto& grid = probe.grid();
  const auto& plan = probe.plan();
  s.c1 = 3 * grid.cols() + 3;

  for (const cell::CellId j : grid.interference(s.c1)) {
    if (grid.distance(s.c1, j) != 2) continue;
    if (plan.color_of(j) == plan.color_of(s.c1)) continue;
    if (j <= s.c1) continue;  // ensure c1's Lamport tie-break is older
    // The common neighbourhood must contain a primary of every colour.
    bool lens_complete = true;
    for (int k = 0; k < plan.n_colors(); ++k) {
      if (k == plan.color_of(s.c1) || k == plan.color_of(j)) continue;
      bool found = false;
      for (const cell::CellId p : grid.interference(s.c1)) {
        if (plan.color_of(p) == k && grid.interferes(p, j)) {
          found = true;
          break;
        }
      }
      if (!found) lens_complete = false;
    }
    if (lens_complete) {
      s.c2 = j;
      break;
    }
  }
  if (s.c2 == cell::kNoCell) return s;

  // Reserve one colour as the single borrowable channel; fill the rest.
  for (int k = 0; k < plan.n_colors(); ++k) {
    if (k == plan.color_of(s.c1) || k == plan.color_of(s.c2)) continue;
    if (s.free_color < 0) {
      s.free_color = k;  // r* = the channel of this colour
      continue;
    }
    for (const cell::CellId p : probe.grid().interference(s.c1)) {
      if (plan.color_of(p) == k && probe.grid().interferes(p, s.c2)) {
        s.fillers.push_back(p);
        break;
      }
    }
  }
  return s;
}

std::unique_ptr<net::MatrixLatency> make_latency(const Scenario& s, int n_cells) {
  auto m = std::make_unique<net::MatrixLatency>(sim::milliseconds(5));
  for (cell::CellId j = 0; j < n_cells; ++j) {
    if (j != s.c1) m->set(s.c1, j, sim::milliseconds(6));
    if (j != s.c2) m->set(s.c2, j, sim::milliseconds(1));
  }
  return m;
}

struct Outcome {
  bool c1_acquired = false;
  bool c2_acquired = false;
  std::uint64_t conditional_failures = 0;
};

void testutil_offer(World& w, cell::CellId c, traffic::CallId call,
                    sim::Duration holding) {
  traffic::CallSpec spec;
  spec.id = call;
  spec.cell = c;
  spec.arrival = w.now();
  spec.holding = holding;
  w.submit_call(spec);
}

Outcome run_scheme(Scheme scheme, const Scenario& s) {
  const auto cfg = fig11_config();
  World probe(cfg, scheme);  // cheap: topology identical
  World w(cfg, scheme, nullptr, make_latency(s, probe.grid().n_cells()));

  traffic::CallId id = 1;
  const auto hold = sim::minutes(60);
  // Exhaust c1's and c2's single primaries and occupy the filler colours.
  testutil_offer(w, s.c1, id++, hold);
  testutil_offer(w, s.c2, id++, hold);
  for (const cell::CellId p : s.fillers) testutil_offer(w, p, id++, hold);
  w.run_until(sim::seconds(2));

  // The race: c1 requests first (older timestamp), c2 two ms later, but
  // c2's messages arrive first everywhere.
  testutil_offer(w, s.c1, 100, hold);
  w.run_until(w.now() + sim::milliseconds(2));
  testutil_offer(w, s.c2, 200, hold);
  w.run_until(w.now() + sim::minutes(1));

  Outcome out;
  for (const auto& r : w.collector().records()) {
    if (r.call == 100) out.c1_acquired = proto::is_acquired(r.outcome);
    if (r.call == 200) out.c2_acquired = proto::is_acquired(r.outcome);
  }
  if (scheme == Scheme::kAdvancedUpdate) {
    for (cell::CellId c = 0; c < w.grid().n_cells(); ++c) {
      out.conditional_failures +=
          dynamic_cast<const proto::AdvancedUpdateNode&>(w.node(c))
              .conditional_failures();
    }
  }
  if (w.interference_violations() != 0) {
    std::fprintf(stderr, "INVARIANT FAILURE\n");
    std::exit(1);
  }
  return out;
}

}  // namespace

int main() {
  using metrics::Table;

  benchutil::heading("Figure 11: advanced-update unfairness vs adaptive fairness");

  const auto cfg = fig11_config();
  World probe(cfg, Scheme::kAdvancedUpdate);
  const Scenario s = plan_scenario(probe);
  if (s.c2 == cell::kNoCell || s.fillers.size() + 3 != 7) {
    std::fprintf(stderr, "scenario construction failed\n");
    return 1;
  }
  std::printf(
      "c1 = cell %d (requests first, older timestamp; sends at 6 ms)\n"
      "c2 = cell %d (requests 2 ms later, younger; sends at 1 ms)\n"
      "single borrowable channel: colour %d; %zu filler cells occupy the rest\n\n",
      s.c1, s.c2, s.free_color, s.fillers.size());

  const Outcome adv = run_scheme(Scheme::kAdvancedUpdate, s);
  const Outcome ada = run_scheme(Scheme::kAdaptive, s);

  Table t({"Scheme", "older c1 got channel", "younger c2 got channel",
           "conditional-grant failures"});
  t.add_row({"Advanced Update", adv.c1_acquired ? "yes" : "NO (dropped)",
             adv.c2_acquired ? "yes" : "no",
             std::to_string(adv.conditional_failures)});
  t.add_row({"Adaptive (proposed)", ada.c1_acquired ? "YES" : "no",
             ada.c2_acquired ? "yes" : "no (must defer to c1)", "0"});
  std::printf("%s\n", t.render().c_str());

  const bool reproduced = !adv.c1_acquired && adv.c2_acquired &&
                          adv.conditional_failures > 0 && ada.c1_acquired &&
                          !ada.c2_acquired;
  benchutil::note(reproduced
                      ? "Reproduced: advanced update inverts the timestamp order\n"
                        "(younger request wins via message overtaking; the older\n"
                        "request receives a conditional grant and drops), while the\n"
                        "adaptive scheme resolves the same race in favour of the\n"
                        "older request because its request reaches ALL neighbours."
                      : "WARNING: scenario did not reproduce the expected outcome");
  return reproduced ? 0 : 1;
}
