#include "traffic/arrivals.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>
#include <utility>

#include "sim/random.hpp"

namespace dca::traffic {

ArrivalPlan plan_arrivals(int n_cells, const LoadProfile& profile,
                          double mean_holding_s, std::uint64_t seed,
                          sim::SimTime horizon) {
  assert(mean_holding_s > 0.0);
  ArrivalPlan plan;
  const auto n = static_cast<std::size_t>(n_cells);
  plan.by_cell.resize(n);
  for (cell::CellId c = 0; c < n_cells; ++c) {
    const double ceiling = profile.max_rate(c);
    if (ceiling <= 0.0) continue;  // silent cell
    sim::RngStream arrivals =
        sim::RngStream::derive(seed, static_cast<std::uint64_t>(c));
    sim::RngStream holding =
        sim::RngStream::derive(seed, static_cast<std::uint64_t>(c + n_cells));
    std::deque<Candidate>& chain = plan.by_cell[static_cast<std::size_t>(c)];
    for (sim::SimTime t = arrivals.exponential_gap(ceiling); t < horizon;
         t += arrivals.exponential_gap(ceiling)) {
      Candidate cand;
      cand.t = t;
      if (arrivals.uniform() < profile.rate(c, t) / ceiling) {
        // Accepted candidates (and only they) hold for at least 1 us.
        cand.holding = std::max<sim::Duration>(
            sim::from_seconds(holding.exponential_mean(mean_holding_s)), 1);
      }
      chain.push_back(cand);
    }
  }

  // Ids in canonical (arrival, cell) order: a k-way merge over the cells'
  // time-ordered chains.
  using Head = std::pair<sim::SimTime, cell::CellId>;
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
  std::vector<std::size_t> next(n, 0);
  const auto push_next_accepted = [&](cell::CellId c) {
    const std::deque<Candidate>& chain = plan.by_cell[static_cast<std::size_t>(c)];
    std::size_t& i = next[static_cast<std::size_t>(c)];
    while (i < chain.size() && chain[i].holding == 0) ++i;
    if (i < chain.size()) heads.emplace(chain[i].t, c);
  };
  for (cell::CellId c = 0; c < n_cells; ++c) push_next_accepted(c);
  while (!heads.empty()) {
    const cell::CellId c = heads.top().second;
    heads.pop();
    plan.by_cell[static_cast<std::size_t>(c)][next[static_cast<std::size_t>(c)]++]
        .id = ++plan.calls;
    push_next_accepted(c);
  }
  return plan;
}

}  // namespace dca::traffic
