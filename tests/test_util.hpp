// Shared fixtures/helpers for protocol and integration tests.
#pragma once

#include <cstdint>

#include "runner/scenario.hpp"
#include "runner/world.hpp"
#include "traffic/call.hpp"

namespace dca::testutil {

/// A small, fast default scenario: 6x6 grid, radius 2, cluster 7, 21
/// channels (3 primaries per cell, so borrowing kicks in quickly in tests).
inline runner::ScenarioConfig small_config() {
  runner::ScenarioConfig c;
  c.rows = 6;
  c.cols = 6;
  c.interference_radius = 2;
  c.n_channels = 21;
  c.cluster = 7;
  c.mean_holding_s = 60.0;
  c.latency = sim::milliseconds(5);
  c.seed = 42;
  c.duration = sim::minutes(10);
  c.warmup = 0;
  // With |PR| = 3 the paper-scale hysteresis (theta_high = 4) could never
  // be reached; scale the thresholds to the primary-set size.
  c.adaptive.theta_low = 1;
  c.adaptive.theta_high = 2;
  return c;
}

/// The paper-scale scenario used by the benches (8x8, 70 channels).
inline runner::ScenarioConfig paper_config() {
  runner::ScenarioConfig c;
  c.rows = 8;
  c.cols = 8;
  c.interference_radius = 2;
  c.n_channels = 70;
  c.cluster = 7;
  c.mean_holding_s = 180.0;
  c.latency = sim::milliseconds(5);
  c.seed = 1;
  c.duration = sim::minutes(30);
  c.warmup = sim::minutes(5);
  return c;
}

/// Submits one call with explicit holding time "by hand" (bypassing the
/// Poisson generator) — the scripted-scenario workhorse.
inline std::uint64_t offer_call(runner::World& world, cell::CellId cellId,
                                traffic::CallId call, sim::Duration holding) {
  traffic::CallSpec spec;
  spec.id = call;
  spec.cell = cellId;
  spec.arrival = world.now();
  spec.holding = holding;
  world.submit_call(spec);
  return call;
}

/// Central cell of a config's grid.
inline cell::CellId center_cell(const runner::ScenarioConfig& c) {
  return (c.rows / 2) * c.cols + c.cols / 2;
}

}  // namespace dca::testutil
