// A transport between the four mutually-interfering cells of a 2x2 grid
// (interference radius 2), on a one-shard kernel the test drives by hand.
#pragma once

#include <memory>
#include <utility>

#include "cell/grid.hpp"
#include "net/fault.hpp"
#include "net/latency.hpp"
#include "net/link_table.hpp"
#include "net/transport.hpp"
#include "sim/shard.hpp"

namespace dca::testnet {

struct Harness {
  explicit Harness(net::FaultConfig f = {}, std::uint64_t seed = 7,
                   std::unique_ptr<net::LatencyModel> model =
                       std::make_unique<net::FixedLatency>(100))
      : latency(std::move(model)),
        faults(std::move(f)),
        transport(kernel, links, *latency, faults, seed) {}

  /// Runs every pending delivery, ack and retransmission.
  void run() { kernel.run_to_quiescence(); }
  [[nodiscard]] sim::SimTime now() const { return kernel.now(0); }

  cell::HexGrid grid{2, 2, 2};
  net::LinkTable links{grid};
  std::unique_ptr<net::LatencyModel> latency;
  net::FaultConfig faults;
  sim::ShardedKernel kernel{/*n_cells=*/4, /*n_shards=*/1,
                            /*lookahead=*/1, /*n_threads=*/1};
  net::Transport transport;
};

}  // namespace dca::testnet
