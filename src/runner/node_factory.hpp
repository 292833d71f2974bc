// Scheme -> AllocatorNode construction: every node of the World, on every
// shard, is assembled here.
#pragma once

#include <memory>

#include "proto/allocator.hpp"
#include "runner/scenario.hpp"

namespace dca::runner {

[[nodiscard]] std::unique_ptr<proto::AllocatorNode> make_node(
    const proto::NodeContext& ctx, Scheme scheme, const ScenarioConfig& config);

}  // namespace dca::runner
