#include "runner/node_factory.hpp"

#include "core/adaptive.hpp"
#include "proto/advanced_search.hpp"
#include "proto/advanced_update.hpp"
#include "proto/basic_search.hpp"
#include "proto/basic_update.hpp"
#include "proto/fca.hpp"

namespace dca::runner {

std::unique_ptr<proto::AllocatorNode> make_node(const proto::NodeContext& ctx,
                                                Scheme scheme,
                                                const ScenarioConfig& config) {
  switch (scheme) {
    case Scheme::kFca:
      return std::make_unique<proto::FcaNode>(ctx);
    case Scheme::kBasicSearch:
      return std::make_unique<proto::BasicSearchNode>(ctx);
    case Scheme::kBasicUpdate:
      return std::make_unique<proto::BasicUpdateNode>(
          ctx, config.max_update_attempts, config.update_pick);
    case Scheme::kAdvancedUpdate:
      return std::make_unique<proto::AdvancedUpdateNode>(
          ctx, config.max_update_attempts);
    case Scheme::kAdvancedSearch:
      return std::make_unique<proto::AdvancedSearchNode>(
          ctx, config.max_update_attempts);
    case Scheme::kAdaptive:
      return std::make_unique<core::AdaptiveNode>(ctx, config.adaptive);
  }
  return nullptr;
}

}  // namespace dca::runner
