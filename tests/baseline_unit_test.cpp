// Message-level unit tests of the four baseline schemes, driven through
// MockEnv: exact send/defer/grant/reject behaviour per protocol rule,
// without the full simulator.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cell/grid.hpp"
#include "cell/reuse.hpp"
#include "mock_env.hpp"
#include "proto/advanced_search.hpp"
#include "proto/advanced_update.hpp"
#include "proto/basic_search.hpp"
#include "proto/basic_update.hpp"
#include "proto/fca.hpp"
#include "traffic/mobility.hpp"

namespace dca {
namespace {

using testutil::MockEnv;

constexpr cell::CellId kSelf = 27;  // interior cell of the 8x8 grid

class BaselineUnit : public ::testing::Test {
 protected:
  BaselineUnit() : grid_(8, 8, 2), plan_(cell::ReusePlan::cluster(grid_, 21, 7)) {}

  [[nodiscard]] proto::NodeContext ctx() {
    return proto::NodeContext{kSelf, &grid_, &plan_, &env_};
  }
  [[nodiscard]] std::span<const cell::CellId> in() const {
    return grid_.interference(kSelf);
  }
  [[nodiscard]] std::size_t n_in() const { return in().size(); }

  cell::HexGrid grid_;
  cell::ReusePlan plan_;
  MockEnv env_;
};

// ------------------------------------------------------- pick policy ------

TEST(ChannelPickPolicy, LowestIsDeterministicMinimum) {
  cell::ChannelSet s(32);
  s.insert(7);
  s.insert(3);
  s.insert(19);
  sim::RngStream rng(1);
  cell::ChannelId cursor = cell::kNoChannel;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(proto::pick_channel(s, proto::ChannelPick::kLowest, rng, cursor), 3);
  }
}

TEST(ChannelPickPolicy, RoundRobinCyclesThroughMembers) {
  cell::ChannelSet s(32);
  s.insert(3);
  s.insert(7);
  s.insert(19);
  sim::RngStream rng(1);
  cell::ChannelId cursor = cell::kNoChannel;
  EXPECT_EQ(proto::pick_channel(s, proto::ChannelPick::kRoundRobin, rng, cursor), 3);
  EXPECT_EQ(proto::pick_channel(s, proto::ChannelPick::kRoundRobin, rng, cursor), 7);
  EXPECT_EQ(proto::pick_channel(s, proto::ChannelPick::kRoundRobin, rng, cursor), 19);
  EXPECT_EQ(proto::pick_channel(s, proto::ChannelPick::kRoundRobin, rng, cursor), 3)
      << "wraps to the start";
}

TEST(ChannelPickPolicy, RandomStaysInSetAndCoversIt) {
  cell::ChannelSet s(64);
  s.insert(1);
  s.insert(30);
  s.insert(63);
  sim::RngStream rng(2);
  cell::ChannelId cursor = cell::kNoChannel;
  std::set<cell::ChannelId> seen;
  for (int i = 0; i < 200; ++i) {
    const auto r = proto::pick_channel(s, proto::ChannelPick::kRandom, rng, cursor);
    EXPECT_TRUE(s.contains(r));
    seen.insert(r);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(ChannelPickPolicy, NamesAreStable) {
  EXPECT_STREQ(proto::channel_pick_name(proto::ChannelPick::kRandom), "random");
  EXPECT_STREQ(proto::channel_pick_name(proto::ChannelPick::kLowest), "lowest");
  EXPECT_STREQ(proto::channel_pick_name(proto::ChannelPick::kRoundRobin),
               "round-robin");
}

// ------------------------------------------------------- guard channels ---

// handoff_guard = 2 on an FCA cell with 3 primaries: a new call (hop 0)
// needs more than 2 believed-free channels; a handoff leg (hop 1) is
// served regardless.
TEST_F(BaselineUnit, HandoffGuardGuardsNewCallsOnly) {
  proto::NodeContext c = ctx();
  c.handoff_guard = 2;
  proto::FcaNode node(c);
  using traffic::mobility::encode_serial;

  node.request_channel(encode_serial(1, 0));  // 3 free > 2: admitted
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_EQ(env_.completions()[0].outcome, proto::Outcome::kAcquiredLocal);

  node.request_channel(encode_serial(2, 0));  // 2 free <= 2: gated
  ASSERT_EQ(env_.completions().size(), 2u);
  EXPECT_EQ(env_.completions()[1].outcome, proto::Outcome::kBlockedNoChannel);
  EXPECT_EQ(env_.completions()[1].attempts, 0);

  node.request_channel(encode_serial(3, 1));  // handoff leg: served
  ASSERT_EQ(env_.completions().size(), 3u);
  EXPECT_EQ(env_.completions()[2].outcome, proto::Outcome::kAcquiredLocal);
  EXPECT_EQ(node.in_use().size(), 2);
  EXPECT_TRUE(env_.sent().empty());
}

// ------------------------------------------------------- basic search -----

TEST_F(BaselineUnit, SearchQueriesWholeRegionThenSelects) {
  proto::BasicSearchNode node(ctx());
  node.request_channel(1);
  const auto reqs = env_.sent_of(net::MsgKind::kRequest);
  ASSERT_EQ(reqs.size(), n_in());
  std::set<cell::CellId> dests;
  for (const auto& m : reqs) dests.insert(m.to);
  EXPECT_EQ(dests.size(), n_in()) << "one request per region member";
  EXPECT_TRUE(node.is_searching());

  // Replies: everything busy except channel 13.
  cell::ChannelSet busy = cell::ChannelSet::all(21);
  busy.erase(13);
  for (const cell::CellId j : in()) {
    node.on_message(
        testutil::mk_use_reply(env_, j, kSelf, net::ResType::kSearchReply, busy, 1));
  }
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_EQ(env_.completions()[0].channel, 13);
  EXPECT_EQ(env_.completions()[0].outcome, proto::Outcome::kAcquiredSearch);
  EXPECT_FALSE(node.is_searching());
}

TEST_F(BaselineUnit, SearchDefersYoungerAnswersOlder) {
  proto::BasicSearchNode node(ctx());
  node.request_channel(1);  // our ts: count 1
  env_.clear();
  // Younger search request: deferred.
  node.on_message(testutil::mk_search_request(in()[0], kSelf,
                                              net::Timestamp{50, in()[0]}, 9));
  EXPECT_TRUE(env_.sent().empty());
  // Older search request: answered immediately.
  node.on_message(
      testutil::mk_search_request(in()[1], kSelf, net::Timestamp{0, in()[1]}, 8));
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse).size(), 1u);
}

TEST_F(BaselineUnit, SearchSelectionWaitsForAnsweredOlderSearcher) {
  proto::BasicSearchNode node(ctx());
  node.request_channel(1);
  // We answer an older searcher mid-search...
  node.on_message(
      testutil::mk_search_request(in()[0], kSelf, net::Timestamp{0, in()[0]}, 8));
  env_.clear();
  // ...then our replies complete, but we must not select yet.
  const cell::ChannelSet none(21);
  for (const cell::CellId j : in()) {
    node.on_message(
        testutil::mk_use_reply(env_, j, kSelf, net::ResType::kSearchReply, none, 1));
  }
  EXPECT_TRUE(env_.completions().empty()) << "awaiting the older decision";
  // The older searcher announces: it took channel 0.
  node.on_message(
      testutil::mk_acquisition(in()[0], kSelf, net::AcqType::kSearch, 0));
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_NE(env_.completions()[0].channel, 0)
      << "the announced channel is excluded from our selection";
}

TEST_F(BaselineUnit, SearchDeferredReplySentAfterOwnDecision) {
  proto::BasicSearchNode node(ctx());
  node.request_channel(1);
  node.on_message(testutil::mk_search_request(in()[0], kSelf,
                                              net::Timestamp{50, in()[0]}, 9));
  env_.clear();
  const cell::ChannelSet none(21);
  for (const cell::CellId j : in()) {
    node.on_message(
        testutil::mk_use_reply(env_, j, kSelf, net::ResType::kSearchReply, none, 1));
  }
  // Decision made: announcement to region + the deferred reply, which must
  // include our fresh acquisition.
  const auto resp = env_.sent_of(net::MsgKind::kResponse);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].to, in()[0]);
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_TRUE(env_.payload(resp[0]).use.contains(env_.completions()[0].channel));
}

// ------------------------------------------------------- basic update -----

TEST_F(BaselineUnit, UpdateAsksPermissionForOneChannel) {
  proto::BasicUpdateNode node(ctx(), 10);
  node.request_channel(1);
  const auto reqs = env_.sent_of(net::MsgKind::kRequest);
  ASSERT_EQ(reqs.size(), n_in());
  const cell::ChannelId r = reqs[0].channel;
  for (const auto& m : reqs) EXPECT_EQ(m.channel, r);
  EXPECT_TRUE(node.has_pending_attempt());

  for (const cell::CellId j : in()) {
    node.on_message(testutil::mk_echo_response(reqs[0], j, net::ResType::kGrant));
  }
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_EQ(env_.completions()[0].channel, r);
  EXPECT_EQ(env_.completions()[0].attempts, 1);
  // Success is broadcast so the whole region updates its mirrors.
  EXPECT_EQ(env_.sent_of(net::MsgKind::kAcquisition).size(), n_in());
}

TEST_F(BaselineUnit, UpdateRejectTriggersReleaseAndRetryWithNewTimestamp) {
  proto::BasicUpdateNode node(ctx(), 10);
  node.request_channel(1);
  const auto first = env_.sent_of(net::MsgKind::kRequest);
  const net::Timestamp ts1 = first[0].ts;
  env_.clear();
  bool rejected_one = false;
  for (const cell::CellId j : in()) {
    node.on_message(testutil::mk_echo_response(
        first[0], j, rejected_one ? net::ResType::kGrant : net::ResType::kReject));
    rejected_one = true;
  }
  const auto rels = env_.sent_of(net::MsgKind::kRelease);
  EXPECT_EQ(rels.size(), n_in() - 1) << "grants returned to granters";
  const auto retry = env_.sent_of(net::MsgKind::kRequest);
  ASSERT_EQ(retry.size(), n_in());
  EXPECT_TRUE(ts1 < retry[0].ts) << "each attempt carries a fresh timestamp";
}

TEST_F(BaselineUnit, UpdateReceiverGrantsIdleRejectsBusy) {
  proto::BasicUpdateNode node(ctx(), 10);
  // Occupy a channel first.
  node.request_channel(1);
  const net::Message rnd = env_.sent_of(net::MsgKind::kRequest)[0];
  const cell::ChannelId mine = rnd.channel;
  for (const cell::CellId j : in())
    node.on_message(testutil::mk_echo_response(rnd, j, net::ResType::kGrant));
  env_.clear();
  node.on_message(testutil::mk_update_request(in()[0], kSelf, mine,
                                              net::Timestamp{1, in()[0]}, 9));
  ASSERT_EQ(env_.sent_of(net::MsgKind::kResponse).size(), 1u);
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse)[0].res_type,
            net::ResType::kReject);
  env_.clear();
  const cell::ChannelId other = mine == 0 ? 1 : 0;
  node.on_message(testutil::mk_update_request(in()[0], kSelf, other,
                                              net::Timestamp{2, in()[0]}, 9));
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse)[0].res_type,
            net::ResType::kGrant);
  EXPECT_TRUE(node.interfered().contains(other));
}

TEST_F(BaselineUnit, UpdateSameChannelConflictYoungerAborts) {
  proto::BasicUpdateNode node(ctx(), 10);
  node.request_channel(1);
  const net::Message rnd = env_.sent_of(net::MsgKind::kRequest)[0];
  const cell::ChannelId r = rnd.channel;
  env_.clear();
  // An OLDER request for the same channel arrives: we grant and abort.
  node.on_message(
      testutil::mk_update_request(in()[0], kSelf, r, net::Timestamp{0, in()[0]}, 9));
  ASSERT_EQ(env_.sent_of(net::MsgKind::kResponse).size(), 1u);
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse)[0].res_type,
            net::ResType::kGrant)
      << "the older request wins";
  env_.clear();
  // Our own responses come back all-grant, but the attempt was aborted:
  // the node must retry (with a different channel), not acquire r.
  for (const cell::CellId j : in()) {
    node.on_message(testutil::mk_echo_response(rnd, j, net::ResType::kGrant));
  }
  EXPECT_TRUE(env_.completions().empty());
  const auto retry = env_.sent_of(net::MsgKind::kRequest);
  ASSERT_EQ(retry.size(), n_in());
  EXPECT_NE(retry[0].channel, r);
}

TEST_F(BaselineUnit, UpdateStarvesAtAttemptCap) {
  proto::BasicUpdateNode node(ctx(), 2);
  node.request_channel(1);
  for (int round = 0; round < 2; ++round) {
    const net::Message rnd = env_.sent_of(net::MsgKind::kRequest).back();
    env_.clear();
    for (const cell::CellId j : in())
      node.on_message(testutil::mk_echo_response(rnd, j, net::ResType::kReject));
  }
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_EQ(env_.completions()[0].outcome, proto::Outcome::kBlockedStarved);
  EXPECT_EQ(env_.completions()[0].attempts, 2);
}

// ---------------------------------------------------- advanced update -----

TEST_F(BaselineUnit, AdvancedUpdatePrimaryIsInstantWithBroadcast) {
  proto::AdvancedUpdateNode node(ctx(), 10);
  node.request_channel(1);
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_EQ(env_.completions()[0].outcome, proto::Outcome::kAcquiredLocal);
  EXPECT_TRUE(plan_.primary(kSelf).contains(env_.completions()[0].channel));
  EXPECT_EQ(env_.sent_of(net::MsgKind::kAcquisition).size(), n_in());
  EXPECT_TRUE(env_.sent_of(net::MsgKind::kRequest).empty());
}

TEST_F(BaselineUnit, AdvancedUpdateBorrowTargetsOnlyChannelPrimaries) {
  proto::AdvancedUpdateNode node(ctx(), 10);
  for (int i = 0; i < 3; ++i) node.request_channel(static_cast<std::uint64_t>(i) + 1);
  env_.clear();
  node.request_channel(4);
  const auto reqs = env_.sent_of(net::MsgKind::kRequest);
  ASSERT_FALSE(reqs.empty());
  ASSERT_LE(reqs.size(), 3u);
  const cell::ChannelId r = reqs[0].channel;
  for (const auto& m : reqs) {
    EXPECT_EQ(m.channel, r);
    EXPECT_TRUE(plan_.is_primary(m.to, r)) << "request goes to NP(c, r) only";
    EXPECT_TRUE(grid_.interferes(kSelf, m.to));
  }
}

TEST_F(BaselineUnit, AdvancedUpdatePrimaryOwnerPromisesOnceThenConditional) {
  proto::AdvancedUpdateNode node(ctx(), 10);
  // Pick one of OUR primary channels as the contested resource.
  const cell::ChannelId r = plan_.primary(kSelf).first();
  // A first (younger) request gets the promise.
  node.on_message(testutil::mk_update_request(in()[0], kSelf, r,
                                              net::Timestamp{10, in()[0]}, 9));
  ASSERT_EQ(env_.sent_of(net::MsgKind::kResponse).size(), 1u);
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse)[0].res_type,
            net::ResType::kGrant);
  env_.clear();
  // An OLDER request arrives while the promise is outstanding: the Fig. 11
  // flaw — conditional grant (priority acknowledged, promise kept).
  node.on_message(
      testutil::mk_update_request(in()[1], kSelf, r, net::Timestamp{1, in()[1]}, 8));
  ASSERT_EQ(env_.sent_of(net::MsgKind::kResponse).size(), 1u);
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse)[0].res_type,
            net::ResType::kConditionalGrant);
  env_.clear();
  // A second YOUNGER request is rejected outright.
  node.on_message(testutil::mk_update_request(in()[2], kSelf, r,
                                              net::Timestamp{99, in()[2]}, 7));
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse)[0].res_type,
            net::ResType::kReject);
}

TEST_F(BaselineUnit, AdvancedUpdatePromiseBlocksOwnUse) {
  proto::AdvancedUpdateNode node(ctx(), 10);
  // Promise away all three of our primaries.
  int promised = 0;
  for (cell::ChannelId r = plan_.primary(kSelf).first(); r != cell::kNoChannel;
       r = plan_.primary(kSelf).next_after(r)) {
    node.on_message(testutil::mk_update_request(
        in()[0], kSelf, r, net::Timestamp{static_cast<std::uint64_t>(10 + promised),
                                          in()[0]},
        static_cast<std::uint64_t>(9 + promised)));
    ++promised;
  }
  ASSERT_EQ(promised, 3);
  env_.clear();
  // Our own request must NOT take a promised primary: it borrows instead.
  node.request_channel(1);
  EXPECT_TRUE(env_.completions().empty() ||
              env_.completions()[0].outcome != proto::Outcome::kAcquiredLocal);
  EXPECT_FALSE(env_.sent_of(net::MsgKind::kRequest).empty());
}

// ---------------------------------------------------- advanced search -----

TEST_F(BaselineUnit, AdvancedSearchRepliesCarryAllocatedAndBusySets) {
  proto::AdvancedSearchNode node(ctx(), 10);
  // Cold node answers a search with empty sets.
  node.on_message(
      testutil::mk_search_request(in()[0], kSelf, net::Timestamp{1, in()[0]}, 9));
  const auto resp = env_.sent_of(net::MsgKind::kResponse);
  ASSERT_EQ(resp.size(), 1u);
  ASSERT_NE(resp[0].sets, net::kNoSets) << "the reply must carry its sets";
  const net::SetPayload& sets = env_.payload(resp[0]);
  EXPECT_TRUE(sets.use.empty());
  EXPECT_TRUE(sets.alloc.empty());
  // Both are the node's own sets over the spectrum, not defaults.
  EXPECT_EQ(sets.use.universe(), 21);
  EXPECT_EQ(sets.alloc.universe(), 21);
}

TEST_F(BaselineUnit, AdvancedSearchOwnerAgreesThenSecondRequesterDenied) {
  proto::AdvancedSearchNode node(ctx(), 10);
  // Give the node one allocated idle channel via a full search cycle.
  node.request_channel(1);
  for (const cell::CellId j : in()) {
    node.on_message(env_.with_sets(
        testutil::mk_response(j, kSelf, net::ResType::kSearchReply,
                              cell::kNoChannel, 1),
        {cell::ChannelSet(21), cell::ChannelSet(21)}));
  }
  ASSERT_EQ(env_.completions().size(), 1u);
  const cell::ChannelId r = env_.completions()[0].channel;
  node.release_channel(r, 1);  // idle but still allocated
  EXPECT_TRUE(node.allocated().contains(r));
  env_.clear();

  // First transfer request: AGREE (and the channel is reserved).
  net::Message t1;
  t1.kind = net::MsgKind::kTransfer;
  t1.transfer_op = net::TransferOp::kRequest;
  t1.channel = r;
  t1.from = in()[0];
  t1.to = kSelf;
  t1.serial = 42;
  node.on_message(t1);
  auto sent = env_.sent_of(net::MsgKind::kTransfer);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].transfer_op, net::TransferOp::kAgree);
  env_.clear();

  // Second requester for the same channel: DENY.
  net::Message t2 = t1;
  t2.from = in()[1];
  t2.serial = 43;
  node.on_message(t2);
  sent = env_.sent_of(net::MsgKind::kTransfer);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].transfer_op, net::TransferOp::kDeny);
  EXPECT_EQ(node.transfer_denials(), 1u);
  env_.clear();

  // KEEP from the first: we deallocate and announce region-wide.
  net::Message t3 = t1;
  t3.transfer_op = net::TransferOp::kKeep;
  node.on_message(t3);
  EXPECT_FALSE(node.allocated().contains(r));
  EXPECT_EQ(node.transfers_out(), 1u);
  EXPECT_EQ(env_.sent_of(net::MsgKind::kRelease).size(), n_in());
}

TEST_F(BaselineUnit, AdvancedSearchAbortUnlocksOffer) {
  proto::AdvancedSearchNode node(ctx(), 10);
  node.request_channel(1);
  for (const cell::CellId j : in()) {
    node.on_message(env_.with_sets(
        testutil::mk_response(j, kSelf, net::ResType::kSearchReply,
                              cell::kNoChannel, 1),
        {cell::ChannelSet(21), cell::ChannelSet(21)}));
  }
  const cell::ChannelId r = env_.completions()[0].channel;
  node.release_channel(r, 1);
  env_.clear();

  net::Message t1;
  t1.kind = net::MsgKind::kTransfer;
  t1.transfer_op = net::TransferOp::kRequest;
  t1.channel = r;
  t1.from = in()[0];
  t1.to = kSelf;
  t1.serial = 42;
  node.on_message(t1);
  net::Message abort = t1;
  abort.transfer_op = net::TransferOp::kAbort;
  node.on_message(abort);
  env_.clear();
  // After the abort, a new requester can get the channel again.
  net::Message t2 = t1;
  t2.from = in()[1];
  node.on_message(t2);
  EXPECT_EQ(env_.sent_of(net::MsgKind::kTransfer)[0].transfer_op,
            net::TransferOp::kAgree);
}

}  // namespace
}  // namespace dca
