// Message-level unit tests of the adaptive node, driven through MockEnv.
// Each test corresponds to a specific behaviour of the paper's Figs. 2-10:
// what gets sent, to whom, and under which timestamp/mode conditions —
// independent of the full simulator.
#include <gtest/gtest.h>

#include <memory>

#include "cell/grid.hpp"
#include "cell/reuse.hpp"
#include "core/adaptive.hpp"
#include "mock_env.hpp"

namespace dca {
namespace {

using core::AdaptiveNode;
using core::AdaptiveParams;
using testutil::MockEnv;

// One node on an 8x8 grid with 21 channels (3 primaries per cell). The
// node under test is the interior cell 27; its 18 neighbours are scripted.
class AdaptiveUnit : public ::testing::Test {
 protected:
  AdaptiveUnit()
      : grid_(8, 8, 2), plan_(cell::ReusePlan::cluster(grid_, 21, 7)) {
    params_.theta_low = 1;
    params_.theta_high = 2;
    params_.alpha = 2;
    rebuild();
  }

  void rebuild() {
    node_ = std::make_unique<AdaptiveNode>(
        proto::NodeContext{kSelf, &grid_, &plan_, &env_}, params_);
  }

  /// Neighbours of the node under test, ascending.
  [[nodiscard]] std::span<const cell::CellId> in() const {
    return grid_.interference(kSelf);
  }
  [[nodiscard]] std::size_t n_in() const { return in().size(); }

  /// Exhausts the primaries with local requests; the node ends up in
  /// borrowing mode with its 3 primaries in use.
  void exhaust_primaries() {
    node_->request_channel(1);
    node_->request_channel(2);
    node_->request_channel(3);
    ASSERT_EQ(env_.completions().size(), 3u);
    ASSERT_TRUE(node_->is_borrowing());
    env_.clear();
  }

  /// Answers an in-flight status wave with empty Use sets.
  void answer_status_wave() {
    const auto waves = env_.sent_of(net::MsgKind::kChangeMode);
    ASSERT_FALSE(waves.empty());
    const std::uint64_t wave = waves.back().wave;
    const std::uint64_t serial = waves.back().serial;
    for (const cell::CellId j : in()) {
      node_->on_message(testutil::mk_use_reply(env_, j, kSelf, net::ResType::kStatus,
                                               cell::ChannelSet(21), serial, wave));
    }
  }

  static constexpr cell::CellId kSelf = 27;
  cell::HexGrid grid_;
  cell::ReusePlan plan_;
  AdaptiveParams params_;
  MockEnv env_;
  std::unique_ptr<AdaptiveNode> node_;
};

// ------------------------------------------------------------ Fig. 2 ------

TEST_F(AdaptiveUnit, LocalRequestIsSilentAndInstant) {
  node_->request_channel(7);
  ASSERT_EQ(env_.completions().size(), 1u);
  const auto& c = env_.completions()[0];
  EXPECT_EQ(c.outcome, proto::Outcome::kAcquiredLocal);
  EXPECT_TRUE(plan_.primary(kSelf).contains(c.channel));
  EXPECT_EQ(c.attempts, 0);
  EXPECT_TRUE(env_.sent().empty()) << "local mode, no borrowing subscribers";
  EXPECT_EQ(node_->mode(), 0);
}

TEST_F(AdaptiveUnit, ExhaustionPredictionBroadcastsChangeMode) {
  node_->request_channel(1);
  EXPECT_TRUE(env_.sent().empty()) << "s = 2 free primaries, prediction >= 1";
  // Second acquisition: s = 1 with a falling trend, so the linear
  // prediction dips (just) below theta_low = 1 — the node announces the
  // switch one call BEFORE hard exhaustion, which is the predictor's job.
  node_->request_channel(2);
  const auto cms = env_.sent_of(net::MsgKind::kChangeMode);
  ASSERT_EQ(cms.size(), n_in());
  for (const auto& m : cms) EXPECT_EQ(m.mode, 1);
  EXPECT_EQ(node_->mode(), 1);
}

TEST_F(AdaptiveUnit, FourthRequestWaitsForStatusesThenBorrows) {
  node_->request_channel(1);
  node_->request_channel(2);
  node_->request_channel(3);
  env_.clear();
  // Fourth request: node is already in borrowing mode (mode switched on
  // the third acquisition), no free primary -> update round to ALL of IN.
  node_->request_channel(4);
  const auto reqs = env_.sent_of(net::MsgKind::kRequest);
  ASSERT_EQ(reqs.size(), n_in());
  for (const auto& m : reqs) {
    EXPECT_EQ(m.req_type, net::ReqType::kUpdate);
    EXPECT_FALSE(plan_.primary(kSelf).contains(m.channel));
  }
  EXPECT_EQ(node_->mode(), 2);
  EXPECT_TRUE(env_.completions().empty()) << "still awaiting responses";
}

TEST_F(AdaptiveUnit, UnanimousGrantsAcquireWithoutBroadcast) {
  exhaust_primaries();
  node_->request_channel(4);
  const net::Message rnd = env_.sent_of(net::MsgKind::kRequest)[0];
  const cell::ChannelId r = rnd.channel;
  for (const cell::CellId j : in()) {
    node_->on_message(testutil::mk_echo_response(rnd, j, net::ResType::kGrant));
  }
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_EQ(env_.completions()[0].outcome, proto::Outcome::kAcquiredUpdate);
  EXPECT_EQ(env_.completions()[0].channel, r);
  EXPECT_EQ(env_.completions()[0].attempts, 1);
  EXPECT_TRUE(env_.sent_of(net::MsgKind::kAcquisition).empty())
      << "Fig. 3 case mode=2: the grants already informed everyone";
  EXPECT_EQ(node_->mode(), 1);
}

TEST_F(AdaptiveUnit, SingleRejectReleasesGrantersAndRetries) {
  exhaust_primaries();
  node_->request_channel(4);
  const net::Message rnd = env_.sent_of(net::MsgKind::kRequest)[0];
  const cell::ChannelId r = rnd.channel;
  env_.clear();
  // First neighbour rejects, the rest grant.
  bool first = true;
  for (const cell::CellId j : in()) {
    node_->on_message(testutil::mk_echo_response(
        rnd, j, first ? net::ResType::kReject : net::ResType::kGrant));
    first = false;
  }
  // The round failed: RELEASE to each granter, then a fresh round starts.
  const auto rels = env_.sent_of(net::MsgKind::kRelease);
  EXPECT_EQ(rels.size(), n_in() - 1);
  for (const auto& m : rels) EXPECT_EQ(m.channel, r);
  const auto reqs = env_.sent_of(net::MsgKind::kRequest);
  ASSERT_EQ(reqs.size(), n_in()) << "retry round issued immediately";
  EXPECT_TRUE(env_.completions().empty());
  EXPECT_EQ(node_->mode(), 2);
}

TEST_F(AdaptiveUnit, AlphaExhaustionFallsBackToSearch) {
  exhaust_primaries();  // params_.alpha == 2
  node_->request_channel(4);
  for (int round = 0; round < 2; ++round) {
    const net::Message rnd = env_.sent_of(net::MsgKind::kRequest).back();
    env_.clear();
    for (const cell::CellId j : in()) {
      node_->on_message(testutil::mk_echo_response(rnd, j, net::ResType::kReject));
    }
  }
  // After alpha = 2 failed update rounds: a search request to all of IN.
  const auto reqs = env_.sent_of(net::MsgKind::kRequest);
  ASSERT_EQ(reqs.size(), n_in());
  EXPECT_EQ(reqs[0].req_type, net::ReqType::kSearch);
  EXPECT_EQ(node_->mode(), 3);
  EXPECT_TRUE(node_->is_searching());
}

TEST_F(AdaptiveUnit, SearchSelectsFreeChannelAndAnnounces) {
  exhaust_primaries();
  node_->request_channel(4);
  // Force straight to search by rejecting alpha rounds.
  for (int round = 0; round < 2; ++round) {
    const net::Message rnd = env_.sent_of(net::MsgKind::kRequest).back();
    env_.clear();
    for (const cell::CellId j : in())
      node_->on_message(testutil::mk_echo_response(rnd, j, net::ResType::kReject));
  }
  env_.clear();
  // Neighbours report everything busy except channel 20.
  cell::ChannelSet busy = cell::ChannelSet::all(21);
  busy.erase(20);
  busy -= node_->in_use();
  for (const cell::CellId j : in()) {
    node_->on_message(
        testutil::mk_use_reply(env_, j, kSelf, net::ResType::kSearchReply, busy, 4));
  }
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_EQ(env_.completions()[0].outcome, proto::Outcome::kAcquiredSearch);
  EXPECT_EQ(env_.completions()[0].channel, 20);
  const auto acqs = env_.sent_of(net::MsgKind::kAcquisition);
  ASSERT_EQ(acqs.size(), n_in()) << "search acquisition announced to all";
  EXPECT_EQ(acqs[0].acq_type, net::AcqType::kSearch);
  EXPECT_EQ(acqs[0].channel, 20);
  EXPECT_EQ(node_->mode(), 1);
}

TEST_F(AdaptiveUnit, FailedSearchStillAnnounces) {
  exhaust_primaries();
  node_->request_channel(4);
  for (int round = 0; round < 2; ++round) {
    const net::Message rnd = env_.sent_of(net::MsgKind::kRequest).back();
    env_.clear();
    for (const cell::CellId j : in())
      node_->on_message(testutil::mk_echo_response(rnd, j, net::ResType::kReject));
  }
  env_.clear();
  cell::ChannelSet busy = cell::ChannelSet::all(21) - node_->in_use();
  for (const cell::CellId j : in()) {
    node_->on_message(
        testutil::mk_use_reply(env_, j, kSelf, net::ResType::kSearchReply, busy, 4));
  }
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_EQ(env_.completions()[0].outcome, proto::Outcome::kBlockedNoChannel);
  const auto acqs = env_.sent_of(net::MsgKind::kAcquisition);
  ASSERT_EQ(acqs.size(), n_in())
      << "announcement with kNoChannel unblocks waiting neighbours";
  EXPECT_EQ(acqs[0].channel, cell::kNoChannel);
}

// ------------------------------------------------------------ Fig. 4 ------

TEST_F(AdaptiveUnit, UpdateRequestGrantedWhenIdle) {
  node_->on_message(testutil::mk_update_request(in()[0], kSelf, 5,
                                                net::Timestamp{1, in()[0]}, 99));
  const auto resp = env_.sent_of(net::MsgKind::kResponse);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].res_type, net::ResType::kGrant);
  EXPECT_EQ(resp[0].channel, 5);
  EXPECT_TRUE(node_->interfered().contains(5)) << "grant updates I_i";
}

TEST_F(AdaptiveUnit, UpdateRequestRejectedWhenChannelInUse) {
  node_->request_channel(1);  // takes a primary, say p
  const cell::ChannelId p = env_.completions()[0].channel;
  env_.clear();
  node_->on_message(testutil::mk_update_request(in()[0], kSelf, p,
                                                net::Timestamp{1, in()[0]}, 99));
  const auto resp = env_.sent_of(net::MsgKind::kResponse);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].res_type, net::ResType::kReject);
}

TEST_F(AdaptiveUnit, Mode2SameChannelConflictOlderWins) {
  exhaust_primaries();
  node_->request_channel(4);  // our ts is some (count, 27)
  const cell::ChannelId r = env_.sent_of(net::MsgKind::kRequest)[0].channel;
  env_.clear();
  // A YOUNGER request for the same channel: we are older -> reject.
  node_->on_message(testutil::mk_update_request(
      in()[0], kSelf, r, net::Timestamp{1'000'000, in()[0]}, 99));
  ASSERT_EQ(env_.sent_of(net::MsgKind::kResponse).size(), 1u);
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse)[0].res_type,
            net::ResType::kReject);
  env_.clear();
  // An OLDER request for the same channel: it wins -> grant.
  node_->on_message(testutil::mk_update_request(in()[1], kSelf, r,
                                                net::Timestamp{0, in()[1]}, 98));
  ASSERT_EQ(env_.sent_of(net::MsgKind::kResponse).size(), 1u);
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse)[0].res_type,
            net::ResType::kGrant);
}

TEST_F(AdaptiveUnit, Mode2DifferentChannelGrantedUnderProseRule) {
  exhaust_primaries();
  node_->request_channel(4);
  const cell::ChannelId r = env_.sent_of(net::MsgKind::kRequest)[0].channel;
  env_.clear();
  // A younger request for a DIFFERENT free channel: prose rule grants.
  const cell::ChannelId q = (r + 1) % 21 == r ? r + 2 : r + 1;
  node_->on_message(testutil::mk_update_request(
      in()[0], kSelf, q, net::Timestamp{1'000'000, in()[0]}, 99));
  ASSERT_EQ(env_.sent_of(net::MsgKind::kResponse).size(), 1u);
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse)[0].res_type,
            net::ResType::kGrant);
}

TEST_F(AdaptiveUnit, Mode2DifferentChannelRejectedUnderStrictRule) {
  params_.strict_fig4 = true;
  rebuild();
  exhaust_primaries();
  node_->request_channel(4);
  const cell::ChannelId r = env_.sent_of(net::MsgKind::kRequest)[0].channel;
  env_.clear();
  const cell::ChannelId q = (r + 1) % 21 == r ? r + 2 : r + 1;
  node_->on_message(testutil::mk_update_request(
      in()[0], kSelf, q, net::Timestamp{1'000'000, in()[0]}, 99));
  ASSERT_EQ(env_.sent_of(net::MsgKind::kResponse).size(), 1u);
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse)[0].res_type,
            net::ResType::kReject)
      << "Fig. 4 literal: any younger update request is rejected in mode 2";
}

TEST_F(AdaptiveUnit, SearchingNodeDefersYoungerUpdateRequest) {
  exhaust_primaries();
  node_->request_channel(4);
  for (int round = 0; round < 2; ++round) {
    const net::Message rnd = env_.sent_of(net::MsgKind::kRequest).back();
    env_.clear();
    for (const cell::CellId j : in())
      node_->on_message(testutil::mk_echo_response(rnd, j, net::ResType::kReject));
  }
  ASSERT_EQ(node_->mode(), 3);
  env_.clear();
  node_->on_message(testutil::mk_update_request(
      in()[0], kSelf, 10, net::Timestamp{1'000'000, in()[0]}, 99));
  EXPECT_TRUE(env_.sent().empty()) << "deferred, not answered";
  EXPECT_EQ(node_->deferq_size(), 1u);
}

TEST_F(AdaptiveUnit, SearchingNodeRejectsOlderUpdateRequestForUsedChannel) {
  // Regression (DESIGN.md note 11, found by fuzzing): Fig. 4 case 3 grants
  // older update requests unconditionally, but the requester's stale
  // information may point at a channel WE are using — granting it would
  // license co-channel interference. Scenario: we hold a channel, are in
  // search mode, and an OLDER request asks for exactly that channel.
  node_->request_channel(1);
  const cell::ChannelId held = env_.completions()[0].channel;
  node_->request_channel(2);
  node_->request_channel(3);
  node_->request_channel(4);  // all primaries used -> borrow rounds begin
  for (int round = 0; round < 2; ++round) {
    const net::Message rnd = env_.sent_of(net::MsgKind::kRequest).back();
    env_.clear();
    for (const cell::CellId j : in())
      node_->on_message(testutil::mk_echo_response(rnd, j, net::ResType::kReject));
  }
  ASSERT_EQ(node_->mode(), 3);
  env_.clear();
  // An update request with an OLDER timestamp for the channel we hold.
  node_->on_message(testutil::mk_update_request(in()[0], kSelf, held,
                                                net::Timestamp{0, in()[0]}, 99));
  const auto resp = env_.sent_of(net::MsgKind::kResponse);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].res_type, net::ResType::kReject)
      << "in-use channels are never granted, whatever the timestamps";
  EXPECT_EQ(node_->deferq_size(), 0u);
}

TEST_F(AdaptiveUnit, SearchRequestAnsweredImmediatelyWithUseSetWhenIdle) {
  node_->request_channel(1);
  const cell::ChannelId p = env_.completions()[0].channel;
  env_.clear();
  node_->on_message(testutil::mk_search_request(in()[0], kSelf,
                                                net::Timestamp{1, in()[0]}, 99));
  const auto resp = env_.sent_of(net::MsgKind::kResponse);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].res_type, net::ResType::kSearchReply);
  EXPECT_TRUE(env_.payload(resp[0]).use.contains(p));
  EXPECT_EQ(node_->waiting(), 1);
}

// ----------------------------------------------- waiting/pending gate ------

TEST_F(AdaptiveUnit, LocalRequestParksWhileSearchDecisionPending) {
  // A searcher asked us; until its ACQUISITION arrives, our own request
  // must not grab a primary silently.
  node_->on_message(testutil::mk_search_request(in()[0], kSelf,
                                                net::Timestamp{1, in()[0]}, 99));
  ASSERT_EQ(node_->waiting(), 1);
  env_.clear();
  node_->request_channel(50);
  EXPECT_TRUE(env_.completions().empty()) << "parked until waiting == 0";
  // The searcher decides (failed search, say): our request resumes.
  node_->on_message(testutil::mk_acquisition(in()[0], kSelf, net::AcqType::kSearch,
                                             cell::kNoChannel));
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_EQ(env_.completions()[0].outcome, proto::Outcome::kAcquiredLocal);
}

TEST_F(AdaptiveUnit, ParkedRequestAnswersAllSearchesImmediately) {
  // DESIGN.md note 9: the paper's pending_i rule (defer younger searches
  // while parked) deadlocks — a parked request must answer every search
  // immediately and simply wait for all the announcements.
  node_->on_message(testutil::mk_search_request(in()[0], kSelf,
                                                net::Timestamp{1, in()[0]}, 99));
  node_->request_channel(50);  // parks; its ts witnessed {1,...} so count >= 2
  env_.clear();
  // A younger search arrives: answered at once, added to the awaited set.
  node_->on_message(testutil::mk_search_request(
      in()[1], kSelf, net::Timestamp{1'000'000, in()[1]}, 98));
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse).size(), 1u);
  EXPECT_EQ(node_->deferq_size(), 0u);
  // An OLDER search likewise.
  node_->on_message(testutil::mk_search_request(in()[2], kSelf,
                                                net::Timestamp{0, in()[2]}, 97));
  EXPECT_EQ(env_.sent_of(net::MsgKind::kResponse).size(), 2u);
  EXPECT_EQ(node_->waiting(), 3);
}

TEST_F(AdaptiveUnit, ParkedRequestResumesOnlyAfterAllAnnouncements) {
  node_->on_message(testutil::mk_search_request(in()[0], kSelf,
                                                net::Timestamp{1, in()[0]}, 99));
  node_->request_channel(50);  // parked behind searcher in()[0]
  // A second searcher gets answered while we are parked.
  node_->on_message(testutil::mk_search_request(
      in()[1], kSelf, net::Timestamp{1'000'000, in()[1]}, 98));
  ASSERT_EQ(node_->waiting(), 2);
  env_.clear();
  // First announcement: still one outstanding, request stays parked.
  node_->on_message(testutil::mk_acquisition(in()[0], kSelf, net::AcqType::kSearch,
                                             cell::kNoChannel));
  EXPECT_TRUE(env_.completions().empty());
  EXPECT_EQ(node_->waiting(), 1);
  // Second announcement takes channel 0 — our resume must see it and the
  // local acquisition must avoid it.
  node_->on_message(
      testutil::mk_acquisition(in()[1], kSelf, net::AcqType::kSearch, 0));
  ASSERT_EQ(env_.completions().size(), 1u);
  EXPECT_EQ(env_.completions()[0].outcome, proto::Outcome::kAcquiredLocal);
  EXPECT_NE(env_.completions()[0].channel, 0);
}

TEST_F(AdaptiveUnit, DeferredUpdateRequestAnsweredWhenSearchConcludes) {
  // Fig. 3's DeferQ drain: a younger update request deferred during our
  // search is answered right after our decision, against our new Use set.
  exhaust_primaries();
  node_->request_channel(4);
  for (int round = 0; round < 2; ++round) {
    const net::Message rnd = env_.sent_of(net::MsgKind::kRequest).back();
    env_.clear();
    for (const cell::CellId j : in())
      node_->on_message(testutil::mk_echo_response(rnd, j, net::ResType::kReject));
  }
  ASSERT_EQ(node_->mode(), 3);
  // Younger update request for channel 20 arrives mid-search: deferred.
  node_->on_message(testutil::mk_update_request(
      in()[0], kSelf, 20, net::Timestamp{1'000'000, in()[0]}, 99));
  ASSERT_EQ(node_->deferq_size(), 1u);
  env_.clear();
  // The search concludes and takes channel 20 itself.
  cell::ChannelSet busy = cell::ChannelSet::all(21);
  busy.erase(20);
  busy -= node_->in_use();
  for (const cell::CellId j : in())
    node_->on_message(
        testutil::mk_use_reply(env_, j, kSelf, net::ResType::kSearchReply, busy, 4));
  EXPECT_EQ(node_->deferq_size(), 0u);
  // The deferred requester must be REJECTED (we now use channel 20).
  bool saw_reject = false;
  for (const auto& m : env_.sent_of(net::MsgKind::kResponse)) {
    if (m.to == in()[0] && m.res_type == net::ResType::kReject && m.channel == 20)
      saw_reject = true;
  }
  EXPECT_TRUE(saw_reject);
}

// ------------------------------------------------------------ Fig. 5 ------

TEST_F(AdaptiveUnit, ChangeModeMaintainsUpdateSetAndRepliesStatus) {
  node_->request_channel(1);
  const cell::ChannelId p = env_.completions()[0].channel;
  env_.clear();
  node_->on_message(testutil::mk_change_mode(in()[0], kSelf, 1, 7));
  EXPECT_TRUE(node_->update_subscribers().contains(in()[0]));
  const auto resp = env_.sent_of(net::MsgKind::kResponse);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].res_type, net::ResType::kStatus);
  EXPECT_EQ(resp[0].wave, 7u) << "status echoes the wave tag";
  EXPECT_TRUE(env_.payload(resp[0]).use.contains(p));
  env_.clear();
  node_->on_message(testutil::mk_change_mode(in()[0], kSelf, 0));
  EXPECT_FALSE(node_->update_subscribers().contains(in()[0]));
  EXPECT_TRUE(env_.sent().empty()) << "no reply on return-to-local";
}

TEST_F(AdaptiveUnit, LocalAcquisitionAnnouncedOnlyToSubscribers) {
  node_->on_message(testutil::mk_change_mode(in()[3], kSelf, 1));
  node_->on_message(testutil::mk_change_mode(in()[5], kSelf, 1));
  env_.clear();
  node_->request_channel(1);
  const auto acqs = env_.sent_of(net::MsgKind::kAcquisition);
  ASSERT_EQ(acqs.size(), 2u);
  EXPECT_EQ(acqs[0].acq_type, net::AcqType::kNonSearch);
  std::set<cell::CellId> dests{acqs[0].to, acqs[1].to};
  EXPECT_TRUE(dests.contains(in()[3]));
  EXPECT_TRUE(dests.contains(in()[5]));
}

// ------------------------------------------------------- Figs. 7 and 8 ----

TEST_F(AdaptiveUnit, AcquisitionAndReleaseMaintainInterferedSet) {
  node_->on_message(testutil::mk_acquisition(in()[0], kSelf,
                                             net::AcqType::kNonSearch, 9));
  EXPECT_TRUE(node_->interfered().contains(9));
  node_->on_message(testutil::mk_release(in()[0], kSelf, 9));
  EXPECT_FALSE(node_->interfered().contains(9));
}

TEST_F(AdaptiveUnit, StatusSnapshotCannotEraseAPendingGrant) {
  // DESIGN.md faithfulness note 5: we grant channel 5 to a neighbour; its
  // status snapshot (sent before it confirmed) must not clear our record.
  node_->on_message(testutil::mk_update_request(in()[0], kSelf, 5,
                                                net::Timestamp{1, in()[0]}, 99));
  ASSERT_TRUE(node_->interfered().contains(5));
  node_->on_message(testutil::mk_use_reply(env_, in()[0], kSelf, net::ResType::kStatus,
                                           cell::ChannelSet(21), 0, 0));
  EXPECT_TRUE(node_->interfered().contains(5))
      << "grant survives a stale Use-set snapshot";
  // The neighbour's RELEASE (failed round) clears it.
  node_->on_message(testutil::mk_release(in()[0], kSelf, 5));
  EXPECT_FALSE(node_->interfered().contains(5));
}

// ------------------------------------------------------------ Fig. 9 ------

TEST_F(AdaptiveUnit, BorrowedChannelReleaseGoesToWholeRegion) {
  exhaust_primaries();
  node_->request_channel(4);
  const net::Message rnd = env_.sent_of(net::MsgKind::kRequest)[0];
  const cell::ChannelId r = rnd.channel;
  for (const cell::CellId j : in())
    node_->on_message(testutil::mk_echo_response(rnd, j, net::ResType::kGrant));
  env_.clear();
  node_->release_channel(r, 4);
  const auto rels = env_.sent_of(net::MsgKind::kRelease);
  EXPECT_EQ(rels.size(), n_in());
}

TEST_F(AdaptiveUnit, PrimaryReleaseInLocalModeGoesToSubscribersOnly) {
  node_->on_message(testutil::mk_change_mode(in()[2], kSelf, 1));
  env_.clear();
  node_->request_channel(1);
  const cell::ChannelId p = env_.completions()[0].channel;
  env_.clear();
  node_->release_channel(p, 1);
  const auto rels = env_.sent_of(net::MsgKind::kRelease);
  ASSERT_EQ(rels.size(), 1u);
  EXPECT_EQ(rels[0].to, in()[2]);
}

// ---------------------------------------- repack extension (Cox&Reudink) --

TEST_F(AdaptiveUnit, RepackMigratesBorrowedCallOntoFreedPrimary) {
  params_.repack = true;
  rebuild();
  exhaust_primaries();
  // Borrow a channel via a granted update round.
  node_->request_channel(4);
  const net::Message rnd = env_.sent_of(net::MsgKind::kRequest)[0];
  const cell::ChannelId borrowed = rnd.channel;
  for (const cell::CellId j : in())
    node_->on_message(testutil::mk_echo_response(rnd, j, net::ResType::kGrant));
  env_.clear();
  // A primary-holding call ends: repack must fire.
  const cell::ChannelId freed = node_->in_use().first() == borrowed
                                    ? node_->in_use().next_after(borrowed)
                                    : node_->in_use().first();
  ASSERT_TRUE(plan_.primary(kSelf).contains(freed));
  node_->release_channel(freed, 1);
  ASSERT_EQ(env_.reassigned().size(), 1u);
  EXPECT_EQ(env_.reassigned()[0].from_ch, borrowed);
  EXPECT_EQ(env_.reassigned()[0].to_ch, freed);
  EXPECT_FALSE(node_->in_use().contains(borrowed));
  EXPECT_TRUE(node_->in_use().contains(freed));
  // The borrowed channel's return is announced to the whole region.
  const auto rels = env_.sent_of(net::MsgKind::kRelease);
  bool borrowed_released_to_all = false;
  std::size_t borrowed_rel_count = 0;
  for (const auto& m : rels)
    if (m.channel == borrowed) ++borrowed_rel_count;
  borrowed_released_to_all = (borrowed_rel_count == n_in());
  EXPECT_TRUE(borrowed_released_to_all);
}

TEST_F(AdaptiveUnit, RepackWaitsForOutstandingSearchDecisions) {
  params_.repack = true;
  rebuild();
  exhaust_primaries();
  node_->request_channel(4);
  const net::Message rnd = env_.sent_of(net::MsgKind::kRequest)[0];
  const cell::ChannelId borrowed = rnd.channel;
  for (const cell::CellId j : in())
    node_->on_message(testutil::mk_echo_response(rnd, j, net::ResType::kGrant));
  // Answer a search: its decision is now outstanding.
  node_->on_message(testutil::mk_search_request(in()[0], kSelf,
                                                net::Timestamp{1, in()[0]}, 9));
  env_.clear();
  const cell::ChannelId freed = node_->in_use().first() == borrowed
                                    ? node_->in_use().next_after(borrowed)
                                    : node_->in_use().first();
  node_->release_channel(freed, 1);
  EXPECT_TRUE(env_.reassigned().empty())
      << "no silent primary acquisition while a searcher may pick it";
  // The searcher announces (taking nothing); repack can proceed on the
  // next release event... or immediately via the resume path? The gate
  // lifts, but repack re-triggers only on usage-change events — release
  // another channel to prove it works afterwards.
  node_->on_message(testutil::mk_acquisition(in()[0], kSelf, net::AcqType::kSearch,
                                             cell::kNoChannel));
  env_.clear();
  const cell::ChannelId freed2 = (node_->in_use() & plan_.primary(kSelf)).first();
  ASSERT_NE(freed2, cell::kNoChannel);
  node_->release_channel(freed2, 2);
  ASSERT_EQ(env_.reassigned().size(), 1u);
  EXPECT_EQ(env_.reassigned()[0].from_ch, borrowed);
}

TEST_F(AdaptiveUnit, RepackOffByDefault) {
  exhaust_primaries();
  node_->request_channel(4);
  const net::Message rnd = env_.sent_of(net::MsgKind::kRequest)[0];
  const cell::ChannelId borrowed = rnd.channel;
  for (const cell::CellId j : in())
    node_->on_message(testutil::mk_echo_response(rnd, j, net::ResType::kGrant));
  env_.clear();
  const cell::ChannelId freed = node_->in_use().first() == borrowed
                                    ? node_->in_use().next_after(borrowed)
                                    : node_->in_use().first();
  node_->release_channel(freed, 1);
  EXPECT_TRUE(env_.reassigned().empty()) << "paper-faithful default: no repack";
  EXPECT_TRUE(node_->in_use().contains(borrowed));
}

// ------------------------------------------------------------ Fig. 10 -----

TEST_F(AdaptiveUnit, BestAvoidsBorrowingNeighbours) {
  exhaust_primaries();
  // Tell the node that all neighbours except one are borrowing.
  const cell::CellId lender = in()[4];
  for (const cell::CellId j : in()) {
    if (j != lender) node_->on_message(testutil::mk_change_mode(j, kSelf, 1));
  }
  env_.clear();
  node_->request_channel(4);
  // The update round must target a channel the non-borrowing lender can
  // give — since all known Use sets are empty, any free channel qualifies;
  // crucially a round IS attempted (Best() found the lender).
  const auto reqs = env_.sent_of(net::MsgKind::kRequest);
  ASSERT_EQ(reqs.size(), n_in());
  EXPECT_EQ(reqs[0].req_type, net::ReqType::kUpdate);
}

TEST_F(AdaptiveUnit, AllNeighboursBorrowingSkipsStraightToSearch) {
  exhaust_primaries();
  for (const cell::CellId j : in()) {
    node_->on_message(testutil::mk_change_mode(j, kSelf, 1));
  }
  env_.clear();
  node_->request_channel(4);
  const auto reqs = env_.sent_of(net::MsgKind::kRequest);
  ASSERT_EQ(reqs.size(), n_in());
  EXPECT_EQ(reqs[0].req_type, net::ReqType::kSearch)
      << "Best() = -1 when every neighbour is borrowing";
  EXPECT_EQ(node_->mode(), 3);
}

TEST_F(AdaptiveUnit, BorrowPrefersLendersPrimaries) {
  exhaust_primaries();
  node_->request_channel(4);
  const auto reqs = env_.sent_of(net::MsgKind::kRequest);
  ASSERT_FALSE(reqs.empty());
  // All neighbours look identical (empty Use sets); the picked channel
  // must be a primary of SOME interference neighbour — i.e. borrowed from
  // a real lender rather than a random spectrum hole.
  const cell::ChannelId r = reqs[0].channel;
  bool primary_of_neighbor = false;
  for (const cell::CellId j : in()) {
    if (plan_.primary(j).contains(r)) primary_of_neighbor = true;
  }
  EXPECT_TRUE(primary_of_neighbor);
}

}  // namespace
}  // namespace dca
