// Unit tests for the metrics layer: summaries, tables, the per-call
// collector with message attribution, and the aggregate ξ/m statistics.
#include <gtest/gtest.h>

#include "metrics/collector.hpp"
#include "metrics/summary.hpp"
#include "metrics/table.hpp"
#include "traffic/mobility.hpp"

namespace dca::metrics {
namespace {

TEST(Summary, BasicStats) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsZeros) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SampledSummary, PercentilesAreExact) {
  SampledSummary s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100 reversed
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 1e-9);
}

TEST(Table, RenderAndCsv) {
  Table t({"scheme", "msgs", "time"});
  t.add_row({"Adaptive", Table::num(0.0, 1), Table::num(0.0, 1)});
  t.add_row({"Basic, Search", "36", "2T"});
  const std::string md = t.render();
  EXPECT_NE(md.find("| scheme"), std::string::npos);
  EXPECT_NE(md.find("Adaptive"), std::string::npos);
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"Basic, Search\""), std::string::npos)
      << "comma-containing fields must be quoted";
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableNum, Precision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

class CollectorFixture : public ::testing::Test {
 protected:
  Collector c;
  // Serials 1..2 are dense (generated first legs); the rest go through
  // the tally's map.
  MessageTally tally{2, /*per_kind=*/true};

  /// The closed record `i` with the tally's counts added, as the engine
  /// completes it at merge time.
  CallRecord completed(std::size_t i) const {
    CallRecord r{c.records().at(i)};
    tally.add_to(r);
    return r;
  }

  Aggregate aggregate(sim::Duration T, sim::SimTime warmup = 0) const {
    std::vector<CallRecord> records;
    for (std::size_t i = 0; i < c.records().size(); ++i) {
      records.push_back(completed(i));
    }
    return aggregate_records(records, T, warmup);
  }
};

TEST_F(CollectorFixture, BillsMessagesToOpenRecord) {
  c.open(1, 100, 5, 0, false);
  tally.add(1, net::MsgKind::kRequest, 1);
  tally.add(1, net::MsgKind::kResponse, 2);
  c.close(1, 2000, proto::Outcome::kAcquiredUpdate, 1, 2, 0);
  ASSERT_EQ(c.records().size(), 1u);
  const CallRecord r = completed(0);
  EXPECT_EQ(r.total_messages(), 3u);
  EXPECT_EQ(r.messages[static_cast<std::size_t>(net::MsgKind::kResponse)], 2u);
  EXPECT_EQ(tally.total(1), 3u);
  EXPECT_EQ(r.delay(), 2000);
}

TEST_F(CollectorFixture, BillsPostCloseMessagesToClosedRecord) {
  const std::uint64_t scripted = traffic::mobility::encode_serial(1, 1);
  c.open(scripted, 100, 5, 0, false);
  c.close(scripted, 10, proto::Outcome::kAcquiredLocal, 0, 0, 0);
  // The end-of-call RELEASE arrives long after the acquisition closed.
  tally.add(scripted, net::MsgKind::kRelease, 1);
  EXPECT_EQ(completed(0).total_messages(), 1u);
  EXPECT_EQ(completed(0).messages[static_cast<std::size_t>(
                net::MsgKind::kRelease)],
            1u);
}

TEST_F(CollectorFixture, UnattributedMessagesCounted) {
  // Bills to serials no record holds are still counted, under their own
  // serial, and never leak into a record.
  c.open(2, 100, 5, 0, false);
  c.close(2, 10, proto::Outcome::kAcquiredLocal, 0, 0, 0);
  tally.add(1, net::MsgKind::kChangeMode, 1);
  tally.add(999, net::MsgKind::kRelease, 2);  // unknown serial
  EXPECT_EQ(tally.total(1), 1u);
  EXPECT_EQ(tally.total(999), 2u);
  EXPECT_EQ(tally.total(998), 0u);
  EXPECT_EQ(completed(0).total_messages(), 0u);
}

TEST(MessageTally, TotalsOnlyAndPerKindAgree) {
  MessageTally totals(3, /*per_kind=*/false);
  MessageTally kinds(3, /*per_kind=*/true);
  const std::uint64_t serials[] = {1, 3, 7,
                                   traffic::mobility::encode_serial(1, 5)};
  std::uint32_t n = 1;
  for (const std::uint64_t s : serials) {
    for (int k = 0; k < net::kNumMsgKinds; ++k, ++n) {
      totals.add(s, static_cast<net::MsgKind>(k), n);
      kinds.add(s, static_cast<net::MsgKind>(k), n);
    }
  }
  for (const std::uint64_t s : serials) {
    EXPECT_EQ(totals.total(s), kinds.total(s)) << s;
    CallRecord r;
    r.serial = s;
    kinds.add_to(r);
    EXPECT_EQ(r.total_messages(), kinds.total(s)) << s;
  }
  EXPECT_EQ(totals.total(2), 0u);
}

TEST_F(CollectorFixture, AggregateComputesXiFractionsAndM) {
  // 2 local, 1 update (3 attempts), 1 search, 1 blocked.
  c.open(1, 1, 0, 0, false);
  c.close(1, 0, proto::Outcome::kAcquiredLocal, 0, 0, 0);
  c.open(2, 2, 1, 0, false);
  c.close(2, 0, proto::Outcome::kAcquiredLocal, 0, 2, 0);
  c.open(3, 3, 2, 0, false);
  c.close(3, 20000, proto::Outcome::kAcquiredUpdate, 3, 4, 0);
  c.open(4, 4, 3, 0, false);
  c.close(4, 70000, proto::Outcome::kAcquiredSearch, 3, 6, 2);
  c.open(5, 5, 4, 0, false);
  c.close(5, 70000, proto::Outcome::kBlockedNoChannel, 3, 0, 0);

  const Aggregate a = aggregate(/*T=*/5000);
  EXPECT_EQ(a.offered, 5u);
  EXPECT_EQ(a.acquired, 4u);
  EXPECT_EQ(a.blocked, 1u);
  EXPECT_DOUBLE_EQ(a.drop_rate(), 0.2);
  EXPECT_DOUBLE_EQ(a.xi1, 0.5);
  EXPECT_DOUBLE_EQ(a.xi2, 0.25);
  EXPECT_DOUBLE_EQ(a.xi3, 0.25);
  EXPECT_DOUBLE_EQ(a.mean_update_attempts, 3.0);
  EXPECT_DOUBLE_EQ(a.mean_borrowing_neighbors, 3.0);  // (0+2+4+6)/4
  EXPECT_DOUBLE_EQ(a.mean_searching_neighbors, 2.0);
  // delay in T: {0, 0, 4, 14} -> mean 4.5
  EXPECT_DOUBLE_EQ(a.delay_in_T.mean(), 4.5);
}

TEST_F(CollectorFixture, WarmupDiscardsEarlyRecords) {
  c.open(1, 1, 0, /*now=*/0, false);
  c.close(1, 0, proto::Outcome::kAcquiredLocal, 0, 0, 0);
  c.open(2, 2, 0, /*now=*/100, false);
  c.close(2, 100, proto::Outcome::kBlockedNoChannel, 0, 0, 0);
  const Aggregate a = aggregate(1, /*warmup=*/50);
  EXPECT_EQ(a.offered, 1u);
  EXPECT_EQ(a.blocked, 1u);
}

TEST_F(CollectorFixture, StarvedAndHandoffTracking) {
  c.open(1, 1, 0, 0, /*is_handoff=*/true);
  c.close(1, 10, proto::Outcome::kBlockedStarved, 10, 0, 0);
  const Aggregate a = aggregate(1);
  EXPECT_EQ(a.starved, 1u);
  EXPECT_EQ(a.handoff_failures, 1u);
  EXPECT_DOUBLE_EQ(a.drop_rate(), 1.0);
}

TEST(JainIndex, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_index({1.0, 1.0, 1.0, 1.0}), 1.0);
  // One participant has everything: J = 1/n.
  EXPECT_DOUBLE_EQ(jain_index({4.0, 0.0, 0.0, 0.0}), 0.25);
  // Classic example: (1+2+3)^2 / (3 * 14) = 36/42.
  EXPECT_NEAR(jain_index({1.0, 2.0, 3.0}), 36.0 / 42.0, 1e-12);
}

TEST(JainIndex, DegenerateInputsAreVacuouslyFair) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
}

TEST(JainIndex, ScaleInvariant) {
  const std::vector<double> a{0.2, 0.5, 0.9};
  std::vector<double> b;
  for (const double x : a) b.push_back(1000.0 * x);
  EXPECT_NEAR(jain_index(a), jain_index(b), 1e-12);
}

TEST(OutcomeNames, AllDistinct) {
  EXPECT_EQ(proto::outcome_name(proto::Outcome::kAcquiredLocal), "acquired-local");
  EXPECT_EQ(proto::outcome_name(proto::Outcome::kBlockedStarved), "blocked-starved");
  EXPECT_TRUE(proto::is_acquired(proto::Outcome::kAcquiredSearch));
  EXPECT_FALSE(proto::is_acquired(proto::Outcome::kBlockedNoChannel));
}

}  // namespace
}  // namespace dca::metrics
