// Tests for scenario-file parsing/serialization and the JSON writer.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "metrics/json.hpp"
#include "runner/config_file.hpp"

namespace dca {
namespace {

using runner::ScenarioConfig;

TEST(ScenarioFile, AppliesKeysAndComments) {
  ScenarioConfig cfg;
  std::string err;
  const std::string text = R"(
# paper-scale torus
rows = 14
cols = 14
torus = yes
channels = 35      # tight spectrum
latency_ms = 100.5
theta_high = 6
update_pick = round-robin
strict_fig4 = true
)";
  ASSERT_TRUE(runner::apply_scenario_text(text, cfg, err)) << err;
  EXPECT_EQ(cfg.rows, 14);
  EXPECT_EQ(cfg.cols, 14);
  EXPECT_EQ(cfg.wrap, cell::Wrap::kToroidal);
  EXPECT_EQ(cfg.n_channels, 35);
  EXPECT_EQ(cfg.latency, sim::microseconds(100'500));
  EXPECT_EQ(cfg.adaptive.theta_high, 6);
  EXPECT_EQ(cfg.update_pick, proto::ChannelPick::kRoundRobin);
  EXPECT_TRUE(cfg.adaptive.strict_fig4);
  // Untouched keys keep defaults.
  EXPECT_EQ(cfg.cluster, 7);
  EXPECT_EQ(cfg.adaptive.theta_low, 2);
}

TEST(ScenarioFile, RejectsUnknownKeyWithLineNumber) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_FALSE(runner::apply_scenario_text("rows = 8\nbogus = 1\n", cfg, err));
  EXPECT_NE(err.find("line 2"), std::string::npos);
  EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(ScenarioFile, RejectsMalformedValues) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_FALSE(runner::apply_scenario_text("rows = eight\n", cfg, err));
  EXPECT_FALSE(runner::apply_scenario_text("torus = maybe\n", cfg, err));
  EXPECT_FALSE(runner::apply_scenario_text("update_pick = fastest\n", cfg, err));
  EXPECT_FALSE(runner::apply_scenario_text("latency_ms = -1\n", cfg, err));
  EXPECT_FALSE(runner::apply_scenario_text("drop_prob = nan\n", cfg, err));
  EXPECT_FALSE(runner::apply_scenario_text("net_partition = 0 @ 1..\n", cfg, err));
  EXPECT_FALSE(runner::apply_scenario_text("just a line\n", cfg, err));
  EXPECT_NE(err.find("key = value"), std::string::npos);
  // A guard below -1 parses as an int; validation rejects it by name.
  ASSERT_TRUE(runner::apply_scenario_text("handoff_guard = -2\n", cfg, err)) << err;
  EXPECT_NE(runner::validate_options(cfg).find("handoff_guard"), std::string::npos);
}

// Every field of two configs, compared exactly.
void expect_same(const ScenarioConfig& a, const ScenarioConfig& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.interference_radius, b.interference_radius);
  EXPECT_EQ(a.n_channels, b.n_channels);
  EXPECT_EQ(a.cluster, b.cluster);
  EXPECT_EQ(a.wrap, b.wrap);
  EXPECT_EQ(a.greedy_plan, b.greedy_plan);
  EXPECT_EQ(a.mean_holding_s, b.mean_holding_s);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.latency_jitter, b.latency_jitter);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.warmup, b.warmup);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.pin, b.pin);
  EXPECT_EQ(a.stream_metrics, b.stream_metrics);
  EXPECT_EQ(a.max_update_attempts, b.max_update_attempts);
  EXPECT_EQ(a.update_pick, b.update_pick);
  EXPECT_EQ(a.handoff_guard, b.handoff_guard);
  EXPECT_EQ(a.adaptive.theta_low, b.adaptive.theta_low);
  EXPECT_EQ(a.adaptive.theta_high, b.adaptive.theta_high);
  EXPECT_EQ(a.adaptive.window, b.adaptive.window);
  EXPECT_EQ(a.adaptive.alpha, b.adaptive.alpha);
  EXPECT_EQ(a.adaptive.strict_fig4, b.adaptive.strict_fig4);
  EXPECT_EQ(a.adaptive.use_best_heuristic, b.adaptive.use_best_heuristic);
  EXPECT_EQ(a.adaptive.repack, b.adaptive.repack);
  EXPECT_EQ(a.mean_dwell_s, b.mean_dwell_s);
  EXPECT_EQ(a.fault.drop_prob, b.fault.drop_prob);
  EXPECT_EQ(a.fault.dup_prob, b.fault.dup_prob);
  EXPECT_EQ(a.fault.jitter, b.fault.jitter);
  EXPECT_EQ(a.fault.pause_rate_per_min, b.fault.pause_rate_per_min);
  EXPECT_EQ(a.fault.pause_mean_s, b.fault.pause_mean_s);
  EXPECT_EQ(a.fault.crash_rate_per_min, b.fault.crash_rate_per_min);
  EXPECT_EQ(a.fault.crash_mean_s, b.fault.crash_mean_s);
  EXPECT_EQ(a.fault.partitions, b.fault.partitions);
  EXPECT_EQ(a.request_timeout, b.request_timeout);
}

// key -> value of every `key = value` line.
std::map<std::string, std::string> lines_of(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const auto eq = line.find(" = ");
    if (eq != std::string::npos) out[line.substr(0, eq)] = line.substr(eq + 3);
  }
  return out;
}

TEST(ScenarioFile, RoundTripsThroughSerialization) {
  // Durations include values a truncating parser reads back 1 us short
  // (1009 us in ms, 1'000'239 us in minutes, 1982 us in seconds).
  ScenarioConfig cfg;
  cfg.rows = 12;
  cfg.cols = 9;
  cfg.interference_radius = 1;
  cfg.n_channels = 42;
  cfg.cluster = 3;
  cfg.wrap = cell::Wrap::kToroidal;
  cfg.greedy_plan = true;
  cfg.mean_holding_s = 123.456;
  cfg.latency = sim::milliseconds(2);
  cfg.latency_jitter = sim::microseconds(1'009);
  cfg.mean_dwell_s = 45.0;
  cfg.duration = sim::microseconds(45'678'901);
  cfg.warmup = sim::microseconds(1'000'239);
  cfg.seed = (std::uint64_t{1} << 63) + 12345;  // above INT64_MAX
  cfg.max_update_attempts = 4;
  cfg.update_pick = proto::ChannelPick::kLowest;
  cfg.handoff_guard = 3;
  cfg.adaptive.theta_low = 3;
  cfg.adaptive.theta_high = 7;
  cfg.adaptive.alpha = 5;
  cfg.adaptive.window = sim::seconds(7);
  cfg.adaptive.strict_fig4 = true;
  cfg.adaptive.use_best_heuristic = false;
  cfg.adaptive.repack = true;
  cfg.fault.drop_prob = 0.0123456789;
  cfg.fault.dup_prob = 1.0 / 3.0;
  cfg.fault.jitter = sim::microseconds(2'038);
  cfg.fault.pause_rate_per_min = 0.7;
  cfg.fault.pause_mean_s = 2.5;
  cfg.fault.crash_rate_per_min = 0.1;
  cfg.fault.crash_mean_s = 20.25;
  cfg.fault.partitions = {{{0, 1, 8}, sim::seconds(300), sim::seconds(420)},
                          {{9}, sim::microseconds(1'982), sim::seconds(700)}};
  cfg.request_timeout = sim::milliseconds(250);
  cfg.shards = 4;
  cfg.threads = 2;
  cfg.partition = cell::Partition::kStriped;
  cfg.pin = true;
  cfg.stream_metrics = true;

  // Every option the serializer knows carries a non-default value here.
  const std::string text = runner::scenario_to_text(cfg);
  const auto set = lines_of(text);
  const auto defaults = lines_of(runner::scenario_to_text(ScenarioConfig{}));
  EXPECT_EQ(set.size(), defaults.size() + 1) << text;  // + net_partition
  for (const auto& [key, value] : defaults) {
    ASSERT_TRUE(set.count(key)) << key;
    EXPECT_NE(set.at(key), value) << key << " keeps its default";
  }

  ScenarioConfig back;
  std::string err;
  ASSERT_TRUE(runner::apply_scenario_text(text, back, err)) << err;
  expect_same(back, cfg);
  EXPECT_EQ(runner::scenario_to_text(back), text);
}

TEST(ScenarioFile, RejectsOutOfRangeIntegers) {
  for (const char* line : {"rows = 4294967304", "channels = 4294967366", "seed = -1",
                           "seed = 18446744073709551616", "theta_low = -2147483649"}) {
    ScenarioConfig cfg;
    std::string err;
    EXPECT_FALSE(runner::apply_scenario_text(line, cfg, err)) << line;
    const std::string key = std::string(line).substr(0, std::string(line).find(' '));
    EXPECT_NE(err.find("bad value for " + key), std::string::npos) << err;
    EXPECT_EQ(cfg.rows, 8);
    EXPECT_EQ(cfg.n_channels, 70);
    EXPECT_EQ(cfg.seed, 1u);
  }
  // A seed above 2^63 is a valid seed and round-trips.
  ScenarioConfig cfg;
  std::string err;
  ASSERT_TRUE(runner::apply_scenario_text("seed = 9223372036854775809", cfg, err))
      << err;
  EXPECT_EQ(cfg.seed, 9223372036854775809u);
  EXPECT_NE(runner::scenario_to_text(cfg).find("seed = 9223372036854775809\n"),
            std::string::npos);
}

TEST(ScenarioFile, MissingFileReportsError) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_FALSE(runner::load_scenario_file("/nonexistent/scenario.ini", cfg, err));
  EXPECT_NE(err.find("cannot read"), std::string::npos);
}

// ------------------------------------------------------------- JSON -------

TEST(Json, ObjectsArraysAndCommas) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("adaptive");
  w.key("drop");
  w.value(0.25);
  w.key("xs");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.value(false);
  w.null();
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.key("k");
  w.value(std::uint64_t{7});
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"adaptive\",\"drop\":0.25,\"xs\":[1,2,false,null],"
            "\"nested\":{\"k\":7}}");
}

TEST(Json, EscapesStrings) {
  metrics::JsonWriter w;
  w.value("a\"b\\c\nd\te\x01");
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  metrics::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::nan(""));
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,1.5]");
}

TEST(Json, ArrayOfObjects) {
  metrics::JsonWriter w;
  w.begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object();
    w.key("i");
    w.value(i);
    w.end_object();
  }
  w.end_array();
  EXPECT_EQ(w.str(), "[{\"i\":0},{\"i\":1}]");
}

}  // namespace
}  // namespace dca
