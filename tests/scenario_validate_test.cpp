// Tests for scenario validation (fail-fast configuration checking).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "runner/experiment.hpp"
#include "runner/scenario.hpp"
#include "runner/world.hpp"
#include "test_util.hpp"

namespace dca::runner {
namespace {

TEST(ValidateScenario, DefaultsAreValid) {
  EXPECT_EQ(validate_scenario(ScenarioConfig{}), "");
  EXPECT_EQ(validate_scenario(testutil::small_config()), "");
  EXPECT_EQ(validate_scenario(testutil::paper_config()), "");
}

TEST(ValidateScenario, ValidTorusPasses) {
  ScenarioConfig c;
  c.rows = 14;
  c.cols = 14;
  c.wrap = cell::Wrap::kToroidal;
  EXPECT_EQ(validate_scenario(c), "");
}

TEST(ValidateScenario, MisalignedTorusRejected) {
  ScenarioConfig c;
  c.rows = 8;
  c.cols = 8;
  c.wrap = cell::Wrap::kToroidal;
  EXPECT_NE(validate_scenario(c), "");
}

TEST(ValidateScenario, OddRowTorusRejected) {
  ScenarioConfig c;
  c.rows = 7;
  c.cols = 14;
  c.wrap = cell::Wrap::kToroidal;
  EXPECT_NE(validate_scenario(c).find("even row"), std::string::npos);
}

TEST(ValidateScenario, TinyTorusRejected) {
  ScenarioConfig c;
  c.rows = 4;
  c.cols = 4;
  c.wrap = cell::Wrap::kToroidal;
  c.greedy_plan = true;
  EXPECT_NE(validate_scenario(c).find("too small"), std::string::npos);
}

TEST(ValidateScenario, BadClusterRadiusCombos) {
  ScenarioConfig c;
  c.cluster = 3;
  c.interference_radius = 2;
  EXPECT_NE(validate_scenario(c), "");
  c.cluster = 7;
  c.interference_radius = 3;
  EXPECT_NE(validate_scenario(c), "");
  c.cluster = 4;
  c.interference_radius = 1;
  EXPECT_NE(validate_scenario(c).find("cluster sizes 3 and 7"), std::string::npos);
  c.greedy_plan = true;
  c.interference_radius = 3;
  EXPECT_EQ(validate_scenario(c), "") << "greedy supports any radius";
}

TEST(ValidateScenario, ParameterRangeChecks) {
  ScenarioConfig c;
  c.n_channels = 0;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.n_channels = cell::kMaxChannels + 1;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.adaptive.theta_low = 0;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.adaptive.theta_high = c.adaptive.theta_low;
  EXPECT_NE(validate_scenario(c).find("hysteresis"), std::string::npos);
  c = ScenarioConfig{};
  c.mean_holding_s = 0.0;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.max_update_attempts = 0;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.latency_jitter = -1;
  EXPECT_NE(validate_scenario(c).find("latency_jitter"), std::string::npos);
  c = ScenarioConfig{};
  c.mean_dwell_s = -0.5;
  EXPECT_NE(validate_scenario(c).find("dwell"), std::string::npos);
}

TEST(ValidateScenario, CrashKnobChecks) {
  ScenarioConfig c;
  c.fault.crash_rate_per_min = -1.0;
  EXPECT_EQ(validate_scenario(c), "crash rate cannot be negative");
  c = ScenarioConfig{};
  c.fault.crash_mean_s = -0.1;
  EXPECT_EQ(validate_scenario(c), "crash_mean_s cannot be negative");
  // A crash rate with a zero outage length is a contradiction, not a
  // no-op: reject it rather than silently schedule zero-length crashes.
  c = ScenarioConfig{};
  c.fault.crash_rate_per_min = 1.0;
  c.fault.crash_mean_s = 0.0;
  c.request_timeout = sim::milliseconds(400);
  EXPECT_EQ(validate_scenario(c),
            "crash_mean_s must be positive when crashes are enabled");
  // Crashes orphan handshakes; without a request timeout the victims
  // would hang forever.
  c.fault.crash_mean_s = 2.0;
  c.request_timeout = 0;
  EXPECT_EQ(validate_scenario(c),
            "MSS crashes orphan in-flight handshakes; set request_timeout");
  c.request_timeout = sim::milliseconds(400);
  EXPECT_EQ(validate_scenario(c), "");
}

// The engine checks every scenario, not only dcasim: a config built in
// code that dcasim would refuse with exit 2 aborts at set-up with
// validate_scenario's message instead of running.
TEST(ValidateScenarioDeathTest, RunUniformRejectsCrashesWithoutTimeout) {
  ScenarioConfig c = testutil::small_config();
  c.fault.crash_rate_per_min = 1.0;
  c.fault.crash_mean_s = 2.0;
  c.request_timeout = 0;
  EXPECT_DEATH((void)run_uniform(c, Scheme::kAdaptive, 0.5),
               "World: invalid scenario: MSS crashes orphan in-flight "
               "handshakes; set request_timeout");
}

TEST(ValidateScenarioDeathTest, RunUniformRejectsAnUnplannableLoad) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the guard below caps the address space, which the "
                  "sanitizer's shadow mappings already exceed";
#else
  // Refused before the arrival planner allocates anything. The death
  // test's child caps its own address space at 2 GB first, so a planner
  // that did run would die of std::bad_alloc (another message) within
  // seconds instead of growing until the machine runs out of memory.
  const ScenarioConfig c = testutil::small_config();
  const auto capped_run = [&c] {
    rlimit cap{};
    cap.rlim_cur = cap.rlim_max = 2'000'000'000;
    if (setrlimit(RLIMIT_AS, &cap) != 0) std::abort();
    (void)run_uniform(c, Scheme::kFca, 1e308);
  };
  EXPECT_DEATH(capped_run(), "World: invalid scenario: rho too large");
#endif
}

TEST(ValidateScenario, LoadCapCountsCandidatesOverTheHorizon) {
  ScenarioConfig c;
  c.duration = sim::seconds(100);
  // 10^6 calls/s summed over the cells for 100 s: exactly the cap.
  EXPECT_EQ(validate_load(c, 1e6), "");
  const std::string over = validate_load(c, 1.01e6);
  EXPECT_EQ(over.rfind("rho too large", 0), 0u) << over;
  EXPECT_NE(over.find("1.01e+08"), std::string::npos) << over;
  // Overflowing or undefined products are refused too.
  EXPECT_NE(validate_load(c, std::numeric_limits<double>::infinity()), "");
  EXPECT_NE(validate_load(c, std::numeric_limits<double>::quiet_NaN()), "");
  // The paper's default load plans a few thousand candidates.
  EXPECT_EQ(validate_load(c, c.arrival_rate_for_load(0.6) * c.rows * c.cols), "");
}

TEST(ValidateScenarioDeathTest, WorldRejectsAnInvalidReusePlan) {
  ScenarioConfig c;
  c.rows = 8;
  c.cols = 8;
  c.wrap = cell::Wrap::kToroidal;
  EXPECT_DEATH(World(c, Scheme::kFca), "World: invalid scenario: reuse plan invalid");
}

TEST(ValidateScenario, PartitionSpecChecks) {
  ScenarioConfig c;  // 8x8 grid: cells 0..63
  c.request_timeout = sim::milliseconds(400);
  c.fault.partitions = {net::PartitionSpec{{}, sim::seconds(1), sim::seconds(2)}};
  EXPECT_EQ(validate_scenario(c), "partition group must name at least one cell");
  c.fault.partitions = {net::PartitionSpec{{3}, sim::seconds(2), sim::seconds(2)}};
  EXPECT_EQ(validate_scenario(c),
            "partition interval must satisfy start < end");
  c.fault.partitions = {net::PartitionSpec{{64}, sim::seconds(1), sim::seconds(2)}};
  EXPECT_EQ(validate_scenario(c),
            "partition cell 64 outside the grid (cells are 0..63)");
  c.fault.partitions = {net::PartitionSpec{{-1}, sim::seconds(1), sim::seconds(2)}};
  EXPECT_EQ(validate_scenario(c),
            "partition cell -1 outside the grid (cells are 0..63)");
  c.fault.partitions = {net::PartitionSpec{{3, 4}, sim::seconds(1), sim::seconds(2)}};
  EXPECT_EQ(validate_scenario(c), "");
  c.request_timeout = 0;
  EXPECT_EQ(validate_scenario(c),
            "network partitions stall handshakes until the heal; set "
            "request_timeout");
}

TEST(ValidateScenario, ShardedEngineConstraints) {
  ScenarioConfig c;
  c.shards = 0;
  EXPECT_NE(validate_scenario(c), "");
  c = ScenarioConfig{};
  c.shards = c.rows * c.cols + 1;
  EXPECT_NE(validate_scenario(c).find("more shards than cells"),
            std::string::npos);
  // The lookahead comes from the per-link latency floors, so a zero
  // latency has no conservative window to offer — at any shard count.
  c = ScenarioConfig{};
  c.shards = 4;
  c.latency = 0;
  EXPECT_NE(validate_scenario(c).find("latency > 0"), std::string::npos);

  // Jitter and mobility are legal at any shard count: both draw from
  // streams keyed by stable identifiers, not by execution order.
  c = ScenarioConfig{};
  c.shards = 4;
  c.latency_jitter = sim::milliseconds(2);
  EXPECT_EQ(validate_scenario(c), "");
  c.mean_dwell_s = 45.0;
  EXPECT_EQ(validate_scenario(c), "");
  c.shards = 8;
  c.threads = 4;
  c.fault.drop_prob = 0.1;
  c.request_timeout = sim::milliseconds(400);
  EXPECT_EQ(validate_scenario(c), "");
}

constexpr const char* kLatencyMessage =
    "the event engine needs latency > 0 (the per-link latency floors are its "
    "lookahead)";

TEST(ValidateScenario, LatencyMustBePositiveAtEveryShardCount) {
  ScenarioConfig c;
  ASSERT_EQ(c.shards, 1);
  c.latency = 0;
  EXPECT_EQ(validate_scenario(c), kLatencyMessage);
  c.latency = -5;
  EXPECT_EQ(validate_scenario(c), kLatencyMessage);
  c.latency = 1;
  EXPECT_EQ(validate_scenario(c), "");
}

struct Exit {
  int status = -1;  // exit code, or -1 when the process did not exit
  std::string out;
};

// Runs `args` through the dcasim binary and captures stdout (plus stderr
// when `args` redirects it).
Exit run_dcasim(const std::string& args) {
  Exit e;
  FILE* pipe = popen((std::string(DCASIM_PATH) + " " + args).c_str(), "r");
  if (pipe == nullptr) return e;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) e.out += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) e.status = WEXITSTATUS(status);
  return e;
}

TEST(ValidateScenario, DcasimRejectsZeroLatencyWithExitTwo) {
  // The CLI path: rejected up front with the message, never a crash.
  const Exit e = run_dcasim("--latency-ms 0 --duration-min 1 2>&1");
  EXPECT_EQ(e.status, 2) << e.out;
  EXPECT_NE(e.out.find(kLatencyMessage), std::string::npos) << e.out;
}

// Each malformed load flag is rejected before any run, naming the flag.
void expect_flag_rejected(const std::string& flag, const std::string& value) {
  const Exit e = run_dcasim("--duration-min 1 --warmup-min 0 --" + flag + " " + value +
                            " 2>&1");
  EXPECT_EQ(e.status, 2) << "--" << flag << " " << value << ": " << e.out;
  EXPECT_NE(e.out.find("--" + flag + " must be"), std::string::npos) << e.out;
}

TEST(ValidateScenario, DcasimRejectsBadRhoWithExitTwo) {
  // A non-finite rate would never finish planning arrivals; a negative one
  // would run no calls at all.
  for (const char* v : {"nan", "inf", "-1"}) expect_flag_rejected("rho", v);
}

TEST(ValidateScenario, DcasimRejectsUnplannableRhoWithExitTwo) {
  // Finite, so the flag check passes; the load check must refuse it with
  // the other scenario checks, before --dump-config, which exits without
  // running anything: were the check missing, dcasim would print the
  // scenario and exit 0 instead of planning arrivals until memory runs out.
  const Exit e = run_dcasim(
      "--duration-min 1 --warmup-min 0 --rho 1e308 --dump-config 2>&1");
  EXPECT_EQ(e.status, 2) << e.out;
  EXPECT_NE(e.out.find("invalid scenario: rho too large"), std::string::npos)
      << e.out;
}

TEST(ValidateScenario, DcasimRejectsBadHotFactorWithExitTwo) {
  for (const char* v : {"0.5", "nan", "inf"}) expect_flag_rejected("hot-factor", v);
}

TEST(ValidateScenario, DcasimRejectsBadHotCellWithExitTwo) {
  // The default 8x8 grid has cells 0..63; -1 means the centre.
  for (const char* v : {"9999", "64", "-2"}) expect_flag_rejected("hot-cell", v);
}

TEST(ValidateScenario, DcasimRejectsBadSeedsWithExitTwo) {
  for (const char* v : {"0", "-3", "4294967297"}) expect_flag_rejected("seeds", v);
}

TEST(ValidateScenario, DcasimRejectsOutOfRangeIntWithExitTwo) {
  const Exit e = run_dcasim("--rows 4294967304 --dump-config 2>&1");
  EXPECT_EQ(e.status, 2) << e.out;
  EXPECT_NE(e.out.find("bad value for rows"), std::string::npos) << e.out;
}

TEST(ValidateScenario, DcasimJsonReportsTransportBytes) {
  // The reliable transport's byte ledger is 0 unless a link fault is on.
  auto transport_bytes = [](const std::string& faults) {
    const Exit e = run_dcasim(
        "--scheme adaptive --rows 7 --cols 7 --rho 0.6 --duration-min 0.5 "
        "--warmup-min 0.1 --timeout-ms 500 --json" + faults);
    EXPECT_EQ(e.status, 0) << e.out;
    const std::string key = "\"transport_bytes\":";
    const auto at = e.out.find(key);
    EXPECT_NE(at, std::string::npos) << e.out;
    return at == std::string::npos ? -1 : std::stoll(e.out.substr(at + key.size()));
  };
  EXPECT_EQ(transport_bytes(""), 0);
  EXPECT_GT(transport_bytes(" --drop-prob 0.05"), 0);
}

TEST(ValidateScenario, DcasimFlagsMatchConfigFile) {
  // The same values as a scenario file and as flags (key `k` is flag `--k`
  // with `_` -> `-`; a `true` bool is a presence flag) must give the same
  // effective scenario, byte for byte.
  const std::string text =
      "rows = 14\ncols = 14\ntorus = true\nchannels = 35\nholding_s = 97.25\n"
      "latency_ms = 2.5\njitter_ms = 0.75\nduration_min = 0.76131501666666667\n"
      "warmup_min = 0.1\nseed = 18446744073709551557\nmax_update_attempts = 4\n"
      "update_pick = lowest\nhandoff_guard = 3\ntheta_low = 3\n"
      "theta_high = 6\nalpha = 2\nwindow_s = 7\nstrict_fig4 = true\n"
      "repack = true\ndrop_prob = 0.0123456789\ndup_prob = 0.05\n"
      "fault_jitter_ms = 3\npause_rate_per_min = 0.5\npause_mean_s = 2\n"
      "crash_rate_per_min = 0.25\ncrash_mean_s = 10\n"
      "net_partition = 0,1,8 @ 1..2.5; 9 @ 3.000001..4\ntimeout_ms = 250\n"
      "shards = 4\nthreads = 2\npartition = striped\npin = true\n"
      "stream_metrics = true\n";
  const std::string path = testing::TempDir() + "dcasim_flags_match.ini";
  {
    std::ofstream out(path);
    out << text;
  }
  std::string flags;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const auto eq = line.find(" = ");
    std::string flag = line.substr(0, eq);
    std::replace(flag.begin(), flag.end(), '_', '-');
    const std::string value = line.substr(eq + 3);
    flags += " --" + flag + (value == "true" ? "" : " '" + value + "'");
  }

  const Exit from_file = run_dcasim("--dump-config --config " + path);
  const Exit from_flags = run_dcasim("--dump-config" + flags);
  ASSERT_EQ(from_file.status, 0) << from_file.out;
  ASSERT_EQ(from_flags.status, 0) << flags;
  EXPECT_EQ(from_flags.out, from_file.out);
  EXPECT_NE(from_file.out.find("seed = 18446744073709551557\n"), std::string::npos)
      << from_file.out;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dca::runner
