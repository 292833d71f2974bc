#include "runner/config_file.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dca::runner {

namespace {

std::string trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return std::string(s.substr(b, e - b + 1));
}

// -- value codecs ------------------------------------------------------------
// Each codec parses one value type from text and prints it back so that the
// parse of the print is the same value. parse() returns "" on success, else
// what the value should have been (it leaves `out` untouched then).

/// An integer of type T; values outside T's range are rejected, not wrapped.
template <class T>
struct IntegerCodec {
  const char* type;
  std::string parse(const std::string& v, T& out) const {
    T x{};
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
    if (ec == std::errc::result_out_of_range) {
      return std::string("out of ") + type + " range";
    }
    if (ec != std::errc{} || end != v.data() + v.size()) return type;
    out = x;
    return "";
  }
  std::string print(T v) const { return std::to_string(v); }
};

/// Finite doubles, printed in shortest round-trip form.
struct NumberCodec {
  std::string parse(const std::string& v, double& out) const {
    double x = 0.0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
    if (ec != std::errc{} || end != v.data() + v.size() || !std::isfinite(x)) {
      return "number";
    }
    out = x;
    return "";
  }
  std::string print(double v) const {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
  }
};

struct BoolCodec {
  std::string parse(const std::string& v, bool& out) const {
    if (v == "true" || v == "1" || v == "yes" || v == "on") {
      out = true;
    } else if (v == "false" || v == "0" || v == "no" || v == "off") {
      out = false;
    } else {
      return "bool";
    }
    return "";
  }
  std::string print(bool v) const { return v ? "true" : "false"; }
};

/// A sim::Duration written as a number of `unit_us`-microsecond units,
/// rounded to the nearest microsecond (so printed values read back exactly).
struct DurationCodec {
  double unit_us;
  std::string parse(const std::string& v, sim::Duration& out) const {
    double x = 0.0;
    if (!NumberCodec{}.parse(v, x).empty()) return "number";
    const double us = x * unit_us;
    if (!(us >= 0.0 && us < 0x1p63)) return "non-negative duration in range";
    out = std::llround(us);
    return "";
  }
  std::string print(sim::Duration d) const {
    return NumberCodec{}.print(static_cast<double>(d) / unit_us);
  }
};

/// An enum spelled as one of a fixed set of names.
template <class T>
struct ChoiceCodec {
  std::vector<std::pair<std::string_view, T>> names;
  std::string parse(const std::string& v, T& out) const {
    std::string expected;
    for (const auto& [name, value] : names) {
      if (v == name) {
        out = value;
        return "";
      }
      if (!expected.empty()) expected += '|';
      expected += name;
    }
    return expected;
  }
  std::string print(T v) const {
    for (const auto& [name, value] : names) {
      if (value == v) return std::string(name);
    }
    return "";
  }
};

constexpr IntegerCodec<int> kInt{"int"};
constexpr IntegerCodec<std::uint64_t> kU64{"unsigned 64-bit int"};
constexpr NumberCodec kNumber;
constexpr BoolCodec kBool;
constexpr DurationCodec kMs{1e3};
constexpr DurationCodec kSeconds{1e6};
constexpr DurationCodec kMinutes{60e6};

// -- the option table --------------------------------------------------------

/// One scenario option. `parse` applies a value onto a config and returns
/// "" or what the value should have been; `print` returns the config's value
/// ("" = omit the line).
struct Option {
  std::string_view key;
  std::string_view help;
  bool presence_flag = false;  // a bool: `--<flag>` alone sets it to true
  std::function<std::string(const std::string&, ScenarioConfig&)> parse;
  std::function<std::string(const ScenarioConfig&)> print;
};

/// A typed option on the field `get(config)` returns (a generic lambda, so it
/// serves both the parse and the print side).
template <class Codec, class Get>
Option field(std::string_view key, std::string_view help, Codec codec, Get get) {
  return {key, help, std::is_same_v<Codec, BoolCodec>,
          [codec, get](const std::string& v, ScenarioConfig& c) {
            return codec.parse(v, get(c));
          },
          [codec, get](const ScenarioConfig& c) { return codec.print(get(c)); }};
}

constexpr const char* kPartitionForm =
    "cells @ start_s..end_s[; ...], e.g. 0,1,8 @ 300..420";

/// "<cell>[,<cell>...] @ <start_s>..<end_s>" (seconds, decimals allowed).
bool parse_partition_spec(const std::string& v, net::PartitionSpec& out) {
  const auto at = v.find('@');
  if (at == std::string::npos) return false;
  std::istringstream cells(trim(std::string_view(v).substr(0, at)));
  for (std::string tok; std::getline(cells, tok, ',');) {
    if (!kInt.parse(trim(tok), out.cells.emplace_back()).empty()) return false;
  }
  const std::string range = trim(std::string_view(v).substr(at + 1));
  const auto dots = range.find("..");
  return !out.cells.empty() && dots != std::string::npos &&
         kSeconds.parse(trim(std::string_view(range).substr(0, dots)), out.start)
             .empty() &&
         kSeconds.parse(trim(std::string_view(range).substr(dots + 2)), out.end)
             .empty();
}

std::string print_partition_spec(const net::PartitionSpec& p) {
  std::string out;
  for (const cell::CellId c : p.cells) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out + " @ " + kSeconds.print(p.start) + ".." + kSeconds.print(p.end);
}

/// Every scenario option, in scenario_to_text's order.
const std::vector<Option>& options() {
  static const std::vector<Option> table = {
      field("rows", "grid rows", kInt, [](auto& c) -> auto& { return c.rows; }),
      field("cols", "grid columns", kInt, [](auto& c) -> auto& { return c.cols; }),
      field("radius", "interference radius in hops", kInt,
            [](auto& c) -> auto& { return c.interference_radius; }),
      field("channels", "spectrum size", kInt,
            [](auto& c) -> auto& { return c.n_channels; }),
      field("cluster", "reuse cluster size (3 or 7)", kInt,
            [](auto& c) -> auto& { return c.cluster; }),
      Option{"torus", "wraparound grid (rows%14==0, cols%7==0 for cluster 7)", true,
             [](const std::string& v, ScenarioConfig& c) {
               bool b = false;
               std::string why = kBool.parse(v, b);
               if (why.empty()) {
                 c.wrap = b ? cell::Wrap::kToroidal : cell::Wrap::kBounded;
               }
               return why;
             },
             [](const ScenarioConfig& c) {
               return kBool.print(c.wrap == cell::Wrap::kToroidal);
             }},
      field("greedy_plan", "greedy-colouring reuse plan instead of the cluster pattern",
            kBool, [](auto& c) -> auto& { return c.greedy_plan; }),
      field("holding_s", "mean call holding time [s]", kNumber,
            [](auto& c) -> auto& { return c.mean_holding_s; }),
      field("latency_ms", "one-way control latency T [ms]", kMs,
            [](auto& c) -> auto& { return c.latency; }),
      field("jitter_ms", "uniform latency jitter below T [ms]", kMs,
            [](auto& c) -> auto& { return c.latency_jitter; }),
      field("dwell_s", "mean cell dwell time for mobility (0 = off) [s]", kNumber,
            [](auto& c) -> auto& { return c.mean_dwell_s; }),
      field("duration_min", "simulated minutes of traffic", kMinutes,
            [](auto& c) -> auto& { return c.duration; }),
      field("warmup_min", "minutes excluded from statistics", kMinutes,
            [](auto& c) -> auto& { return c.warmup; }),
      field("seed", "RNG seed", kU64, [](auto& c) -> auto& { return c.seed; }),
      field("max_update_attempts", "update-family retry cap", kInt,
            [](auto& c) -> auto& { return c.max_update_attempts; }),
      field("update_pick", "basic update: channel pick (random | lowest | round-robin)",
            ChoiceCodec<proto::ChannelPick>{{{"random", proto::ChannelPick::kRandom},
                                             {"lowest", proto::ChannelPick::kLowest},
                                             {"round-robin",
                                              proto::ChannelPick::kRoundRobin}}},
            [](auto& c) -> auto& { return c.update_pick; }),
      field("handoff_guard",
            "guard channels: block new calls while free <= this (-1 = off)", kInt,
            [](auto& c) -> auto& { return c.handoff_guard; }),
      field("theta_low", "adaptive: enter borrowing below this prediction", kInt,
            [](auto& c) -> auto& { return c.adaptive.theta_low; }),
      field("theta_high", "adaptive: return to local at this prediction", kInt,
            [](auto& c) -> auto& { return c.adaptive.theta_high; }),
      field("alpha", "adaptive: update rounds before searching", kInt,
            [](auto& c) -> auto& { return c.adaptive.alpha; }),
      field("window_s", "adaptive: NFC prediction window [s]", kSeconds,
            [](auto& c) -> auto& { return c.adaptive.window; }),
      field("strict_fig4", "adaptive: literal Fig. 4 mode-2 reject rule", kBool,
            [](auto& c) -> auto& { return c.adaptive.strict_fig4; }),
      field("best_heuristic",
            "adaptive: Best() lender heuristic (false in a file: random lender)", kBool,
            [](auto& c) -> auto& { return c.adaptive.use_best_heuristic; }),
      field("repack", "adaptive: migrate borrowed calls onto freed primaries", kBool,
            [](auto& c) -> auto& { return c.adaptive.repack; }),
      field("drop_prob", "fault: per-frame drop probability [0,0.9]", kNumber,
            [](auto& c) -> auto& { return c.fault.drop_prob; }),
      field("dup_prob", "fault: per-frame duplication probability", kNumber,
            [](auto& c) -> auto& { return c.fault.dup_prob; }),
      field("fault_jitter_ms", "fault: extra per-frame jitter [ms]", kMs,
            [](auto& c) -> auto& { return c.fault.jitter; }),
      field("pause_rate_per_min", "fault: MSS pauses per minute per cell", kNumber,
            [](auto& c) -> auto& { return c.fault.pause_rate_per_min; }),
      field("pause_mean_s", "fault: mean MSS pause length [s]", kNumber,
            [](auto& c) -> auto& { return c.fault.pause_mean_s; }),
      field("crash_rate_per_min", "fault: MSS crashes per minute per cell", kNumber,
            [](auto& c) -> auto& { return c.fault.crash_rate_per_min; }),
      field("crash_mean_s", "fault: mean MSS outage length [s]", kNumber,
            [](auto& c) -> auto& { return c.fault.crash_mean_s; }),
      Option{"net_partition",
             "fault: scheduled partitions 'cells @ start_s..end_s', ';'-separated, "
             "e.g. '0,1,8 @ 300..420; 9 @ 600..700'; appends (repeatable in files)",
             false,
             [](const std::string& v, ScenarioConfig& c) -> std::string {
               std::vector<net::PartitionSpec> specs;
               std::istringstream in(v);
               for (std::string chunk; std::getline(in, chunk, ';');) {
                 if (!parse_partition_spec(chunk, specs.emplace_back())) {
                   return kPartitionForm;
                 }
               }
               if (specs.empty()) return kPartitionForm;
               c.fault.partitions.insert(c.fault.partitions.end(), specs.begin(),
                                         specs.end());
               return "";
             },
             [](const ScenarioConfig& c) {
               std::string out;
               for (const net::PartitionSpec& p : c.fault.partitions) {
                 out += (out.empty() ? "" : "; ") + print_partition_spec(p);
               }
               return out;
             }},
      field("timeout_ms", "protocol request timeout (0 = no timers) [ms]", kMs,
            [](auto& c) -> auto& { return c.request_timeout; }),
      field("shards", "event-engine shards (1 = one event queue)", kInt,
            [](auto& c) -> auto& { return c.shards; }),
      field("threads", "sharded-engine workers (0 = one per shard)", kInt,
            [](auto& c) -> auto& { return c.threads; }),
      field("partition",
            "cell->shard map: blocks (hex blocks) | striped (cell % shards)",
            ChoiceCodec<cell::Partition>{{{"striped", cell::Partition::kStriped},
                                          {"blocks", cell::Partition::kBlocks}}},
            [](auto& c) -> auto& { return c.partition; }),
      field("pin", "pin sharded-engine workers to distinct CPUs (Linux)", kBool,
            [](auto& c) -> auto& { return c.pin; }),
      field("stream_metrics",
            "fold metrics/trace out of the engine at window barriers (bounded memory)",
            kBool, [](auto& c) -> auto& { return c.stream_metrics; }),
  };
  return table;
}

std::string bad_value(const Option& opt, const std::string& why,
                      const std::string& value) {
  return "bad value for " + std::string(opt.key) + " (" + why + "): '" + value + "'";
}

std::string flag_name(std::string_view key) {
  std::string flag(key);
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

}  // namespace

bool apply_scenario_text(const std::string& text, ScenarioConfig& config,
                         std::string& error) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string at = "line " + std::to_string(lineno) + ": ";
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      error = at + "expected key = value";
      return false;
    }
    const std::string key = trim(std::string_view(line).substr(0, eq));
    const std::string val = trim(std::string_view(line).substr(eq + 1));
    const auto& table = options();
    const auto opt = std::find_if(table.begin(), table.end(),
                                  [&](const Option& o) { return o.key == key; });
    if (opt == table.end()) {
      error = at + "unknown key '" + key + "'";
      return false;
    }
    if (const std::string why = opt->parse(val, config); !why.empty()) {
      error = at + bad_value(*opt, why, val);
      return false;
    }
  }
  return true;
}

bool load_scenario_file(const std::string& path, ScenarioConfig& config,
                        std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return apply_scenario_text(buf.str(), config, error);
}

std::string scenario_to_text(const ScenarioConfig& c) {
  std::string out;
  for (const Option& opt : options()) {
    const std::string value = opt.print(c);
    if (!value.empty()) out += std::string(opt.key) + " = " + value + "\n";
  }
  return out;
}

void add_scenario_flags(ArgParser& args) {
  const ScenarioConfig defaults;
  for (const Option& opt : options()) {
    const std::string help(opt.help);
    if (opt.presence_flag) {
      args.add_flag(flag_name(opt.key), help);
    } else {
      args.add_string(flag_name(opt.key), opt.print(defaults), help);
    }
  }
}

bool apply_scenario_flags(const ArgParser& args, ScenarioConfig& config,
                          std::string& error) {
  for (const Option& opt : options()) {
    const std::string flag = flag_name(opt.key);
    if (!args.was_set(flag)) continue;
    const std::string value = opt.presence_flag ? "true" : args.get_string(flag);
    if (const std::string why = opt.parse(value, config); !why.empty()) {
      error = "--" + flag + ": " + bad_value(opt, why, value);
      return false;
    }
  }
  return true;
}

}  // namespace dca::runner
