// Scenario files: load a ScenarioConfig from a simple `key = value` text
// format (one option per line, `#` comments), so experiment sweeps can be
// version-controlled instead of encoded in shell history.
//
//   # paper-scale torus
//   rows = 14
//   cols = 14
//   torus = true
//   channels = 70
//   theta_low = 2
//   theta_high = 4
//
// Unknown keys and malformed values are errors. Every option is declared
// once, in config_file.cpp's option table; the file parser, the serializer
// and the command-line flags (key `k` is flag `--k` with `_` -> `-`) all
// read that one declaration.
#pragma once

#include <string>

#include "runner/cli.hpp"
#include "runner/scenario.hpp"

namespace dca::runner {

/// Applies `text` (the file contents) onto `config`. Returns true on
/// success; on failure returns false and sets `error` to a message with a
/// 1-based line number.
[[nodiscard]] bool apply_scenario_text(const std::string& text,
                                       ScenarioConfig& config, std::string& error);

/// Reads and applies a scenario file. Returns false with `error` set when
/// the file cannot be read or parsed.
[[nodiscard]] bool load_scenario_file(const std::string& path,
                                      ScenarioConfig& config, std::string& error);

/// Serializes a config back to the same format. Round-trips exactly:
/// apply_scenario_text(scenario_to_text(c)) onto ScenarioConfig{} gives c.
[[nodiscard]] std::string scenario_to_text(const ScenarioConfig& config);

/// Registers one flag per scenario option: `--<key>` with `_` -> `-`. Bool
/// options are presence flags (setting the key to true); the others take a
/// value in the file grammar. Help shows ScenarioConfig{}'s defaults.
void add_scenario_flags(ArgParser& args);

/// Applies the scenario flags the user set (and only those) onto `config`.
/// Returns false with `error` naming the flag and key on a bad value.
[[nodiscard]] bool apply_scenario_flags(const ArgParser& args,
                                        ScenarioConfig& config, std::string& error);

}  // namespace dca::runner
