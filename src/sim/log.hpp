// Minimal trace log for simulation debugging.
//
// Nothing logs unless a TraceLog is attached (the transport's per-message
// log costs one null check per send otherwise). Lines carry the simulated
// timestamp so protocol interleavings can be read directly off the trace.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "sim/types.hpp"

namespace dca::sim {

class TraceLog {
 public:
  using Sink = std::function<void(std::string_view line)>;

  TraceLog() = default;

  /// Replaces the output sink (default: stderr).
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Emits one line: "[<t in s>] <what>".
  void emit(SimTime now, std::string_view what);

 private:
  Sink sink_;
};

/// Convenience formatter: streams all arguments into one string.
template <typename... Args>
std::string format_line(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}

}  // namespace dca::sim
