#include "sim/log.hpp"

#include <cstdio>
#include <iomanip>

namespace dca::sim {

void TraceLog::emit(SimTime now, std::string_view what) {
  std::ostringstream os;
  os << '[' << std::fixed << std::setprecision(6) << to_seconds(now) << "] "
     << what;
  const std::string line = os.str();
  if (sink_) {
    sink_(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace dca::sim
