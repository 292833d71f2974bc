// trace_diff: structural comparison of two structured-trace JSONL files
// (the --trace output of dcasim). Reports the first diverging event with
// surrounding context, or confirms the traces are identical.
//
//   $ trace_diff a.jsonl b.jsonl
//   $ trace_diff --context 5 a.jsonl b.jsonl
//
// Exit status: 0 identical, 1 diverging, 2 usage/parse error. The tool
// exists for the engine's determinism contract: when two runs
// that must be bit-identical are not, the first diverging event — not a
// megabyte of failed EXPECT_EQ output — is what localizes the bug.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/conformance.hpp"
#include "sim/trace.hpp"

namespace {

bool read_file(const char* path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

void print_context(const char* label, const std::vector<dca::sim::TraceEvent>& t,
                   std::size_t at, std::size_t context) {
  const std::size_t lo = at > context ? at - context : 0;
  const std::size_t hi = std::min(t.size(), at + context + 1);
  std::printf("%s [%zu..%zu) of %zu events:\n", label, lo, hi, t.size());
  for (std::size_t i = lo; i < hi; ++i) {
    std::printf("  %c %6zu  %s\n", i == at ? '>' : ' ', i,
                dca::runner::trace_event_to_json(t[i]).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t context = 3;
  const char* path_a = nullptr;
  const char* path_b = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--context") == 0 && i + 1 < argc) {
      context = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: trace_diff [--context N] A.jsonl B.jsonl\n");
      return 0;
    } else if (path_a == nullptr) {
      path_a = argv[i];
    } else if (path_b == nullptr) {
      path_b = argv[i];
    } else {
      std::fprintf(stderr, "trace_diff: unexpected argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (path_a == nullptr || path_b == nullptr) {
    std::fprintf(stderr, "usage: trace_diff [--context N] A.jsonl B.jsonl\n");
    return 2;
  }

  std::string text_a, text_b;
  if (!read_file(path_a, text_a)) {
    std::fprintf(stderr, "trace_diff: cannot read %s\n", path_a);
    return 2;
  }
  if (!read_file(path_b, text_b)) {
    std::fprintf(stderr, "trace_diff: cannot read %s\n", path_b);
    return 2;
  }

  std::vector<dca::sim::TraceEvent> a, b;
  std::string err;
  if (!dca::runner::trace_from_jsonl(text_a, a, err)) {
    std::fprintf(stderr, "trace_diff: %s: %s\n", path_a, err.c_str());
    return 2;
  }
  if (!dca::runner::trace_from_jsonl(text_b, b, err)) {
    std::fprintf(stderr, "trace_diff: %s: %s\n", path_b, err.c_str());
    return 2;
  }

  const auto diff = dca::runner::diff_traces(a, b);
  if (diff.identical) {
    std::printf("traces identical: %zu events\n", a.size());
    return 0;
  }
  std::printf("%s\n\n", diff.description.c_str());
  print_context(path_a, a, diff.index, context);
  std::printf("\n");
  print_context(path_b, b, diff.index, context);
  return 1;
}
