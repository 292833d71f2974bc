// Structured event trace: a flat, append-only record of the semantically
// meaningful moments of a run (call lifecycle, search sequencing, fault
// injections, pauses). The conformance checker in src/runner replays a
// recorded trace against the cell geometry and asserts the paper's
// invariants; the runner can also serialize it as JSONL for offline
// analysis.
//
// The struct is deliberately plain — fixed-width integers only, no
// dependencies above sim/ — so every layer (net, proto, runner) can emit
// events without include cycles. Field meaning is per-kind; unused
// fields stay at their defaults and serialize anyway, keeping the JSONL
// schema fixed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace dca::sim {

enum class TraceKind : std::uint8_t {
  kRequest = 0,      // cell asked for a channel         (cell, serial)
  kAcquire = 1,      // channel in use begins            (cell, channel, serial)
  kRelease = 2,      // channel in use ends              (cell, channel, serial)
  kBlock = 3,        // request failed                   (cell, serial, a=outcome)
  kSearchStart = 4,  // search round began               (cell, serial, a=ts.count, b=ts.node)
  kSearchDecide = 5, // search round concluded           (cell, serial, channel, a=success, b=timeout_abort)
  kTimeout = 6,      // protocol timer fired             (cell, serial, a=phase tag)
  kPause = 7,        // MSS stalled                      (cell)
  kResume = 8,       // MSS back online                  (cell)
  kDrop = 9,         // link dropped a frame             (cell=from, peer=to, a=seq)
  kDup = 10,         // link duplicated a frame          (cell=from, peer=to, a=seq)
  kRetransmit = 11,  // transport retransmitted a frame  (cell=from, peer=to, a=seq, b=attempt)
  kRunEnd = 12,      // end of run (after drain)         (t only)
  kHandoffLeave = 13, // mobile left its cell mid-call   (cell=old, peer=dest, serial=new, a=hop, b=ends)
  kHandoffRecv = 14,  // handoff message arrived          (cell=dest, peer=old, serial, a=hop, b=ends)
  kCrash = 15,       // MSS crashed, volatile state lost (cell, a=calls torn down)
  kRestart = 16,     // MSS back up, cold, resyncing     (cell)
  kResyncDone = 17,  // resync complete, traffic admitted (cell, a=rounds)
};

[[nodiscard]] inline const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::kRequest: return "request";
    case TraceKind::kAcquire: return "acquire";
    case TraceKind::kRelease: return "release";
    case TraceKind::kBlock: return "block";
    case TraceKind::kSearchStart: return "search_start";
    case TraceKind::kSearchDecide: return "search_decide";
    case TraceKind::kTimeout: return "timeout";
    case TraceKind::kPause: return "pause";
    case TraceKind::kResume: return "resume";
    case TraceKind::kDrop: return "drop";
    case TraceKind::kDup: return "dup";
    case TraceKind::kRetransmit: return "retransmit";
    case TraceKind::kRunEnd: return "run_end";
    case TraceKind::kHandoffLeave: return "handoff_leave";
    case TraceKind::kHandoffRecv: return "handoff_recv";
    case TraceKind::kCrash: return "crash";
    case TraceKind::kRestart: return "restart";
    case TraceKind::kResyncDone: return "resync_done";
  }
  return "?";
}

struct TraceEvent {
  TraceKind kind = TraceKind::kRequest;
  SimTime t = 0;
  std::int32_t cell = -1;
  std::int32_t peer = -1;
  std::int32_t channel = -1;
  std::uint64_t serial = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// In-memory event sink. Attach one to a World (and through it to the
/// transport) to capture a run; absent a recorder every emit site is a
/// no-op, so tracing costs nothing when off.
///
/// Storage is a chunked binary append buffer: emit() writes the POD event
/// into the tail chunk (fixed 4096-event blocks that never move), so the
/// record path is a bounds check and a 48-byte store — no reallocation
/// copies of the whole history, no 2x peak memory, and no string work;
/// serialization to JSONL happens only when the runner flushes the trace.
/// events() materializes a contiguous snapshot lazily (cached until the
/// next emit), keeping the flush/compare API a plain vector.
///
/// Sink mode: set_sink() reroutes every emit to a callback instead of the
/// buffer — the streaming engine hands events over in canonical order as
/// they become final, so a sink can spill them (JSONL to a stream) or
/// discard them without the recorder ever holding the full run. A sinked
/// recorder stays empty: size() counts forwarded events, events() is
/// whatever was buffered before the sink was installed.
class TraceRecorder {
 public:
  static constexpr std::size_t kChunkEvents = 4096;

  using Sink = std::function<void(const TraceEvent&)>;

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  void emit(const TraceEvent& e) {
    if (sink_) {
      sink_(e);
      ++count_;
      return;
    }
    if (fill_ == kChunkEvents) grow();
    chunks_.back()[fill_++] = e;
    ++count_;
    dirty_ = true;
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    if (dirty_) {
      flat_.clear();
      flat_.reserve(count_);
      for (std::size_t i = 0; i < chunks_.size(); ++i) {
        const TraceEvent* chunk = chunks_[i].get();
        const std::size_t n = i + 1 == chunks_.size() ? fill_ : kChunkEvents;
        flat_.insert(flat_.end(), chunk, chunk + n);
      }
      dirty_ = false;
    }
    return flat_;
  }

  [[nodiscard]] std::size_t size() const { return count_; }

  void clear() {
    chunks_.clear();
    fill_ = kChunkEvents;
    count_ = 0;
    flat_.clear();
    dirty_ = false;
  }

 private:
  void grow() {
    chunks_.push_back(std::make_unique<TraceEvent[]>(kChunkEvents));
    fill_ = 0;
  }

  Sink sink_;
  std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
  std::size_t fill_ = kChunkEvents;  // slots used in the tail chunk
  std::size_t count_ = 0;
  mutable std::vector<TraceEvent> flat_;  // lazy contiguous snapshot
  mutable bool dirty_ = false;
};

}  // namespace dca::sim
