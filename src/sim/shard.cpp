#include "sim/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "sim/cpuset.hpp"

namespace dca::sim {

thread_local int ShardedKernel::tls_current_shard_ = -1;

namespace {

// The legacy striped map, kept as the default for callers that do not
// supply a geometry-aware partition (see cell/partition.hpp).
std::vector<int> striped_map(int n_cells, int n_shards) {
  std::vector<int> map(static_cast<std::size_t>(n_cells > 0 ? n_cells : 0));
  for (int c = 0; c < n_cells; ++c) {
    map[static_cast<std::size_t>(c)] = n_shards > 0 ? c % n_shards : 0;
  }
  return map;
}

}  // namespace

ShardedKernel::ShardedKernel(int n_cells, int n_shards, Duration lookahead,
                             int n_threads)
    : ShardedKernel(striped_map(n_cells, n_shards), n_shards, lookahead,
                    n_threads) {}

ShardedKernel::ShardedKernel(std::vector<int> partition, int n_shards,
                             Duration lookahead, int n_threads)
    : n_shards_(n_shards),
      lookahead_(lookahead),
      partition_(std::move(partition)),
      local_seq_(partition_.size(), 0) {
  const int n_cells = static_cast<int>(partition_.size());
  if (n_shards_ < 1 || n_cells < n_shards_) {
    std::fprintf(stderr, "ShardedKernel: invalid shard count %d for %d cells\n",
                 n_shards, n_cells);
    std::abort();
  }
  for (int v : partition_) {
    if (v < 0 || v >= n_shards_) {
      std::fprintf(stderr, "ShardedKernel: partition entry %d outside [0, %d)\n",
                   v, n_shards_);
      std::abort();
    }
  }
  if (lookahead_ <= 0) {
    std::fprintf(stderr, "ShardedKernel: lookahead must be positive\n");
    std::abort();
  }
  if (n_threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n_threads = static_cast<int>(std::min<unsigned>(
        static_cast<unsigned>(n_shards_), hw == 0 ? 1u : hw));
  }
  n_threads_ = std::min(n_threads, n_shards_);
  shards_.resize(static_cast<std::size_t>(n_shards_));
  const auto slots =
      static_cast<std::size_t>(n_shards_) * static_cast<std::size_t>(n_shards_);
  outbox_[0].resize(slots);
  outbox_[1].resize(slots);
}

SimTime ShardedKernel::max_now() const {
  SimTime t = kTimeZero;
  for (const Shard& s : shards_) t = std::max(t, s.now);
  return t;
}

std::uint64_t ShardedKernel::executed() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.executed;
  return n;
}

std::size_t ShardedKernel::pending() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.queue.size();
  for (const auto& slot : outbox_[0]) n += slot.size();
  for (const auto& slot : outbox_[1]) n += slot.size();
  return n;
}

EventId ShardedKernel::schedule_remote(const EventKey& key, Action action,
                                       int dest) {
  const int src = tls_current_shard_;
  // Cross-shard while running: the lookahead contract guarantees the event
  // lands beyond the current window, so the destination shard cannot have
  // passed it. Violations are scheduler bugs, not recoverable conditions.
  if (key.when < window_cap_) {
    std::fprintf(stderr,
                 "ShardedKernel: lookahead violation (event at %lld inside "
                 "window ending %lld, shard %d -> %d)\n",
                 static_cast<long long>(key.when),
                 static_cast<long long>(window_cap_), src, dest);
    std::abort();
  }
  auto& slot = outbox_[parity_][static_cast<std::size_t>(src) *
                                    static_cast<std::size_t>(n_shards_) +
                                static_cast<std::size_t>(dest)];
  slot.push_back(OutboxEntry{key, std::move(action)});
  return kInvalidEventId;
}

void ShardedKernel::cancel(std::int32_t owner, EventId id) {
  shards_[static_cast<std::size_t>(shard_of(owner))].queue.cancel(id);
}

void ShardedKernel::drain_and_execute(int s) {
  Shard& shard = shards_[static_cast<std::size_t>(s)];
  // Merge mail addressed to this shard from the previous window (the
  // buffer writers are no longer touching). Arbitrary merge order is fine:
  // the queue re-establishes the canonical order.
  auto& inboxes = outbox_[1 - parity_];
  for (int src = 0; src < n_shards_; ++src) {
    auto& slot = inboxes[static_cast<std::size_t>(src) *
                             static_cast<std::size_t>(n_shards_) +
                         static_cast<std::size_t>(s)];
    for (OutboxEntry& e : slot) {
      shard.queue.schedule(e.key, std::move(e.action));
    }
    slot.clear();
  }
  tls_current_shard_ = s;
  while (!shard.queue.empty() && shard.queue.next_key().when < window_cap_) {
    ShardQueue::Fired fired = shard.queue.pop();
    shard.now = fired.key.when;
    ++shard.executed;
    fired.action();
  }
  tls_current_shard_ = -1;
}

void ShardedKernel::window_barrier_completion() {
  // Runs on exactly one (unspecified) worker while all others are parked at
  // the barrier, so plain writes to scheduler state are safe and the
  // barrier's release publishes them.
  if (window_hook_) window_hook_(window_cap_);
  parity_ = 1 - parity_;
  claim_.store(0, std::memory_order_relaxed);

  SimTime gmin = kTimeNever;
  for (Shard& s : shards_) {
    if (!s.queue.empty()) gmin = std::min(gmin, s.queue.next_key().when);
  }
  // Mail written during the window that just finished sits in the buffer
  // the *next* window will drain (1 - parity_ after the flip above).
  for (const auto& slot : outbox_[1 - parity_]) {
    for (const OutboxEntry& e : slot) gmin = std::min(gmin, e.key.when);
  }

  if (gmin == kTimeNever || gmin > deadline_) {
    stop_ = true;
    return;
  }
  if (deadline_ != kTimeNever && gmin + lookahead_ > deadline_) {
    window_cap_ = deadline_ + 1;  // inclusive deadline
  } else {
    window_cap_ = gmin + lookahead_;
  }
}

void ShardedKernel::run_until(SimTime deadline) {
  deadline_ = deadline;
  stop_ = false;
  claim_.store(0, std::memory_order_relaxed);

  // Seed the first window from current queue state (outboxes are empty or
  // carry mail from a previous run_until call, both buffers get scanned by
  // flipping through the completion path once workers start; simplest is to
  // compute the initial window here with the same logic).
  {
    SimTime gmin = kTimeNever;
    for (Shard& s : shards_) {
      if (!s.queue.empty()) gmin = std::min(gmin, s.queue.next_key().when);
    }
    for (int p = 0; p < 2; ++p) {
      for (const auto& slot : outbox_[p]) {
        for (const OutboxEntry& e : slot) gmin = std::min(gmin, e.key.when);
      }
    }
    if (gmin == kTimeNever || gmin > deadline_) {
      stop_ = true;
    } else if (deadline_ != kTimeNever && gmin + lookahead_ > deadline_) {
      window_cap_ = deadline_ + 1;
    } else {
      window_cap_ = gmin + lookahead_;
    }
  }

  if (!stop_) {
    running_ = true;
    std::barrier barrier(n_threads_, [this]() noexcept {
      window_barrier_completion();
    });

    const std::vector<int> cpus = pin_threads_ ? allowed_cpus() : std::vector<int>{};

    auto work = [this, &barrier, &cpus](int worker) {
      if (!cpus.empty()) {
        pin_current_thread(cpus[static_cast<std::size_t>(worker) % cpus.size()]);
      }
      for (;;) {
        int s;
        while ((s = claim_.fetch_add(1, std::memory_order_relaxed)) <
               n_shards_) {
          drain_and_execute(s);
        }
        barrier.arrive_and_wait();
        if (stop_) break;
      }
    };

    // The calling thread doubles as worker 0; give it back its original
    // affinity once the pool winds down.
    ThreadAffinityGuard restore_caller;
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(n_threads_ - 1));
    for (int i = 1; i < n_threads_; ++i) pool.emplace_back(work, i);
    work(0);
    for (std::thread& t : pool) t.join();
    running_ = false;
  }

  if (deadline_ != kTimeNever) {
    for (Shard& s : shards_) s.now = std::max(s.now, deadline_);
  }
}

}  // namespace dca::sim
