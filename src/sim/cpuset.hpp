// Thread -> CPU pinning for the sharded kernel's worker pool.
//
// The kernel's workers claim shards off a shared counter and meet at one
// barrier per conservative window; with windows a few simulated
// milliseconds wide that is tens of thousands of barrier crossings per
// run, so a worker migrating between cores pays the cache refill on
// every shard it re-claims. Pinning worker i to the i-th *allowed* CPU
// (respecting any cpuset/taskset mask the process was launched under)
// keeps each worker's claimed shards warm and makes scaling-curve
// measurements repeatable on multi-socket boxes.
//
// Linux-only: other platforms compile to no-ops that report failure, and
// the caller (--pin) treats that as "pinning unavailable", not an error.
#pragma once

#include <cstddef>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace dca::sim {

/// CPUs the current process is allowed to run on, ascending. Empty when
/// the platform cannot report an affinity mask.
inline std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) cpus.push_back(static_cast<int>(c));
    }
  }
#endif
  return cpus;
}

/// Pins the calling thread to a single CPU. Returns false when pinning is
/// unsupported or the syscall failed (caller degrades gracefully).
inline bool pin_current_thread(int cpu) {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(static_cast<std::size_t>(cpu), &mask);
  return pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) == 0;
#else
  (void)cpu;
  return false;
#endif
}

/// Saves the calling thread's affinity mask and restores it on
/// destruction — the kernel pins the caller's own thread (it doubles as
/// worker 0) and must hand it back unpinned after run_until returns.
class ThreadAffinityGuard {
 public:
  ThreadAffinityGuard() {
#ifdef __linux__
    saved_ = sched_getaffinity(0, sizeof(mask_), &mask_) == 0;
#endif
  }
  ~ThreadAffinityGuard() {
#ifdef __linux__
    if (saved_) pthread_setaffinity_np(pthread_self(), sizeof(mask_), &mask_);
#endif
  }
  ThreadAffinityGuard(const ThreadAffinityGuard&) = delete;
  ThreadAffinityGuard& operator=(const ThreadAffinityGuard&) = delete;

 private:
#ifdef __linux__
  cpu_set_t mask_{};
#endif
  bool saved_ = false;
};

}  // namespace dca::sim
