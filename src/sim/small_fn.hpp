// Move-only callables with a large small-buffer optimization, built for
// the event hot path.
//
// std::function heap-allocates any capture larger than ~2 pointers, which
// on the simulation hot path means one malloc/free per scheduled message
// delivery (a delivery closure carries a ~200-byte net::Message by value).
// SmallFn reserves enough inline storage for every closure the engine
// schedules, so the schedule/fire path performs no heap allocation at all;
// callables that genuinely exceed the buffer (none in-tree — the network
// layer static_asserts its delivery closures fit) fall back to the heap
// rather than failing to compile.
//
// Dispatch is a single pointer to a per-type operations table (invoke /
// relocate / destroy), so an engaged SmallFn costs one indirect call to
// fire — same as std::function — without the allocation.
//
// SmallFn is parameterized on the call signature: EventFn (void(), 256-byte
// buffer) is what the event stores hold, TimerFn (void(), 64 bytes) is the
// protocol-timer currency of proto::NodeEnv, and the network's delivery /
// observer hooks use a void(const Message&) instantiation. A smaller
// SmallFn nests inside a larger one as an ordinary callable (one extra
// indirect call to fire), which is how a TimerFn crosses the virtual
// NodeEnv boundary and still lands inline in the event slab.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dca::sim {

/// Inline capture capacity of the event callback. Sized so a message
/// delivery closure (transport pointer + a full net::Message by value)
/// stays inline; net/transport.cpp and runner/world.cpp static_assert this.
inline constexpr std::size_t kEventFnCapacity = 256;

/// Inline capture capacity of a protocol timer callback (TimerFn): the
/// AllocatorNode generation-check wrapper around a [this]-style capture.
/// proto/allocator.hpp static_asserts its wrappers fit.
inline constexpr std::size_t kTimerFnCapacity = 64;

/// Inline capture capacity of the network delivery/observer hooks (a
/// [this] capture plus slack for test harness lambdas).
inline constexpr std::size_t kNetHandlerCapacity = 32;

template <typename Sig, std::size_t Capacity = kEventFnCapacity>
class SmallFn;  // only the R(Args...) specialization exists

template <typename R, typename... Args, std::size_t Capacity>
class SmallFn<R(Args...), Capacity> {
 public:
  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    emplace_fn(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Replaces the held callable, constructing the new one directly in the
  /// inline buffer — no intermediate SmallFn temporary, no extra relocate.
  /// This is the in-place path the event slab uses so a 200-byte delivery
  /// closure is memcpy'd exactly once (stack lambda -> slab slot). Passing
  /// a SmallFn rvalue of the same type degrades gracefully to move-assign.
  template <typename F>
  void assign(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, SmallFn>) {
      *this = std::forward<F>(f);
    } else {
      reset();
      emplace_fn(std::forward<F>(f));
    }
  }

  /// True when callables of type F are stored inline (no heap fallback).
  template <typename F>
  static constexpr bool fits_inline() noexcept {
    using D = std::decay_t<F>;
    return sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args...);
    void (*relocate)(void* dst, void* src) noexcept;  // move-construct + destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename F>
  void emplace_fn(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      static constexpr Ops ops{
          [](void* p, Args... args) -> R {
            return (*std::launder(reinterpret_cast<D*>(p)))(
                std::forward<Args>(args)...);
          },
          [](void* dst, void* src) noexcept {
            D* s = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
          },
          [](void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); }};
      ops_ = &ops;
    } else {
      // Oversized callable: one owning pointer lives in the buffer.
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      static constexpr Ops ops{
          [](void* p, Args... args) -> R {
            return (**std::launder(reinterpret_cast<D**>(p)))(
                std::forward<Args>(args)...);
          },
          [](void* dst, void* src) noexcept {
            ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
          },
          [](void* p) noexcept {
            delete *std::launder(reinterpret_cast<D**>(p));
          }};
      ops_ = &ops;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

/// The event-callback type the kernel stores per scheduled event.
using EventFn = SmallFn<void(), kEventFnCapacity>;

/// The protocol-timer callback type carried across proto::NodeEnv.
using TimerFn = SmallFn<void(), kTimerFnCapacity>;

}  // namespace dca::sim
