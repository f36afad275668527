// Small-buffer-optimized `void()` callable for simulator closures.
//
// A std::function heap-allocates any capture larger than two pointers, so
// every closure would cost an allocation just to enter the event queue.
// EventFn instead stores captures up to 16 bytes — a timer, "this plus a
// word or two" — in place (24-byte object, nearly three per cache line)
// and falls back to the heap only for an oversized capture. It is built in
// its slab slot (sim/simulator.hpp), runs there and is destroyed there, so
// it never moves.
//
// Only tests and benchmarks schedule closures; the library posts typed
// events (sim/event.hpp). Destruction and invocation go through a per-type
// ops table (one static per callable type, no RTTI, no virtual dispatch).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace rtds {

class EventFn {
 public:
  static constexpr std::size_t kInlineCapacity = 16;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  explicit EventFn(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>())
      emplace<Fn>(std::forward<F>(f));
    else
      emplace<Boxed<Fn>>(std::make_unique<Fn>(std::forward<F>(f)));
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { ops_->destroy(storage_); }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
  };

  /// An oversized capture: on the heap, behind one inline pointer.
  template <typename Fn>
  struct Boxed {
    std::unique_ptr<Fn> fn;
    void operator()() { (*fn)(); }
  };

  /// The buffer only promises pointer alignment — that is what keeps the
  /// object at 24 bytes instead of padding to 32.
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(void*);
  }

  /// Builds a T in the buffer and points ops_ at T's table.
  template <typename T, typename A>
  void emplace(A&& arg) {
    static_assert(fits_inline<T>());
    ::new (static_cast<void*>(storage_)) T(std::forward<A>(arg));
    static constexpr Ops ops = {
        [](void* p) { (*static_cast<T*>(p))(); },
        [](void* p) noexcept { static_cast<T*>(p)->~T(); },
    };
    ops_ = &ops;
  }

  const Ops* ops_;
  alignas(void*) unsigned char storage_[kInlineCapacity];
};

static_assert(sizeof(EventFn) == 24);

}  // namespace rtds
