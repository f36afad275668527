// Small-buffer-optimized `void()` callables for simulator closures.
//
// Every closure used to cost a heap allocation just to enter the event
// queue, because std::function heap-allocates any capture larger than two
// pointers. BasicEventFn<N> instead stores captures up to N bytes in place
// and falls back to the heap only for oversized captures. It is built in
// its slab slot (sim/simulator.hpp), runs there and is destroyed there, so
// it never moves. Two instantiations cover the closure population:
//
//  * SmallEventFn (16-byte buffer, 24-byte object) — timers and "this plus
//    a word or two" closures, packed nearly three per cache line;
//  * EventFn (96-byte buffer) — every larger closure: the baselines'
//    arrival, fault and completion closures, tests and benchmarks. Its
//    slot size also bounds the typed event slot (Simulator::Posted).
//
// Messages and the RTDS path post typed events instead (sim/event.hpp).
// Destruction and invocation go through a per-type ops table (one static
// per callable type, no RTTI, no virtual dispatch).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rtds {

template <std::size_t InlineCapacity>
class BasicEventFn {
 public:
  static constexpr std::size_t kInlineCapacity = InlineCapacity;
  /// Small buffers only promise pointer alignment — that is what keeps the
  /// object at 8 + InlineCapacity bytes instead of padding to 16.
  static constexpr std::size_t kAlign =
      InlineCapacity >= 2 * alignof(std::max_align_t)
          ? alignof(std::max_align_t)
          : alignof(void*);

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicEventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  explicit BasicEventFn(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      static_assert(sizeof(Fn*) <= kInlineCapacity);
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  BasicEventFn(const BasicEventFn&) = delete;
  BasicEventFn& operator=(const BasicEventFn&) = delete;

  ~BasicEventFn() { ops_->destroy(storage_); }

  void operator()() { ops_->invoke(storage_); }

  /// True when F's captures live in the inline buffer (no allocation).
  template <typename F>
  static constexpr bool stores_inline() {
    return fits_inline<std::decay_t<F>>();
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= kAlign;
  }

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
    };
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {
        [](void* p) { (**static_cast<Fn**>(p))(); },
        [](void* p) noexcept { delete *static_cast<Fn**>(p); },
    };
    return &ops;
  }

  const Ops* ops_;
  alignas(kAlign) unsigned char storage_[kInlineCapacity];
};

using EventFn = BasicEventFn<96>;
using SmallEventFn = BasicEventFn<16>;

static_assert(sizeof(SmallEventFn) == 24);
static_assert(sizeof(EventFn) == 112);

}  // namespace rtds
