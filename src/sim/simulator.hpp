// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// scheduling order (a monotonic sequence number breaks ties), so a run is
// reproducible bit-for-bit from its inputs. This is the substrate standing
// in for the paper's physical "arbitrary wide network" testbed.
//
// The queue is allocation-free in steady state. An event is either a
// closure (EventFn, small-buffer-optimized, see event_fn.hpp) or a typed
// event (sim/event.hpp) returned to the EventOwner that posted it; each
// lives in a slab of fixed-size slots recycled through a free list, and
// the priority structure holds only 24-byte POD entries (time bits, seq,
// slot).
//
// The priority structure is a monotone radix heap (Ahuja, Mehlhorn, Orlin &
// Tarjan) over the 128-bit key (time bits, seq), read as hexadecimal digits.
// Non-negative doubles order like their bit patterns (-0.0 is canonicalized
// to +0.0), schedule_at never goes below now(), a fresh seq only grows and
// a reserved one (post_reserved) is checked against the last popped key, so
// no key pushed is ever below the last popped one. A push lands in O(1) in the
// bucket named by the highest digit where its key differs from that last
// key (level) and its value there; each bucket keeps its minimum, so the
// lowest non-empty bucket's minimum is the next event. A pop takes it and
// redistributes only the rest of that bucket into lower buckets. Buckets
// are chains of fixed-size entry blocks from one pooled array, so storage
// stays O(peak pending) and a redistribution streams through memory.
//
// The key is unique, so any exact priority structure pops the same (time,
// seq) sequence; the choice of structure never changes a run's bytes.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/event_fn.hpp"
#include "util/error.hpp"
#include "util/time.hpp"

namespace rtds {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator() { clear_pending(); }

  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now). The callable is
  /// constructed directly in a slot of the size-class slab its capture
  /// needs — no temporary, no relocation, no allocation.
  template <typename F,
            typename = std::enable_if_t<
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void schedule_at(Time at, F&& fn) {
    const std::uint64_t time = key_time(at);
    if constexpr (SmallEventFn::stores_inline<F>())
      enqueue(time, small_slab_.place(std::forward<F>(fn)));
    else
      enqueue(time, big_slab_.place(std::forward<F>(fn)) | kBigSlot);
  }

  /// Schedules `fn` after a non-negative delay.
  template <typename F,
            typename = std::enable_if_t<
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void schedule_in(Time delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Posts a typed event (an Event or one of its alternatives) at absolute
  /// time `at` (>= now); when it fires, `owner` runs it. Same ordering
  /// contract as schedule_at.
  template <typename E>
  void post_at(Time at, EventOwner& owner, E&& event) {
    const std::uint64_t time = key_time(at);
    enqueue(time, typed_slab_.place(&owner, std::forward<E>(event)) |
                      kTypedSlot);
  }

  /// Posts a typed event after a non-negative delay.
  template <typename E>
  void post_in(Time delay, EventOwner& owner, E&& event) {
    post_at(now_ + delay, owner, std::forward<E>(event));
  }

  /// Reserves the next `n` sequence numbers as the band post_reserved
  /// draws from and returns the first; a new band replaces the last. An
  /// event posted later under a reserved seq breaks ties exactly as if it
  /// had been posted at reservation time: a closed run reserves one seq
  /// per arrival at start and posts each arrival only when the one before
  /// it fires.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    band_begin_ = next_seq_;
    next_seq_ += n;
    band_end_ = next_seq_;
    return band_begin_;
  }

  /// post_at under a sequence number from the reserved band (each used
  /// once). The key (at, seq) may not lie below the last popped event's:
  /// the queue only moves forward.
  template <typename E>
  void post_reserved(Time at, std::uint64_t seq, EventOwner& owner,
                     E&& event) {
    RTDS_REQUIRE_MSG(seq >= band_begin_ && seq < band_end_,
                     "seq " << seq << " outside the reserved band ["
                            << band_begin_ << ", " << band_end_ << ")");
    const std::uint64_t time = key_time(at);
    RTDS_REQUIRE_MSG(time > last_time_ ||
                         (time == last_time_ && seq >= last_seq_),
                     "reserved seq " << seq << " at t=" << at
                                     << " lies below the last popped event");
    enqueue(time, seq,
            typed_slab_.place(&owner, std::forward<E>(event)) | kTypedSlot);
  }

  bool has_events() const { return pending_ != 0; }
  std::size_t pending() const { return pending_; }

  /// Executes the next event; returns false if none remain.
  bool step();

  /// Runs until the queue drains or `max_events` fire; returns events fired.
  /// Exhausting the budget with events still queued is an error: this is
  /// the run-to-completion driver, and the budget only exists to catch
  /// runaway event loops. For deliberate partial stepping use run_chunk.
  std::size_t run(std::size_t max_events = kDefaultEventBudget);

  /// Fires up to `max_events` events and returns the count fired. Unlike
  /// run(), leftover events are normal — this is the stepping primitive of
  /// the chunked checkpoint drivers (`while (run_chunk(N)) maybe_save();`).
  std::size_t run_chunk(std::size_t max_events);

  /// Runs while event times are <= t_end (events beyond stay queued).
  std::size_t run_until(Time t_end, std::size_t max_events = kDefaultEventBudget);

  std::uint64_t executed_events() const { return executed_; }

  /// Next sequence number to be assigned (checkpoints save it so resumed
  /// runs keep the saved (time, seq) pop order, see restore_clock).
  std::uint64_t next_seq() const { return next_seq_; }

  /// Post-event observer (raw function pointer + context, null by default):
  /// called after every executed event with the event's time. The invariant
  /// checker (fault/invariants.hpp) uses it for the monotone-time check;
  /// keeping it a plain pointer keeps the unobserved hot path to one
  /// null test per event.
  using EventObserver = void (*)(void* ctx, Time now);
  void set_event_observer(EventObserver fn, void* ctx) {
    observer_ = fn;
    observer_ctx_ = ctx;
  }

  /// Guard against runaway protocols in tests.
  static constexpr std::size_t kDefaultEventBudget = 100'000'000;

  // --- checkpoint support (snap/, DESIGN.md §14) ---

  /// One pending event, as a checkpoint sees it: its key and its typed
  /// event (valid until the queue next changes), or nullptr for a closure,
  /// which no checkpoint can save.
  struct PendingEvent {
    Time at;
    std::uint64_t seq;
    const Event* event;
  };
  /// Every pending event, in execution order. Does not disturb the queue.
  std::vector<PendingEvent> pending_events() const;

  /// Destroys every pending event (slab slots recycled). The restore path
  /// clears the constructor-scheduled queue before re-posting the
  /// snapshot's events.
  void clear_pending();

  /// Restores the clock/counters captured by a snapshot. Only valid on a
  /// simulator with no pending events; re-posted events then draw fresh
  /// sequence numbers >= next_seq, preserving the saved (time, seq) pop
  /// order relative to everything scheduled after resume.
  void restore_clock(Time now, std::uint64_t next_seq, std::uint64_t executed) {
    RTDS_REQUIRE_MSG(!has_events(), "restore_clock with pending events");
    RTDS_REQUIRE(next_seq >= next_seq_);
    RTDS_REQUIRE(now >= 0.0);
    now_ = now;
    next_seq_ = next_seq;
    band_begin_ = band_end_ = next_seq;
    executed_ = executed;
    // The clock may move back; every later key is >= (now, 0).
    last_time_ = time_bits(now);
    last_seq_ = 0;
  }

 private:
  /// Queue entry: the event's key and its tagged slab slot. POD, so
  /// redistributing moves 24 bytes, never a callable.
  struct Entry {
    std::uint64_t time;  ///< time_bits of the event time
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Bucket storage: fixed-size blocks of entries from one pool, linked
  /// newest first, so a redistribution streams through memory instead of
  /// chasing one link per event.
  static constexpr std::uint32_t kBlockEntries = 16;
  struct Block {
    Entry entries[kBlockEntries];
    std::uint32_t count;
    std::uint32_t next;  ///< next block of the bucket (or free list), kNil
  };
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  /// The 128-bit key (time bits, seq) is read as 32 hexadecimal digits.
  /// Bucket (level, digit) holds the keys whose highest digit differing
  /// from the last popped key is at `level` and reads `digit` there; digit
  /// 0 never differs upward, so bucket 0 holds a key equal to the last.
  /// Buckets in index order hold ever larger keys.
  static constexpr unsigned kDigitBits = 4;
  static constexpr std::size_t kBuckets = (128 / kDigitBits) << kDigitBits;
  static constexpr std::size_t kWords = kBuckets / 64;

  /// Bit pattern of a non-negative time; unsigned order of these patterns
  /// is numeric order. -0.0 maps to +0.0.
  static std::uint64_t time_bits(Time t) {
    return std::bit_cast<std::uint64_t>(t == 0.0 ? 0.0 : t);
  }
  /// Checks `at` against the clock and returns its queue key, clamping FP
  /// noise so now() never goes backwards.
  std::uint64_t key_time(Time at) const {
    RTDS_REQUIRE_MSG(time_ge(at, now_),
                     "cannot schedule in the past: " << at << " < " << now_);
    return time_bits(std::max(at, now_));
  }
  void enqueue(std::uint64_t time, std::uint32_t slot) {
    enqueue(time, next_seq_++, slot);
  }
  void enqueue(std::uint64_t time, std::uint64_t seq, std::uint32_t slot) {
    push(Entry{time, seq, slot});
    ++pending_;
  }
  static bool earlier(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }
  std::size_t bucket_of(const Entry& e) const {
    unsigned bit;
    std::uint64_t word;
    if (const std::uint64_t d = e.time ^ last_time_) {
      bit = 127 - static_cast<unsigned>(std::countl_zero(d));
      word = e.time;
    } else if (const std::uint64_t d = e.seq ^ last_seq_) {
      bit = 63 - static_cast<unsigned>(std::countl_zero(d));
      word = e.seq;
    } else {
      return 0;
    }
    const unsigned level = bit / kDigitBits;
    const auto digit = static_cast<unsigned>(
        (word >> ((level * kDigitBits) & 63)) & ((1u << kDigitBits) - 1));
    return std::size_t{level} << kDigitBits | digit;
  }
  /// Files `e` in the bucket its key belongs to, keeping that bucket's
  /// minimum.
  void push(const Entry& e) {
    const std::size_t b = bucket_of(e);
    std::uint32_t h = head_[b];
    if (h == kNil) {
      min_[b] = e;
      occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
      occupied_words_ |= 1u << (b / 64);
    } else if (earlier(e, min_[b])) {
      min_[b] = e;
    }
    if (h == kNil || blocks_[h].count == kBlockEntries) {
      h = new_block(h);
      head_[b] = h;
    }
    Block& block = blocks_[h];
    block.entries[block.count++] = e;
  }
  std::uint32_t new_block(std::uint32_t next) {
    std::uint32_t i = free_block_;
    if (i != kNil) {
      free_block_ = blocks_[i].next;
    } else {
      i = static_cast<std::uint32_t>(blocks_.size());
      blocks_.emplace_back();
    }
    blocks_[i].count = 0;
    blocks_[i].next = next;
    return i;
  }
  /// Lowest non-empty bucket — its minimum is the global one; requires
  /// pending events.
  std::size_t lowest_bucket() const {
    const auto w = static_cast<std::size_t>(std::countr_zero(occupied_words_));
    return w * 64 + static_cast<std::size_t>(std::countr_zero(occupied_[w]));
  }
  /// Removes the minimum of `bucket` (the lowest non-empty one) and
  /// executes its event: its key becomes the last popped one, and the rest
  /// of `bucket` moves down to the buckets that key assigns them.
  void pop_and_execute(std::size_t bucket);

  /// Fixed-size-slot pool for one event type. Slots live in raw chunks (no
  /// value-init sweep) and hold a constructed T only while its event is
  /// pending or running; ids come from a monotone bump cursor, then a LIFO
  /// free list. Chunk storage never moves, so an executing event may
  /// schedule freely.
  template <typename T>
  class Slab {
   public:
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

    /// Constructs a T from `args` in a slot and returns its id.
    template <typename... A>
    std::uint32_t place(A&&... args) {
      std::uint32_t id;
      if (!free_.empty()) {
        id = free_.back();
        free_.pop_back();
      } else {
        if (bump_next_ == bump_end_) grow();
        id = bump_next_++;
      }
      ::new (static_cast<void*>(addr(id))) T(std::forward<A>(args)...);
      return id;
    }

    T& at(std::uint32_t id) {
      return *std::launder(reinterpret_cast<T*>(addr(id)));
    }
    const T& at(std::uint32_t id) const {
      return *std::launder(reinterpret_cast<const T*>(addr(id)));
    }

    void prefetch(std::uint32_t id) const { __builtin_prefetch(addr(id)); }

    /// Destroys the slot's T and recycles the slot.
    void release(std::uint32_t id) {
      at(id).~T();
      free_.push_back(id);
    }

   private:
    std::byte* addr(std::uint32_t id) const {
      return chunks_[id >> kChunkShift].get() +
             sizeof(T) * (id & (kChunkSize - 1));
    }
    void grow() {
      chunks_.push_back(
          std::make_unique_for_overwrite<std::byte[]>(kChunkSize * sizeof(T)));
      bump_next_ = (static_cast<std::uint32_t>(chunks_.size()) - 1)
                   << kChunkShift;
      bump_end_ = bump_next_ + kChunkSize;
    }

    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::vector<std::uint32_t> free_;
    std::uint32_t bump_next_ = 0;
    std::uint32_t bump_end_ = 0;
  };

  /// A typed event and the owner that runs it.
  struct Posted {
    template <typename E>
    Posted(EventOwner* o, E&& e) : owner(o), event(std::forward<E>(e)) {}
    EventOwner* owner;
    Event event;
  };
  static_assert(sizeof(Posted) <= sizeof(EventFn),
                "a typed event slot may not outgrow a closure slot");

  /// Entry::slot tag in the top two bits: which slab holds the event.
  static constexpr unsigned kTagShift = 30;
  static constexpr std::uint32_t kBigSlot = 1u << kTagShift;
  static constexpr std::uint32_t kTypedSlot = 2u << kTagShift;
  static constexpr std::uint32_t kIdMask = kBigSlot - 1;

  /// Calls f(slab, id) for the slab and id a tagged slot names.
  template <typename F>
  void with_slot(std::uint32_t slot, F&& f) {
    const std::uint32_t id = slot & kIdMask;
    if (slot & kTypedSlot) f(typed_slab_, id);
    else if (slot & kBigSlot) f(big_slab_, id);
    else f(small_slab_, id);
  }

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  /// The reserved band [band_begin_, band_end_) of post_reserved.
  std::uint64_t band_begin_ = 0;
  std::uint64_t band_end_ = 0;
  std::uint64_t executed_ = 0;
  EventObserver observer_ = nullptr;
  void* observer_ctx_ = nullptr;
  /// Block pool: bucket lists and the free list link through Block::next.
  std::vector<Block> blocks_;
  std::uint32_t free_block_ = kNil;
  std::array<std::uint32_t, kBuckets> head_ = filled(kNil);
  std::array<Entry, kBuckets> min_{};      ///< valid while non-empty
  std::uint64_t occupied_[kWords] = {};    ///< bit b: bucket b non-empty
  std::uint32_t occupied_words_ = 0;       ///< bit w: occupied_[w] != 0
  std::size_t pending_ = 0;
  /// Key of the last popped event (the radix heap's origin).
  std::uint64_t last_time_ = 0;
  std::uint64_t last_seq_ = 0;
  static constexpr std::array<std::uint32_t, kBuckets> filled(
      std::uint32_t v) {
    std::array<std::uint32_t, kBuckets> a{};
    a.fill(v);
    return a;
  }

  Slab<SmallEventFn> small_slab_;
  Slab<EventFn> big_slab_;
  Slab<Posted> typed_slab_;
};

}  // namespace rtds
