#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>

namespace rtds {
namespace {

/// Recycles a slab slot when the event run in it returns or throws.
template <typename Slab>
struct ReleaseOnExit {
  Slab& slab;
  std::uint32_t id;
  ~ReleaseOnExit() { slab.release(id); }
};

}  // namespace

void Simulator::pop_and_execute(std::size_t bucket) {
  const Entry top = min_[bucket];
  last_time_ = top.time;
  last_seq_ = top.seq;
  std::uint32_t b = head_[bucket];
  head_[bucket] = kNil;
  occupied_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
  if (occupied_[bucket / 64] == 0) occupied_words_ &= ~(1u << (bucket / 64));
  while (b != kNil) {
    // By index: the pushes may grow (move) the pool.
    for (std::uint32_t k = 0; k < blocks_[b].count; ++k) {
      const Entry e = blocks_[b].entries[k];
      if (e.seq != top.seq) push(e);
    }
    const std::uint32_t next = blocks_[b].next;
    blocks_[b].next = free_block_;
    free_block_ = b;
    b = next;
  }
  if (--pending_ != 0) {
    // Slots are filled in scheduling order but consumed in time order, so
    // the slot walk is random: pull the likely next event's slot into cache
    // while this one executes.
    with_slot(min_[lowest_bucket()].slot,
              [](auto& slab, std::uint32_t id) { slab.prefetch(id); });
  }

  now_ = std::bit_cast<Time>(top.time);
  ++executed_;
  // Run in place: the slot stays occupied (not in the free list) while the
  // event runs, and chunk storage is stable even if it schedules events
  // that grow the slab. Recycle after, also when the event throws.
  with_slot(top.slot, [](auto& slab, std::uint32_t id) {
    const ReleaseOnExit<std::remove_reference_t<decltype(slab)>> release{
        slab, id};
    auto& event = slab.at(id);
    if constexpr (requires { event.owner; })
      event.owner->fire(event.event);
    else
      event();
  });
  if (observer_ != nullptr) observer_(observer_ctx_, now_);
}

bool Simulator::step() {
  if (pending_ == 0) return false;
  pop_and_execute(lowest_bucket());
  return true;
}

std::vector<Simulator::PendingEvent> Simulator::pending_events() const {
  std::vector<Entry> entries;
  entries.reserve(pending_);
  for (const std::uint32_t head : head_)
    for (std::uint32_t b = head; b != kNil; b = blocks_[b].next)
      entries.insert(entries.end(), blocks_[b].entries,
                     blocks_[b].entries + blocks_[b].count);
  std::sort(entries.begin(), entries.end(), earlier);
  std::vector<PendingEvent> out;
  out.reserve(entries.size());
  for (const Entry& e : entries) {
    const Event* event = (e.slot & kTypedSlot)
                             ? &typed_slab_.at(e.slot & kIdMask).event
                             : nullptr;
    out.push_back({std::bit_cast<Time>(e.time), e.seq, event});
  }
  return out;
}

void Simulator::clear_pending() {
  for (std::uint32_t& head : head_) {
    for (std::uint32_t b = head; b != kNil; b = blocks_[b].next)
      for (std::uint32_t k = 0; k < blocks_[b].count; ++k)
        with_slot(blocks_[b].entries[k].slot,
                  [](auto& slab, std::uint32_t id) { slab.release(id); });
    head = kNil;
  }
  std::fill(std::begin(occupied_), std::end(occupied_), 0);
  occupied_words_ = 0;
  blocks_.clear();
  free_block_ = kNil;
  pending_ = 0;
}

std::size_t Simulator::run(std::size_t max_events) {
  const std::size_t fired = run_chunk(max_events);
  RTDS_CHECK_MSG(fired < max_events || !has_events(),
                 "event budget exhausted at t=" << now_);
  return fired;
}

std::size_t Simulator::run_chunk(std::size_t max_events) {
  std::size_t fired = 0;
  while (fired < max_events && step()) ++fired;
  return fired;
}

std::size_t Simulator::run_until(Time t_end, std::size_t max_events) {
  std::size_t fired = 0;
  while (pending_ != 0) {
    const std::size_t b = lowest_bucket();
    if (!time_le(std::bit_cast<Time>(min_[b].time), t_end)) break;
    if (fired == max_events) {
      // Budget exhaustion means eligible events remain, mirroring run():
      // draining — or everything left being beyond t_end — is a normal
      // return even when fired == max_events.
      RTDS_CHECK_MSG(false, "event budget exhausted at t=" << now_);
    }
    pop_and_execute(b);
    ++fired;
  }
  return fired;
}

}  // namespace rtds
