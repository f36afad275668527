// Open-addressed hash map for integer-keyed per-job bookkeeping.
//
// The zero-allocation core (DESIGN.md §7) removed node-based containers
// from the per-message hot paths; this removes them from the per-job ones.
// Linear probing over one flat slot array, power-of-two capacity, no
// erase (runs only accumulate). Keys are mixed with the splitmix64
// finalizer so clustered job ids still probe well; iteration order is
// probe-table order and therefore unspecified — callers that fold floats
// or print must use sorted_items(), which reproduces std::map's key order
// exactly (that keeps RunningStat accumulation bit-identical to the
// node-based containers this replaces).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace rtds::snap {
struct Access;  // checkpoint serialization (snap/)
}

namespace rtds {

template <typename Key, typename Value>
class FlatMap {
 public:
  using key_type = Key;

  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` keys (one rehash up front instead of
  /// log(n) growth rehashes mid-run).
  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want * kMaxLoadNum < n * kMaxLoadDen) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

  /// Inserts a default-constructed value on first access, like std::map.
  Value& operator[](const Key& key) {
    if (needs_growth()) rehash(slots_.empty() ? kMinCapacity
                                              : slots_.size() * 2);
    const std::size_t slot = probe(key);
    if (!slots_[slot].used) {
      slots_[slot].used = true;
      slots_[slot].key = key;
      slots_[slot].value = Value{};
      ++size_;
    }
    return slots_[slot].value;
  }

  Value* find(const Key& key) {
    if (slots_.empty()) return nullptr;
    const std::size_t slot = probe(key);
    return slots_[slot].used ? &slots_[slot].value : nullptr;
  }
  const Value* find(const Key& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }
  bool contains(const Key& key) const { return find(key) != nullptr; }

  /// Occupied (key, value) pairs sorted by key — the deterministic
  /// iteration order for end-of-run folds and printing.
  std::vector<std::pair<Key, Value>> sorted_items() const {
    std::vector<std::pair<Key, Value>> items;
    items.reserve(size_);
    for (const auto& slot : slots_)
      if (slot.used) items.emplace_back(slot.key, slot.value);
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return items;
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  static constexpr std::size_t kMinCapacity = 16;
  // Grow beyond 7/8 load (linear probing stays short well past 1/2).
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;

  static std::size_t mix(const Key& key) {
    auto x = static_cast<std::uint64_t>(key);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }

  bool needs_growth() const {
    return slots_.empty() ||
           (size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum;
  }

  /// First slot holding `key`, or the empty slot where it would go.
  std::size_t probe(const Key& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = mix(key) & mask;
    while (slots_[slot].used && !(slots_[slot].key == key))
      slot = (slot + 1) & mask;
    return slot;
  }

  void rehash(std::size_t capacity) {
    RTDS_CHECK((capacity & (capacity - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    for (auto& slot : old) {
      if (!slot.used) continue;
      const std::size_t target = probe(slot.key);
      slots_[target] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Open-addressed set with FlatMap's probing and growth policy.
template <typename Key>
class FlatSet {
 public:
  void insert(const Key& key) { map_[key] = true; }
  bool contains(const Key& key) const { return map_.contains(key); }
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

 private:
  FlatMap<Key, bool> map_;

  friend struct snap::Access;  // checkpoints enumerate via map_.sorted_items()
};

}  // namespace rtds
