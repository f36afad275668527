// InlineVec<T, N>: a vector whose first N elements live on the stack.
//
// The admission tests and trial plans handle a handful of tasks per call
// but run tens of times per protocol round; their temporaries were ~40% of
// the round's allocator traffic. Restricted to trivially copyable T so
// growth and erase are memcpy/memmove, nothing more. Storage is raw bytes:
// an element is constructed only when written, so a fresh InlineVec costs
// nothing however large N is or whatever default member initializers T has.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

#include "util/error.hpp"

namespace rtds {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  InlineVec() = default;
  InlineVec(const InlineVec&) = delete;
  InlineVec& operator=(const InlineVec&) = delete;

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  void push_back(const T& v) {
    if (size_ == capacity_) spill(2 * capacity_);
    ::new (static_cast<void*>(data_ + size_)) T(v);
    ++size_;
  }

  void assign(std::size_t n, const T& v) {
    size_ = 0;  // contents need not survive the spill
    if (n > capacity_) spill(n);
    std::uninitialized_fill_n(data_, n, v);
    size_ = n;
  }

  void insert(T* pos, const T& v) {
    const std::size_t idx = static_cast<std::size_t>(pos - data_);
    RTDS_CHECK(idx <= size_);
    if (size_ == capacity_) spill(2 * capacity_);
    std::memmove(data_ + idx + 1, data_ + idx, sizeof(T) * (size_ - idx));
    ::new (static_cast<void*>(data_ + idx)) T(v);
    ++size_;
  }

  void erase(T* pos) {
    RTDS_CHECK(pos >= data_ && pos < data_ + size_);
    std::memmove(pos, pos + 1,
                 sizeof(T) * static_cast<std::size_t>(data_ + size_ - pos - 1));
    --size_;
  }

  void clear() { size_ = 0; }

 private:
  void spill(std::size_t new_cap) {
    auto bigger =
        std::make_unique_for_overwrite<std::byte[]>(sizeof(T) * new_cap);
    std::memcpy(bigger.get(), data_, sizeof(T) * size_);
    heap_ = std::move(bigger);  // old heap_ (maybe data_'s target) dies after
    data_ = reinterpret_cast<T*>(heap_.get());
    capacity_ = new_cap;
  }

  std::size_t size_ = 0;
  std::size_t capacity_ = N;
  std::unique_ptr<std::byte[]> heap_;
  alignas(T) std::byte inline_[sizeof(T) * N];
  T* data_ = reinterpret_cast<T*>(inline_);
};

}  // namespace rtds
