// Fixed-capacity circular deque used for the core's pre-sized pipeline
// queues (ROB, fetch buffer). std::deque allocates in chunks, touches the
// allocator on growth, and scatters elements across pages; the pipeline
// queues have hard architectural capacity bounds, so a power-of-two ring
// over one contiguous slab gives O(1) push/pop at both ends, O(1) random
// access, and cache-friendly iteration — the properties the per-cycle ROB
// walks live on.
#pragma once

#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace safespec {

/// Bounded double-ended queue over a power-of-two slab. The caller never
/// pushes past `capacity()` (the pipeline checks occupancy first; push
/// asserts in debug builds). T must be default-constructible (slots are
/// value-initialized up front) and move-assignable; emplace_back()
/// re-creates a slot's object in place.
template <typename T>
class RingBuffer {
 public:
  /// Rounds `min_capacity` up to a power of two (masked index math).
  explicit RingBuffer(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap *= 2;
    slab_.resize(cap);
    mask_ = cap - 1;
  }

  std::size_t capacity() const { return slab_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return slab_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return slab_[(head_ + i) & mask_];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) {
    assert(size_ < slab_.size());
    slab_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  /// Appends a value-initialized element and returns it, so the caller
  /// fills the slot in place instead of building a T and moving it in.
  T& emplace_back() {
    assert(size_ < slab_.size());
    T* slot = &slab_[(head_ + size_) & mask_];
    std::destroy_at(slot);
    ::new (static_cast<void*>(slot)) T();
    ++size_;
    return *slot;
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Random-access iterator (enough for range-for and <algorithm>).
  template <typename Ring, typename Value>
  class Iter {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;
    using pointer = Value*;
    using reference = Value&;

    Iter() = default;
    Iter(Ring* ring, std::size_t pos) : ring_(ring), pos_(pos) {}

    reference operator*() const { return (*ring_)[pos_]; }
    pointer operator->() const { return &(*ring_)[pos_]; }
    reference operator[](difference_type n) const {
      return (*ring_)[pos_ + static_cast<std::size_t>(n)];
    }

    Iter& operator++() { ++pos_; return *this; }
    Iter operator++(int) { Iter t = *this; ++pos_; return t; }
    Iter& operator--() { --pos_; return *this; }
    Iter operator--(int) { Iter t = *this; --pos_; return t; }
    Iter& operator+=(difference_type n) { pos_ += n; return *this; }
    Iter& operator-=(difference_type n) { pos_ -= n; return *this; }
    friend Iter operator+(Iter it, difference_type n) { return it += n; }
    friend Iter operator+(difference_type n, Iter it) { return it += n; }
    friend Iter operator-(Iter it, difference_type n) { return it -= n; }
    friend difference_type operator-(const Iter& a, const Iter& b) {
      return static_cast<difference_type>(a.pos_) -
             static_cast<difference_type>(b.pos_);
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.pos_ == b.pos_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.pos_ != b.pos_;
    }
    friend bool operator<(const Iter& a, const Iter& b) {
      return a.pos_ < b.pos_;
    }
    friend bool operator>(const Iter& a, const Iter& b) { return b < a; }
    friend bool operator<=(const Iter& a, const Iter& b) { return !(b < a); }
    friend bool operator>=(const Iter& a, const Iter& b) { return !(a < b); }

   private:
    Ring* ring_ = nullptr;
    std::size_t pos_ = 0;  ///< logical index from the front
  };

  using iterator = Iter<RingBuffer, T>;
  using const_iterator = Iter<const RingBuffer, const T>;

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  std::vector<T> slab_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace safespec
