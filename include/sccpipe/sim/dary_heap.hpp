#pragma once

/// \file dary_heap.hpp
/// Cache-native 4-ary implicit min-heap over trivially-copyable POD keys —
/// the storage core of the event queue (sim/simulator.hpp).
///
/// Why 4-ary instead of the classic binary heap:
///
///  * **depth** — a sift traverses log4(n) levels instead of log2(n), so a
///    pop at one million pending events walks ~10 levels, not ~20. Each
///    level is a dependent load, so halving the depth halves the length of
///    the serial miss chain that dominates large-heap pops;
///  * **cache-line geometry** — keys are 32-byte PODs, so a sibling group
///    of four is exactly two 64-byte cache lines. The array is allocated at
///    128-byte (group) alignment and the root sits at physical index
///    `kPad = 3`, which places every complete sibling group `[4s+1, 4s+4]`
///    on its own aligned 128-byte pair: a min-of-4 scan touches exactly two
///    lines, never three;
///  * **branch shape** — the min-of-4 inner step is three unconditional
///    conditional-move-friendly compares (no data-dependent branches), and
///    the next sibling group is prefetched while the current one is being
///    compared.
///
/// The heap stores *keys only* (the simulator keeps callbacks in a cold
/// slot table), so everything a sift touches is hot sequential POD data.
///
/// Ordering comes from `Key::before(a, b)` — "a dispatches before b" — a
/// strict total order (the simulator's (time, seq) key is unique), so any
/// valid heap arrangement pops in exactly one order: internal strategy
/// changes (rebuilds, compaction timing) can never change the dispatch
/// sequence.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#if defined(__GNUC__) || defined(__clang__)
#define SCCPIPE_HEAP_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define SCCPIPE_HEAP_PREFETCH(addr) ((void)0)
#endif

namespace sccpipe {

template <typename Key>
class DaryKeyHeap {
  static_assert(std::is_trivially_copyable_v<Key>,
                "DaryKeyHeap keys must be trivially copyable PODs");

 public:
  static constexpr std::size_t kAry = 4;
  /// Leading pad slots so that every complete sibling group starts at a
  /// group-aligned offset (see file comment). The root lives at kPad.
  static constexpr std::size_t kPad = kAry - 1;
  static constexpr std::size_t kGroupBytes = kAry * sizeof(Key);

  DaryKeyHeap() = default;
  ~DaryKeyHeap() { deallocate(data_); }
  DaryKeyHeap(const DaryKeyHeap&) = delete;
  DaryKeyHeap& operator=(const DaryKeyHeap&) = delete;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }

  const Key& front() const { return data_[kPad]; }

  void reserve(std::size_t n) {
    if (n > cap_) grow_to(n);
  }

  /// Insert one key, restoring the heap property (append + sift-up).
  void push(const Key& key) {
    if (size_ == cap_) grow_to(cap_ < 8 ? 16 : cap_ * 2);
    const std::size_t p = size_ + kPad;
    ++size_;
    sift_up(p, key);
  }

  /// Remove the front key. The caller must have read front() first.
  void pop_front() {
    --size_;
    if (size_ == 0) return;
    sift_down(kPad, data_[size_ + kPad]);
  }

  /// Drop every key matching \p dead in one compaction pass, then rebuild.
  /// Returns the number of keys removed.
  template <typename Pred>
  std::size_t remove_and_rebuild(Pred dead) {
    const std::size_t end = size_ + kPad;
    std::size_t w = kPad;
    for (std::size_t r = kPad; r < end; ++r) {
      if (!dead(data_[r])) data_[w++] = data_[r];
    }
    const std::size_t removed = end - w;
    size_ = w - kPad;
    rebuild();
    return removed;
  }

 private:
  static std::size_t first_child(std::size_t p) {
    return kAry * (p - kPad) + 1 + kPad;
  }
  static std::size_t parent(std::size_t p) {
    return (p - kPad - 1) / kAry + kPad;
  }

  void sift_up(std::size_t p, Key key) {
    while (p > kPad) {
      const std::size_t par = parent(p);
      if (!Key::before(key, data_[par])) break;
      data_[p] = data_[par];
      p = par;
    }
    data_[p] = key;
  }

  void sift_down(std::size_t p, Key key) {
    const std::size_t end = size_ + kPad;  // one past the last key
    for (;;) {
      const std::size_t c = first_child(p);
      if (c >= end) break;
      std::size_t best = c;
      if (c + kAry <= end) {
        // Complete sibling group: two aligned cache lines, three
        // branch-light compares, and a prefetch of the likely next group.
        SCCPIPE_HEAP_PREFETCH(&data_[first_child(c)]);
        best = Key::before(data_[c + 1], data_[best]) ? c + 1 : best;
        best = Key::before(data_[c + 2], data_[best]) ? c + 2 : best;
        best = Key::before(data_[c + 3], data_[best]) ? c + 3 : best;
      } else {
        for (std::size_t i = c + 1; i < end; ++i) {
          if (Key::before(data_[i], data_[best])) best = i;
        }
      }
      if (!Key::before(data_[best], key)) break;
      data_[p] = data_[best];
      p = best;
    }
    data_[p] = key;
  }

  /// Floyd heap construction: sift down every internal node, deepest
  /// first. O(n) total work.
  void rebuild() {
    if (size_ < 2) return;
    const std::size_t last = size_ + kPad - 1;
    for (std::size_t p = parent(last) + 1; p-- > kPad;) {
      sift_down(p, data_[p]);
    }
  }

  void grow_to(std::size_t new_cap) {
    Key* fresh = allocate(new_cap);
    if (size_ > 0) {
      std::memcpy(fresh + kPad, data_ + kPad, size_ * sizeof(Key));
    }
    deallocate(data_);
    data_ = fresh;
    cap_ = new_cap;
  }

  static Key* allocate(std::size_t cap) {
    return static_cast<Key*>(::operator new(
        (cap + kPad) * sizeof(Key), std::align_val_t{kGroupBytes}));
  }
  static void deallocate(Key* p) {
    if (p != nullptr) {
      ::operator delete(p, std::align_val_t{kGroupBytes});
    }
  }

  Key* data_ = nullptr;
  std::size_t size_ = 0;  ///< live keys (pad slots excluded)
  std::size_t cap_ = 0;   ///< key capacity (pad slots excluded)
};

}  // namespace sccpipe
