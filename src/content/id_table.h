// Flat hash table keyed by 64-bit ids (tile VideoIds, packed cells).
//
// Linear probing over a power-of-two slot array kept at most half full,
// Fibonacci hashing, and deletion by backward shift, so no tombstone
// ever lengthens a probe. Every operation is O(1) expected and touches
// one contiguous run of slots; no entry is a separate heap node. It
// indexes the client tile buffer, the delivered-tile record and the
// content DB's cell memo.
//
// The table grows lazily: an empty one holds no storage, and it only
// ever grows (doubling), so a table that has reached its high-water
// size never allocates again.
//
// A pointer returned by find() or insert() stays valid only until the
// next insert() or erase() (growth re-places every entry, and erase()
// shifts entries back into the hole).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cvr::content {

/// A value type for using IdTable as a set.
struct NoValue {};

template <typename Value>
class IdTable {
 public:
  std::size_t size() const { return size_; }

  /// The value stored under `key`, or nullptr.
  Value* find(std::uint64_t key) {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  const Value* find(std::uint64_t key) const {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Stores `key` -> `value` unless `key` is present. Returns the stored
  /// value and whether it was inserted.
  std::pair<Value*, bool> insert(std::uint64_t key, Value value) {
    // Keep the load factor at or under 1/2.
    if (2 * (size_ + 1) > slots_.size()) {
      grow(slots_.empty() ? kMinSlots : 2 * slots_.size());
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    for (; slots_[i].live; i = (i + 1) & mask) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i] = Slot{key, value, true};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes `key`; returns whether it was present.
  bool erase(std::uint64_t key) {
    std::size_t hole = locate(key);
    if (hole == kAbsent) return false;
    const std::size_t mask = slots_.size() - 1;
    // Each later entry of the probe run moves into the hole unless its
    // home slot lies cyclically in (hole, entry].
    for (std::size_t j = (hole + 1) & mask; slots_[j].live;
         j = (j + 1) & mask) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].live = false;
    --size_;
    return true;
  }

 private:
  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  struct Slot {
    std::uint64_t key = 0;
    [[no_unique_address]] Value value{};
    bool live = false;
  };

  /// Fibonacci hashing: the top log2(slots) bits of key x 2^64/phi.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ull) >>
        (64 - std::countr_zero(static_cast<std::uint64_t>(slots_.size()))));
  }

  /// The slot holding `key`, or kAbsent.
  std::size_t locate(std::uint64_t key) const {
    if (size_ == 0) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      if (!slots_[i].live) return kAbsent;
      if (slots_[i].key == key) return i;
    }
  }

  void grow(std::size_t new_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slots, Slot{});
    const std::size_t mask = new_slots - 1;
    for (const Slot& s : old) {
      if (!s.live) continue;
      std::size_t i = home(s.key);
      while (slots_[i].live) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace cvr::content
