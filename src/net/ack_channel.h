// Reliable TCP-like side channel for ACKs and pose uploads.
//
// Section V: delivery/release acknowledgments and motion uploads travel
// over TCP (reliable, in order) while tiles go over RTP. We model the
// side channel as a FIFO with a fixed latency in slots: a message sent in
// slot t is readable at slot t + latency.
//
// Fault injection can black the channel out (drop_until): while a
// blackout is in force, sends are lost and so is anything in flight that
// would have delivered inside the blackout window — modelling the side
// channel's socket going down, not merely slowing.
//
// Storage: a ring of entries that is never shrunk. A delivered entry
// keeps its payload object (swapped out to the receiver's vector in
// exchange for one of that vector's old elements), so with vector-like
// payloads a steady stream of sends and receives reuses the same
// capacity and makes no heap allocation once the ring and the
// receiver's vector have grown to the most messages ever in flight.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cvr::net {

template <typename Message>
class AckChannel {
 public:
  explicit AckChannel(std::size_t latency_slots = 1)
      : latency_(latency_slots) {}

  /// Enqueues a message in slot `now`. Dropped silently if `now` falls
  /// inside an active blackout (see drop_until). The message is
  /// assigned (copied or moved, as passed) into a recycled ring entry.
  template <typename M>
  void send(std::size_t now, M&& message) {
    if (now < blackout_until_) return;  // channel is down: message lost
    if (count_ == ring_.size()) grow();
    Entry& entry = ring_[(head_ + count_) % ring_.size()];
    entry.deliver_at = now + latency_;
    entry.payload = std::forward<M>(message);
    ++count_;
  }

  /// Removes every message that has arrived by slot `now` and returns
  /// them, in send order, as a view of the first elements of `out`.
  /// Messages are swapped into those elements, whose old contents go
  /// back to the ring for reuse; `out` grows when needed and is never
  /// shrunk, so its elements keep their capacity from call to call. The
  /// view is valid until `out` is next modified.
  ///
  /// `now` must be monotonically non-decreasing across calls: the
  /// channel models wall-clock slots, and winding the clock backwards
  /// would silently re-order deliveries relative to earlier receives.
  /// Throws std::logic_error on a regression rather than reordering.
  std::span<const Message> receive(std::size_t now, std::vector<Message>& out) {
    if (now < last_receive_slot_) {
      throw std::logic_error(
          "AckChannel::receive: non-monotonic now (clock went backwards)");
    }
    last_receive_slot_ = now;
    std::size_t arrived = 0;
    while (arrived < count_ &&
           ring_[(head_ + arrived) % ring_.size()].deliver_at <= now) {
      ++arrived;
    }
    if (out.size() < arrived) out.resize(arrived);
    for (std::size_t i = 0; i < arrived; ++i) {
      using std::swap;
      swap(out[i], ring_[head_].payload);
      head_ = (head_ + 1) % ring_.size();
    }
    count_ -= arrived;
    return {out.data(), arrived};
  }

  /// Blackout hook for fault injection: the channel is down until
  /// `slot` (exclusive). Messages sent while `now < slot` are lost, and
  /// in-flight messages that would deliver before `slot` are dropped
  /// immediately. Calling with an earlier slot than a previous blackout
  /// never shortens it.
  void drop_until(std::size_t slot) {
    if (slot <= blackout_until_) return;
    blackout_until_ = slot;
    // Stable in-place filter of the in-flight entries: survivors swap
    // forward, dropped payloads stay behind as spare ring storage.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      Entry& entry = ring_[(head_ + i) % ring_.size()];
      if (entry.deliver_at < slot) continue;
      if (kept != i) {
        using std::swap;
        swap(ring_[(head_ + kept) % ring_.size()], entry);
      }
      ++kept;
    }
    count_ = kept;
  }

  std::size_t in_flight() const { return count_; }
  std::size_t latency() const { return latency_; }
  std::size_t blackout_until() const { return blackout_until_; }

 private:
  struct Entry {
    std::size_t deliver_at = 0;
    Message payload{};
  };

  /// Doubles the ring, unrolling the in-flight entries to its front.
  void grow() {
    std::vector<Entry> bigger(ring_.empty() ? 4 : 2 * ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      using std::swap;
      swap(bigger[i], ring_[(head_ + i) % ring_.size()]);
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  std::size_t latency_;
  std::size_t blackout_until_ = 0;
  std::size_t last_receive_slot_ = 0;
  std::vector<Entry> ring_;  // circular; count_ entries from head_
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace cvr::net
