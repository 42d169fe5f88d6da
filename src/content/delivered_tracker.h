// Server-side record of delivered tiles.
//
// Section V: "the server records the tiles that have already been
// delivered and will not transmit the same tiles again" — populated by
// client ACKs over TCP — and "after that [a release ACK], the server will
// retransmit the tiles if they are requested again."
//
// The record is a flat IdTable set (linear probing, backward-shift
// deletion): delivery and release ACKs insert and erase in place, with
// no per-tile heap node, and the table only grows, lazily — a user that
// never receives a tile holds no storage.
#pragma once

#include <cstdint>
#include <vector>

#include "src/content/id_table.h"
#include "src/content/tile.h"

namespace cvr::content {

class DeliveredTileTracker {
 public:
  /// True iff the tile must be (re)transmitted, i.e. the server has no
  /// delivery ACK on record for it.
  bool needs_transmit(VideoId id) const { return !delivered_.contains(id); }

  /// Processes a delivery ACK.
  void mark_delivered(VideoId id) { delivered_.insert(id, NoValue{}); }

  /// Processes a batch of release ACKs: those tiles become
  /// retransmittable.
  void mark_released(const std::vector<VideoId>& ids);

  /// Appends to `needed`, in order, the ids of `request` that actually
  /// need sending. `needed` keeps what it held and must not alias
  /// `request`.
  void filter_needed(const std::vector<VideoId>& request,
                     std::vector<VideoId>& needed) const;

  std::size_t delivered_count() const { return delivered_.size(); }

 private:
  IdTable<NoValue> delivered_;
};

}  // namespace cvr::content
