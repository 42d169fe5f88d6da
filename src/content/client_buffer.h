// Client-side tile buffer with threshold release.
//
// Section V ("Handling repetitive tiles"): the user cannot hold all
// received tiles in RAM; "we will release old tiles once the total number
// of tiles reaches the user-specific threshold ... The user also sends
// ACKs to let the server know when the tiles are released."
//
// insert() appends the released video IDs to a caller vector so the
// caller can put them on the TCP ACK channel back to the server.
//
// Representation: an LRU list linked by node index through a flat node
// pool (freed nodes are reused), indexed by a flat IdTable from id to
// node. Nothing is a separate heap node and both structures only grow,
// lazily, so once the buffer has filled to its threshold, insert and
// touch make no heap allocation. The release order is the exact LRU
// order of a std::list + std::unordered_map implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/content/id_table.h"
#include "src/content/tile.h"

namespace cvr::content {

class ClientTileBuffer {
 public:
  /// `threshold` is the device-dependent max number of resident tiles.
  explicit ClientTileBuffer(std::size_t threshold);

  /// Stores a tile; refreshes recency if already held. Appends to
  /// `released` the video IDs evicted (LRU first) to stay under the
  /// threshold — none most of the time.
  void insert(VideoId id, std::vector<VideoId>& released);

  /// True iff the tile is currently resident (refreshes recency —
  /// displaying a tile counts as use).
  bool touch(VideoId id);

  bool contains(VideoId id) const { return index_.contains(id); }
  std::size_t size() const { return index_.size(); }
  std::size_t threshold() const { return threshold_; }
  std::uint64_t released_total() const { return released_total_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Node {
    VideoId id = 0;
    std::uint32_t prev = kNil;  ///< Toward the most recent end.
    std::uint32_t next = kNil;  ///< Toward the least recent end.
  };

  void unlink(std::uint32_t node);
  void push_front(std::uint32_t node);

  std::size_t threshold_;
  std::vector<Node> nodes_;      // pool; indices are stable
  std::uint32_t head_ = kNil;    // most recent
  std::uint32_t tail_ = kNil;    // least recent
  std::uint32_t free_ = kNil;    // free nodes, chained through `next`
  IdTable<std::uint32_t> index_; // id -> node
  std::uint64_t released_total_ = 0;
};

}  // namespace cvr::content
