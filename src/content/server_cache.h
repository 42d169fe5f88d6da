// Server-side tile cache.
//
// Section V: "the server will hold a buffer in the memory during the
// runtime to cache some of the tiles ... the server only needs to cache
// the tiles within a range of the user's current position and dynamically
// adjust the cached content corresponding to the user's movement."
//
// We model it as an LRU cache of video IDs with a position-window
// prefetch: advance(user position) pulls every tile within the window
// into the cache so subsequent lookups are hits; anything the window has
// left behind ages out by LRU.
//
// Representation (docs/performance.md): advance() touches every tile of
// every cell in the window — thousands of LRU updates per cell change —
// so a per-id structure (std::list + std::unordered_map, or any flat
// hash keyed by tile id) pays one random cache-line access per tile and
// dominated the fleet's content_fetch phase. The cache is instead keyed
// by CELL: one open-addressing probe finds a cell block holding the
// monotonically increasing touch ticks of all kTilesPerFrame x
// kNumQualityLevels tile ids contiguously, so re-stamping a whole cell
// is one probe plus a short sequential write. Recency is tracked by a
// FIFO ring of stamps; ticks only grow, so the ring is sorted by
// construction and eviction pops stamps from the front, skipping stale
// ones (id re-touched or evicted since). A whole-cell touch pushes a
// single RANGE stamp covering its 24 consecutive ticks with a cursor
// that eviction consumes id by id. Each block records an epoch, the
// first tick of its latest whole-cell touch (or the tick it was freed
// at); no live id of the block is older, so eviction and ring
// compaction drop any stamp older than its block's epoch in O(1)
// instead of checking its 24 offsets. A cell whose missing ids all fit
// under capacity is stamped in one straight pass, since no eviction can
// interleave with it. The policy is the exact per-id LRU —
// every tile touch gets a unique tick, the eviction victim is always
// the live id with the smallest tick, and insertions interleave with
// evictions in the same order as a naive per-id implementation (the
// tests pin hits/misses/size/eviction behavior).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/content/id_table.h"
#include "src/content/tile.h"

namespace cvr::content {

struct ServerCacheConfig {
  std::size_t capacity_tiles = 20000;
  std::int32_t window_radius_cells = 4;  ///< +-20 cm around the user.
};

class ServerTileCache {
 public:
  explicit ServerTileCache(ServerCacheConfig config = {});

  const ServerCacheConfig& config() const { return config_; }

  /// Prefetches all tiles (all indices, all levels) for cells within the
  /// window around `center`. Bounded by the scene via the caller passing
  /// only valid cells; the cache itself accepts any key.
  void advance(const GridCell& center);

  /// Looks a tile up; a hit refreshes recency. A miss simulates the disk
  /// swap the paper avoids (counted, then inserted).
  bool lookup(VideoId id);

  std::size_t size() const { return live_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_rate() const;

 private:
  /// Tile ids per cell block: every (tile index, level) combination.
  static constexpr int kIdsPerBlock = kTilesPerFrame * kNumQualityLevels;

  /// All of one cell's tile ticks, contiguous. tick 0 = id not resident.
  struct Block {
    std::uint64_t ticks[kIdsPerBlock] = {};
    std::uint64_t key = 0;    ///< Packed cell, for table maintenance.
    /// Every live tick in the block is >= epoch: the first tick of the
    /// block's latest whole-block pass, or next_tick_ when it was freed.
    /// A stamp whose tick is below it is wholly stale.
    std::uint64_t epoch = 0;
    std::uint32_t live = 0;   ///< Resident ids in this block.
  };

  /// One recency stamp: blocks_[block].ticks[begin..end) held the
  /// consecutive ticks tick, tick+1, ... when pushed. Offsets whose
  /// tick has changed since (re-touch or eviction) are stale and
  /// skipped; `begin`/`tick` advance as eviction consumes the range.
  struct Stamp {
    std::uint64_t tick = 0;
    std::uint32_t block = 0;
    std::uint8_t begin = 0;
    std::uint8_t end = 0;
  };

  static std::uint64_t block_key(const GridCell& cell);

  std::uint32_t find_or_create_block(std::uint64_t key);
  /// Touches one id (offset within its block): re-stamp on hit, insert
  /// plus capacity eviction on a newly resident id.
  void touch_one(std::uint32_t block, int offset);
  /// Evicts the live id with the smallest tick (front of the ring,
  /// skipping stale stamps).
  void evict_lru();
  /// Returns the block's tile ids to the free list and deletes its
  /// index entry. Ticks are zeroed so outstanding stamps go stale.
  void free_block(std::uint32_t block);
  /// Drops fully stale stamps in place (the ring stays tick-sorted).
  void compact_ring();
  void maybe_compact_ring();

  ServerCacheConfig config_;
  IdTable<std::uint32_t> index_;   // packed cell -> block
  std::vector<Block> blocks_;      // block pool; indices are stable
  std::vector<std::uint32_t> free_blocks_;
  std::vector<Stamp> ring_;        // FIFO of stamps, tick-ascending
  std::size_t ring_head_ = 0;
  std::size_t live_ = 0;           // resident tile ids
  std::uint64_t next_tick_ = 1;    // 0 marks "not resident"
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace cvr::content
