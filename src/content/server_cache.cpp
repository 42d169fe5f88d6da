#include "src/content/server_cache.h"

#include <algorithm>
#include <stdexcept>

namespace cvr::content {

ServerTileCache::ServerTileCache(ServerCacheConfig config) : config_(config) {
  if (config_.capacity_tiles == 0) {
    throw std::invalid_argument("ServerTileCache: zero capacity");
  }
}

std::uint64_t ServerTileCache::block_key(const GridCell& cell) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cell.gx))
          << 32) |
         static_cast<std::uint32_t>(cell.gy);
}

void ServerTileCache::advance(const GridCell& center) {
  // A whole-cell touch assigns kIdsPerBlock consecutive ticks in one
  // range stamp; a capacity below one block would let mid-range
  // evictions target ids of the range itself, so tiny capacities keep
  // one stamp per id (the naive schedule, exact by construction).
  const bool range_stamps = config_.capacity_tiles >=
                            static_cast<std::size_t>(kIdsPerBlock);
  const std::int32_t r = config_.window_radius_cells;
  for (std::int32_t dx = -r; dx <= r; ++dx) {
    for (std::int32_t dy = -r; dy <= r; ++dy) {
      const GridCell cell{center.gx + dx, center.gy + dy};
      const std::uint32_t bidx = find_or_create_block(block_key(cell));
      const std::uint64_t first = next_tick_;
      if (range_stamps) {
        ring_.push_back({first, bidx, 0,
                         static_cast<std::uint8_t>(kIdsPerBlock)});
      }
      Block& b = blocks_[bidx];
      if (range_stamps &&
          live_ + (kIdsPerBlock - b.live) <= config_.capacity_tiles) {
        // Every id fits without an eviction: one straight pass.
        live_ += kIdsPerBlock - b.live;
        b.live = kIdsPerBlock;
        for (int off = 0; off < kIdsPerBlock; ++off) {
          b.ticks[off] = first + static_cast<std::uint64_t>(off);
        }
        next_tick_ += kIdsPerBlock;
      } else {
        for (int off = 0; off < kIdsPerBlock; ++off) {
          const bool newly = b.ticks[off] == 0;
          b.ticks[off] = next_tick_++;
          if (!range_stamps) {
            ring_.push_back({b.ticks[off], bidx,
                             static_cast<std::uint8_t>(off),
                             static_cast<std::uint8_t>(off + 1)});
          }
          if (newly) {
            ++b.live;
            ++live_;
            // Evicting here (not after the block) keeps the exact
            // insert/evict interleaving of a per-id LRU: a victim later
            // in this very block is evicted and then re-inserted when
            // the loop reaches it, exactly as the naive schedule would.
            while (live_ > config_.capacity_tiles) evict_lru();
          }
        }
      }
      // Only now is every live tick of the block >= first: during the
      // pass, ids not yet re-stamped were live under older ticks, and
      // eviction had to see their stamps.
      b.epoch = first;
      maybe_compact_ring();
    }
  }
}

bool ServerTileCache::lookup(VideoId id) {
  const TileKey tk = unpack_video_id(id);
  const int off = tk.tile_index * kNumQualityLevels + (tk.level - 1);
  const std::uint64_t key = block_key(tk.cell);
  const std::uint32_t* found = index_.find(key);
  if (found != nullptr && blocks_[*found].ticks[off] != 0) {
    const std::uint32_t bidx = *found;
    Block& b = blocks_[bidx];
    b.ticks[off] = next_tick_++;
    ring_.push_back({b.ticks[off], bidx, static_cast<std::uint8_t>(off),
                     static_cast<std::uint8_t>(off + 1)});
    ++hits_;
    maybe_compact_ring();
    return true;
  }
  ++misses_;
  touch_one(found != nullptr ? *found : find_or_create_block(key), off);
  return false;
}

double ServerTileCache::hit_rate() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

std::uint32_t ServerTileCache::find_or_create_block(std::uint64_t key) {
  const auto [entry, inserted] = index_.insert(key, 0);
  if (!inserted) return *entry;
  std::uint32_t bidx;
  if (!free_blocks_.empty()) {
    bidx = free_blocks_.back();
    free_blocks_.pop_back();
  } else {
    bidx = static_cast<std::uint32_t>(blocks_.size());
    blocks_.emplace_back();
  }
  *entry = bidx;
  blocks_[bidx].key = key;  // ticks already zero (fresh or free_block'd)
  return bidx;
}

void ServerTileCache::touch_one(std::uint32_t block, int offset) {
  Block& b = blocks_[block];
  const bool newly = b.ticks[offset] == 0;
  b.ticks[offset] = next_tick_++;
  ring_.push_back({b.ticks[offset], block, static_cast<std::uint8_t>(offset),
                   static_cast<std::uint8_t>(offset + 1)});
  if (newly) {
    ++b.live;
    ++live_;
    while (live_ > config_.capacity_tiles) evict_lru();
  }
  maybe_compact_ring();
}

void ServerTileCache::evict_lru() {
  // Ticks only grow, so the ring is sorted: the first stamped offset
  // whose tick is unchanged is the least-recently-touched live id.
  // Every live id has a current stamp, so the scan always terminates.
  for (;;) {
    Stamp& st = ring_[ring_head_];
    Block& b = blocks_[st.block];
    if (st.tick < b.epoch) {
      ++ring_head_;  // wholly stale: skipped without reading its ticks
      continue;
    }
    std::uint64_t tick = st.tick;
    std::uint8_t off = st.begin;
    bool evicted = false;
    while (off < st.end) {
      if (b.ticks[off] == tick) {
        b.ticks[off] = 0;
        --b.live;
        --live_;
        evicted = true;
        ++off;
        ++tick;
        break;
      }
      ++off;
      ++tick;
    }
    st.begin = off;
    st.tick = tick;
    if (off >= st.end) ++ring_head_;
    if (evicted) {
      if (b.live == 0) free_block(st.block);
      return;
    }
  }
}

void ServerTileCache::free_block(std::uint32_t block) {
  Block& b = blocks_[block];
  std::fill(std::begin(b.ticks), std::end(b.ticks), 0);
  b.epoch = next_tick_;
  index_.erase(b.key);
  free_blocks_.push_back(block);
}

void ServerTileCache::maybe_compact_ring() {
  // Live stamps number at most the live blocks (ranges) + live_ (singles),
  // so past this threshold at least half the span is stale and one
  // compaction pass amortizes to O(1) per touch. The second test bounds
  // the consumed prefix: without it, a walk whose stamps all die by
  // eviction would grow the ring forever without crossing the first.
  const std::size_t span = ring_.size() - ring_head_;
  if (span > 2 * (index_.size() + live_) + 1024 || ring_head_ > span + 1024) {
    compact_ring();
  }
}

void ServerTileCache::compact_ring() {
  std::size_t out = 0;
  for (std::size_t i = ring_head_; i < ring_.size(); ++i) {
    const Stamp& st = ring_[i];
    const Block& b = blocks_[st.block];
    if (st.tick < b.epoch) continue;
    bool alive = false;
    std::uint64_t tick = st.tick;
    for (std::uint8_t off = st.begin; off < st.end; ++off, ++tick) {
      if (b.ticks[off] == tick) {
        alive = true;
        break;
      }
    }
    if (alive) ring_[out++] = st;
  }
  ring_.resize(out);
  ring_head_ = 0;
}

}  // namespace cvr::content
