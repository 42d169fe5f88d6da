#include "src/content/server_cache.h"

#include <cstdint>
#include <list>
#include <unordered_map>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace cvr::content {
namespace {

/// Naive reference LRU (the pre-optimization std::list + map pairing);
/// the differential test below pins the cell-block cache to it.
class ReferenceLru {
 public:
  explicit ReferenceLru(ServerCacheConfig config) : config_(config) {}

  void advance(const GridCell& center) {
    const std::int32_t r = config_.window_radius_cells;
    for (std::int32_t dx = -r; dx <= r; ++dx) {
      for (std::int32_t dy = -r; dy <= r; ++dy) {
        const GridCell cell{center.gx + dx, center.gy + dy};
        for (int tile = 0; tile < kTilesPerFrame; ++tile) {
          for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
            touch_or_insert(pack_video_id({cell, tile, q}));
          }
        }
      }
    }
  }

  bool lookup(VideoId id) {
    auto it = map_.find(id);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      return true;
    }
    ++misses_;
    touch_or_insert(id);
    return false;
  }

  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  void touch_or_insert(VideoId id) {
    auto it = map_.find(id);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(id);
    map_[id] = lru_.begin();
    if (map_.size() > config_.capacity_tiles) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
  }

  ServerCacheConfig config_;
  std::list<VideoId> lru_;
  std::unordered_map<VideoId, std::list<VideoId>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Random walks + random lookups, comparing hits/misses/size and the
/// full per-id hit/miss sequence against the reference after every
/// operation. Small capacities force heavy eviction churn, including
/// capacities below one cell block (the per-id stamp fallback).
void run_differential(std::size_t capacity, std::int32_t radius,
                      std::uint64_t seed, int ops) {
  ServerCacheConfig config;
  config.capacity_tiles = capacity;
  config.window_radius_cells = radius;
  ServerTileCache cache(config);
  ReferenceLru reference(config);
  cvr::Rng rng(seed);
  GridCell center{100, 100};
  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.4) {
      center.gx += static_cast<std::int32_t>(rng.uniform_int(-1, 1));
      center.gy += static_cast<std::int32_t>(rng.uniform_int(-1, 1));
      cache.advance(center);
      reference.advance(center);
    } else {
      // Lookups around (and sometimes far from) the window: hits,
      // misses, and miss-then-insert transitions.
      const GridCell cell{
          center.gx + static_cast<std::int32_t>(rng.uniform_int(-6, 6)),
          center.gy + static_cast<std::int32_t>(rng.uniform_int(-6, 6))};
      const int tile = static_cast<int>(rng.uniform_int(0, kTilesPerFrame - 1));
      const QualityLevel q =
          static_cast<QualityLevel>(rng.uniform_int(1, kNumQualityLevels));
      const VideoId id = pack_video_id({cell, tile, q});
      ASSERT_EQ(cache.lookup(id), reference.lookup(id))
          << "op " << op << " id " << id;
    }
    ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
    ASSERT_EQ(cache.hits(), reference.hits()) << "op " << op;
    ASSERT_EQ(cache.misses(), reference.misses()) << "op " << op;
  }
  // Residency sweep: every id around the final window, in a fixed
  // order, must hit or miss exactly as in the reference.
  for (std::int32_t dx = -8; dx <= 8; ++dx) {
    for (std::int32_t dy = -8; dy <= 8; ++dy) {
      for (int tile = 0; tile < kTilesPerFrame; ++tile) {
        for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
          const VideoId id =
              pack_video_id({{center.gx + dx, center.gy + dy}, tile, q});
          ASSERT_EQ(cache.lookup(id), reference.lookup(id)) << "sweep " << id;
        }
      }
    }
  }
}

TEST(ServerTileCache, MatchesReferenceLruUnderChurn) {
  run_differential(/*capacity=*/500, /*radius=*/2, /*seed=*/1, /*ops=*/400);
  run_differential(/*capacity=*/2000, /*radius=*/3, /*seed=*/2, /*ops=*/300);
}

TEST(ServerTileCache, MatchesReferenceLruOverLongHorizon) {
  // Capacity of about 2.5 windows (a radius-r window holds
  // (2r+1)^2 x 24 ids: 600 at r=2, 1176 at r=3) over thousands of ops:
  // the walk leaves cells behind until whole blocks are freed and
  // reused, frees delete table entries by backward shift while growth
  // triggers rehashes, stale stamps pile up past several ring
  // compactions, and eviction meets stamps that a later whole-cell
  // touch made stale.
  run_differential(/*capacity=*/1500, /*radius=*/2, /*seed=*/6, /*ops=*/6000);
  run_differential(/*capacity=*/3000, /*radius=*/3, /*seed=*/7, /*ops=*/5000);
}

TEST(ServerTileCache, MatchesReferenceLruAtTinyCapacity) {
  // Below one cell block (4 tiles x 6 levels = 24 ids) the cache keeps
  // per-id stamps; eviction can land inside the cell being advanced.
  run_differential(/*capacity=*/7, /*radius=*/1, /*seed=*/3, /*ops=*/300);
  run_differential(/*capacity=*/24, /*radius=*/0, /*seed=*/4, /*ops=*/300);
  run_differential(/*capacity=*/25, /*radius=*/1, /*seed=*/5, /*ops=*/300);
}

TEST(ServerTileCache, AdvancePrefetchesWindow) {
  ServerCacheConfig config;
  config.window_radius_cells = 1;
  config.capacity_tiles = 100000;
  ServerTileCache cache(config);
  cache.advance({10, 10});
  // 3x3 cells x 4 tiles x 6 levels = 216 entries.
  EXPECT_EQ(cache.size(), 9u * 4u * 6u);
  // Everything inside the window is a hit.
  EXPECT_TRUE(cache.lookup(pack_video_id({{9, 9}, 0, 1})));
  EXPECT_TRUE(cache.lookup(pack_video_id({{11, 11}, 3, 6})));
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 1.0);
}

TEST(ServerTileCache, MissOutsideWindowThenCached) {
  ServerCacheConfig config;
  config.window_radius_cells = 1;
  ServerTileCache cache(config);
  cache.advance({10, 10});
  const VideoId far = pack_video_id({{50, 50}, 0, 1});
  EXPECT_FALSE(cache.lookup(far));  // miss: simulated swap-in
  EXPECT_TRUE(cache.lookup(far));   // now resident
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ServerTileCache, LruEvictionAtCapacity) {
  ServerCacheConfig config;
  config.capacity_tiles = 24;  // exactly one cell's tiles (4 x 6)
  config.window_radius_cells = 0;
  ServerTileCache cache(config);
  cache.advance({0, 0});
  EXPECT_EQ(cache.size(), 24u);
  cache.advance({100, 100});  // displaces the first cell entirely
  EXPECT_EQ(cache.size(), 24u);
  EXPECT_FALSE(cache.lookup(pack_video_id({{0, 0}, 0, 1})));
}

TEST(ServerTileCache, MovementKeepsOverlapResident) {
  ServerCacheConfig config;
  config.window_radius_cells = 2;
  config.capacity_tiles = 1000;
  ServerTileCache cache(config);
  cache.advance({10, 10});
  cache.advance({11, 10});  // one cell step: overlap stays hot
  EXPECT_TRUE(cache.lookup(pack_video_id({{11, 11}, 0, 3})));
  EXPECT_TRUE(cache.lookup(pack_video_id({{9, 10}, 0, 3})));
}

TEST(ServerTileCache, HitRateZeroWhenNoLookups) {
  ServerTileCache cache;
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
}

TEST(ServerTileCache, RejectsZeroCapacity) {
  ServerCacheConfig bad;
  bad.capacity_tiles = 0;
  EXPECT_THROW(ServerTileCache{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace cvr::content
