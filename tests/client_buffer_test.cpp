#include "src/content/client_buffer.h"

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "src/util/rng.h"

namespace cvr::content {
namespace {

VideoId id(int n) { return pack_video_id({{n, 0}, 0, 1}); }

/// Inserts `tile` and returns the ids it released.
std::vector<VideoId> insert(ClientTileBuffer& buffer, VideoId tile) {
  std::vector<VideoId> released;
  buffer.insert(tile, released);
  return released;
}

TEST(ClientTileBuffer, InsertBelowThresholdReleasesNothing) {
  ClientTileBuffer buffer(3);
  EXPECT_TRUE(insert(buffer, id(1)).empty());
  EXPECT_TRUE(insert(buffer, id(2)).empty());
  EXPECT_TRUE(insert(buffer, id(3)).empty());
  EXPECT_EQ(buffer.size(), 3u);
}

TEST(ClientTileBuffer, OverflowReleasesLru) {
  ClientTileBuffer buffer(3);
  insert(buffer, id(1));
  insert(buffer, id(2));
  insert(buffer, id(3));
  const auto released = insert(buffer, id(4));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], id(1));
  EXPECT_FALSE(buffer.contains(id(1)));
  EXPECT_TRUE(buffer.contains(id(4)));
  EXPECT_EQ(buffer.released_total(), 1u);
}

TEST(ClientTileBuffer, ReinsertRefreshesRecency) {
  ClientTileBuffer buffer(3);
  insert(buffer, id(1));
  insert(buffer, id(2));
  insert(buffer, id(3));
  insert(buffer, id(1));  // refresh 1: now 2 is LRU
  const auto released = insert(buffer, id(4));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], id(2));
}

TEST(ClientTileBuffer, TouchRefreshesRecency) {
  ClientTileBuffer buffer(3);
  insert(buffer, id(1));
  insert(buffer, id(2));
  insert(buffer, id(3));
  EXPECT_TRUE(buffer.touch(id(1)));
  const auto released = insert(buffer, id(4));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], id(2));
}

TEST(ClientTileBuffer, TouchMissingReturnsFalse) {
  ClientTileBuffer buffer(3);
  EXPECT_FALSE(buffer.touch(id(9)));
}

TEST(ClientTileBuffer, DuplicateInsertDoesNotGrow) {
  ClientTileBuffer buffer(3);
  insert(buffer, id(1));
  insert(buffer, id(1));
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(ClientTileBuffer, ThresholdOneKeepsNewestOnly) {
  ClientTileBuffer buffer(1);
  insert(buffer, id(1));
  const auto released = insert(buffer, id(2));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], id(1));
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(ClientTileBuffer, RejectsZeroThreshold) {
  EXPECT_THROW(ClientTileBuffer{0}, std::invalid_argument);
}

TEST(ClientTileBuffer, ManyInsertsStayBounded) {
  ClientTileBuffer buffer(50);
  for (int i = 0; i < 1000; ++i) insert(buffer, id(i));
  EXPECT_EQ(buffer.size(), 50u);
  EXPECT_EQ(buffer.released_total(), 950u);
  // Most recent 50 resident.
  EXPECT_TRUE(buffer.contains(id(999)));
  EXPECT_TRUE(buffer.contains(id(950)));
  EXPECT_FALSE(buffer.contains(id(949)));
}

/// The node-based LRU the flat buffer replaced: std::list in recency
/// order (front = most recent) plus an unordered_map into it.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t threshold) : threshold_(threshold) {}

  void insert(VideoId id, std::vector<VideoId>& released) {
    auto it = map_.find(id);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(id);
    map_[id] = lru_.begin();
    while (map_.size() > threshold_) {
      released.push_back(lru_.back());
      map_.erase(lru_.back());
      lru_.pop_back();
    }
  }

  bool touch(VideoId id) {
    auto it = map_.find(id);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  std::size_t size() const { return map_.size(); }

 private:
  std::size_t threshold_;
  std::list<VideoId> lru_;
  std::unordered_map<VideoId, std::list<VideoId>::iterator> map_;
};

TEST(ClientTileBuffer, MatchesReferenceLruUnderRandomInsertTouch) {
  // 120k random inserts and touches over an id space about twice the
  // threshold (so hits, misses and releases all stay frequent) must
  // release exactly the same ids, in the same order, as the reference.
  for (const std::size_t threshold : {1u, 2u, 600u}) {
    ClientTileBuffer buffer(threshold);
    ReferenceLru reference(threshold);
    cvr::Rng rng(1000 + threshold);
    const auto id_space = static_cast<std::int64_t>(2 * threshold + 3);
    std::vector<VideoId> got;
    std::vector<VideoId> want;
    for (int op = 0; op < 120000; ++op) {
      const VideoId tile = id(static_cast<int>(rng.uniform_int(0, id_space)));
      if (rng.bernoulli(0.6)) {
        buffer.insert(tile, got);
        reference.insert(tile, want);
      } else {
        ASSERT_EQ(buffer.touch(tile), reference.touch(tile))
            << "threshold " << threshold << ", op " << op;
      }
      ASSERT_EQ(buffer.size(), reference.size());
    }
    EXPECT_EQ(got, want) << "threshold " << threshold;
    EXPECT_EQ(buffer.released_total(), want.size());
    EXPECT_GT(want.size(), 10000u);
  }
}

}  // namespace
}  // namespace cvr::content
