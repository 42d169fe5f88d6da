#include "src/content/delivered_tracker.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "src/util/rng.h"

namespace cvr::content {
namespace {

VideoId id(int n) { return pack_video_id({{n, 0}, 0, 1}); }

TEST(DeliveredTileTracker, FreshTileNeedsTransmit) {
  DeliveredTileTracker tracker;
  EXPECT_TRUE(tracker.needs_transmit(id(1)));
}

TEST(DeliveredTileTracker, DeliveredTileSkipped) {
  // Section V: "the server records the tiles that have already been
  // delivered and will not transmit the same tiles again".
  DeliveredTileTracker tracker;
  tracker.mark_delivered(id(1));
  EXPECT_FALSE(tracker.needs_transmit(id(1)));
  EXPECT_EQ(tracker.delivered_count(), 1u);
}

TEST(DeliveredTileTracker, ReleaseMakesRetransmittable) {
  // Section V: "the server will retransmit the tiles if they are
  // requested again" after a release ACK.
  DeliveredTileTracker tracker;
  tracker.mark_delivered(id(1));
  tracker.mark_delivered(id(2));
  tracker.mark_released({id(1)});
  EXPECT_TRUE(tracker.needs_transmit(id(1)));
  EXPECT_FALSE(tracker.needs_transmit(id(2)));
}

TEST(DeliveredTileTracker, FilterNeededKeepsOrder) {
  DeliveredTileTracker tracker;
  tracker.mark_delivered(id(2));
  std::vector<VideoId> needed;
  tracker.filter_needed({id(1), id(2), id(3)}, needed);
  ASSERT_EQ(needed.size(), 2u);
  EXPECT_EQ(needed[0], id(1));
  EXPECT_EQ(needed[1], id(3));
}

TEST(DeliveredTileTracker, FilterNeededAppendsAfterExistingIds) {
  DeliveredTileTracker tracker;
  tracker.mark_delivered(id(5));
  std::vector<VideoId> needed = {id(9)};
  tracker.filter_needed({id(4), id(5), id(6)}, needed);
  EXPECT_EQ(needed, (std::vector<VideoId>{id(9), id(4), id(6)}));
}

TEST(DeliveredTileTracker, ReleaseUnknownIsNoop) {
  DeliveredTileTracker tracker;
  tracker.mark_released({id(9)});
  EXPECT_EQ(tracker.delivered_count(), 0u);
}

TEST(DeliveredTileTracker, DuplicateDeliveryIdempotent) {
  DeliveredTileTracker tracker;
  tracker.mark_delivered(id(1));
  tracker.mark_delivered(id(1));
  EXPECT_EQ(tracker.delivered_count(), 1u);
}

TEST(DeliveredTileTracker, MatchesUnorderedSetThroughGrowthAndChurn) {
  // Phases of delivery-heavy and release-heavy churn grow the set to
  // several thousand ids (crossing every table doubling on the way) and
  // drain it again; after every batch the tracker must agree with
  // std::unordered_set on the count and on every id probed, present or
  // not. Release batches delete runs of neighbouring ids, the
  // backward-shift deletion's hardest case.
  DeliveredTileTracker tracker;
  std::unordered_set<VideoId> reference;
  cvr::Rng rng(29);
  std::vector<VideoId> batch;
  for (int phase = 0; phase < 12; ++phase) {
    const double deliver_share = phase % 3 == 2 ? 0.2 : 0.75;
    for (int step = 0; step < 2000; ++step) {
      const int base = static_cast<int>(rng.uniform_int(0, 6000));
      if (rng.bernoulli(deliver_share)) {
        tracker.mark_delivered(id(base));
        reference.insert(id(base));
      } else {
        batch.clear();
        const int run = static_cast<int>(rng.uniform_int(1, 8));
        for (int k = 0; k < run; ++k) batch.push_back(id(base + k));
        tracker.mark_released(batch);
        for (VideoId v : batch) reference.erase(v);
      }
      ASSERT_EQ(tracker.delivered_count(), reference.size());
      for (int k = 0; k < 4; ++k) {
        const VideoId probe = id(static_cast<int>(rng.uniform_int(0, 6010)));
        ASSERT_EQ(tracker.needs_transmit(probe), !reference.contains(probe))
            << "phase " << phase << ", step " << step;
      }
    }
  }
  for (int n = 0; n <= 6010; ++n) {
    ASSERT_EQ(tracker.needs_transmit(id(n)), !reference.contains(id(n)));
  }
}

}  // namespace
}  // namespace cvr::content
