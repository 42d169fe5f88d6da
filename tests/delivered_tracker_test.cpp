#include "src/content/delivered_tracker.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace cvr::content
