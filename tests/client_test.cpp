#include "src/system/client.h"

#include <gtest/gtest.h>

namespace cvr::system {
namespace {

content::VideoId id(int n, content::QualityLevel q = 3) {
  return content::pack_video_id({{n, 0}, 0, q});
}

// The delivery views `tiles`; a temporary argument lives until the end
// of the full expression, i.e. through the process() call.
SlotDelivery delivery_of(const std::vector<content::VideoId>& tiles,
                         double delay_ms = 5.0, bool all_complete = true) {
  SlotDelivery d;
  d.tiles = tiles;
  d.complete.assign(d.tiles.size(), all_complete);
  d.delay_ms = delay_ms;
  return d;
}

/// Processes a slot into a fresh outcome.
DisplayOutcome process(Client& client, const SlotDelivery& delivery,
                       const std::vector<content::VideoId>& needed) {
  DisplayOutcome out;
  client.process_slot(delivery, needed, out);
  return out;
}

TEST(Client, DisplaysWhenEverythingArrivesOnTime) {
  Client client;
  const auto out =
      process(client, delivery_of({id(1), id(2)}), {id(1), id(2)});
  EXPECT_TRUE(out.frame_on_time);
  EXPECT_TRUE(out.needed_resident);
  EXPECT_TRUE(out.correct_content);
  EXPECT_EQ(out.delivery_acks.size(), 2u);
  EXPECT_TRUE(out.release_acks.empty());
  EXPECT_EQ(client.frames_displayed(), 1u);
}

TEST(Client, LateDeliveryDropsFrame) {
  ClientConfig config;
  config.display_deadline_ms = 10.0;
  Client client(config);
  const auto out =
      process(client, delivery_of({id(1)}, 11.0), {id(1)});
  EXPECT_FALSE(out.frame_on_time);
  EXPECT_FALSE(out.correct_content);
  EXPECT_TRUE(out.needed_resident);  // tile arrived, just late
  EXPECT_EQ(client.frames_displayed(), 0u);
}

TEST(Client, IncompleteTileNotResident) {
  Client client;
  const auto out = process(client,
      delivery_of({id(1)}, 5.0, /*all_complete=*/false), {id(1)});
  EXPECT_TRUE(out.frame_on_time);  // frame shown, but with stale content
  EXPECT_FALSE(out.needed_resident);
  EXPECT_FALSE(out.correct_content);
  EXPECT_TRUE(out.delivery_acks.empty());  // lost tiles are never ACKed
}

TEST(Client, ResidentTilesFromEarlierSlotsCount) {
  Client client;
  process(client, delivery_of({id(1), id(2)}), {});
  // Nothing delivered now, but the needed tiles are already resident:
  // repetitive-tile suppression relies on exactly this.
  const auto out = process(client, delivery_of({}, 0.0), {id(1), id(2)});
  EXPECT_TRUE(out.correct_content);
}

TEST(Client, MissingNeededTileFails) {
  Client client;
  const auto out = process(client, delivery_of({id(1)}), {id(1), id(9)});
  EXPECT_FALSE(out.needed_resident);
  EXPECT_FALSE(out.correct_content);
  EXPECT_TRUE(out.frame_on_time);
}

TEST(Client, BufferOverflowEmitsReleaseAcks) {
  ClientConfig config;
  config.buffer_threshold = 3;
  Client client(config);
  process(client, delivery_of({id(1), id(2), id(3)}), {});
  const auto out = process(client, delivery_of({id(4), id(5)}), {});
  ASSERT_EQ(out.release_acks.size(), 2u);
  EXPECT_EQ(out.release_acks[0], id(1));
  EXPECT_EQ(out.release_acks[1], id(2));
}

TEST(Client, TouchingNeededTilesProtectsThemFromEviction) {
  ClientConfig config;
  config.buffer_threshold = 3;
  Client client(config);
  process(client, delivery_of({id(1), id(2), id(3)}), {id(1)});
  // id(1) was touched by display; inserting one more evicts id(2).
  const auto out = process(client, delivery_of({id(4)}), {});
  ASSERT_EQ(out.release_acks.size(), 1u);
  EXPECT_EQ(out.release_acks[0], id(2));
}

TEST(Client, DecodeOverloadDropsFrame) {
  ClientConfig config;
  config.decoder.decoders = 1;
  config.decoder.decode_ms_per_tile = 10.0;
  config.decoder.stage_budget_ms = 15.0;
  Client client(config);
  std::vector<content::VideoId> many = {id(1), id(2)};  // 20 ms decode
  const auto out = process(client, delivery_of(many, 1.0), many);
  EXPECT_FALSE(out.frame_on_time);
  EXPECT_DOUBLE_EQ(out.decode_ms, 20.0);
}

TEST(Client, MismatchedDeliveryVectorsThrow) {
  Client client;
  const std::vector<content::VideoId> tiles = {id(1)};
  SlotDelivery bad;
  bad.tiles = tiles;
  bad.complete = {};
  EXPECT_THROW(process(client, bad, {}), std::invalid_argument);
}

TEST(Client, FrameCountersAccumulate) {
  Client client;
  process(client, delivery_of({id(1)}), {id(1)});
  process(client, delivery_of({id(2)}, 1000.0), {id(2)});
  EXPECT_EQ(client.frames_total(), 2u);
  EXPECT_EQ(client.frames_displayed(), 1u);
}

TEST(Client, EmptyDeliveryEmptyNeedsDisplays) {
  // A user looking at fully-cached content with perfect prediction:
  // nothing to send, frame shows.
  Client client;
  const auto out = process(client, delivery_of({}, 0.0), {});
  EXPECT_TRUE(out.frame_on_time);
  EXPECT_TRUE(out.correct_content);
}

}  // namespace
}  // namespace cvr::system
