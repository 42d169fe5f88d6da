#include "src/net/ack_channel.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace cvr::net {
namespace {

/// Drains what has arrived by `now` into a fresh vector.
template <typename Message>
std::vector<Message> receive(AckChannel<Message>& ch, std::size_t now) {
  std::vector<Message> out;
  const auto got = ch.receive(now, out);
  return std::vector<Message>(got.begin(), got.end());
}

TEST(AckChannel, DeliversAfterLatency) {
  AckChannel<int> ch(2);
  ch.send(0, 42);
  EXPECT_TRUE(receive(ch, 0).empty());
  EXPECT_TRUE(receive(ch, 1).empty());
  const auto got = receive(ch, 2);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 42);
}

TEST(AckChannel, ZeroLatencyIsImmediate) {
  AckChannel<int> ch(0);
  ch.send(5, 1);
  const auto got = receive(ch, 5);
  ASSERT_EQ(got.size(), 1u);
}

TEST(AckChannel, PreservesSendOrder) {
  AckChannel<int> ch(1);
  ch.send(0, 1);
  ch.send(0, 2);
  ch.send(1, 3);
  const auto got = receive(ch, 10);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 2);
  EXPECT_EQ(got[2], 3);
}

TEST(AckChannel, PartialDrain) {
  AckChannel<int> ch(1);
  ch.send(0, 1);
  ch.send(5, 2);
  const auto first = receive(ch, 1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], 1);
  EXPECT_EQ(ch.in_flight(), 1u);
  const auto second = receive(ch, 6);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], 2);
  EXPECT_EQ(ch.in_flight(), 0u);
}

TEST(AckChannel, ReceiveIsDestructive) {
  AckChannel<int> ch(0);
  ch.send(0, 9);
  EXPECT_EQ(receive(ch, 0).size(), 1u);
  EXPECT_TRUE(receive(ch, 0).empty());
}

TEST(AckChannel, ReceiveThrowsOnClockRegression) {
  AckChannel<int> ch(0);
  receive(ch, 5);
  EXPECT_THROW(receive(ch, 4), std::logic_error);
  // The same slot is fine (non-decreasing, not strictly increasing).
  EXPECT_NO_THROW(receive(ch, 5));
}

TEST(AckChannel, DropUntilLosesSendsDuringBlackout) {
  AckChannel<int> ch(0);
  ch.drop_until(10);
  EXPECT_EQ(ch.blackout_until(), 10u);
  ch.send(5, 1);  // lost: the channel is down
  EXPECT_TRUE(receive(ch, 9).empty());
  ch.send(10, 2);  // blackout over (exclusive bound)
  const auto got = receive(ch, 10);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 2);
}

TEST(AckChannel, DropUntilKillsInFlightMessages) {
  AckChannel<int> ch(3);
  ch.send(0, 1);  // would deliver at 3 — inside the blackout, dropped
  ch.send(0, 2);
  EXPECT_EQ(ch.in_flight(), 2u);
  ch.drop_until(5);
  EXPECT_EQ(ch.in_flight(), 0u);
  EXPECT_TRUE(receive(ch, 4).empty());
}

TEST(AckChannel, DropUntilSparesMessagesDeliveringAfterBlackout) {
  AckChannel<int> ch(4);
  ch.send(0, 7);  // delivers at 4, exactly when the channel is back up
  ch.drop_until(4);
  EXPECT_EQ(ch.in_flight(), 1u);
  const auto got = receive(ch, 4);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 7);
}

TEST(AckChannel, DropUntilNeverShortensABlackout) {
  AckChannel<int> ch(0);
  ch.drop_until(10);
  ch.drop_until(3);  // no-op: earlier than the standing blackout
  EXPECT_EQ(ch.blackout_until(), 10u);
  ch.send(5, 1);
  EXPECT_TRUE(receive(ch, 9).empty());
}

TEST(AckChannel, MoveOnlyFriendlyPayloads) {
  AckChannel<std::string> ch(1);
  ch.send(0, std::string(1000, 'x'));
  const auto got = receive(ch, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].size(), 1000u);
}

TEST(AckChannel, ReceiveViewCoversOnlyThisSlotsArrivals) {
  // The receive vector is never shrunk: after a two-message slot, a
  // one-message slot views one element of a two-element vector.
  AckChannel<int> ch(0);
  std::vector<int> out;
  ch.send(0, 1);
  ch.send(0, 2);
  EXPECT_EQ(ch.receive(0, out).size(), 2u);
  ch.send(1, 3);
  const auto got = ch.receive(1, out);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 3);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(ch.receive(2, out).empty());
}

TEST(AckChannel, MatchesDequeModelThroughWrapsAndBlackouts) {
  // Random sends, receives and blackouts on a latency-3 channel: the
  // ring grows, wraps and filters in place, and must deliver exactly
  // what a deque-based FIFO model does, in the same order.
  AckChannel<std::vector<int>> ch(3);
  struct Pending {
    std::size_t deliver_at;
    std::vector<int> payload;
  };
  std::deque<Pending> model;
  std::size_t blackout = 0;
  std::vector<std::vector<int>> out;
  cvr::Rng rng(31);
  int next = 0;
  for (std::size_t now = 0; now < 4000; ++now) {
    const int sends = static_cast<int>(rng.uniform_int(0, 4));
    for (int k = 0; k < sends; ++k) {
      std::vector<int> message(static_cast<std::size_t>(1 + next % 5), next);
      ++next;
      ch.send(now, message);
      if (now >= blackout) model.push_back({now + 3, message});
    }
    if (rng.bernoulli(0.02)) {
      const std::size_t until = now + static_cast<std::size_t>(
                                          rng.uniform_int(1, 6));
      ch.drop_until(until);
      if (until > blackout) {
        blackout = until;
        std::erase_if(model, [until](const Pending& p) {
          return p.deliver_at < until;
        });
      }
    }
    if (rng.bernoulli(0.7)) {
      std::vector<std::vector<int>> want;
      while (!model.empty() && model.front().deliver_at <= now) {
        want.push_back(model.front().payload);
        model.pop_front();
      }
      const auto got = ch.receive(now, out);
      ASSERT_EQ(std::vector<std::vector<int>>(got.begin(), got.end()), want)
          << "slot " << now;
    }
    ASSERT_EQ(ch.in_flight(), model.size());
  }
}

}  // namespace
}  // namespace cvr::net
