#include "src/proto/messages.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "src/util/rng.h"

namespace cvr::proto {
namespace {

content::VideoId vid(int n, content::QualityLevel q = 3) {
  return content::pack_video_id({{n, n + 1}, n % 4, q});
}

/// A copy of the payload of the single frame in `framed`.
Buffer payload_of(const Buffer& framed) {
  Reader reader(framed);
  const auto payload = unframe(reader).unread();
  return Buffer(payload.begin(), payload.end());
}

TEST(Messages, PoseUpdateRoundTrip) {
  PoseUpdate message;
  message.user = 7;
  message.slot = 123456789ull;
  message.pose.x = 1.25;
  message.pose.yaw = -123.5;
  message.pose.pitch = 42.0;
  const Buffer wire = encode(message);
  EXPECT_EQ(peek_type(wire), MessageType::kPoseUpdate);
  EXPECT_EQ(decode_pose_update(wire), message);
}

TEST(Messages, DeliveryAckRoundTrip) {
  DeliveryAck message;
  message.user = 3;
  message.slot = 42;
  message.tiles = {vid(1), vid(2, 6), vid(3, 1)};
  const Buffer wire = encode(message);
  EXPECT_EQ(peek_type(wire), MessageType::kDeliveryAck);
  EXPECT_EQ(decode_delivery_ack(wire), message);
}

TEST(Messages, ReleaseAckRoundTripEmpty) {
  ReleaseAck message;
  message.user = 1;
  message.slot = 9;
  const Buffer wire = encode(message);
  EXPECT_EQ(decode_release_ack(wire), message);
}

TEST(Messages, TileHeaderRoundTrip) {
  TileHeader message;
  message.video_id = vid(5, 4);
  message.packet_index = 3;
  message.packet_count = 17;
  message.slot = 1000;
  const Buffer wire = encode(message);
  EXPECT_EQ(peek_type(wire), MessageType::kTileHeader);
  EXPECT_EQ(decode_tile_header(wire), message);
}

TEST(Messages, TileHeaderInvariantEnforced) {
  TileHeader bad;
  bad.video_id = vid(1);
  bad.packet_index = 5;
  bad.packet_count = 5;
  EXPECT_THROW(encode(bad), std::invalid_argument);
}

TEST(Messages, WrongTypeDecodingThrows) {
  PoseUpdate pose;
  const Buffer wire = encode(pose);
  EXPECT_THROW(decode_delivery_ack(wire), std::runtime_error);
  EXPECT_THROW(decode_tile_header(wire), std::runtime_error);
}

TEST(Messages, CorruptedWireDetected) {
  DeliveryAck message;
  message.tiles = {vid(1)};
  Buffer wire = encode(message);
  wire[wire.size() / 2] ^= 0xFF;
  EXPECT_THROW(decode_delivery_ack(wire), std::runtime_error);
}

TEST(Messages, TrailingBytesRejected) {
  PoseUpdate message;
  Buffer wire = encode(message);
  wire.push_back(0);  // junk after the frame
  EXPECT_THROW(decode_pose_update(wire), std::runtime_error);
}

TEST(Messages, InvalidTileIdRejected) {
  // Hand-craft a delivery ACK whose tile id has quality level 0.
  Buffer payload;
  Writer writer(payload);
  writer.u8(static_cast<std::uint8_t>(MessageType::kDeliveryAck));
  writer.u32(1);
  writer.u64(1);
  writer.u32(1);
  writer.u64(0);  // level bits = 0: invalid
  const Buffer wire = frame(payload);
  EXPECT_THROW(decode_delivery_ack(wire), std::runtime_error);
}

TEST(Messages, PeekUnknownTagThrows) {
  Buffer payload;
  Writer writer(payload);
  writer.u8(99);
  const Buffer wire = frame(payload);
  EXPECT_THROW(peek_type(wire), std::runtime_error);
}

TEST(Messages, ConnectRequestRoundTrip) {
  ConnectRequest message;
  message.session = 0xDEADBEEFull;
  message.slot = 77;
  message.qos_ms = 18.5;
  const Buffer wire = encode(message);
  EXPECT_EQ(peek_type(wire), MessageType::kConnectRequest);
  EXPECT_EQ(decode_connect_request(wire), message);
}

TEST(Messages, ConnectRequestQosValidated) {
  ConnectRequest bad;
  bad.qos_ms = 0.0;
  EXPECT_THROW(encode(bad), std::invalid_argument);
  bad.qos_ms = -3.0;
  EXPECT_THROW(encode(bad), std::invalid_argument);

  // Hand-craft a frame smuggling a non-positive budget past the encoder.
  Buffer payload;
  Writer writer(payload);
  writer.u8(static_cast<std::uint8_t>(MessageType::kConnectRequest));
  writer.u64(1);
  writer.u64(1);
  writer.f64(-1.0);
  EXPECT_THROW(decode_connect_request(frame(payload)), std::runtime_error);
}

TEST(Messages, AdmitResponseRoundTrip) {
  AdmitResponse message;
  message.session = 42;
  message.slot = 9001;
  message.decision = WireAdmission::kDegrade;
  message.level_cap = 1;
  const Buffer wire = encode(message);
  EXPECT_EQ(peek_type(wire), MessageType::kAdmitResponse);
  EXPECT_EQ(decode_admit_response(wire), message);
}

TEST(Messages, AdmitResponseConsistencyEnforced) {
  AdmitResponse reject_with_levels;
  reject_with_levels.decision = WireAdmission::kReject;
  reject_with_levels.level_cap = 3;
  // The encoder only checks ranges; the decoder owns cross-field
  // consistency (a peer could craft any byte pair).
  EXPECT_THROW(decode_admit_response(encode(reject_with_levels)),
               std::runtime_error);

  AdmitResponse admit_without_levels;
  admit_without_levels.decision = WireAdmission::kAdmit;
  admit_without_levels.level_cap = 0;
  EXPECT_THROW(decode_admit_response(encode(admit_without_levels)),
               std::runtime_error);

  AdmitResponse cap_too_high;
  cap_too_high.decision = WireAdmission::kAdmit;
  cap_too_high.level_cap = content::kNumQualityLevels + 1;
  EXPECT_THROW(encode(cap_too_high), std::invalid_argument);
}

TEST(Messages, DisconnectNoticeRoundTrip) {
  DisconnectNotice message;
  message.session = 31337;
  message.slot = 5;
  const Buffer wire = encode(message);
  EXPECT_EQ(peek_type(wire), MessageType::kDisconnectNotice);
  EXPECT_EQ(decode_disconnect_notice(wire), message);
}

UserHandoff sample_handoff() {
  UserHandoff message;
  message.user = 4;
  message.slot = 321;
  message.delta_hits = 17.0;
  message.delta_count = 40;
  message.base_hits = 20.5;
  message.base_count = 40;
  message.qbar_sum = 123.25;
  message.qbar_slots = 64;
  message.bandwidth_mbps = 47.5;
  message.bandwidth_observations = 300;
  message.pose = {1.0, -2.0, 0.5, 10.0, -5.0, 0.25};
  message.pose_slot = 320;
  message.has_pose = true;
  message.safe_mode = true;
  message.pose_stale = false;
  message.transmit_fraction = 0.625;
  return message;
}

TEST(Messages, UserHandoffRoundTrip) {
  const UserHandoff message = sample_handoff();
  const Buffer wire = encode(message);
  EXPECT_EQ(peek_type(wire), MessageType::kUserHandoff);
  EXPECT_EQ(decode_user_handoff(wire), message);
  // Canonical: re-encoding reproduces the bytes.
  EXPECT_EQ(encode(decode_user_handoff(wire)), wire);
  // The all-defaults frame (a cold user) is valid too.
  const UserHandoff cold;
  EXPECT_EQ(decode_user_handoff(encode(cold)), cold);
}

TEST(Messages, UserHandoffCrossFieldInvariantsEnforcedOnEncode) {
  UserHandoff bad = sample_handoff();
  bad.delta_hits = 41.0;  // exceeds delta_count
  EXPECT_THROW(encode(bad), std::invalid_argument);
  bad = sample_handoff();
  bad.qbar_slots = 0;  // qbar_sum without slots
  EXPECT_THROW(encode(bad), std::invalid_argument);
  bad = sample_handoff();
  bad.qbar_sum = 64.0 * 6.0 + 1.0;  // above the level ceiling
  EXPECT_THROW(encode(bad), std::invalid_argument);
  bad = sample_handoff();
  bad.bandwidth_mbps = -1.0;
  EXPECT_THROW(encode(bad), std::invalid_argument);
  bad = sample_handoff();
  bad.transmit_fraction = 1.5;
  EXPECT_THROW(encode(bad), std::invalid_argument);
  bad = sample_handoff();
  bad.pose.yaw = std::numeric_limits<double>::infinity();
  EXPECT_THROW(encode(bad), std::invalid_argument);
  bad = sample_handoff();
  bad.has_pose = false;  // phantom pose state left behind
  EXPECT_THROW(encode(bad), std::invalid_argument);
}

TEST(Messages, UserHandoffHostileBytesRejectedOnDecode) {
  const Buffer wire = encode(sample_handoff());
  // Corrupt one raw byte: the CRC catches it.
  Buffer flipped = wire;
  flipped[10] ^= 0xFF;
  EXPECT_THROW(decode_user_handoff(flipped), std::runtime_error);
  // Wrong tag: a PoseUpdate frame is not a handoff.
  EXPECT_THROW(decode_user_handoff(encode(PoseUpdate{})), std::runtime_error);

  // Unknown flag bits must be rejected even under a *correct* CRC:
  // unframe the payload, set flags bit 3 (the byte sits just before the
  // trailing 8-byte transmit_fraction), and re-frame.
  Buffer payload = payload_of(wire);
  payload[payload.size() - 9] |= 0x08;
  EXPECT_THROW(decode_user_handoff(frame(payload)), std::runtime_error);

  // Same trick with a field-level violation: a transmit_fraction above
  // 1 under a valid envelope trips the decode-side range check.
  Buffer payload2 = payload_of(wire);
  payload2.resize(payload2.size() - 8);  // drop the trailing f64
  Writer tail(payload2);
  tail.f64(2.0);
  EXPECT_THROW(decode_user_handoff(frame(payload2)), std::runtime_error);
}

TEST(Messages, RandomisedRoundTripSweep) {
  cvr::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    DeliveryAck message;
    message.user = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    message.slot = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    const int count = static_cast<int>(rng.uniform_int(0, 12));
    for (int k = 0; k < count; ++k) {
      message.tiles.push_back(
          vid(static_cast<int>(rng.uniform_int(0, 500)),
              static_cast<content::QualityLevel>(rng.uniform_int(1, 6))));
    }
    EXPECT_EQ(decode_delivery_ack(encode(message)), message);
  }
}

// --- Wire-format pin --------------------------------------------------
//
// One encoding of each message type, as hex, captured from the
// byte-at-a-time encoder that preceded the in-place one. Any change to
// these bytes is a wire-format break: a client built against either
// encoder must read the other's frames.

std::string hex(const Buffer& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

/// Encodes through the returned-Buffer wrapper and in place into a
/// recycled buffer holding stale bytes; both must give the pinned hex,
/// and the pinned bytes must decode back to the message.
template <typename Message, typename Decode>
void expect_pinned(const Message& message, const std::string& pinned,
                   Decode decode_new) {
  EXPECT_EQ(hex(encode(message)), pinned);
  Buffer recycled(300, 0xAB);
  encode(message, recycled);
  EXPECT_EQ(hex(recycled), pinned);
  EXPECT_EQ(decode_new(recycled), message);
  Message in_place;
  decode(recycled, in_place);
  EXPECT_EQ(in_place, message);
}

TEST(Messages, WireBytesGolden) {
  PoseUpdate pose;
  pose.user = 7;
  pose.slot = 123456789ull;
  pose.pose = {1.25, -2.5, 1.6, -123.5, 42.0, 0.125};
  expect_pinned(pose,
                "3d000000010700000015cd5b0700000000000000000000f43f00000000"
                "000004c09a9999999999f93f0000000000e05ec0000000000000454000"
                "0000000000c03fa3b26f2b",
                decode_pose_update);

  DeliveryAck delivery;
  delivery.user = 3;
  delivery.slot = 42;
  delivery.tiles = {content::pack_video_id({{12, -3}, 2, 5}),
                    content::pack_video_id({{0, 7}, 0, 1}),
                    content::pack_video_id({{199, 159}, 3, 6})};
  expect_pinned(delivery,
                "2900000002030000002a0000000000000003000000b5ffff8f01001000"
                "e100001000001000fe1300f0180010007d855eb4",
                decode_delivery_ack);

  ReleaseAck release;
  release.user = 14;
  release.slot = 9000;
  release.tiles = {content::pack_video_id({{5, 5}, 1, 3})};
  expect_pinned(release,
                "19000000030e000000282300000000000001000000ab0000b000001000"
                "c60d608a",
                decode_release_ack);

  TileHeader header;
  header.video_id = content::pack_video_id({{40, 60}, 1, 4});
  header.packet_index = 3;
  header.packet_count = 17;
  header.slot = 1000;
  expect_pinned(header,
                "19000000048c070010050010000300000011000000e803000000000000"
                "92241c03",
                decode_tile_header);

  ConnectRequest connect;
  connect.session = 0x0102030405060708ull;
  connect.slot = 77;
  connect.qos_ms = 15.15;
  expect_pinned(connect,
                "190000000508070605040302014d00000000000000cdcccccccc4c2e40"
                "f6c5733c",
                decode_connect_request);

  AdmitResponse admit;
  admit.session = 99;
  admit.slot = 78;
  admit.decision = WireAdmission::kDegrade;
  admit.level_cap = 1;
  expect_pinned(admit,
                "130000000663000000000000004e0000000000000001018ae1f6a4",
                decode_admit_response);

  DisconnectNotice disconnect;
  disconnect.session = 99;
  disconnect.slot = 5000;
  expect_pinned(disconnect,
                "110000000763000000000000008813000000000000bfac1c2f",
                decode_disconnect_notice);

  UserHandoff handoff;
  handoff.user = 11;
  handoff.slot = 4321;
  handoff.delta_hits = 37.5;
  handoff.delta_count = 40;
  handoff.base_hits = 12.0;
  handoff.base_count = 16;
  handoff.qbar_sum = 88.25;
  handoff.qbar_slots = 30;
  handoff.bandwidth_mbps = 47.125;
  handoff.bandwidth_observations = 29;
  handoff.pose = {3.5, 4.25, 1.6, 170.0, -10.5, 2.0};
  handoff.pose_slot = 4319;
  handoff.has_pose = true;
  handoff.pose_stale = true;
  handoff.transmit_fraction = 0.375;
  expect_pinned(handoff,
                "8e000000080b000000e1100000000000000000000000c0424028000000"
                "000000000000000000002840100000000000000000000000001056401e"
                "0000000000000000000000009047401d000000000000000000000000000c"
                "4000000000000011409a9999999999f93f000000000040654000000000"
                "000025c00000000000000040df1000000000000005000000000000d83f"
                "31617db9",
                decode_user_handoff);
}

TEST(Messages, InPlaceDecodeReplacesStaleTiles) {
  DeliveryAck message;
  message.user = 2;
  message.slot = 8;
  message.tiles = {vid(4), vid(5, 2)};
  const Buffer wire = encode(message);
  DeliveryAck recycled;
  recycled.user = 99;
  recycled.tiles = {vid(1), vid(2), vid(3), vid(6), vid(7)};
  decode(wire, recycled);
  EXPECT_EQ(recycled, message);
}

TEST(Messages, HostileTileCountRejectedAsTruncation) {
  // A tile count larger than the payload can hold, under a valid CRC,
  // is truncation (the decoder checks it before sizing anything from
  // it; the count here stays small enough that a regression could not
  // exhaust memory).
  Buffer payload;
  Writer writer(payload);
  writer.u8(static_cast<std::uint8_t>(MessageType::kDeliveryAck));
  writer.u32(1);
  writer.u64(2);
  writer.u32(1u << 20);
  writer.u64(vid(1));
  EXPECT_THROW(decode_delivery_ack(frame(payload)), std::out_of_range);
}

}  // namespace
}  // namespace cvr::proto
