#include "src/proto/messages.h"

#include <cmath>
#include <stdexcept>

#include "src/content/quality.h"

namespace cvr::proto {

namespace {

/// Encoded size of a pose: six f64s.
constexpr std::size_t kPoseBytes = 6 * 8;

/// Replaces `out` with an open frame holding the type tag, with room
/// reserved for `body` more payload bytes and the CRC; end_frame(out, 0)
/// closes it.
Writer open_message(Buffer& out, MessageType type, std::size_t body) {
  out.clear();
  out.reserve(4 + 1 + body + 4);
  begin_frame(out);
  Writer writer(out);
  writer.u8(static_cast<std::uint8_t>(type));
  return writer;
}

/// Unframes `framed` (exactly one frame) and checks its tag; returns a
/// Reader over the rest of the payload, in place.
Reader open_payload(const Buffer& framed, MessageType expected) {
  Reader framed_reader(framed);
  Reader reader = unframe(framed_reader);
  if (!framed_reader.done()) {
    throw std::runtime_error("proto: trailing bytes after frame");
  }
  const auto tag = reader.u8();
  if (tag != static_cast<std::uint8_t>(expected)) {
    throw std::runtime_error("proto: unexpected message type");
  }
  return reader;
}

void expect_done(const Reader& reader) {
  if (!reader.done()) throw std::runtime_error("proto: trailing payload bytes");
}

void write_pose(Writer& writer, const motion::Pose& pose) {
  writer.f64(pose.x);
  writer.f64(pose.y);
  writer.f64(pose.z);
  writer.f64(pose.yaw);
  writer.f64(pose.pitch);
  writer.f64(pose.roll);
}

motion::Pose read_pose(Reader& reader) {
  motion::Pose pose;
  pose.x = reader.f64();
  pose.y = reader.f64();
  pose.z = reader.f64();
  pose.yaw = reader.f64();
  pose.pitch = reader.f64();
  pose.roll = reader.f64();
  return pose;
}

std::size_t tiles_bytes(const std::vector<content::VideoId>& tiles) {
  return 4 + 8 * tiles.size();
}

void write_tiles(Writer& writer, const std::vector<content::VideoId>& tiles) {
  writer.u32(static_cast<std::uint32_t>(tiles.size()));
  for (content::VideoId id : tiles) writer.u64(id);
}

void read_tiles(Reader& reader, std::vector<content::VideoId>& tiles) {
  const std::uint32_t count = reader.u32();
  // A count the payload cannot hold is truncation; checking it first
  // keeps a hostile count from sizing the vector.
  if (count > reader.remaining() / 8) {
    throw std::out_of_range("proto::Reader: truncated input");
  }
  tiles.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    const content::VideoId id = reader.u64();
    // Validate the packed key (throws out_of_range if malformed levels /
    // tile indices were smuggled in); re-packing must be the identity.
    const content::TileKey key = content::unpack_video_id(id);
    if (!content::is_valid_level(key.level)) {
      throw std::runtime_error("proto: invalid quality level in tile id");
    }
    tiles.push_back(id);
  }
}

/// Shared invariant check for UserHandoff (see the struct comment).
/// `Error` selects the exception type: std::invalid_argument on encode
/// (caller bug), std::runtime_error on decode (hostile bytes).
template <typename Error>
void validate_user_handoff(const UserHandoff& message) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw Error(what);
  };
  const auto tally_ok = [](double hits, std::uint64_t count) {
    return std::isfinite(hits) && hits >= 0.0 &&
           hits <= static_cast<double>(count);
  };
  require(tally_ok(message.delta_hits, message.delta_count),
          "proto: handoff delta tally out of range");
  require(tally_ok(message.base_hits, message.base_count),
          "proto: handoff base tally out of range");
  require(std::isfinite(message.qbar_sum) && message.qbar_sum >= 0.0,
          "proto: handoff qbar_sum must be finite and non-negative");
  require(message.qbar_slots > 0 || message.qbar_sum == 0.0,
          "proto: handoff qbar_sum without qbar_slots");
  require(message.qbar_sum <=
              static_cast<double>(message.qbar_slots) *
                  static_cast<double>(content::kNumQualityLevels),
          "proto: handoff qbar_sum above the level ceiling");
  require(std::isfinite(message.bandwidth_mbps) &&
              message.bandwidth_mbps >= 0.0,
          "proto: handoff bandwidth must be finite and non-negative");
  require(std::isfinite(message.transmit_fraction) &&
              message.transmit_fraction >= 0.0 &&
              message.transmit_fraction <= 1.0,
          "proto: handoff transmit_fraction outside [0, 1]");
  const double components[] = {message.pose.x,     message.pose.y,
                               message.pose.z,     message.pose.yaw,
                               message.pose.pitch, message.pose.roll};
  for (double c : components) {
    require(std::isfinite(c), "proto: handoff pose must be finite");
  }
  if (!message.has_pose) {
    require(message.pose == motion::Pose{} && message.pose_slot == 0,
            "proto: handoff carries pose state without has_pose");
  }
}

}  // namespace

void encode(const PoseUpdate& message, Buffer& out) {
  Writer writer =
      open_message(out, MessageType::kPoseUpdate, 4 + 8 + kPoseBytes);
  writer.u32(message.user);
  writer.u64(message.slot);
  write_pose(writer, message.pose);
  end_frame(out, 0);
}

void encode(const DeliveryAck& message, Buffer& out) {
  Writer writer = open_message(out, MessageType::kDeliveryAck,
                               4 + 8 + tiles_bytes(message.tiles));
  writer.u32(message.user);
  writer.u64(message.slot);
  write_tiles(writer, message.tiles);
  end_frame(out, 0);
}

void encode(const ReleaseAck& message, Buffer& out) {
  Writer writer = open_message(out, MessageType::kReleaseAck,
                               4 + 8 + tiles_bytes(message.tiles));
  writer.u32(message.user);
  writer.u64(message.slot);
  write_tiles(writer, message.tiles);
  end_frame(out, 0);
}

void encode(const TileHeader& message, Buffer& out) {
  if (message.packet_index >= message.packet_count) {
    throw std::invalid_argument("proto: packet_index >= packet_count");
  }
  Writer writer = open_message(out, MessageType::kTileHeader, 8 + 4 + 4 + 8);
  writer.u64(message.video_id);
  writer.u32(message.packet_index);
  writer.u32(message.packet_count);
  writer.u64(message.slot);
  end_frame(out, 0);
}

void encode(const ConnectRequest& message, Buffer& out) {
  if (!std::isfinite(message.qos_ms) || message.qos_ms <= 0.0) {
    throw std::invalid_argument("proto: qos_ms must be finite and positive");
  }
  Writer writer = open_message(out, MessageType::kConnectRequest, 8 + 8 + 8);
  writer.u64(message.session);
  writer.u64(message.slot);
  writer.f64(message.qos_ms);
  end_frame(out, 0);
}

void encode(const AdmitResponse& message, Buffer& out) {
  if (static_cast<std::uint8_t>(message.decision) > 2) {
    throw std::invalid_argument("proto: unknown admission decision");
  }
  if (message.level_cap >
      static_cast<std::uint8_t>(content::kNumQualityLevels)) {
    throw std::invalid_argument("proto: level_cap above the level count");
  }
  Writer writer = open_message(out, MessageType::kAdmitResponse, 8 + 8 + 1 + 1);
  writer.u64(message.session);
  writer.u64(message.slot);
  writer.u8(static_cast<std::uint8_t>(message.decision));
  writer.u8(message.level_cap);
  end_frame(out, 0);
}

void encode(const DisconnectNotice& message, Buffer& out) {
  Writer writer = open_message(out, MessageType::kDisconnectNotice, 8 + 8);
  writer.u64(message.session);
  writer.u64(message.slot);
  end_frame(out, 0);
}

void encode(const UserHandoff& message, Buffer& out) {
  validate_user_handoff<std::invalid_argument>(message);
  Writer writer = open_message(out, MessageType::kUserHandoff,
                               4 + 8 + 8 * 8 + kPoseBytes + 8 + 1 + 8);
  writer.u32(message.user);
  writer.u64(message.slot);
  writer.f64(message.delta_hits);
  writer.u64(message.delta_count);
  writer.f64(message.base_hits);
  writer.u64(message.base_count);
  writer.f64(message.qbar_sum);
  writer.u64(message.qbar_slots);
  writer.f64(message.bandwidth_mbps);
  writer.u64(message.bandwidth_observations);
  write_pose(writer, message.pose);
  writer.u64(message.pose_slot);
  const std::uint8_t flags =
      static_cast<std::uint8_t>((message.has_pose ? 1u : 0u) |
                                (message.safe_mode ? 2u : 0u) |
                                (message.pose_stale ? 4u : 0u));
  writer.u8(flags);
  writer.f64(message.transmit_fraction);
  end_frame(out, 0);
}

MessageType peek_type(const Buffer& framed) {
  Reader framed_reader(framed);
  Reader reader = unframe(framed_reader);
  const auto tag = reader.u8();
  if (tag < 1 || tag > 8) {
    throw std::runtime_error("proto: unknown message type tag");
  }
  return static_cast<MessageType>(tag);
}

void decode(const Buffer& framed, PoseUpdate& out) {
  Reader reader = open_payload(framed, MessageType::kPoseUpdate);
  out.user = reader.u32();
  out.slot = reader.u64();
  out.pose = read_pose(reader);
  expect_done(reader);
}

void decode(const Buffer& framed, DeliveryAck& out) {
  Reader reader = open_payload(framed, MessageType::kDeliveryAck);
  out.user = reader.u32();
  out.slot = reader.u64();
  read_tiles(reader, out.tiles);
  expect_done(reader);
}

void decode(const Buffer& framed, ReleaseAck& out) {
  Reader reader = open_payload(framed, MessageType::kReleaseAck);
  out.user = reader.u32();
  out.slot = reader.u64();
  read_tiles(reader, out.tiles);
  expect_done(reader);
}

void decode(const Buffer& framed, TileHeader& out) {
  Reader reader = open_payload(framed, MessageType::kTileHeader);
  out.video_id = reader.u64();
  out.packet_index = reader.u32();
  out.packet_count = reader.u32();
  out.slot = reader.u64();
  expect_done(reader);
  if (out.packet_index >= out.packet_count) {
    throw std::runtime_error("proto: packet_index >= packet_count");
  }
}

void decode(const Buffer& framed, ConnectRequest& out) {
  Reader reader = open_payload(framed, MessageType::kConnectRequest);
  out.session = reader.u64();
  out.slot = reader.u64();
  out.qos_ms = reader.f64();
  expect_done(reader);
  if (!std::isfinite(out.qos_ms) || out.qos_ms <= 0.0) {
    throw std::runtime_error("proto: qos_ms must be finite and positive");
  }
}

void decode(const Buffer& framed, AdmitResponse& out) {
  Reader reader = open_payload(framed, MessageType::kAdmitResponse);
  out.session = reader.u64();
  out.slot = reader.u64();
  const std::uint8_t decision = reader.u8();
  out.level_cap = reader.u8();
  expect_done(reader);
  if (decision > 2) {
    throw std::runtime_error("proto: unknown admission decision");
  }
  out.decision = static_cast<WireAdmission>(decision);
  if (out.level_cap > static_cast<std::uint8_t>(content::kNumQualityLevels)) {
    throw std::runtime_error("proto: level_cap above the level count");
  }
  // Decision/cap consistency is part of the wire contract: a reject
  // grants no levels, an admit or degrade-admit grants at least one.
  if (out.decision == WireAdmission::kReject) {
    if (out.level_cap != 0) {
      throw std::runtime_error("proto: reject must carry level_cap 0");
    }
  } else if (out.level_cap == 0) {
    throw std::runtime_error("proto: admit requires a non-zero level_cap");
  }
}

void decode(const Buffer& framed, DisconnectNotice& out) {
  Reader reader = open_payload(framed, MessageType::kDisconnectNotice);
  out.session = reader.u64();
  out.slot = reader.u64();
  expect_done(reader);
}

void decode(const Buffer& framed, UserHandoff& out) {
  Reader reader = open_payload(framed, MessageType::kUserHandoff);
  out.user = reader.u32();
  out.slot = reader.u64();
  out.delta_hits = reader.f64();
  out.delta_count = reader.u64();
  out.base_hits = reader.f64();
  out.base_count = reader.u64();
  out.qbar_sum = reader.f64();
  out.qbar_slots = reader.u64();
  out.bandwidth_mbps = reader.f64();
  out.bandwidth_observations = reader.u64();
  out.pose = read_pose(reader);
  out.pose_slot = reader.u64();
  const std::uint8_t flags = reader.u8();
  out.transmit_fraction = reader.f64();
  expect_done(reader);
  if (flags > 7) {
    throw std::runtime_error("proto: handoff carries unknown flag bits");
  }
  out.has_pose = (flags & 1u) != 0;
  out.safe_mode = (flags & 2u) != 0;
  out.pose_stale = (flags & 4u) != 0;
  validate_user_handoff<std::runtime_error>(out);
}

namespace {

template <typename Message>
Message decode_new(const Buffer& framed) {
  Message message;
  decode(framed, message);
  return message;
}

}  // namespace

PoseUpdate decode_pose_update(const Buffer& framed) {
  return decode_new<PoseUpdate>(framed);
}
DeliveryAck decode_delivery_ack(const Buffer& framed) {
  return decode_new<DeliveryAck>(framed);
}
ReleaseAck decode_release_ack(const Buffer& framed) {
  return decode_new<ReleaseAck>(framed);
}
TileHeader decode_tile_header(const Buffer& framed) {
  return decode_new<TileHeader>(framed);
}
ConnectRequest decode_connect_request(const Buffer& framed) {
  return decode_new<ConnectRequest>(framed);
}
AdmitResponse decode_admit_response(const Buffer& framed) {
  return decode_new<AdmitResponse>(framed);
}
DisconnectNotice decode_disconnect_notice(const Buffer& framed) {
  return decode_new<DisconnectNotice>(framed);
}
UserHandoff decode_user_handoff(const Buffer& framed) {
  return decode_new<UserHandoff>(framed);
}

}  // namespace cvr::proto
