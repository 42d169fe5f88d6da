// Protocol messages of the Section-V system.
//
//   * PoseUpdate   — client -> server over TCP: "Users will replay real
//     users' motion traces and upload the trace to the server through
//     TCP periodically."
//   * DeliveryAck  — client -> server over TCP: "we manually send
//     acknowledgments (ACK) from the user to the server through TCP."
//   * ReleaseAck   — client -> server over TCP: "The user also sends
//     ACKs to let the server know when the tiles are released."
//   * TileHeader   — server -> client, prefixed to every RTP payload:
//     which video ID this packet belongs to and where it sits in the
//     tile, so the decoder can detect completeness.
//
// Load-service control plane (system::LoadServer, docs/load_service.md):
//
//   * ConnectRequest   — client -> server: a new session asks to join,
//     carrying its per-request QoS latency budget.
//   * AdmitResponse    — server -> client: the admission decision
//     (admit / degrade-admit / reject) plus the initial level cap a
//     degrade-admitted session starts under.
//   * DisconnectNotice — client -> server: the session is leaving and
//     its user slot can be reclaimed.
//
// Fleet control plane (fleet::FleetSim, docs/fleet.md):
//
//   * UserHandoff — server -> server: one user's carried estimator
//     state for a live migration or crash failover — the Welford-style
//     accuracy tallies behind delta_bar_n, the viewed-quality running
//     mean, the bandwidth EMA, the last pose on record, and the
//     watchdog flags — so a migrated user's quality trajectory
//     continues at the destination instead of restarting cold.
//
// Every message carries a 1-byte type tag; encode/decode round-trip via
// the codec's framed wire format. Decoding validates the tag and all
// invariants (valid quality levels, packet index < count, ...).
#pragma once

#include <cstdint>
#include <vector>

#include "src/content/tile.h"
#include "src/motion/pose.h"
#include "src/proto/codec.h"

namespace cvr::proto {

enum class MessageType : std::uint8_t {
  kPoseUpdate = 1,
  kDeliveryAck = 2,
  kReleaseAck = 3,
  kTileHeader = 4,
  kConnectRequest = 5,
  kAdmitResponse = 6,
  kDisconnectNotice = 7,
  kUserHandoff = 8,
};

/// Admission decisions as they appear on the wire (AdmitResponse). The
/// system-layer policy enum (system::AdmissionDecision) converts
/// to/from this so proto stays below the platform layer.
enum class WireAdmission : std::uint8_t {
  kAdmit = 0,    ///< Full admission: every quality level reachable.
  kDegrade = 1,  ///< Degrade-admit: pinned to level 1 via constraint (7).
  kReject = 2,   ///< No capacity: the session is turned away.
};

struct PoseUpdate {
  std::uint32_t user = 0;
  std::uint64_t slot = 0;
  motion::Pose pose;

  friend bool operator==(const PoseUpdate&, const PoseUpdate&) = default;
};

struct DeliveryAck {
  std::uint32_t user = 0;
  std::uint64_t slot = 0;
  std::vector<content::VideoId> tiles;

  friend bool operator==(const DeliveryAck&, const DeliveryAck&) = default;
};

struct ReleaseAck {
  std::uint32_t user = 0;
  std::uint64_t slot = 0;
  std::vector<content::VideoId> tiles;

  friend bool operator==(const ReleaseAck&, const ReleaseAck&) = default;
};

struct TileHeader {
  content::VideoId video_id = 0;
  std::uint32_t packet_index = 0;
  std::uint32_t packet_count = 0;
  std::uint64_t slot = 0;

  friend bool operator==(const TileHeader&, const TileHeader&) = default;
};

struct ConnectRequest {
  std::uint64_t session = 0;  ///< Globally unique session id.
  std::uint64_t slot = 0;     ///< Arrival slot on the service timeline.
  double qos_ms = 0.0;        ///< Per-request slot-latency budget (> 0, finite).

  friend bool operator==(const ConnectRequest&,
                         const ConnectRequest&) = default;
};

struct AdmitResponse {
  std::uint64_t session = 0;
  std::uint64_t slot = 0;
  WireAdmission decision = WireAdmission::kReject;
  /// Initial quality-level cap for a degrade-admitted session (1 when
  /// decision == kDegrade); kNumQualityLevels for a full admit; 0 for a
  /// reject (no levels granted).
  std::uint8_t level_cap = 0;

  friend bool operator==(const AdmitResponse&, const AdmitResponse&) = default;
};

struct DisconnectNotice {
  std::uint64_t session = 0;
  std::uint64_t slot = 0;

  friend bool operator==(const DisconnectNotice&,
                         const DisconnectNotice&) = default;
};

/// One user's carried server-side state for a migration (see the fleet
/// section of the header comment). Cross-field invariants, enforced on
/// both encode and decode:
///
///   * hit sums are finite, non-negative, and never exceed their
///     observation counts (they are sums of {0, 1} outcomes);
///   * qbar_slots == 0 implies qbar_sum == 0, and qbar_sum never
///     exceeds qbar_slots x the top quality level;
///   * bandwidth_mbps is finite and non-negative;
///   * transmit_fraction lies in [0, 1];
///   * every pose component is finite, and has_pose == false implies a
///     default pose with pose_slot == 0 (no phantom pose state);
///   * the flags byte carries no unknown bits.
struct UserHandoff {
  std::uint32_t user = 0;
  std::uint64_t slot = 0;  ///< Export slot on the source server's timeline.
  // delta_bar_n tallies (motion::AccuracyEstimator): hit sum + count.
  double delta_hits = 0.0;
  std::uint64_t delta_count = 0;
  // Loss-free base channel tallies (loss-aware mode; zero otherwise).
  double base_hits = 0.0;
  std::uint64_t base_count = 0;
  // Viewed-quality running mean qbar_n: sum + slot count.
  double qbar_sum = 0.0;
  std::uint64_t qbar_slots = 0;
  // Bandwidth EMA state.
  double bandwidth_mbps = 0.0;
  std::uint64_t bandwidth_observations = 0;
  // Last pose on record plus the slot it was reported for.
  motion::Pose pose;
  std::uint64_t pose_slot = 0;
  bool has_pose = false;
  bool safe_mode = false;
  bool pose_stale = false;
  /// EMA of transmitted/full tile-set rate (repetition suppression).
  double transmit_fraction = 1.0;

  friend bool operator==(const UserHandoff&, const UserHandoff&) = default;
};

// Encoders: each writes one framed message into `out` in a single pass,
// replacing its contents and keeping its capacity, so a recycled buffer
// encodes without heap allocation (see the codec.h contract). Throw
// std::invalid_argument on an invariant violation, leaving `out`
// unspecified.
void encode(const PoseUpdate& message, Buffer& out);
void encode(const DeliveryAck& message, Buffer& out);
void encode(const ReleaseAck& message, Buffer& out);
void encode(const TileHeader& message, Buffer& out);
void encode(const ConnectRequest& message, Buffer& out);
void encode(const AdmitResponse& message, Buffer& out);
void encode(const DisconnectNotice& message, Buffer& out);
void encode(const UserHandoff& message, Buffer& out);

/// Encodes into a new buffer (wraps the in-place encoder).
template <typename Message>
Buffer encode(const Message& message) {
  Buffer out;
  encode(message, out);
  return out;
}

/// Peeks the type tag of a framed message without fully decoding it.
/// Throws std::runtime_error on framing/CRC errors or unknown tags.
MessageType peek_type(const Buffer& framed);

// Decoders: each overwrites every field of `out` from the framed bytes,
// which are read where they lie; a tile list decodes into out.tiles,
// keeping its capacity. Throw std::runtime_error on wrong tag, framing
// error, CRC mismatch, or invariant violation (e.g. packet_index >=
// packet_count), and std::out_of_range on truncation; `out` is then
// unspecified.
void decode(const Buffer& framed, PoseUpdate& out);
void decode(const Buffer& framed, DeliveryAck& out);
void decode(const Buffer& framed, ReleaseAck& out);
void decode(const Buffer& framed, TileHeader& out);
void decode(const Buffer& framed, ConnectRequest& out);
void decode(const Buffer& framed, AdmitResponse& out);
void decode(const Buffer& framed, DisconnectNotice& out);
void decode(const Buffer& framed, UserHandoff& out);

// Decoders into a new message (wrap the in-place decoders).
PoseUpdate decode_pose_update(const Buffer& framed);
DeliveryAck decode_delivery_ack(const Buffer& framed);
ReleaseAck decode_release_ack(const Buffer& framed);
TileHeader decode_tile_header(const Buffer& framed);
ConnectRequest decode_connect_request(const Buffer& framed);
AdmitResponse decode_admit_response(const Buffer& framed);
DisconnectNotice decode_disconnect_notice(const Buffer& framed);
UserHandoff decode_user_handoff(const Buffer& framed);

}  // namespace cvr::proto
