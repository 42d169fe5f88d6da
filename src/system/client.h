// Client-side model: tile buffer, decoder pool, display deadline.
//
// Section V pipeline: tiles delivered in slot t+1 are decoded in t+2 and
// displayed immediately after; a frame is shown iff its (actual-FoV)
// tiles are resident and complete, they decode within the stage budget,
// and the delivery finished within the transmission slot. The client
// also measures the delivery delay (first-to-last packet of the slot)
// and emits delivery/release ACKs for the TCP side channel.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/content/client_buffer.h"
#include "src/content/tile.h"
#include "src/system/decoder.h"

namespace cvr::system {

struct ClientConfig {
  std::size_t buffer_threshold = 600;  ///< Device-dependent (Section V).
  DecoderPoolConfig decoder;
  double display_deadline_ms = 15.15;  ///< Delivery must fit its slot.
};

/// What the network delivered to a client in one slot.
struct SlotDelivery {
  /// Tiles transmitted this slot: a view of the sender's list (the
  /// slot pipeline passes its tile request's), which must outlive the
  /// process_slot call.
  std::span<const content::VideoId> tiles;
  std::vector<bool> complete;  ///< Per tile: no packet lost.
  double delay_ms = 0.0;       ///< First-to-last packet duration.
};

/// The client's verdict for one frame.
///
/// `frame_on_time` is the FPS criterion (Section VI: "with a larger VR
/// content delivery delay, the content cannot be decoded and displayed
/// on time, resulting in a missed frame") — a late/undecodable frame is
/// dropped, but a frame showing mispredicted content still displays.
/// `correct_content` additionally requires every actual-FoV tile to be
/// resident, i.e. the user actually saw the quality-q content.
struct DisplayOutcome {
  bool frame_on_time = false;    ///< Frame shown (FPS accounting).
  bool needed_resident = false;  ///< All actual-FoV tiles resident.
  bool correct_content = false;  ///< frame_on_time && needed_resident.
  double decode_ms = 0.0;
  std::vector<content::VideoId> delivery_acks;  ///< Completed tiles.
  std::vector<content::VideoId> release_acks;   ///< Evicted tiles.
};

class Client {
 public:
  explicit Client(ClientConfig config = {});

  /// Ingests a slot's delivery and attempts to display the frame whose
  /// actual FoV needs `needed` tiles (every tile in `needed` must be
  /// resident after ingestion for the frame's content to be correct).
  /// Overwrites every field of `out`; its ACK vectors keep their
  /// capacity, so a recycled outcome makes no heap allocation once they
  /// have grown.
  void process_slot(const SlotDelivery& delivery,
                    const std::vector<content::VideoId>& needed,
                    DisplayOutcome& out);

  const content::ClientTileBuffer& buffer() const { return buffer_; }
  std::uint64_t frames_displayed() const { return frames_displayed_; }
  std::uint64_t frames_total() const { return frames_total_; }

 private:
  ClientConfig config_;
  content::ClientTileBuffer buffer_;
  DecoderPool decoders_;
  std::uint64_t frames_displayed_ = 0;
  std::uint64_t frames_total_ = 0;
};

}  // namespace cvr::system
