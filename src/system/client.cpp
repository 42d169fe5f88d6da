#include "src/system/client.h"

#include <stdexcept>

namespace cvr::system {

Client::Client(ClientConfig config)
    : config_(config),
      buffer_(config.buffer_threshold),
      decoders_(config.decoder) {}

void Client::process_slot(const SlotDelivery& delivery,
                          const std::vector<content::VideoId>& needed,
                          DisplayOutcome& out) {
  if (delivery.tiles.size() != delivery.complete.size()) {
    throw std::invalid_argument("SlotDelivery: size/complete mismatch");
  }
  out.delivery_acks.clear();
  out.release_acks.clear();

  // Ingest complete tiles (an incomplete tile is undecodable and dropped
  // — Section VIII: no retransmission of lost RTP packets).
  std::size_t decoded_tiles = 0;
  for (std::size_t i = 0; i < delivery.tiles.size(); ++i) {
    if (!delivery.complete[i]) continue;
    ++decoded_tiles;
    out.delivery_acks.push_back(delivery.tiles[i]);
    buffer_.insert(delivery.tiles[i], out.release_acks);
  }
  out.decode_ms = decoders_.decode_time_ms(decoded_tiles);

  // Display check: all needed tiles resident (touch refreshes recency so
  // actively viewed tiles are not the ones evicted).
  out.needed_resident = true;
  for (content::VideoId id : needed) {
    if (!buffer_.touch(id)) out.needed_resident = false;
  }

  const bool delivery_on_time =
      delivery.delay_ms <= config_.display_deadline_ms + 1e-9;
  const bool decode_on_time = decoders_.on_time(decoded_tiles);
  out.frame_on_time = delivery_on_time && decode_on_time;
  out.correct_content = out.frame_on_time && out.needed_resident;

  ++frames_total_;
  if (out.frame_on_time) ++frames_displayed_;
}

}  // namespace cvr::system
