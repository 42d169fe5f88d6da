#include "src/content/delivered_tracker.h"

namespace cvr::content {

void DeliveredTileTracker::mark_released(const std::vector<VideoId>& ids) {
  for (VideoId id : ids) delivered_.erase(id);
}

void DeliveredTileTracker::filter_needed(const std::vector<VideoId>& request,
                                         std::vector<VideoId>& needed) const {
  for (VideoId id : request) {
    if (needs_transmit(id)) needed.push_back(id);
  }
}

}  // namespace cvr::content
