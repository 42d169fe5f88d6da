#include "src/content/content_db.h"

#include <stdexcept>

#include "src/util/rng.h"
#include "src/util/units.h"

namespace cvr::content {

ContentDb::ContentDb(ContentDbConfig config)
    : config_(config), model_(config.rate_model, config.seed) {
  if (config_.grid_width <= 0 || config_.grid_height <= 0) {
    throw std::invalid_argument("ContentDbConfig: non-positive grid extent");
  }
}

bool ContentDb::contains(const GridCell& cell) const {
  return cell.gx >= 0 && cell.gx < config_.grid_width && cell.gy >= 0 &&
         cell.gy < config_.grid_height;
}

std::uint64_t ContentDb::content_id(const GridCell& cell) const {
  if (!contains(cell)) {
    throw std::out_of_range("ContentDb: cell outside scene");
  }
  return static_cast<std::uint64_t>(cell.gy) *
             static_cast<std::uint64_t>(config_.grid_width) +
         static_cast<std::uint64_t>(cell.gx);
}

CrfRateFunction ContentDb::frame_rate_function(const GridCell& cell) const {
  return model_.for_content(content_id(cell));
}

double ContentDb::tile_weight(const GridCell& cell, int tile_index) const {
  if (tile_index < 0 || tile_index >= kTilesPerFrame) {
    throw std::out_of_range("ContentDb: bad tile index");
  }
  // Deterministic per-(cell, tile) complexity draws, normalised within
  // the frame. Weights live in roughly [0.5, 1.5]/4 so no tile is
  // degenerate (the encoder always spends *something* on a quarter of
  // the panorama).
  const std::uint64_t id = content_id(cell);
  double raw[kTilesPerFrame];
  double total = 0.0;
  for (int tile = 0; tile < kTilesPerFrame; ++tile) {
    cvr::SplitMix64 mixer(config_.seed ^
                          (id * 31 + static_cast<std::uint64_t>(tile)) *
                              0x9E3779B97F4A7C15ull);
    const double unit =
        static_cast<double>(mixer.next() >> 11) * 0x1.0p-53;  // [0,1)
    raw[tile] = 0.5 + unit;  // [0.5, 1.5)
    total += raw[tile];
  }
  return raw[tile_index] / total;
}

double ContentDb::tile_size_megabits(const TileKey& key) const {
  if (key.tile_index < 0 || key.tile_index >= kTilesPerFrame) {
    throw std::out_of_range("ContentDb: bad tile index");
  }
  if (!is_valid_level(key.level)) {
    throw std::out_of_range("ContentDb: bad quality level");
  }
  // The frame rate splits across the four tiles by texture-complexity
  // weight; sizes are the slot-normalised megabits of one tile.
  const CellContent& cc = cell_content(key.cell);
  return cc.frame_megabits[static_cast<std::size_t>(key.level - 1)] *
         cc.weight[static_cast<std::size_t>(key.tile_index)];
}

const CellContent& ContentDb::cell_content(const GridCell& cell) const {
  const std::uint64_t id = content_id(cell);  // throws outside the scene
  if (const std::uint32_t* entry = cell_index_.find(id)) {
    return cell_chunks_[*entry / kCellsPerChunk][*entry % kCellsPerChunk];
  }
  if (cell_count_ % kCellsPerChunk == 0) {
    cell_chunks_.push_back(std::make_unique<CellContent[]>(kCellsPerChunk));
  }
  const std::uint32_t entry = cell_count_++;
  CellContent& cc = cell_chunks_.back()[entry % kCellsPerChunk];
  const CrfRateFunction f = model_.for_content(id);
  for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
    const auto idx = static_cast<std::size_t>(q - 1);
    cc.rate[idx] = f.rate(q);
    cc.frame_megabits[idx] = cvr::slot_rate_to_megabits(cc.rate[idx]);
  }
  for (int tile = 0; tile < kTilesPerFrame; ++tile) {
    cc.weight[static_cast<std::size_t>(tile)] = tile_weight(cell, tile);
  }
  cell_index_.insert(id, entry);
  return cc;
}

double TilePricer::megabits(VideoId id) {
  const TileKey key = unpack_video_id(id);  // tile index always in range
  if (!is_valid_level(key.level)) {
    throw std::out_of_range("ContentDb: bad quality level");
  }
  if (content_ == nullptr || !(key.cell == cell_)) {
    content_ = &db_->cell_content(key.cell);
    cell_ = key.cell;
  }
  return content_->frame_megabits[static_cast<std::size_t>(key.level - 1)] *
         content_->weight[static_cast<std::size_t>(key.tile_index)];
}

std::uint64_t ContentDb::entry_count() const {
  return static_cast<std::uint64_t>(config_.grid_width) *
         static_cast<std::uint64_t>(config_.grid_height) * kTilesPerFrame *
         kNumQualityLevels;
}

double ContentDb::estimated_store_gb() const {
  // Each (cell, level) entry stores one closed GOP (~10 frames, 1/6 s at
  // 60 FPS) that the runtime loops, so the per-entry bytes are the
  // stream rate times the GOP duration. This reproduces the magnitude of
  // the paper's 171 GB Office-scene store.
  constexpr double kGopSeconds = 1.0 / 6.0;
  double per_cell_megabits = 0.0;
  const CrfRateFunction nominal(config_.rate_model.base_mbps,
                                config_.rate_model.growth, 1.0);
  for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
    per_cell_megabits += nominal.rate(q) * kGopSeconds;
  }
  const double cells = static_cast<double>(config_.grid_width) *
                       static_cast<double>(config_.grid_height);
  return cells * per_cell_megabits / 8.0 / 1024.0;  // Mb -> GB
}

}  // namespace cvr::content
