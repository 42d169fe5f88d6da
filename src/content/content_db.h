// Offline-rendered content database.
//
// Section V/VI: every possible tile of the scene is rendered and encoded
// offline; the runtime only looks up sizes by video ID. The paper's
// Office-scene store is ~171 GB — we model the database analytically
// (size synthesised from the per-content rate model) instead of storing
// bytes, which preserves exactly what the scheduler observes: tile sizes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/content/id_table.h"
#include "src/content/rate_function.h"
#include "src/content/tile.h"

namespace cvr::content {

/// Memoised per-cell content facts (docs/performance.md). Every field is
/// a pure function of (config, cell), so caching is observable only as
/// speed: `rate[q-1]` is bit-identical to
/// `frame_rate_function(cell).rate(q)`, `frame_megabits` its
/// slot-normalised conversion, and `weight[tile]` to
/// `tile_weight(cell, tile)`.
struct CellContent {
  std::array<double, kNumQualityLevels> rate;
  std::array<double, kNumQualityLevels> frame_megabits;
  std::array<double, kTilesPerFrame> weight;
};

struct ContentDbConfig {
  // Scene extent, in grid cells (Section VI: 5 cm granularity).
  std::int32_t grid_width = 200;   ///< 10 m
  std::int32_t grid_height = 160;  ///< 8 m
  ContentRateModel::Config rate_model;
  std::uint64_t seed = 42;
};

class ContentDb {
 public:
  explicit ContentDb(ContentDbConfig config = {});

  /// True iff the cell lies inside the rendered scene.
  bool contains(const GridCell& cell) const;

  /// Content id of a grid cell (used to derive the cell's rate function).
  std::uint64_t content_id(const GridCell& cell) const;

  /// Rate function of the frame at `cell` — the aggregate over its four
  /// tiles, i.e. the f_{c(t)}^R(q) the allocators consume.
  CrfRateFunction frame_rate_function(const GridCell& cell) const;

  /// Texture-complexity weight of one tile within its frame (the sky
  /// tile of an office scene encodes far smaller than the desk tile).
  /// Deterministic in (cell, tile); the four weights of a cell sum to 1.
  double tile_weight(const GridCell& cell, int tile_index) const;

  /// Size of one tile in megabits at a given level: the frame rate
  /// function's slot-normalised share, split by tile_weight(). Tile
  /// index must be valid; throws std::out_of_range outside the scene.
  double tile_size_megabits(const TileKey& key) const;

  /// Memoised per-cell rates and tile weights. First touch of a cell
  /// derives everything through the exact expressions of
  /// frame_rate_function()/tile_weight(); later touches are one flat
  /// hash probe. The returned reference stays valid for the db's
  /// lifetime (entries never move). NOT safe for concurrent calls on
  /// one instance (the fleet gives each server its own ContentDb).
  /// Throws std::out_of_range outside the scene.
  const CellContent& cell_content(const GridCell& cell) const;

  /// Number of distinct encoded tiles (cells x tiles x levels).
  std::uint64_t entry_count() const;

  /// Estimated store footprint in gigabytes — compare against the
  /// paper's "about 171 GB".
  double estimated_store_gb() const;

  const ContentDbConfig& config() const { return config_; }

 private:
  ContentDbConfig config_;
  ContentRateModel model_;
  /// Memo entries per chunk: the memo allocates once per this many
  /// newly visited cells (plus its index's rare doublings), not once
  /// per cell.
  static constexpr std::size_t kCellsPerChunk = 256;

  // Lazy per-cell memo: content_id -> entry number, entries stored in
  // fixed-size chunks so they never move. mutable: pure-function cache
  // behind const accessors.
  mutable IdTable<std::uint32_t> cell_index_;
  mutable std::vector<std::unique_ptr<CellContent[]>> cell_chunks_;
  mutable std::uint32_t cell_count_ = 0;
};

/// Prices a sequence of tiles with one cell_content() lookup per run of
/// consecutive same-cell ids — a frame's tiles share their cell, so a
/// request costs one hash lookup instead of one per tile. megabits(id)
/// is bit-identical to db.tile_size_megabits(unpack_video_id(id)) and
/// throws as it does. Holds a pointer into the db's memo, whose entries
/// never move; the pricer must not outlive the db.
class TilePricer {
 public:
  explicit TilePricer(const ContentDb& db) : db_(&db) {}

  double megabits(VideoId id);

 private:
  const ContentDb* db_;
  GridCell cell_{};
  const CellContent* content_ = nullptr;
};

}  // namespace cvr::content
