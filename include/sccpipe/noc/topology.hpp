#pragma once

/// \file topology.hpp
/// Geometry of the SCC-style chip: a W x H grid of tiles, two cores per
/// tile, one router per tile, memory controllers attached to edge routers.
/// The real SCC is 6 x 4 tiles = 48 cores with four DDR3 controllers on the
/// left/right edges of rows 0 and 2 (EAS rev. 1.1); those are the defaults.
///
/// Core numbering follows the SCC convention used by RCCE: core id
/// c = 2 * tile + (c & 1), tiles numbered row-major from (0,0).

#include <cstdint>
#include <vector>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

using CoreId = int;
using TileId = int;
using McId = int;

struct TileCoord {
  int x = 0;
  int y = 0;
  friend bool operator==(TileCoord, TileCoord) = default;
};

/// Link directions out of a router.
enum class Direction : std::uint8_t { East = 0, West = 1, North = 2, South = 3 };

/// One directed router-to-router (or router-to-MC) link.
struct LinkId {
  TileCoord from;
  Direction dir = Direction::East;
  friend bool operator==(const LinkId&, const LinkId&) = default;
};

struct MeshLayout {
  int width = 6;        ///< tiles per row
  int height = 4;       ///< tile rows
  int cores_per_tile = 2;
  /// Router coordinates the memory controllers hang off. SCC default: the
  /// left and right edge routers of rows 0 and 2.
  std::vector<TileCoord> mc_positions{{0, 0}, {5, 0}, {0, 2}, {5, 2}};
};

class MeshTopology {
 public:
  explicit MeshTopology(MeshLayout layout = {});

  int tile_count() const { return layout_.width * layout_.height; }
  int core_count() const { return tile_count() * layout_.cores_per_tile; }
  int mc_count() const { return static_cast<int>(layout_.mc_positions.size()); }
  const MeshLayout& layout() const { return layout_; }

  TileId tile_of(CoreId core) const {
    if (!valid_core(core)) check_core(core);
    return core / layout_.cores_per_tile;
  }
  TileCoord coord_of(TileId tile) const {
    SCCPIPE_CHECK(tile >= 0 && tile < tile_count());
    return TileCoord{tile % layout_.width, tile / layout_.width};
  }
  TileId tile_at(TileCoord c) const {
    SCCPIPE_CHECK(c.x >= 0 && c.x < layout_.width && c.y >= 0 &&
                  c.y < layout_.height);
    return c.y * layout_.width + c.x;
  }
  TileCoord core_coord(CoreId core) const { return coord_of(tile_of(core)); }

  bool valid_core(CoreId core) const {
    return core >= 0 && core < core_count();
  }

  TileCoord mc_position(McId mc) const;

  /// Memory controller owning a core's private DRAM partition: the nearest
  /// controller by Manhattan distance (ties broken by lower MC id), which
  /// matches the SCC's default quadrant assignment. O(1): precomputed per
  /// tile at construction.
  McId home_mc(CoreId core) const;

  /// Router hops from a core's tile to its home controller (precomputed).
  int home_mc_hops(CoreId core) const;

  /// Manhattan distance in router hops between two tiles.
  int hop_distance(TileCoord a, TileCoord b) const;

  /// X-then-Y dimension-ordered route; returns the traversed directed
  /// links. Empty when a == b.
  std::vector<LinkId> route(TileCoord from, TileCoord to) const;

  /// Dense index of a directed link for resource arrays;
  /// in [0, link_index_count()).
  int link_index(const LinkId& link) const;
  int link_index_count() const { return tile_count() * 4; }

 private:
  /// CHECK-fails naming \p core when it is off the chip. Out of line, so
  /// the message formatting does not keep tile_of() from inlining.
  void check_core(CoreId core) const;

  MeshLayout layout_;
  std::vector<McId> tile_home_mc_;   ///< nearest controller, per tile
  std::vector<int> tile_home_hops_;  ///< hops to that controller, per tile
};

}  // namespace sccpipe
