#pragma once

/// \file placement.hpp
/// Mapping pipeline stages onto SCC cores — the three arrangements of
/// §IV-A. Row "slots" of six cores host one pipeline each:
///
///  * Unordered: cores taken in plain SCC id order; pipelines may start in
///    the middle of one row and end in another (Fig. 3).
///  * Ordered: each pipeline laid west-to-east along one grid row (Fig. 4).
///  * Flipped: ordered, but every second pipeline runs east-to-west so the
///    heavy head stages alternate between the two edge memory controllers
///    (Fig. 5).
///
/// An optional DVFS-isolated mode places the blur stage alone on its own
/// tile so its frequency/voltage can be raised independently (Fig. 18).

#include <string_view>
#include <vector>

#include "sccpipe/noc/topology.hpp"
#include "sccpipe/support/status.hpp"

namespace sccpipe {

enum class Arrangement { Unordered, Ordered, Flipped };

const char* arrangement_name(Arrangement a);
/// arrangement_name() back into \p out; false, leaving \p out alone, on
/// any other name.
bool parse_arrangement(std::string_view name, Arrangement* out);

struct PlacementRequest {
  int pipelines = 1;
  /// Stages per pipeline (5 filters, +1 when each pipeline has a renderer).
  int stages_per_pipeline = 5;
  /// One extra producer core (single render stage or connect stage).
  bool needs_producer = false;
  /// Give the second pipeline stage (blur, when stages are
  /// sepia-blur-scratch-flicker-swap) a private tile for DVFS experiments.
  bool isolate_blur_tile = false;
};

struct Placement {
  /// pipeline_cores[i][j] = core of stage j of pipeline i.
  std::vector<std::vector<CoreId>> pipeline_cores;
  CoreId producer = -1;  ///< single renderer / connect stage (if requested)
  CoreId transfer = -1;
  /// Unassigned cores, in the order the Supervisor consumes them when a
  /// stage core fail-stops and its pipeline is remapped (src/core/recovery).
  /// Nearest leftover cores first (rest of the producer/transfer slot, then
  /// whole unused slots), so a healed pipeline stays close to its row.
  std::vector<CoreId> spare_cores;

  /// All distinct cores in use (spares excluded — they idle unallocated
  /// until a failure promotes them).
  std::vector<CoreId> all_cores() const;
};

/// Compute the placement into \p placement. Returns InvalidArgument (and
/// leaves \p placement untouched) if the chip cannot host the requested
/// configuration; builds nothing beyond the placement itself.
Status plan_placement(const MeshTopology& topo, Arrangement arrangement,
                      const PlacementRequest& request, Placement* placement);

/// plan_placement(), throwing CheckError if the chip cannot host the
/// requested configuration.
Placement make_placement(const MeshTopology& topo, Arrangement arrangement,
                         const PlacementRequest& request);

}  // namespace sccpipe
