#include "sccpipe/core/placement.hpp"

#include <algorithm>
#include <string>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

const char* arrangement_name(Arrangement a) {
  switch (a) {
    case Arrangement::Unordered: return "unordered";
    case Arrangement::Ordered: return "ordered";
    case Arrangement::Flipped: return "flipped";
  }
  return "?";
}

bool parse_arrangement(std::string_view name, Arrangement* out) {
  for (const Arrangement a : {Arrangement::Unordered, Arrangement::Ordered,
                              Arrangement::Flipped}) {
    if (name == arrangement_name(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

std::vector<CoreId> Placement::all_cores() const {
  std::vector<CoreId> cores;
  for (const auto& pl : pipeline_cores) {
    cores.insert(cores.end(), pl.begin(), pl.end());
  }
  if (producer >= 0) cores.push_back(producer);
  if (transfer >= 0) cores.push_back(transfer);
  std::sort(cores.begin(), cores.end());
  SCCPIPE_CHECK_MSG(std::adjacent_find(cores.begin(), cores.end()) ==
                        cores.end(),
                    "placement assigned a core twice");
  return cores;
}

namespace {

/// Cores of one grid row, west to east (both cores of each tile).
std::vector<CoreId> row_cores(const MeshTopology& topo, int row) {
  std::vector<CoreId> cores;
  const int cpt = topo.layout().cores_per_tile;
  for (int x = 0; x < topo.layout().width; ++x) {
    const TileId t = topo.tile_at(TileCoord{x, row});
    for (int c = 0; c < cpt; ++c) cores.push_back(t * cpt + c);
  }
  return cores;
}

/// Row "slots": consecutive groups of slot_size cores within a row. Slot s
/// lives in row s % height, segment s / height.
std::vector<std::vector<CoreId>> make_slots(const MeshTopology& topo,
                                            int slot_size) {
  std::vector<std::vector<CoreId>> slots;
  const int height = topo.layout().height;
  const int per_row =
      topo.layout().width * topo.layout().cores_per_tile / slot_size;
  for (int seg = 0; seg < per_row; ++seg) {
    for (int row = 0; row < height; ++row) {
      const auto rc = row_cores(topo, row);
      std::vector<CoreId> slot(
          rc.begin() + static_cast<std::ptrdiff_t>(seg) * slot_size,
          rc.begin() + static_cast<std::ptrdiff_t>(seg + 1) * slot_size);
      slots.push_back(std::move(slot));
    }
  }
  return slots;
}

}  // namespace

Status plan_placement(const MeshTopology& topo, Arrangement arrangement,
                      const PlacementRequest& req, Placement* placement) {
  SCCPIPE_CHECK(placement != nullptr);
  if (req.pipelines < 1 || req.stages_per_pipeline < 1) {
    return Status(StatusCode::InvalidArgument,
                  "a placement needs at least one pipeline of at least one "
                  "stage, got " + std::to_string(req.pipelines) + " x " +
                      std::to_string(req.stages_per_pipeline));
  }
  const auto too_many = [&](const std::string& why) {
    return Status(StatusCode::InvalidArgument,
                  std::to_string(req.pipelines) + " pipelines of " +
                      std::to_string(req.stages_per_pipeline) +
                      " stages do not fit the " +
                      std::to_string(topo.core_count()) + "-core chip (" +
                      arrangement_name(arrangement) + "): " + why);
  };
  const int cpt = topo.layout().cores_per_tile;
  const int extra = (req.needs_producer ? 1 : 0) + 1;  // producer + transfer
  const int blur_pad = req.isolate_blur_tile ? req.pipelines * (cpt - 1) : 0;
  if (req.pipelines * req.stages_per_pipeline + extra + blur_pad >
      topo.core_count()) {
    return too_many("configuration needs more cores than the chip has");
  }

  Placement out;
  out.pipeline_cores.resize(static_cast<std::size_t>(req.pipelines));

  if (arrangement == Arrangement::Unordered) {
    // Plain core-id order: producer, pipelines back to back, transfer.
    CoreId next = 0;
    auto take = [&]() -> CoreId { return next++; };
    if (req.needs_producer) out.producer = take();
    for (int p = 0; p < req.pipelines; ++p) {
      auto& cores = out.pipeline_cores[static_cast<std::size_t>(p)];
      for (int s = 0; s < req.stages_per_pipeline; ++s) {
        if (req.isolate_blur_tile && s == req.stages_per_pipeline - 4) {
          // Blur (second filter stage): skip to the next empty tile and
          // reserve it whole.
          while (next % cpt != 0) ++next;
          cores.push_back(take());
          while (next % cpt != 0) ++next;  // leave the tile's sibling idle
          continue;
        }
        cores.push_back(take());
      }
    }
    out.transfer = take();
    // Blur isolation skips tile siblings, so the up-front count can pass
    // while the walk still runs off the end of the chip.
    if (next > topo.core_count()) {
      return too_many("the isolated blur tiles leave too few cores");
    }
    for (CoreId c = next; c < topo.core_count(); ++c) {
      out.spare_cores.push_back(c);
    }
    *placement = std::move(out);
    return Status();
  }

  // Ordered / flipped: one pipeline per row slot.
  const int slot_size = req.stages_per_pipeline + (req.isolate_blur_tile ? 1 : 0);
  if (slot_size > topo.layout().width * cpt) {
    return too_many("a pipeline does not fit a row");
  }
  auto slots = make_slots(topo, slot_size);
  if (static_cast<std::size_t>(req.pipelines) + 1 > slots.size()) {
    return too_many("not enough row slots (" + std::to_string(slots.size()) +
                    " slots of " + std::to_string(slot_size) +
                    " cores; the producer/transfer pair takes one)");
  }
  for (int p = 0; p < req.pipelines; ++p) {
    std::vector<CoreId> slot = slots[static_cast<std::size_t>(p)];
    if (arrangement == Arrangement::Flipped && (p % 2) == 1) {
      std::reverse(slot.begin(), slot.end());
    }
    auto& cores = out.pipeline_cores[static_cast<std::size_t>(p)];
    if (req.isolate_blur_tile) {
      // The slot carries one spare core. Give blur a whole tile: blur takes
      // the first core of the second tile in the slot and that tile's
      // sibling core stays idle; every other stage takes the remaining
      // cores in slot order.
      const int blur_stage = req.stages_per_pipeline - 4;  // see header
      std::vector<CoreId> rest;
      CoreId blur_core = -1;
      for (std::size_t si = 0; si < slot.size(); ++si) {
        const CoreId c = slot[si];
        if (blur_core < 0 && si + 1 < slot.size() &&
            topo.tile_of(c) == topo.tile_of(slot[si + 1])) {
          // c starts a full tile pair inside the slot; reserve it for blur
          // unless it is the very first pair (keep the head stage at the
          // slot entrance so data still flows west to east).
          if (si >= 2 || slot.size() <= 2) {
            blur_core = c;
            ++si;  // sibling stays idle
            continue;
          }
        }
        rest.push_back(c);
      }
      if (blur_core < 0) return too_many("no free tile for the blur stage");
      std::size_t ri = 0;
      for (int s = 0; s < req.stages_per_pipeline; ++s) {
        if (s == blur_stage) {
          cores.push_back(blur_core);
        } else {
          SCCPIPE_CHECK(ri < rest.size());
          cores.push_back(rest[ri++]);
        }
      }
    } else {
      cores.assign(slot.begin(),
                   slot.begin() + req.stages_per_pipeline);
    }
  }

  // Producer and transfer take the two ends of the next free slot: the
  // producer nearest the pipelines' heads, the transfer at the far end.
  const auto& spare = slots[static_cast<std::size_t>(req.pipelines)];
  std::size_t spare_i = 0;
  if (req.needs_producer) out.producer = spare[spare_i++];
  out.transfer = spare[spare_i++];
  // Everything left over is recovery headroom: first the rest of the
  // producer/transfer slot, then the untouched slots beyond it. With
  // isolate_blur_tile the skipped tile siblings stay idle (not spares) —
  // promoting one would put pipeline work back onto the isolated tile.
  for (; spare_i < spare.size(); ++spare_i) {
    out.spare_cores.push_back(spare[spare_i]);
  }
  for (std::size_t s = static_cast<std::size_t>(req.pipelines) + 1;
       s < slots.size(); ++s) {
    out.spare_cores.insert(out.spare_cores.end(), slots[s].begin(),
                           slots[s].end());
  }
  *placement = std::move(out);
  return Status();
}

Placement make_placement(const MeshTopology& topo, Arrangement arrangement,
                         const PlacementRequest& request) {
  Placement out;
  const Status st = plan_placement(topo, arrangement, request, &out);
  SCCPIPE_CHECK_MSG(st.ok(), st.message());
  return out;
}

}  // namespace sccpipe
