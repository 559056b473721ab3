#include "sccpipe/noc/mesh.hpp"

#include <string>

namespace sccpipe {

MeshModel::MeshModel(const MeshTopology& topo, MeshTimingConfig cfg)
    : topo_(topo), cfg_(cfg) {
  SCCPIPE_CHECK(cfg_.link_bandwidth_bytes_per_sec > 0.0);
  const int n = topo_.link_index_count();
  links_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    links_.emplace_back("link" + std::to_string(i));
  }
  traffic_.resize(static_cast<std::size_t>(n));
}

SimTime MeshModel::transfer(SimTime start, TileCoord from, TileCoord to,
                            double bytes) {
  SCCPIPE_CHECK(bytes >= 0.0);
  const SimTime serialisation =
      SimTime::sec(bytes / cfg_.link_bandwidth_bytes_per_sec);
  const bool faulty = fault_ != nullptr && fault_->enabled();
  // Injection router always charges once, even for a local (same-tile) hop.
  SimTime t = start + (faulty ? cfg_.router_latency *
                                    fault_->router_slowdown(topo_.tile_at(from), start)
                              : cfg_.router_latency);
  // Dimension-ordered X-then-Y walk over the same directed links route()
  // would return, but without materialising the route: the dense link index
  // is tile * 4 + dir, and the tile id steps by ±1 / ±width per hop.
  // queue_delay is time waiting for the link beyond the pure
  // serialisation + router latency cost (invariant across hops).
  const SimTime pure = serialisation + cfg_.router_latency;
  const int width = topo_.layout().width;
  int tile = from.y * width + from.x;
  const auto hop = [&](Direction dir) {
    const auto idx = static_cast<std::size_t>(tile * 4 + static_cast<int>(dir));
    const SimTime before = t;
    SimTime service = serialisation;
    SimTime hop_latency = cfg_.router_latency;
    if (faulty) {
      // A message at a dead link waits the outage out (link-layer
      // retransmission at degraded timing — delivery stays guaranteed);
      // a degraded link stretches serialisation; a degraded router or a
      // planned degraded-link fate stretches the per-hop forwarding
      // latency (it only ever inflates).
      t = fault_->link_available(static_cast<int>(idx), t);
      service = service * fault_->link_slowdown(static_cast<int>(idx), t);
      hop_latency = hop_latency * fault_->router_slowdown(tile, t) *
                    fault_->link_latency_factor(static_cast<int>(idx), t);
    }
    t = links_[idx].acquire(t, service) + hop_latency;
    LinkTraffic& tr = traffic_[idx];
    ++tr.messages;
    tr.bytes += bytes;
    tr.queue_delay += (t - before) - pure;
  };
  for (int x = from.x; x < to.x; ++x, ++tile) hop(Direction::East);
  for (int x = from.x; x > to.x; --x, --tile) hop(Direction::West);
  for (int y = from.y; y < to.y; ++y, tile += width) hop(Direction::South);
  for (int y = from.y; y > to.y; --y, tile -= width) hop(Direction::North);
  return t;
}

SimTime MeshModel::ideal_latency(TileCoord from, TileCoord to,
                                 double bytes) const {
  const int hops = topo_.hop_distance(from, to);
  const SimTime serialisation =
      SimTime::sec(bytes / cfg_.link_bandwidth_bytes_per_sec);
  return cfg_.router_latency * static_cast<double>(hops + 1) +
         serialisation * static_cast<double>(hops);
}

const LinkTraffic& MeshModel::traffic(const LinkId& link) const {
  return traffic_[static_cast<std::size_t>(topo_.link_index(link))];
}

double MeshModel::total_bytes() const {
  double sum = 0.0;
  for (const LinkTraffic& t : traffic_) sum += t.bytes;
  return sum;
}

}  // namespace sccpipe
