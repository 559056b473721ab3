// Google-benchmark microbenchmarks of the simulation substrate itself:
// event throughput, mesh transfers, fair-share settling and RCCE
// rendezvous — the costs that bound how fast the figure harnesses run.

#include <benchmark/benchmark.h>

#include <functional>

#include "sccpipe/rcce/rcce.hpp"

namespace {

using namespace sccpipe;

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 1000) sim.schedule_after(SimTime::ns(10), chain);
    };
    sim.schedule_after(SimTime::ns(10), chain);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventDispatch);

void BM_MeshTransfer(benchmark::State& state) {
  MeshTopology topo;
  MeshModel mesh(topo);
  SimTime t = SimTime::zero();
  for (auto _ : state) {
    t = mesh.transfer(t, {0, 0}, {5, 3}, 8192.0);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeshTransfer);

void BM_RouteComputation(benchmark::State& state) {
  MeshTopology topo;
  for (auto _ : state) {
    const auto route = topo.route({0, 0}, {5, 3});
    benchmark::DoNotOptimize(route.size());
  }
}
BENCHMARK(BM_RouteComputation);

void BM_FairShareFlows(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    FairShareResource mc(sim, "mc", 1.0e9);
    int done = 0;
    for (int i = 0; i < 64; ++i) {
      mc.start_flow(1.0e5 + i, [&] { ++done; });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FairShareFlows);

void BM_RcceRendezvous(benchmark::State& state) {
  const double bytes = static_cast<double>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    SccChip chip(sim);
    RcceComm comm(chip);
    int delivered = 0;
    for (int i = 0; i < 16; ++i) {
      comm.send(0, 2, bytes, [] {});
      comm.recv(2, 0, [&] { ++delivered; });
    }
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_RcceRendezvous)->Arg(1024)->Arg(91 * 1024);

}  // namespace

BENCHMARK_MAIN();
