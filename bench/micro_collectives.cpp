// Micro benchmarks: throughput of the ring collectives that carry all
// ZeRO-DP traffic, across world sizes and message sizes. Ranks are
// threads, so every benchmark times wall clock (UseRealTime): the main
// thread's CPU time would leave out the ranks' work and inflate bytes/s.
#include <benchmark/benchmark.h>

#include "comm/communicator.hpp"
#include "comm/world.hpp"

using namespace zero;

namespace {

void BM_AllReduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    comm::World world(p);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator comm = comm::Communicator::WholeWorld(ctx);
      std::vector<float> data(n, static_cast<float>(ctx.rank));
      comm.AllReduce(std::span<float>(data), comm::ReduceOp::kSum);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 4 * p);
}
BENCHMARK(BM_AllReduce)
    ->UseRealTime()
    ->Args({2, 1 << 12})
    ->Args({4, 1 << 12})
    ->Args({4, 1 << 16})
    ->Args({8, 1 << 14});

void BM_ReduceScatter(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    comm::World world(p);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator comm = comm::Communicator::WholeWorld(ctx);
      std::vector<float> data(n, 1.0f);
      std::vector<float> out(n / static_cast<std::size_t>(p));
      comm.ReduceScatter(std::span<float>(data), std::span<float>(out),
                         comm::ReduceOp::kSum);
      benchmark::DoNotOptimize(out.data());
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 4 * p);
}
BENCHMARK(BM_ReduceScatter)
    ->UseRealTime()
    ->Args({4, 1 << 12})
    ->Args({4, 1 << 16});

void BM_Broadcast(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    comm::World world(p);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator comm = comm::Communicator::WholeWorld(ctx);
      std::vector<float> data(n, static_cast<float>(ctx.rank));
      comm.Broadcast(std::span<float>(data), 0);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 4 * p);
}
BENCHMARK(BM_Broadcast)
    ->UseRealTime()
    ->Args({4, 1 << 12})
    ->Args({8, 1 << 14});

void BM_HalfAllReduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    comm::World world(p);
    world.Run([&](comm::RankContext& ctx) {
      comm::Communicator comm = comm::Communicator::WholeWorld(ctx);
      std::vector<Half> data(n, Half(1.0f));
      comm.AllReduce(std::span<Half>(data), comm::ReduceOp::kSum);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2 * p);
}
BENCHMARK(BM_HalfAllReduce)->UseRealTime()->Args({4, 1 << 14});

}  // namespace
