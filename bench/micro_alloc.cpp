// Micro benchmarks: the simulated-device allocator. The compute kernels
// are measured, and gated, by bench/kernel_perf.
#include <benchmark/benchmark.h>

#include "alloc/caching_allocator.hpp"

using namespace zero;

namespace {

void BM_DeviceAllocFree(benchmark::State& state) {
  alloc::DeviceMemory dev(256ull << 20, "bench");
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    alloc::Allocation a = dev.Allocate(size);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_DeviceAllocFree)->Arg(4096)->Arg(1 << 20);

void BM_CachingAllocatorReuse(benchmark::State& state) {
  alloc::DeviceMemory dev(256ull << 20, "bench");
  alloc::CachingAllocator cache(dev);
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    alloc::CachedBlock b = cache.Malloc(size);
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_CachingAllocatorReuse)->Arg(4096)->Arg(1 << 20);

}  // namespace
