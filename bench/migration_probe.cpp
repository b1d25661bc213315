// Shard migration probe: times one split and one merge of a single shard
// and reports the chunk count and allocated off-heap bytes after each step
// (each followed by quiesce(), so retirement trims and EBR have run).
//
//   ./build/bench/migration_probe [keys] [reps]     (defaults 200000, 1)
//
// Setup: one shard, chunk capacity 2048, 8 MiB arena blocks, 8-byte
// big-endian keys inserted in order, 256-byte values.  Prints one JSON line
// per rep; BENCH_migration.json records the medians.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "oak/sharded_map.hpp"

using namespace oak;

int main(int argc, char** argv) {
  const std::uint64_t keys = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 1;
  for (int rep = 0; rep < reps; ++rep) {
    mem::BlockPool pool(mem::BlockPool::Config{.blockBytes = 8u << 20});
    ShardedOakCoreMap<> map(ShardedOakConfig{OakConfig{}.withChunkCapacity(2048).withMem(
        MemConfig{}.withPool(&pool))});
    ByteVec key(8);
    const ByteVec value(256, std::byte{0x5a});
    for (std::uint64_t k = 0; k < keys; ++k) {
      storeU64BE(key.data(), k);
      map.put(asBytes(key), asBytes(value));
    }
    map.quiesce();
    const std::size_t chunks0 = map.chunkCount();
    const std::size_t bytes0 = map.offHeapAllocatedBytes();

    const auto timed = [](auto&& step) {
      const auto t0 = std::chrono::steady_clock::now();
      const bool ok = step();
      const std::chrono::duration<double> d = std::chrono::steady_clock::now() - t0;
      if (!ok) {
        std::fprintf(stderr, "migration_probe: step refused\n");
        std::exit(1);
      }
      return d.count();
    };
    const double splitS = timed([&] { return map.splitShard(0); });
    map.quiesce();
    const std::size_t chunks1 = map.chunkCount();
    const std::size_t bytes1 = map.offHeapAllocatedBytes();
    const double mergeS = timed([&] { return map.mergeShards(0); });
    map.quiesce();
    const std::size_t chunks2 = map.chunkCount();
    const std::size_t bytes2 = map.offHeapAllocatedBytes();
    if (map.sizeSlow() != keys) {
      std::fprintf(stderr, "migration_probe: lost keys\n");
      return 1;
    }
    std::printf(
        "{\"keys\":%llu,\"split_s\":%.6f,\"merge_s\":%.6f,"
        "\"chunks\":[%zu,%zu,%zu],\"allocated_bytes\":[%zu,%zu,%zu]}\n",
        static_cast<unsigned long long>(keys), splitS, mergeS, chunks0, chunks1, chunks2,
        bytes0, bytes1, bytes2);
  }
  return 0;
}
