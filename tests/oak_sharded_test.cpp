// ShardedOakMap: routing, cross-shard merged scans, typed facade, and
// aggregated statistics.
//
// The sharded map is a range-partitioned front-end over independent
// OakCoreMap instances (src/oak/sharded_map.hpp).  These tests pin down the
// contracts the other suites build on: keys route to the shard owning their
// range, whole-map scans come out globally sorted across shard boundaries,
// the BasicOakMap typed facade works unchanged over the sharded core, and
// stats() folds per-shard snapshots into one whole-map view that keeps the
// per-arena vector.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "mheap/managed_heap.hpp"
#include "oak/chunk_walker.hpp"
#include "oak/map.hpp"
#include "oak/sharded_map.hpp"

namespace oak {
namespace {

ByteVec keyOf(std::uint64_t i) {
  ByteVec k(8);
  storeU64BE(k.data(), i);
  return k;
}
ByteVec valOf(std::uint64_t x) {
  ByteVec v(8);
  storeUnaligned(v.data(), x);
  return v;
}

// ------------------------------------------------------------ ShardLayout
TEST(ShardLayout, UniformRangeBoundaries) {
  auto l = ShardLayout::uniformRange(4, 100);
  ASSERT_EQ(l.boundaries.size(), 3u);
  EXPECT_EQ(loadU64BE(l.boundaries[0].data()), 25u);
  EXPECT_EQ(loadU64BE(l.boundaries[1].data()), 50u);
  EXPECT_EQ(loadU64BE(l.boundaries[2].data()), 75u);
  EXPECT_EQ(l.shards(), 4u);
}

TEST(ShardLayout, DegeneratesGracefully) {
  EXPECT_EQ(ShardLayout::uniformRange(1, 100).shards(), 1u);
  EXPECT_EQ(ShardLayout::uniformRange(0, 100).shards(), 1u);
  // More shards than ids: collapse rather than emit duplicate boundaries.
  EXPECT_EQ(ShardLayout::uniformRange(8, 4).shards(), 1u);
  EXPECT_EQ(ShardLayout::uniformU64(4).shards(), 4u);
  EXPECT_EQ(ShardLayout::uniformBytes(4).shards(), 4u);
}

TEST(ShardRouter, RejectsBadBoundaries) {
  EXPECT_THROW(ShardRouter<>(ShardLayout::at({keyOf(5), keyOf(5)})),
               OakUsageError);
  EXPECT_THROW(ShardRouter<>(ShardLayout::at({keyOf(7), keyOf(3)})),
               OakUsageError);
  EXPECT_THROW(ShardRouter<>(ShardLayout::at({ByteVec{}})), OakUsageError);
}

TEST(ShardRouter, RoutesKeysAndRanges) {
  ShardRouter<> r(ShardLayout::at({keyOf(10), keyOf(20)}));
  ASSERT_EQ(r.shards(), 3u);
  EXPECT_EQ(r.shardFor(asBytes(keyOf(0))), 0u);
  EXPECT_EQ(r.shardFor(asBytes(keyOf(9))), 0u);
  EXPECT_EQ(r.shardFor(asBytes(keyOf(10))), 1u);  // boundary owns upward
  EXPECT_EQ(r.shardFor(asBytes(keyOf(19))), 1u);
  EXPECT_EQ(r.shardFor(asBytes(keyOf(20))), 2u);
  EXPECT_EQ(r.shardFor(asBytes(keyOf(999))), 2u);

  EXPECT_EQ(r.lowerShard(std::nullopt), 0u);
  EXPECT_EQ(r.upperShard(std::nullopt), 2u);
  EXPECT_EQ(r.lowerShard(keyOf(15)), 1u);
  EXPECT_EQ(r.upperShard(keyOf(15)), 1u);
  // An exclusive hi equal to a boundary never touches the boundary's shard.
  EXPECT_EQ(r.upperShard(keyOf(20)), 1u);
  EXPECT_EQ(r.upperShard(keyOf(21)), 2u);
}

// ------------------------------------------------------- core-level map
ShardedOakCoreMap<> smallMap(std::size_t shards, std::uint64_t range = 64) {
  auto cfg = ShardedOakConfig{}
                 .withShards(shards)
                 .withLayout(ShardLayout::uniformRange(shards, range))
                 .withShard(OakConfig{}.withChunkCapacity(16));
  return ShardedOakCoreMap<>(std::move(cfg));
}

TEST(ShardedCoreMap, PointOpsLandInOwningShard) {
  auto map = smallMap(4);
  for (std::uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(map.putIfAbsent(asBytes(keyOf(k)), asBytes(valOf(k * 3))));
  }
  ASSERT_EQ(map.shardCount(), 4u);
  // Every shard holds exactly its quarter — and only via its own core.
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(map.shard(s).sizeSlow(), 16u) << "shard " << s;
  }
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(map.shardFor(asBytes(keyOf(k))), k / 16);
    auto v = map.getCopy(asBytes(keyOf(k)));
    ASSERT_TRUE(v.has_value()) << k;
    EXPECT_EQ(loadUnaligned<std::uint64_t>(v->data()), k * 3);
  }
  EXPECT_EQ(map.sizeSlow(), 64u);
}

TEST(ShardedCoreMap, MergedScansAreGloballySorted) {
  for (std::size_t shards : {1u, 4u, 7u}) {
    auto map = smallMap(shards);
    // Insert in an order that interleaves shards deliberately.
    for (std::uint64_t k = 0; k < 64; ++k) {
      const std::uint64_t scattered = (k * 29) % 64;
      map.put(asBytes(keyOf(scattered)), asBytes(valOf(scattered)));
    }
    std::uint64_t expect = 0;
    for (auto it = map.ascend(); it.valid(); it.next(), ++expect) {
      EXPECT_EQ(loadU64BE(it.entry().key.data()), expect) << shards << " shards";
    }
    EXPECT_EQ(expect, 64u);
    for (auto it = map.descend(); it.valid(); it.next()) {
      --expect;
      EXPECT_EQ(loadU64BE(it.entry().key.data()), expect) << shards << " shards";
    }
    EXPECT_EQ(expect, 0u);
  }
}

TEST(ShardedCoreMap, RangeScansClipToIntersectingShards) {
  auto map = smallMap(4);
  for (std::uint64_t k = 0; k < 64; ++k) {
    map.put(asBytes(keyOf(k)), asBytes(valOf(k)));
  }
  // [14, 35) spans shards 0, 1 and 2.
  std::uint64_t expect = 14;
  for (auto it = map.ascend(keyOf(14), keyOf(35)); it.valid(); it.next()) {
    EXPECT_EQ(loadU64BE(it.entry().key.data()), expect++);
  }
  EXPECT_EQ(expect, 35u);
  // Range wholly inside one shard.
  expect = 20;
  for (auto it = map.ascend(keyOf(20), keyOf(25)); it.valid(); it.next()) {
    EXPECT_EQ(loadU64BE(it.entry().key.data()), expect++);
  }
  EXPECT_EQ(expect, 25u);
  // Bounds exactly on boundary keys: [16, 48) is shards 1 and 2, whole.
  expect = 16;
  for (auto it = map.ascend(keyOf(16), keyOf(48)); it.valid(); it.next()) {
    EXPECT_EQ(loadU64BE(it.entry().key.data()), expect++);
  }
  EXPECT_EQ(expect, 48u);
  // Empty range at a shard boundary.
  EXPECT_FALSE(map.ascend(keyOf(16), keyOf(16)).valid());

  // The same ranges descending: the shards are read last to first.
  expect = 34;
  for (auto it = map.descend(keyOf(14), keyOf(35)); it.valid(); it.next()) {
    EXPECT_EQ(loadU64BE(it.entry().key.data()), expect--);
  }
  EXPECT_EQ(expect, 13u);
  expect = 24;
  for (auto it = map.descend(keyOf(20), keyOf(25)); it.valid(); it.next()) {
    EXPECT_EQ(loadU64BE(it.entry().key.data()), expect--);
  }
  EXPECT_EQ(expect, 19u);
  expect = 47;
  for (auto it = map.descend(keyOf(16), keyOf(48)); it.valid(); it.next()) {
    EXPECT_EQ(loadU64BE(it.entry().key.data()), expect--);
  }
  EXPECT_EQ(expect, 15u);
  EXPECT_FALSE(map.descend(keyOf(16), keyOf(16)).valid());
}

TEST(ShardedCoreMap, LookupsChargeViewsLikeOneShard) {
  // Set-style scans charge one ephemeral view per returned entry (§2.2).
  // The merged scan opens shards one at a time in key order, so a lookup
  // or a short read opens only the shards it reads, and a 4-shard map
  // charges the managed heap exactly what a 1-shard map does.
  const auto charges = [](std::size_t shards) {
    mheap::ManagedHeap heap;
    auto map = std::make_unique<ShardedOakCoreMap<>>(
        ShardedOakConfig{}
            .withShards(shards)
            .withLayout(ShardLayout::uniformRange(shards, 64))
            .withShard(OakConfig{}.withChunkCapacity(16).withMem(
                MemConfig{}.withMetaHeap(&heap))));
    for (std::uint64_t k = 0; k < 64; ++k) {
      map->put(asBytes(keyOf(k)), asBytes(valOf(k)));
    }
    const auto allocations = [&] { return heap.stats().allocations; };
    std::vector<std::uint64_t> out;
    std::uint64_t before = allocations();
    EXPECT_TRUE(map->ceilingEntry(asBytes(keyOf(5))).has_value());
    out.push_back(allocations() - before);
    before = allocations();
    EXPECT_TRUE(map->floorEntry(asBytes(keyOf(60))).has_value());
    out.push_back(allocations() - before);
    before = allocations();
    std::size_t read = 0;
    for (auto it = map->ascend(keyOf(3)); it.valid() && read < 4; it.next()) ++read;
    EXPECT_EQ(read, 4u);
    out.push_back(allocations() - before);
    return out;
  };
  const std::vector<std::uint64_t> one = charges(1);
  EXPECT_EQ(one, (std::vector<std::uint64_t>{1, 1, 5}));
  EXPECT_EQ(charges(4), one);
}

TEST(ShardedCoreMap, NavigationWalksAcrossShardEdges) {
  auto map = smallMap(4);
  // Only keys 15 and 16 — the straddle pair around the 16 boundary.
  map.put(asBytes(keyOf(15)), asBytes(valOf(15)));
  map.put(asBytes(keyOf(16)), asBytes(valOf(16)));
  auto fe = map.firstEntry();
  ASSERT_TRUE(fe);
  EXPECT_EQ(loadU64BE(fe->key.data()), 15u);
  auto le = map.lastEntry();
  ASSERT_TRUE(le);
  EXPECT_EQ(loadU64BE(le->key.data()), 16u);
  // higher(15) must hop into shard 1; lower(16) back into shard 0.
  auto he = map.higherEntry(asBytes(keyOf(15)));
  ASSERT_TRUE(he);
  EXPECT_EQ(loadU64BE(he->key.data()), 16u);
  auto lw = map.lowerEntry(asBytes(keyOf(16)));
  ASSERT_TRUE(lw);
  EXPECT_EQ(loadU64BE(lw->key.data()), 15u);
  // ceiling in an empty middle shard keeps walking right.
  auto ce = map.ceilingEntry(asBytes(keyOf(17)));
  EXPECT_FALSE(ce.has_value());
  auto fl = map.floorEntry(asBytes(keyOf(40)));
  ASSERT_TRUE(fl);
  EXPECT_EQ(loadU64BE(fl->key.data()), 16u);
}

TEST(ShardedCoreMap, StatsAggregateAcrossShards) {
  auto map = smallMap(4);
  for (std::uint64_t k = 0; k < 64; ++k) {
    map.put(asBytes(keyOf(k)), asBytes(valOf(k)));
  }
  const obs::Metrics whole = map.stats();
  EXPECT_EQ(whole.shards, 4u);
  ASSERT_EQ(whole.arenas.size(), 4u);  // one allocator gauge set per arena
  const auto per = map.shardStats();
  ASSERT_EQ(per.size(), 4u);
  std::uint64_t chunks = 0;
  std::size_t footprint = 0;
  std::uint64_t puts = 0;
  for (std::size_t s = 0; s < per.size(); ++s) {
    chunks += per[s].chunkCount;
    footprint += per[s].alloc.footprintBytes;
    puts += per[s].registry.ops[static_cast<std::size_t>(obs::Op::Put)].count;
    EXPECT_EQ(whole.arenas[s].footprintBytes, per[s].alloc.footprintBytes);
  }
  EXPECT_EQ(whole.chunkCount, chunks);
  EXPECT_EQ(whole.alloc.footprintBytes, footprint);
  EXPECT_EQ(whole.registry.ops[static_cast<std::size_t>(obs::Op::Put)].count, puts);
  EXPECT_EQ(puts, 64u);
  EXPECT_EQ(whole.alloc.footprintBytes, map.offHeapFootprintBytes());
  // The JSON export carries both the shard count and the arena vector.
  const std::string json = whole.toJson();
  EXPECT_NE(json.find("\"shards\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"arenas\":["), std::string::npos) << json;
}

TEST(ShardedCoreMap, WalkerValidatesEveryShard) {
  auto map = smallMap(4);
  for (std::uint64_t k = 0; k < 64; ++k) {
    map.put(asBytes(keyOf(k)), asBytes(valOf(k)));
  }
  auto reports = ChunkWalker<BytesComparator>::validateShards(map);
  ASSERT_EQ(reports.size(), 4u);
  for (std::size_t s = 0; s < reports.size(); ++s) {
    EXPECT_TRUE(reports[s].ok) << "shard " << s << ": "
                               << reports[s].problems.size() << " problems";
  }
  EXPECT_TRUE(ChunkWalker<BytesComparator>::validate(map).ok);
}

// --------------------------------------------------------- typed facade
using U64ShardedMap =
    ShardedOakMap<std::uint64_t, std::uint64_t, U64Serializer, U64Serializer>;

ShardedOakConfig typedCfg(std::size_t shards) {
  auto cfg = ShardedOakConfig{}
                 .withShards(shards)
                 .withLayout(ShardLayout::uniformRange(shards, 64))
                 .withShard(OakConfig{}.withChunkCapacity(16));
  return cfg;
}

TEST(ShardedTypedMap, LegacyApiOverShardedCore) {
  U64ShardedMap map(typedCfg(4));
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_FALSE(map.put(k, k + 100).has_value());
  }
  EXPECT_EQ(map.size(), 64u);
  auto prev = map.put(10, 42);
  ASSERT_TRUE(prev);
  EXPECT_EQ(*prev, 110u);
  EXPECT_EQ(map.get(10).value_or(0), 42u);
  auto removed = map.remove(10);
  ASSERT_TRUE(removed);
  EXPECT_EQ(*removed, 42u);
  EXPECT_FALSE(map.containsKey(10));
  EXPECT_EQ(map.firstKey().value_or(999), 0u);
  EXPECT_EQ(map.lastKey().value_or(999), 63u);
  auto ce = map.ceilingEntry(10);  // 10 is gone; 11 is next
  ASSERT_TRUE(ce);
  EXPECT_EQ(ce->first, 11u);
  EXPECT_TRUE(map.replaceIf(11, 111, 7));
  EXPECT_EQ(map.get(11).value_or(0), 7u);
  EXPECT_EQ(map.stats().shards, 4u);
}

TEST(ShardedTypedMap, ZeroCopyScansMergeSorted) {
  U64ShardedMap map(typedCfg(7));
  for (std::uint64_t k = 0; k < 64; ++k) {
    map.zc().put((k * 37) % 64, k);
  }
  auto zc = map.zc();
  std::uint64_t expect = 0;
  for (auto& e : zc.entrySet()) {
    EXPECT_EQ(e.key(), expect++);
  }
  EXPECT_EQ(expect, 64u);
  // Descending subMap [20, 40) across shard edges.
  std::vector<std::uint64_t> keys;
  for (auto& e : zc.subMap(20, 40, ScanOptions::descending())) {
    keys.push_back(e.key());
  }
  ASSERT_EQ(keys.size(), 20u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], 39 - i);
  }
  // keySet projection stays sorted too.
  expect = 0;
  for (std::uint64_t k : zc.keySet()) {
    EXPECT_EQ(k, expect++);
  }
}

}  // namespace
}  // namespace oak
