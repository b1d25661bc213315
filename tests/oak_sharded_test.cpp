// ShardedOakMap: routing, cross-shard merged scans, typed facade, and
// aggregated statistics.
//
// The sharded map is a range-partitioned front-end over independent
// OakCoreMap instances (src/oak/sharded_map.hpp).  These tests pin down the
// contracts the other suites build on: keys route to the shard owning their
// range, whole-map scans come out globally sorted across shard boundaries,
// the BasicOakMap typed facade works unchanged over the sharded core, and
// stats() folds per-shard snapshots into one whole-map view that keeps the
// per-arena vector, and split/merge retire superseded shard state (emptied
// cores are reused; views into trimmed copies fail cleanly).
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

// ----------------------------------------------------- shard retirement
// One retirement rule (sharded_map.hpp): a core keeps only the keys some
// live layout routes to it, and a core no live layout names is emptied and
// reused by the next split.
using Core = OakCoreMap<BytesComparator>;

/// One shard on `pool`.
ShardedOakCoreMap<> retireMap(mem::BlockPool& pool,
                              ValueReclaim reclaim = ValueReclaim::KeepHeaders) {
  return ShardedOakCoreMap<>(ShardedOakConfig{OakConfig{}.withChunkCapacity(16).withMem(
      MemConfig{}.withPool(&pool).withReclaim(reclaim))});
}

void fillU64(ShardedOakCoreMap<>& map, std::uint64_t keys) {
  for (std::uint64_t k = 0; k < keys; ++k) {
    map.put(asBytes(keyOf(k)), asBytes(valOf(k)));
  }
}

std::uint64_t u64Of(const OakRBuffer& b) {
  return loadUnaligned<std::uint64_t>(b.toVecCopy().data());
}

void runSplitMergeCycles(ValueReclaim reclaim) {
  constexpr std::uint64_t kKeys = 64;
  constexpr int kCycles = 5000;
  mem::BlockPool pool(mem::BlockPool::Config{.blockBytes = 64u << 10});
  auto map = retireMap(pool, reclaim);
  fillU64(map, kKeys);
  std::size_t acquiredAt10 = 0;
  for (int c = 1; c <= kCycles; ++c) {
    ASSERT_TRUE(map.splitShardAt(0, keyOf(kKeys / 2))) << "cycle " << c;
    ASSERT_TRUE(map.mergeShards(0)) << "cycle " << c;
    if (c == 10) acquiredAt10 = pool.acquiredBytes();
  }
  // The merged-away core is emptied and reused by the next split: never
  // more cores than the peak shard count.
  EXPECT_LE(map.stats().arenas.size(), 2u);
  EXPECT_EQ(map.sizeSlow(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(u64Of(*map.get(asBytes(keyOf(k)))), k);
  }
  if (reclaim == ValueReclaim::Generational) {
    EXPECT_EQ(pool.acquiredBytes(), acquiredAt10);
  } else {
    // Immortal headers: each migration leaves one behind per value (plus
    // its slice header in checked builds), and nothing else accumulates.
    constexpr std::size_t kHeaderCost =
        detail::kValueHeaderBytes + (OAK_CHECKED ? 16 : 0);
    EXPECT_LE(pool.acquiredBytes() - acquiredAt10,
              (kCycles - 10) * kKeys * kHeaderCost + 2 * pool.blockBytes());
  }
}

TEST(ShardRetirement, SplitMergeCyclesReuseCores) {
  runSplitMergeCycles(ValueReclaim::KeepHeaders);
}

TEST(ShardRetirement, SplitMergeCyclesReuseCoresGenerational) {
  runSplitMergeCycles(ValueReclaim::Generational);
}

TEST(ShardRetirement, MigratedViewsFailCleanly) {
  for (const ValueReclaim reclaim :
       {ValueReclaim::KeepHeaders, ValueReclaim::Generational}) {
    mem::BlockPool pool(mem::BlockPool::Config{.blockBytes = 1u << 20});
    auto map = retireMap(pool, reclaim);
    fillU64(map, 64);
    // Key 40 migrates in the split, key 10 in the merge; both are then
    // overwritten in their new core.
    std::optional<OakRBuffer> splitView = map.get(asBytes(keyOf(40)));
    ASSERT_TRUE(map.splitShardAt(0, keyOf(32)));
    map.put(asBytes(keyOf(40)), asBytes(valOf(4000)));
    std::optional<OakRBuffer> mergeView = map.get(asBytes(keyOf(10)));
    ASSERT_TRUE(map.mergeShards(0));
    map.put(asBytes(keyOf(10)), asBytes(valOf(1000)));
    map.quiesce();
    ASSERT_TRUE(splitView && mergeView);
    EXPECT_THROW(splitView->toVecCopy(), ConcurrentModification);
    EXPECT_THROW(mergeView->toVecCopy(), ConcurrentModification);
    EXPECT_EQ(u64Of(*map.get(asBytes(keyOf(40)))), 4000u);
    EXPECT_EQ(u64Of(*map.get(asBytes(keyOf(10)))), 1000u);
  }
}

TEST(ShardRetirement, OpenScansKeepTheirLayout) {
  constexpr std::uint64_t kKeys = 64;
  mem::BlockPool pool(mem::BlockPool::Config{.blockBytes = 1u << 20});
  auto map = retireMap(pool);
  fillU64(map, kKeys);
  Core* original = &map.shard(0);
  {
    auto live = map.ascend();
    auto snap = map.ascend(std::nullopt, std::nullopt, ScanOptions::snapshot());
    ASSERT_TRUE(live.valid() && snap.valid());
    ASSERT_TRUE(map.splitShardAt(0, keyOf(32)));
    ASSERT_TRUE(map.mergeShards(0));  // the original core is merged away
    ASSERT_TRUE(map.splitShardAt(0, keyOf(16)));
    ASSERT_TRUE(map.mergeShards(0));
    ASSERT_TRUE(map.splitShardAt(0, keyOf(48)));
    map.quiesce();  // both scans still hold the pre-migration layout
    for (auto* it : {&live, &snap}) {
      std::uint64_t expect = 0;
      for (; it->valid(); it->next(), ++expect) {
        EXPECT_EQ(loadU64BE(it->entry().key.data()), expect);
      }
      EXPECT_EQ(expect, kKeys);
    }
  }
  map.quiesce();
  ASSERT_EQ(map.shardCount(), 2u);
  const std::uint64_t owned[] = {48, kKeys - 48};
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(map.shard(i).sizeSlow(), owned[i]) << "shard " << i;
  }
  EXPECT_EQ(original->sizeSlow(), 0u);
  EXPECT_EQ(map.sizeSlow(), kKeys);
}

TEST(ShardRetirement, FailedSplitRollsBackAndCounts) {
  // Five 64 KiB arenas: the source takes three (two for the 1 KiB
  // payloads, one for value headers), so the copy of 80 KiB into a fresh
  // core runs out part-way.
  mem::BlockPool pool(mem::BlockPool::Config{.blockBytes = 64u << 10,
                                             .budgetBytes = 5 * (64u << 10)});
  auto map = retireMap(pool);
  constexpr std::uint64_t kKeys = 96;
  const auto payload = [](std::uint64_t k) { return ByteVec(1024, std::byte(k)); };
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    map.put(asBytes(keyOf(k)), asBytes(payload(k)));
  }
  EXPECT_FALSE(map.splitShardAt(0, keyOf(16)));
  const obs::Metrics m = map.stats();
  EXPECT_EQ(m.registry.counter(obs::Counter::ShardMgmtFailed), 1u);
  EXPECT_EQ(m.registry.counter(obs::Counter::ShardSplit), 0u);
  EXPECT_NE(m.toJson().find("\"shard_mgmt_failed\":1"), std::string::npos);
  // Layout and contents unchanged.
  EXPECT_EQ(map.shardCount(), 1u);
  EXPECT_EQ(map.sizeSlow(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(map.getCopy(asBytes(keyOf(k))), payload(k)) << "key " << k;
  }
  // The partly filled core was emptied: its payloads went back to its free
  // list (only immortal headers and dead entries' keys remain).
  ASSERT_EQ(m.arenas.size(), 2u);
  EXPECT_GT(m.arenas[1].allocCount, 16u);
  EXPECT_LT(m.arenas[1].allocatedBytes, 16u << 10);
}

TEST(ShardRetirement, MigrationIsNotUserTraffic) {
  // A split copies keys into a fresh core and trims them from their
  // source; a merge does both again.  That is internal work: every
  // whole-map op count (user ops and scan steps alike) stays unchanged.
  if (!obs::StatsRegistry::compiled()) GTEST_SKIP() << "built without OAK_STATS";
  constexpr std::uint64_t kKeys = 4096;
  mem::BlockPool pool(mem::BlockPool::Config{.blockBytes = 1u << 20});
  auto map = retireMap(pool);
  fillU64(map, kKeys);
  const obs::Metrics before = map.stats();
  ASSERT_EQ(before.registry.op(obs::Op::Put).count, kKeys);
  ASSERT_TRUE(map.splitShardAt(0, keyOf(kKeys / 2)));
  ASSERT_TRUE(map.mergeShards(0));
  map.quiesce();
  const obs::Metrics after = map.stats();
  for (std::size_t i = 0; i < obs::kOpCount; ++i) {
    const auto op = static_cast<obs::Op>(i);
    EXPECT_EQ(after.registry.op(op).count, before.registry.op(op).count)
        << obs::opName(op);
  }
  EXPECT_EQ(map.sizeSlow(), kKeys);
}

TEST(ShardRetirement, MigrationRebuildsChunks) {
  // Migration and trims rebuild chunks rather than inserting and removing
  // key by key: a split's source keeps chunks only for the keys it still
  // owns, and a merged-away core is emptied down to one chunk.
  constexpr std::uint64_t kKeys = 4096;
  constexpr std::size_t kPerChunk = 8;  // a rebuilt capacity-16 chunk
  constexpr std::size_t kHalfChunks = (kKeys / 2 + kPerChunk - 1) / kPerChunk;
  mem::BlockPool pool(mem::BlockPool::Config{.blockBytes = 1u << 20});
  auto map = retireMap(pool);
  fillU64(map, kKeys);
  ASSERT_TRUE(map.splitShardAt(0, keyOf(kKeys / 2)));
  map.quiesce();
  Core& src = map.shard(0);
  EXPECT_LE(src.chunkCount(), kHalfChunks + 2);
  ASSERT_TRUE(map.mergeShards(0));
  map.quiesce();
  EXPECT_LE(map.chunkCount(), 2 * (kHalfChunks + 1) + 1);
  EXPECT_EQ(src.chunkCount(), 1u);
  EXPECT_EQ(map.sizeSlow(), kKeys);
}

TEST(ShardRetirement, ExplicitSplitsStopAtMaxShards) {
  constexpr std::size_t kMax = ShardedOakCoreMap<>::kMaxShards;
  auto map = smallMap(kMax, 4 * kMax);
  for (std::uint64_t k = 0; k < 4 * kMax; ++k) {
    map.put(asBytes(keyOf(k)), asBytes(valOf(k)));
  }
  EXPECT_FALSE(map.splitShardAt(0, keyOf(2)));
  EXPECT_FALSE(map.splitShard(kMax - 1));
  EXPECT_EQ(map.shardCount(), kMax);
  ASSERT_TRUE(map.mergeShards(0));
  EXPECT_TRUE(map.splitShardAt(0, keyOf(4)));
  EXPECT_EQ(map.shardCount(), kMax);
  EXPECT_EQ(map.sizeSlow(), 4 * kMax);
}

}  // namespace
}  // namespace oak
