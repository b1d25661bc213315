// Snapshot-consistency fuzz suite: MVCC scans vs a version-tagged oracle.
//
// Three layers of evidence that `ScanOptions::snapshot()` observes exactly
// the map state at pin time (DESIGN.md §11):
//
//   * Quiescent oracle rounds — a single thread interleaves random
//     mutations with snapshot opens, keeping a std::map copy per open pin;
//     every held snapshot must keep scanning *its* copy verbatim while the
//     map churns on and the version GC runs underneath it.
//   * Concurrent fuzz — writer/remover/compute threads churn a key range
//     while scanner threads open snapshots and walk each one twice; both
//     passes must be byte-identical, globally sorted, and must show an
//     untouched "bedrock" key range with its original values.
//   * Help-stamp round — a point get followed by a snapshot open must show
//     the gotten (or a newer) value: get vs snapshot-scan linearizability.
//
// Deterministic and replayable: failure messages carry the seed; set
// OAK_MODEL_SEED=<n> to pin the sequence and OAK_SHARDS=<n> the layout.
// OAK_SNAPSHOT_OPS=<n> scales the fuzz length (the "full" ctest entry does).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/env.hpp"
#include "common/random.hpp"
#include "oak/sharded_map.hpp"

namespace oak {
namespace {

constexpr std::uint64_t kKeySpace = 64;

ByteVec keyOf(std::uint64_t i) {
  ByteVec k(8);
  storeU64BE(k.data(), i);
  return k;
}
/// Key-tagged payload: scanners can verify any observed value belongs to
/// its key no matter which write it came from.
ByteVec valOf(std::uint64_t key, std::uint64_t seq) {
  ByteVec v(8);
  storeUnaligned(v.data(), (key << 40) | (seq & 0xff'ffff'ffffull));
  return v;
}
std::uint64_t keyTag(std::uint64_t payload) { return payload >> 40; }
std::uint64_t seqOf(std::uint64_t payload) { return payload & 0xff'ffff'ffffull; }
std::uint64_t valFrom(ByteSpan s) { return loadUnaligned<std::uint64_t>(s.data()); }

using Oracle = std::map<std::uint64_t, std::uint64_t>;  // key -> payload
using Map = ShardedOakCoreMap<>;

Map makeMap(std::size_t shards) {
  return Map(ShardedOakConfig{}
                 .withShards(shards)
                 .withLayout(ShardLayout::uniformRange(shards, kKeySpace))
                 .withShard(OakConfig{}.withChunkCapacity(16)));
}

std::vector<std::size_t> shardCounts() {
  if (env::raw("OAK_SHARDS") != nullptr) {
    return {static_cast<std::size_t>(env::u64("OAK_SHARDS", 1))};
  }
  return {1, 4};
}

std::vector<std::uint64_t> fuzzSeeds() {
  if (env::raw("OAK_MODEL_SEED") != nullptr) {
    return {env::u64("OAK_MODEL_SEED", 1)};
  }
  return {7, 2026, 0xC0FFEE};
}

int fuzzOps(int quickDefault) {
  return static_cast<int>(env::u64("OAK_SNAPSHOT_OPS",
                                   static_cast<std::uint64_t>(quickDefault)));
}

/// Drains one full snapshot scan into (key, payload) pairs.
std::vector<std::pair<std::uint64_t, std::uint64_t>> drain(
    Map& map, ScanOptions opts) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  if (!opts.isDescending()) {
    for (auto it = map.ascend({}, {}, opts); it.valid(); it.next()) {
      auto e = it.entry();
      std::uint64_t v = ~0ull;
      EXPECT_TRUE(e.readValue([&](ByteSpan s) { v = valFrom(s); }));
      out.emplace_back(loadU64BE(e.key.data()), v);
    }
  } else {
    for (auto it = map.descend({}, {}, opts); it.valid(); it.next()) {
      auto e = it.entry();
      std::uint64_t v = ~0ull;
      EXPECT_TRUE(e.readValue([&](ByteSpan s) { v = valFrom(s); }));
      out.emplace_back(loadU64BE(e.key.data()), v);
    }
    std::reverse(out.begin(), out.end());
  }
  return out;
}

void expectMatchesOracle(Map& map, const Snapshot& snap, const Oracle& oracle,
                         const char* what) {
  auto got = drain(map, ScanOptions::snapshotAt(snap.version()));
  ASSERT_EQ(got.size(), oracle.size()) << what << " v=" << snap.version();
  std::size_t i = 0;
  for (const auto& [k, payload] : oracle) {
    EXPECT_EQ(got[i].first, k) << what << " pos " << i;
    EXPECT_EQ(got[i].second, payload) << what << " key " << k;
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Quiescent rounds: every held pin keeps its exact world while the map moves.
// ---------------------------------------------------------------------------

void runQuiescentOracle(std::size_t shards, std::uint64_t seed, int ops) {
  SCOPED_TRACE("shards=" + std::to_string(shards) + " seed=" +
               std::to_string(seed) + " (replay: OAK_MODEL_SEED=" +
               std::to_string(seed) + ")");
  Map map = makeMap(shards);
  Oracle oracle;
  XorShift rng(seed);
  std::uint64_t seq = 0;

  struct Held {
    Snapshot snap;
    Oracle world;
  };
  std::vector<Held> held;

  for (int i = 0; i < ops; ++i) {
    SCOPED_TRACE("op=" + std::to_string(i));
    const std::uint64_t k = rng.nextBounded(kKeySpace);
    switch (rng.nextBounded(12)) {
      case 0:
      case 1:
      case 2: {  // put (fresh or overwrite)
        const std::uint64_t payload = (k << 40) | (++seq & 0xff'ffff'ffffull);
        map.put(asBytes(keyOf(k)), asBytes(valOf(k, seq)));
        oracle[k] = payload;
        break;
      }
      case 3: {
        if (map.remove(asBytes(keyOf(k)))) oracle.erase(k);
        break;
      }
      case 4: {  // in-place compute bumps the sequence field
        const bool ok = map.computeIfPresent(
            asBytes(keyOf(k)), [](OakWBuffer& w) { w.putU64(0, w.getU64(0) + 1); });
        EXPECT_EQ(ok, oracle.count(k) != 0);
        if (ok) ++oracle[k];
        break;
      }
      case 5: {  // open a new pin over the current world
        if (held.size() < 6) {
          held.push_back(Held{map.openSnapshot(), oracle});
        }
        break;
      }
      case 6: {  // close a random pin
        if (!held.empty()) {
          held.erase(held.begin() +
                     static_cast<std::ptrdiff_t>(rng.nextBounded(held.size())));
        }
        break;
      }
      case 7: {  // version GC must not disturb any held pin
        map.collectVersionsNow();
        break;
      }
      default: {  // verify one held pin (cheap enough to do often)
        if (!held.empty()) {
          const Held& h = held[rng.nextBounded(held.size())];
          expectMatchesOracle(map, h.snap, h.world, "held pin");
        }
        break;
      }
    }
  }
  // Everything still holds at the end, then the world unpins cleanly.
  for (const Held& h : held) expectMatchesOracle(map, h.snap, h.world, "final");
  held.clear();
  map.collectVersionsNow();
  auto now = drain(map, ScanOptions::snapshot());
  ASSERT_EQ(now.size(), oracle.size());
  std::size_t i = 0;
  for (const auto& [k, payload] : oracle) {
    EXPECT_EQ(now[i].first, k);
    EXPECT_EQ(now[i].second, payload);
    ++i;
  }
}

TEST(SnapshotOracle, HeldPinsKeepTheirWorld) {
  for (std::size_t shards : shardCounts()) {
    for (std::uint64_t seed : fuzzSeeds()) {
      runQuiescentOracle(shards, seed, fuzzOps(900));
    }
  }
}

TEST(SnapshotOracle, PinnedVersionSurvivesAggressiveGc) {
  Map map = makeMap(1);
  map.put(asBytes(keyOf(1)), asBytes(valOf(1, 1)));
  Snapshot snap = map.openSnapshot();
  const Oracle world{{1, (1ull << 40) | 1}};
  // Bury the pinned version under many overwrites + GC passes.
  for (std::uint64_t s = 2; s < 200; ++s) {
    map.put(asBytes(keyOf(1)), asBytes(valOf(1, s)));
    if (s % 16 == 0) map.collectVersionsNow();
  }
  expectMatchesOracle(map, snap, world, "buried pin");
  // Remove while pinned: the snapshot must still see the key.
  ASSERT_TRUE(map.remove(asBytes(keyOf(1))));
  map.collectVersionsNow();
  expectMatchesOracle(map, snap, world, "pin past remove");
  // Dropping the pin releases the chain; a later GC retires it.
  snap = Snapshot{};
  map.collectVersionsNow();
  EXPECT_EQ(drain(map, ScanOptions::snapshot()).size(), 0u);
  EXPECT_GT(map.stats().registry.counter(obs::Counter::VersionsRetired), 0u);
}

TEST(SnapshotOracle, TombstoneInvisibleNowButVisibleToOlderPin) {
  Map map = makeMap(1);
  map.put(asBytes(keyOf(3)), asBytes(valOf(3, 1)));
  Snapshot before = map.openSnapshot();
  ASSERT_TRUE(map.remove(asBytes(keyOf(3))));
  Snapshot after = map.openSnapshot();

  EXPECT_FALSE(map.containsKey(asBytes(keyOf(3))));
  EXPECT_EQ(map.sizeSlow(), 0u);  // live scans skip the tombstone
  expectMatchesOracle(map, before, Oracle{{3, (3ull << 40) | 1}}, "before");
  expectMatchesOracle(map, after, Oracle{}, "after");

  // Resurrection: a put over the tombstone is a fresh insert; the older
  // pins keep their respective worlds.
  map.put(asBytes(keyOf(3)), asBytes(valOf(3, 2)));
  expectMatchesOracle(map, before, Oracle{{3, (3ull << 40) | 1}}, "before2");
  expectMatchesOracle(map, after, Oracle{}, "after2");
  EXPECT_EQ(map.sizeSlow(), 1u);
}

// Regression: shard migration (split/merge) restamps moved values at copy
// time, so a pin older than the migration cannot see the copies — it must
// keep routing through the pre-migration layout, whose cores keep the
// originals while that layout is live (the retirement rule in sharded_map).
// Without it this scan comes back partially or completely empty.
TEST(SnapshotOracle, PinnedScanSurvivesShardSplitAndMerge) {
  Map map = makeMap(2);
  Oracle world;
  for (std::uint64_t k = 0; k < kKeySpace; ++k) {
    map.put(asBytes(keyOf(k)), asBytes(valOf(k, 1)));
    world[k] = (k << 40) | 1;
  }
  Snapshot snap = map.openSnapshot();

  // Churn after the pin, then migrate every key at least once: one split,
  // then merge all the way back down to a single shard.
  for (std::uint64_t k = 0; k < kKeySpace; ++k) {
    map.put(asBytes(keyOf(k)), asBytes(valOf(k, 2)));
  }
  ASSERT_TRUE(map.splitShardAt(0, keyOf(kKeySpace / 4)));
  while (map.shardCount() > 1) ASSERT_TRUE(map.mergeShards(0));
  map.collectVersionsNow();  // must not reclaim what the pin still reads

  expectMatchesOracle(map, snap, world, "pinned across split+merge");
  // The descending scan at the same pin walks the pre-migration shards in
  // reverse and must see the same world.
  const auto desc = drain(
      map, ScanOptions::snapshotAt(snap.version(), ScanOptions::Direction::Descending));
  ASSERT_EQ(desc.size(), world.size());
  std::size_t i = 0;
  for (const auto& [k, payload] : world) {
    EXPECT_EQ(desc[i].first, k) << "descending pos " << i;
    EXPECT_EQ(desc[i].second, payload) << "descending key " << k;
    ++i;
  }

  // A pin opened after the migrations sees the post-churn world.
  Snapshot now = map.openSnapshot();
  auto cur = drain(map, ScanOptions::snapshotAt(now.version()));
  ASSERT_EQ(cur.size(), kKeySpace);
  for (const auto& [k, payload] : cur) {
    EXPECT_EQ(keyTag(payload), k);
    EXPECT_EQ(seqOf(payload), 2u) << "key " << k;
  }
}

// ---------------------------------------------------------------------------
// Concurrent fuzz: pins stay frozen while writers churn underneath.
// ---------------------------------------------------------------------------

void runConcurrentFuzz(std::size_t shards, std::uint64_t seed, int scansPerThread) {
  // SCOPED_TRACE does not reach the scanner threads, so their assertions
  // carry this context themselves.
  const std::string where = "shards=" + std::to_string(shards) + " seed=" +
                            std::to_string(seed) + " (replay: OAK_MODEL_SEED=" +
                            std::to_string(seed) + ")";
  SCOPED_TRACE(where);
  constexpr std::uint64_t kBedrock = 16;  // keys [0,16) never touched again
  Map map = makeMap(shards);
  for (std::uint64_t k = 0; k < kBedrock; ++k) {
    map.put(asBytes(keyOf(k)), asBytes(valOf(k, 0)));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> commits{0};

  auto mutator = [&](std::uint64_t tseed) {
    XorShift rng(tseed);
    std::uint64_t seq = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t k = kBedrock + rng.nextBounded(kKeySpace - kBedrock);
      switch (rng.nextBounded(4)) {
        case 0:
          map.put(asBytes(keyOf(k)), asBytes(valOf(k, ++seq)));
          break;
        case 1:
          map.remove(asBytes(keyOf(k)));
          break;
        case 2:
          map.putIfAbsent(asBytes(keyOf(k)), asBytes(valOf(k, ++seq)));
          break;
        default:
          map.computeIfPresent(asBytes(keyOf(k)), [](OakWBuffer& w) {
            w.putU64(0, w.getU64(0) + 1);
          });
          break;
      }
      commits.fetch_add(1, std::memory_order_release);
    }
  };

  auto scanner = [&](std::uint64_t tseed) {
    // Scan only once the mutators commit, so every pin races real churn.
    while (commits.load(std::memory_order_acquire) == 0) std::this_thread::yield();
    XorShift rng(tseed);
    for (int round = 0; round < scansPerThread; ++round) {
      Snapshot snap = map.openSnapshot();
      const auto dir = rng.nextBounded(2) == 0 ? ScanOptions::Direction::Ascending
                                               : ScanOptions::Direction::Descending;
      auto pass1 = drain(map, ScanOptions::snapshotAt(snap.version(), dir));
      auto pass2 = drain(map, ScanOptions::snapshotAt(snap.version(), dir));
      // Frozen world: the same pin yields the same bytes, churn or not.
      ASSERT_EQ(pass1, pass2) << where << " round " << round << " v=" << snap.version();
      // Globally sorted, no duplicates, every payload tagged with its key.
      for (std::size_t i = 0; i < pass1.size(); ++i) {
        if (i > 0) {
          ASSERT_LT(pass1[i - 1].first, pass1[i].first) << where;
        }
        ASSERT_EQ(keyTag(pass1[i].second), pass1[i].first) << where;
      }
      // Bedrock keys are immutable: all present, original payloads.
      ASSERT_GE(pass1.size(), kBedrock) << where;
      for (std::uint64_t k = 0; k < kBedrock; ++k) {
        ASSERT_EQ(pass1[k].first, k) << where << " bedrock hole";
        ASSERT_EQ(pass1[k].second, k << 40) << where << " bedrock payload";
      }
    }
  };

  const unsigned mutators = 3;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < mutators; ++t) {
    threads.emplace_back(mutator, seed * 31 + t);
  }
  std::thread s1(scanner, seed * 131 + 7);
  std::thread s2(scanner, seed * 131 + 11);
  s1.join();
  s2.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EXPECT_GT(commits.load(), 0u);

  // Post-churn sanity: drained map still validates and GC converges.
  map.collectVersionsNow();
  auto fin = drain(map, ScanOptions::snapshot());
  for (std::size_t i = 1; i < fin.size(); ++i) {
    ASSERT_LT(fin[i - 1].first, fin[i].first);
  }
}

TEST(SnapshotFuzz, ConcurrentScansStayFrozen) {
  for (std::size_t shards : shardCounts()) {
    for (std::uint64_t seed : fuzzSeeds()) {
      runConcurrentFuzz(shards, seed, fuzzOps(900) / 30);
    }
  }
}

TEST(SnapshotFuzz, ScansStayFrozenAcrossShardSplitMerge) {
  for (std::uint64_t seed : fuzzSeeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Map map = makeMap(2);
    for (std::uint64_t k = 0; k < kKeySpace; k += 2) {
      map.put(asBytes(keyOf(k)), asBytes(valOf(k, 1)));
    }
    std::atomic<bool> stop{false};
    std::thread churn([&] {
      XorShift rng(seed ^ 0xABCD);
      std::uint64_t seq = 1;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t k = 1 + 2 * rng.nextBounded(kKeySpace / 2);
        if (rng.nextBounded(3) == 0) {
          map.remove(asBytes(keyOf(k)));
        } else {
          map.put(asBytes(keyOf(k)), asBytes(valOf(k, ++seq)));
        }
      }
    });
    std::thread resize([&] {
      XorShift rng(seed ^ 0x5151);
      while (!stop.load(std::memory_order_acquire)) {
        if (map.shardCount() < 5) {
          // Random split point; out-of-range mids are rejected harmlessly.
          map.splitShardAt(rng.nextBounded(map.shardCount()),
                           keyOf(rng.nextBounded(kKeySpace)));
        }
        if (map.shardCount() > 1 && rng.nextBounded(2) == 0) {
          map.mergeShards(rng.nextBounded(map.shardCount() - 1));
        }
      }
    });
    for (int round = 0; round < fuzzOps(900) / 60; ++round) {
      Snapshot snap = map.openSnapshot();
      auto pass1 = drain(map, ScanOptions::snapshotAt(snap.version()));
      auto pass2 = drain(map, ScanOptions::snapshotAt(snap.version()));
      ASSERT_EQ(pass1, pass2) << "round " << round;
      // Even keys are bedrock here; they must all be present, in order.
      std::uint64_t expect = 0;
      for (const auto& [k, payload] : pass1) {
        if (k % 2 != 0) continue;
        ASSERT_EQ(k, expect) << "even-key hole at round " << round;
        expect += 2;
      }
      ASSERT_EQ(expect, kKeySpace);
    }
    stop.store(true, std::memory_order_release);
    churn.join();
    resize.join();
  }
}

// ---------------------------------------------------------------------------
// Help-stamp round: get-then-snapshot is linearizable.
// ---------------------------------------------------------------------------

TEST(SnapshotFuzz, GetThenSnapshotNeverTravelsBack) {
  for (std::uint64_t seed : fuzzSeeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Map map = makeMap(1);
    constexpr std::uint64_t kKey = 5;
    map.put(asBytes(keyOf(kKey)), asBytes(valOf(kKey, 0)));

    std::atomic<bool> stop{false};
    std::thread writer([&] {
      // Monotone sequence numbers: newer writes carry strictly larger seqs.
      for (std::uint64_t s = 1; !stop.load(std::memory_order_acquire); ++s) {
        map.put(asBytes(keyOf(kKey)), asBytes(valOf(kKey, s)));
      }
    });
    const int rounds = fuzzOps(900) / 3;
    for (int i = 0; i < rounds; ++i) {
      auto got = map.getCopy(asBytes(keyOf(kKey)));
      ASSERT_TRUE(got.has_value());
      const std::uint64_t seen = seqOf(valFrom(asBytes(*got)));
      Snapshot snap = map.openSnapshot();
      auto world = drain(map, ScanOptions::snapshotAt(snap.version()));
      ASSERT_EQ(world.size(), 1u);
      // The snapshot opened after the get completed: it must observe the
      // gotten write or a newer one, never an older state.
      ASSERT_GE(seqOf(world[0].second), seen) << "round " << i;
    }
    stop.store(true, std::memory_order_release);
    writer.join();
  }
}

// Writers must not block on a long-lived open scan (MVCC, not locking).
TEST(SnapshotFuzz, WritersProgressUnderHeldScan) {
  Map map = makeMap(1);
  for (std::uint64_t k = 0; k < kKeySpace; ++k) {
    map.put(asBytes(keyOf(k)), asBytes(valOf(k, 1)));
  }
  auto it = map.ascend({}, {}, ScanOptions::snapshot());
  ASSERT_TRUE(it.valid());
  it.next();  // park the iterator mid-scan, pin held
  for (std::uint64_t s = 2; s < 500; ++s) {
    map.put(asBytes(keyOf(s % kKeySpace)), asBytes(valOf(s % kKeySpace, s)));
  }
  // The parked scan still completes over its frozen world.
  std::uint64_t rows = 1;
  for (; it.valid(); it.next()) {
    auto e = it.entry();
    std::uint64_t v = 0;
    ASSERT_TRUE(e.readValue([&](ByteSpan s) { v = valFrom(s); }));
    EXPECT_EQ(seqOf(v), 1u);
    ++rows;
  }
  EXPECT_EQ(rows, kKeySpace);
}

}  // namespace
}  // namespace oak
