// Relocation torture suite (DESIGN.md §13): slices move under a live map.
//
// The allocator-level tests drive the evacuation protocol directly
// (begin/finish/abort, the free-segment tiling check, magazine parking);
// the map-level tests prove the reader-facing guarantee — zero-copy gets,
// iterators, and snapshot scans never observe moved-out bytes — by racing
// N mutator threads (each checked against its own shadow std::map oracle)
// against a relocator thread that evacuates continuously.  Checked/ASan
// presets turn any read of a moved-out slice into a hard fault: free()
// poisons the vacated bytes.
//
// Deterministic by default; set OAK_MODEL_SEED=<n> to replay one sequence.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/random.hpp"
#include "mem/first_fit_allocator.hpp"
#include "oak/chunk_walker.hpp"
#include "oak/core_map.hpp"

namespace oak {
namespace {

ByteSpan bytes(const std::string& s) { return asBytes(std::string_view(s)); }

// Self-certifying value: embeds its key, a write counter, and a fill byte
// derived from the counter.  A read that lands on moved-out (or torn) bytes
// fails the consistency check without needing to know which write it raced.
std::string makeValue(const std::string& key, std::uint32_t counter, std::size_t pad) {
  std::string v = key + ":" + std::to_string(counter) + ":";
  v.append(pad, static_cast<char>('a' + counter % 26));
  return v;
}

bool valueWellFormed(ByteSpan v, const std::string& key) {
  const std::string s(reinterpret_cast<const char*>(v.data()), v.size());
  const std::string prefix = key + ":";
  if (s.rfind(prefix, 0) != 0) return false;
  const std::size_t c2 = s.find(':', prefix.size());
  if (c2 == std::string::npos) return false;
  std::uint32_t counter = 0;
  for (std::size_t i = prefix.size(); i < c2; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    counter = counter * 10 + static_cast<std::uint32_t>(s[i] - '0');
  }
  const char fill = static_cast<char>('a' + counter % 26);
  for (std::size_t i = c2 + 1; i < s.size(); ++i) {
    if (s[i] != fill) return false;
  }
  return true;
}

// ===================================================== allocator protocol

class RelocAllocTest : public ::testing::Test {
 protected:
  mem::BlockPool pool_{{.blockBytes = 64u << 10, .budgetBytes = SIZE_MAX}};
  mem::FirstFitAllocator alloc_{pool_};
};

TEST_F(RelocAllocTest, EvacuateRefusesPinnedCurrentAndUnowned) {
  const mem::Ref data = alloc_.alloc(128);
  const mem::Ref pinned = alloc_.allocPinned(40);
  EXPECT_FALSE(alloc_.beginEvacuate(data.block())) << "current bump block";
  EXPECT_FALSE(alloc_.beginEvacuate(pinned.block())) << "pinned domain";
  EXPECT_FALSE(alloc_.beginEvacuate(mem::Ref::kMaxBlocks - 1)) << "unowned";
  EXPECT_EQ(alloc_.evacuatingBlocks(), 0u);
  alloc_.free(data);
  alloc_.free(pinned);
}

TEST_F(RelocAllocTest, FinishRequiresExactTilingThenRetiresTheArena) {
  // Fill block A, then open block B so A is no longer the bump target.
  std::vector<mem::Ref> slices;
  slices.push_back(alloc_.alloc(1024));
  const std::uint32_t firstBlock = slices.front().block();
  while (alloc_.ownedBlocks() == 1) slices.push_back(alloc_.alloc(1024));
  ASSERT_TRUE(alloc_.beginEvacuate(firstBlock));
  EXPECT_TRUE(alloc_.isEvacuating(firstBlock));
  EXPECT_EQ(alloc_.evacuatingBlocks(), 1u);
  alloc_.flushMagazines();
  // Live slices still in the block: the tiling check must refuse.
  EXPECT_FALSE(alloc_.finishEvacuate(firstBlock));
  const std::size_t before = alloc_.ownedBlocks();
  for (const mem::Ref r : slices) {
    if (r.block() == firstBlock) alloc_.free(r);
  }
  // All of block A's bytes are now free segments (+ recorded bump waste):
  // the tiling closes and the arena goes back to the pool.
  EXPECT_TRUE(alloc_.finishEvacuate(firstBlock));
  EXPECT_EQ(alloc_.ownedBlocks(), before - 1);
  EXPECT_EQ(alloc_.evacuatingBlocks(), 0u);
  for (const mem::Ref r : slices) {
    if (r.block() != firstBlock) alloc_.free(r);
  }
}

TEST_F(RelocAllocTest, AbortReopensTheBlockForReuse) {
  std::vector<mem::Ref> slices;
  slices.push_back(alloc_.alloc(512));
  const std::uint32_t firstBlock = slices.front().block();
  while (alloc_.ownedBlocks() == 1) slices.push_back(alloc_.alloc(512));
  ASSERT_TRUE(alloc_.beginEvacuate(firstBlock));
  EXPECT_FALSE(alloc_.beginEvacuate(firstBlock)) << "already marked";
  alloc_.abortEvacuate(firstBlock);
  EXPECT_FALSE(alloc_.isEvacuating(firstBlock));
  EXPECT_EQ(alloc_.evacuatingBlocks(), 0u);
  for (const mem::Ref r : slices) alloc_.free(r);
}

TEST_F(RelocAllocTest, MarkedBlockSegmentsNeverServeAllocations) {
  // Free a slice in a marked block, then allocate the same size: the
  // segment must not come back (tryFreeList skips evacuating blocks and
  // magazine pops park their cached victims).
  std::vector<mem::Ref> slices;
  slices.push_back(alloc_.alloc(2048));
  const std::uint32_t firstBlock = slices.front().block();
  while (alloc_.ownedBlocks() == 1) slices.push_back(alloc_.alloc(2048));
  ASSERT_TRUE(alloc_.beginEvacuate(firstBlock));
  alloc_.flushMagazines();
  for (const mem::Ref r : slices) {
    if (r.block() == firstBlock) alloc_.free(r);
  }
  for (int i = 0; i < 64; ++i) {
    const mem::Ref r = alloc_.alloc(2048);
    EXPECT_NE(r.block(), firstBlock) << "allocation served from a victim block";
    alloc_.free(r);
  }
  alloc_.abortEvacuate(firstBlock);
  for (const mem::Ref r : slices) {
    if (r.block() != firstBlock) alloc_.free(r);
  }
}

TEST_F(RelocAllocTest, BlockOccupancyTracksLiveBytes) {
  const mem::Ref a = alloc_.alloc(1000);
  const mem::Ref b = alloc_.alloc(3000);
  const auto occ = alloc_.blockOccupancy();
  ASSERT_FALSE(occ.empty());
  std::uint64_t live = 0;
  for (const auto& o : occ) live += o.liveBytes;
  EXPECT_GT(live, 4000u) << "live bytes must cover both slices (plus headers)";
  alloc_.free(a);
  alloc_.free(b);
}

// Satellite regression: arenas that are fully dead but not yet released
// must not trip the emergency-reserve / exhaustion path — the grow path
// recomputes pressure from live bytes by releasing them first.
TEST(RelocAllocPressure, DeadArenasDoNotCausePrematureExhaustion) {
  // Budget: exactly 4 blocks.  Fill 3, free them entirely (dead but owned),
  // then allocate 3 blocks' worth again — without the release-dead-arenas
  // path the 4-block budget would be exhausted by owned-but-empty arenas.
  mem::BlockPool pool({.blockBytes = 64u << 10, .budgetBytes = 256u << 10});
  mem::FirstFitAllocator alloc(pool);
  alloc.setMagazinesEnabled(false);
  std::vector<mem::Ref> slices;
  while (alloc.ownedBlocks() < 3) slices.push_back(alloc.alloc(4096));
  for (const mem::Ref r : slices) alloc.free(r);
  slices.clear();
  ASSERT_NO_THROW({
    for (int i = 0; i < 40; ++i) slices.push_back(alloc.alloc(4096));
  }) << "dead-but-unreleased arenas counted toward the budget";
  for (const mem::Ref r : slices) alloc.free(r);
}

// ======================================================= map-level moves

OakConfig smallArenaConfig(mem::BlockPool* pool) {
  return OakConfig{}
      .withChunkCapacity(64)
      .withMem(MemConfig{}.withPool(pool).withCompactionOccupancy(0.6));
}

// Deterministic end-state: churn, evacuate, and require the footprint and
// arena count to drop by >= 30% (the obs gauges are the measurement).
TEST(OakRelocation, EvacuationReclaimsSparseArenas) {
  mem::BlockPool pool({.blockBytes = 64u << 10, .budgetBytes = SIZE_MAX});
  OakCoreMap<> map(smallArenaConfig(&pool));
  const int n = 600;
  for (int i = 0; i < n; ++i) {
    map.put(bytes("k" + std::to_string(i)), bytes(makeValue("k", 1, 700)));
  }
  map.quiesce();
  const obs::Metrics before = map.stats();
  ASSERT_GT(before.alloc.arenaBlocks, 3u) << "churn must span several arenas";
  // Delete 80%: most arenas drop far below the 60% occupancy threshold.
  for (int i = 0; i < n; ++i) {
    if (i % 5 != 0) map.remove(bytes("k" + std::to_string(i)));
  }
  map.quiesce();
  std::size_t retired = 0;
  for (int round = 0; round < 4; ++round) retired += map.compactNow();
  EXPECT_GT(retired, 0u);
  const obs::Metrics after = map.stats();
  EXPECT_LE(after.alloc.arenaBlocks * 10, before.alloc.arenaBlocks * 7)
      << "arena count must drop by >= 30%: " << before.alloc.arenaBlocks
      << " -> " << after.alloc.arenaBlocks;
  EXPECT_LE(after.alloc.footprintBytes * 10, before.alloc.footprintBytes * 7)
      << "resident footprint must drop by >= 30%";
  EXPECT_GT(after.registry.counter(obs::Counter::SlicesRelocated), 0u);
  EXPECT_GT(after.registry.counter(obs::Counter::ArenasEvacuated), 0u);
  EXPECT_EQ(after.alloc.evacuatingBlocks, 0u) << "no victim left marked";

  // Contents survived the moves bit-for-bit.
  for (int i = 0; i < n; i += 5) {
    auto got = map.getCopy(bytes("k" + std::to_string(i)));
    ASSERT_TRUE(got.has_value()) << "k" << i;
    EXPECT_TRUE(valueWellFormed(asBytes(*got), "k")) << "k" << i;
  }
  auto rep = ChunkWalker<BytesComparator>::validate(map);
  for (const auto& p : rep.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(rep.ok);
}

// The background trigger: with MemConfig::compaction enabled, churn
// alone must schedule evacuation through the maintenance service.
TEST(OakRelocation, BackgroundTriggerEvacuatesWithoutExplicitCalls) {
  mem::BlockPool pool({.blockBytes = 64u << 10, .budgetBytes = SIZE_MAX});
  auto cfg = OakConfig{}
                 .withChunkCapacity(64)
                 .withMem(MemConfig{}
                              .withPool(&pool)
                              .withCompaction(true)
                              .withCompactionOccupancy(0.6));
  OakCoreMap<> map(cfg);
  for (int i = 0; i < 600; ++i) {
    map.put(bytes("k" + std::to_string(i)), bytes(makeValue("k", 1, 700)));
  }
  for (int i = 0; i < 600; ++i) {
    if (i % 5 != 0) map.remove(bytes("k" + std::to_string(i)));
  }
  map.quiesce();
  const std::size_t before = map.stats().alloc.arenaBlocks;
  // Keep mutating until the amortized tick fires the trigger (inline here —
  // no maintenance pool is configured).
  for (int i = 0; i < 20000 &&
                  map.stats().registry.counter(obs::Counter::EvacuationRuns) == 0;
       ++i) {
    map.put(bytes("tick"), bytes(makeValue("tick", 1, 32)));
  }
  EXPECT_GT(map.stats().registry.counter(obs::Counter::EvacuationRuns), 0u);
  map.quiesce();
  EXPECT_LT(map.stats().alloc.arenaBlocks, before);
}

// ========================================================= torture suite

struct TortureKnobs {
  int mutators = 4;
  int opsPerMutator = 3000;
  int keysPerMutator = 150;
};

void runTorture(std::uint64_t seed, const TortureKnobs& knobs) {
  SCOPED_TRACE("replay: OAK_MODEL_SEED=" + std::to_string(seed));
  mem::BlockPool pool({.blockBytes = 64u << 10, .budgetBytes = SIZE_MAX});
  OakCoreMap<> map(smallArenaConfig(&pool));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failures{0};

  // Relocator: evacuate continuously while the mutators run.
  std::thread relocator([&] {
    std::uint64_t runs = 0;
    while (!stop.load(std::memory_order_acquire)) {
      map.compactNow();
      if ((++runs & 7) == 0) std::this_thread::yield();
    }
  });

  std::vector<std::thread> mutators;
  mutators.reserve(static_cast<std::size_t>(knobs.mutators));
  for (int t = 0; t < knobs.mutators; ++t) {
    mutators.emplace_back([&, t] {
      // Disjoint key ranges make each thread's shadow map a precise oracle.
      XorShift rng(seed * 1000003u + static_cast<std::uint64_t>(t) + 1);
      std::map<std::string, std::uint32_t> shadow;  // key -> write counter
      std::uint32_t counter = 0;
      const auto key = [&](int i) {
        return "t" + std::to_string(t) + "-k" + std::to_string(i);
      };
      for (int op = 0; op < knobs.opsPerMutator; ++op) {
        const int i = static_cast<int>(rng.nextBounded(
            static_cast<std::uint64_t>(knobs.keysPerMutator)));
        const std::string k = key(i);
        switch (rng.nextBounded(10)) {
          case 0:
          case 1: {  // remove
            const bool removed = map.remove(bytes(k));
            if (removed != (shadow.count(k) != 0)) ++failures;
            shadow.erase(k);
            break;
          }
          case 2: {  // zero-copy get + content check against the oracle
            auto view = map.get(bytes(k));
            const auto it = shadow.find(k);
            if (view.has_value() != (it != shadow.end())) {
              ++failures;
            } else if (view.has_value()) {
              // Only this thread mutates k, so the mapping cannot vanish
              // between get() and read(): a ConcurrentModification here
              // means relocation invalidated a live zero-copy view.
              const std::string expect =
                  makeValue(k, it->second, 16 + (it->second * 37) % 700);
              std::string got;
              try {
                view->read([&](ByteSpan s) {
                  got.assign(reinterpret_cast<const char*>(s.data()), s.size());
                });
              } catch (const ConcurrentModification&) {
                ++failures;
                break;
              }
              if (got != expect) ++failures;
            }
            break;
          }
          case 3: {  // ranged ascending scan over this thread's keys
            const std::string lo = "t" + std::to_string(t) + "-k";
            const std::string hi = "t" + std::to_string(t) + "-l";
            for (auto itr = map.ascend(toVec(bytes(lo)), toVec(bytes(hi)));
                 itr.valid(); itr.next()) {
              auto e = itr.entry();
              const std::string ek(reinterpret_cast<const char*>(e.key.data()),
                                   e.key.size());
              bool wf = true;
              // readValue() returning false means the entry was deleted
              // under the live iterator — allowed; a malformed span is not.
              if (e.readValue([&](ByteSpan s) { wf = valueWellFormed(s, ek); }) &&
                  !wf) {
                ++failures;
              }
            }
            break;
          }
          case 4: {  // snapshot scan: a frozen view while slices move
            const std::string lo = "t" + std::to_string(t) + "-k";
            const std::string hi = "t" + std::to_string(t) + "-l";
            auto itr = map.ascend(toVec(bytes(lo)), toVec(bytes(hi)),
                                  ScanOptions::snapshot());
            for (; itr.valid(); itr.next()) {
              auto e = itr.entry();
              const std::string ek(reinterpret_cast<const char*>(e.key.data()),
                                   e.key.size());
              bool wf = true;
              if (e.readValue([&](ByteSpan s) { wf = valueWellFormed(s, ek); }) &&
                  !wf) {
                ++failures;
              }
            }
            break;
          }
          default: {  // put (fresh or overwrite) with a size that churns
            ++counter;
            const std::string v = makeValue(k, counter, 16 + (counter * 37) % 700);
            map.put(bytes(k), bytes(v));
            shadow[k] = counter;
            break;
          }
        }
      }
      // Final sweep: every surviving key readable, bit-exact.
      for (const auto& [k, c] : shadow) {
        auto got = map.getCopy(bytes(k));
        if (!got.has_value()) {
          ++failures;
          continue;
        }
        const std::string expect = makeValue(k, c, 16 + (c * 37) % 700);
        if (std::string(reinterpret_cast<const char*>(got->data()), got->size()) !=
            expect) {
          ++failures;
        }
      }
    });
  }

  for (auto& th : mutators) th.join();
  stop.store(true, std::memory_order_release);
  relocator.join();

  EXPECT_EQ(failures.load(), 0u);
  map.quiesce();
  auto rep = ChunkWalker<BytesComparator>::validate(map);
  for (const auto& p : rep.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(rep.ok);
  const obs::Metrics m = map.stats();
  EXPECT_EQ(m.alloc.evacuatingBlocks, 0u) << "no victim left marked";
  EXPECT_GT(m.registry.counter(obs::Counter::EvacuationRuns), 0u);
}

std::vector<std::uint64_t> tortureSeeds() {
  if (env::raw("OAK_MODEL_SEED") != nullptr) {
    return {env::u64("OAK_MODEL_SEED", 1)};
  }
  return {1, 7};
}

TEST(RelocationTorture, MutatorsVsContinuousRelocator) {
  for (const std::uint64_t seed : tortureSeeds()) {
    runTorture(seed, TortureKnobs{});
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace oak
