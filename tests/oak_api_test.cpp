// Table-1 API-contract tests: the ZC view and the legacy
// ConcurrentNavigableMap view must differ exactly where the paper says they
// do — returns, copying, and atomicity — while sharing one map state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "oak/map.hpp"

namespace oak {
namespace {

using Map = OakMap<std::string, std::string, StringSerializer, StringSerializer>;

OakConfig smallChunks() {
  auto cfg = OakConfig{}.withChunkCapacity(64);
  return cfg;
}

TEST(OakApi, ZcAndLegacyShareOneMap) {
  Map m(smallChunks());
  m.zc().put("k", "via-zc");
  EXPECT_EQ(*m.get("k"), "via-zc");  // legacy sees zc writes
  m.put("k", "via-legacy");
  EXPECT_EQ((m.zc().get("k")->deserialize<StringSerializer, std::string>()),
            "via-legacy");
}

TEST(OakApi, ZcUpdatesReturnNoOldValue) {
  // Table 1: "Updates do not return the old value in order to avoid
  // copying" — the ZC signatures are void/bool.
  Map m(smallChunks());
  static_assert(std::is_void_v<decltype(m.zc().put("a", "b"))>);
  static_assert(std::is_same_v<decltype(m.zc().putIfAbsent("a", "b")), bool>);
  static_assert(std::is_void_v<decltype(m.zc().remove("a"))>);
  // Legacy returns the old value.
  static_assert(
      std::is_same_v<decltype(m.put("a", "b")), std::optional<std::string>>);
  static_assert(
      std::is_same_v<decltype(m.remove("a")), std::optional<std::string>>);
}

TEST(OakApi, ZcGetReturnsBufferLegacyReturnsObject) {
  Map m(smallChunks());
  m.zc().put("k", "value");
  auto buf = m.zc().get("k");  // OakRBuffer
  ASSERT_TRUE(buf.has_value());
  EXPECT_TRUE(buf->isValueView());
  auto obj = m.get("k");  // deserialized copy
  ASSERT_TRUE(obj.has_value());
  // Mutating through compute changes what the *buffer* reads, not the copy.
  m.zc().computeIfPresent("k", [](OakWBuffer& w) { w.putByte(0, 'V'); });
  EXPECT_EQ(buf->getByte(0), 'V');
  EXPECT_EQ((*obj)[0], 'v');
}

TEST(OakApi, RangeForOverEntrySet) {
  Map m(smallChunks());
  for (int i = 0; i < 10; ++i) {
    m.zc().put("k" + std::to_string(i), "v" + std::to_string(i));
  }
  int n = 0;
  std::string prev;
  for (const auto& e : m.zc().entrySet()) {
    const std::string k = e.key();
    EXPECT_GT(k, prev);
    prev = k;
    ++n;
  }
  EXPECT_EQ(n, 10);
  n = 0;
  for (const auto& e : m.zc().descendingEntryStreamSet()) {
    (void)e;
    ++n;
  }
  EXPECT_EQ(n, 10);
}

TEST(OakApi, RangeForOverSubMap) {
  Map m(smallChunks());
  for (int i = 0; i < 30; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "k%02d", i);
    m.zc().put(buf, "v");
  }
  std::vector<std::string> got;
  for (const auto& e : m.zc().subMap("k10", "k15")) got.push_back(e.key());
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got.front(), "k10");
  EXPECT_EQ(got.back(), "k14");
}

TEST(OakApi, StreamSetSemanticsDocumentedReuse) {
  // §2.2: the stream API reuses the ephemeral view; contents are only valid
  // until the next advance.  Our C++ rendering reads through the cursor, so
  // values fetched *before* next() are correct.
  Map m(smallChunks());
  m.zc().put("a", "1");
  m.zc().put("b", "2");
  auto c = m.zc().entryStreamSet();
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.key(), "a");
  EXPECT_EQ(*c.value(), "1");
  c.next();
  EXPECT_EQ(c.key(), "b");
  EXPECT_EQ(*c.value(), "2");
}

TEST(OakApi, LegacyPutIfAbsentReturnsExisting) {
  Map m(smallChunks());
  EXPECT_FALSE(m.putIfAbsent("k", "first").has_value());
  auto existing = m.putIfAbsent("k", "second");
  ASSERT_TRUE(existing.has_value());
  EXPECT_EQ(*existing, "first");
}

TEST(OakApi, ComputeIsAtomicWithRespectToReaders) {
  // A compute that rewrites the whole value must never expose a half-state
  // to a concurrent zero-copy reader (value lock, §3.3).
  Map m(smallChunks());
  m.zc().put("k", std::string(64, 'a'));
  auto buf = m.zc().get("k");
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      const char c = "xyz"[i++ % 3];
      m.zc().computeIfPresent("k", [&](OakWBuffer& w) {
        for (std::size_t j = 0; j < w.size(); ++j) w.putByte(j, c);
      });
    }
  });
  for (int i = 0; i < 20000; ++i) {
    buf->read([&](ByteSpan s) {
      for (std::byte b : s) {
        if (b != s[0]) torn.store(true);
      }
    });
  }
  stop.store(true);
  writer.join();
  EXPECT_FALSE(torn.load());
}

TEST(OakApi, ZcGetCopyReturnsSerializedBytes) {
  Map m(smallChunks());
  m.zc().put("k", "payload");
  auto bytes = m.zc().getCopy("k");
  ASSERT_TRUE(bytes.has_value());
  const std::string s(reinterpret_cast<const char*>(bytes->data()), bytes->size());
  EXPECT_EQ(s, "payload");
  EXPECT_FALSE(m.zc().getCopy("absent").has_value());
  // It is a copy: later mutation does not change it.
  m.zc().computeIfPresent("k", [](OakWBuffer& w) { w.putByte(0, 'P'); });
  EXPECT_EQ(static_cast<char>((*bytes)[0]), 'p');
}

TEST(OakApi, ReplaceOnBothViews) {
  Map m(smallChunks());
  // Absent key: replace is a no-op on both views.
  EXPECT_FALSE(m.zc().replace("k", "x"));
  EXPECT_FALSE(m.replace("k", "x").has_value());
  EXPECT_FALSE(m.containsKey("k"));

  m.zc().put("k", "one");
  EXPECT_TRUE(m.zc().replace("k", "two"));  // ZC: bool, no old value
  static_assert(std::is_same_v<decltype(m.zc().replace("a", "b")), bool>);
  auto old = m.replace("k", "three");  // legacy: previous value
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, "two");
  EXPECT_EQ(*m.get("k"), "three");
}

TEST(OakApi, ReplaceIfComparesSerializedValue) {
  Map m(smallChunks());
  m.zc().put("k", "expected");
  EXPECT_FALSE(m.zc().replaceIf("k", "wrong", "new"));
  EXPECT_EQ(*m.get("k"), "expected");
  EXPECT_TRUE(m.zc().replaceIf("k", "expected", "new"));
  EXPECT_EQ(*m.get("k"), "new");
  // Legacy view: same CAS through the object-typed surface.
  EXPECT_TRUE(m.replaceIf("k", "new", "newer"));
  EXPECT_FALSE(m.replaceIf("k", "new", "nope"));
  EXPECT_EQ(*m.get("k"), "newer");
  EXPECT_FALSE(m.replaceIf("absent", "a", "b"));
}

TEST(OakApi, ReplaceIfRaceExactlyOneWinner) {
  // CAS semantics under contention: 8 threads race replaceIf from the same
  // expected value; exactly one must win.
  Map m(smallChunks());
  m.zc().put("k", "seed");
  constexpr int kThreads = 8;
  std::atomic<int> wins{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&m, &wins, t] {
      if (m.zc().replaceIf("k", "seed", "winner-" + std::to_string(t))) {
        wins.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(wins.load(), 1);
  const std::string v = *m.get("k");
  EXPECT_EQ(v.rfind("winner-", 0), 0u) << v;

  // Repeated rounds: every round has exactly one winner.
  for (int round = 0; round < 20; ++round) {
    m.put("k", "r" + std::to_string(round));
    std::atomic<int> w{0};
    std::vector<std::thread> rts;
    for (int t = 0; t < kThreads; ++t) {
      rts.emplace_back([&m, &w, round, t] {
        if (m.replaceIf("k", "r" + std::to_string(round),
                        "w" + std::to_string(t))) {
          w.fetch_add(1);
        }
      });
    }
    for (auto& t : rts) t.join();
    EXPECT_EQ(w.load(), 1) << "round " << round;
  }
}

TEST(OakApi, NavigationEntriesOnZcView) {
  Map m(smallChunks());
  EXPECT_FALSE(m.zc().firstEntry().has_value());
  EXPECT_FALSE(m.zc().lastEntry().has_value());
  for (int i = 10; i <= 50; i += 10) {
    m.zc().put("k" + std::to_string(i), "v" + std::to_string(i));
  }
  auto first = m.zc().firstEntry();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->key, "k10");
  EXPECT_EQ((first->value.deserialize<StringSerializer, std::string>()), "v10");
  EXPECT_EQ(m.zc().lastEntry()->key, "k50");
  EXPECT_EQ(m.zc().ceilingEntry("k30")->key, "k30");  // >=
  EXPECT_EQ(m.zc().ceilingEntry("k31")->key, "k40");
  EXPECT_EQ(m.zc().higherEntry("k30")->key, "k40");   // >
  EXPECT_EQ(m.zc().floorEntry("k30")->key, "k30");    // <=
  EXPECT_EQ(m.zc().floorEntry("k29")->key, "k20");
  EXPECT_EQ(m.zc().lowerEntry("k30")->key, "k20");    // <
  EXPECT_FALSE(m.zc().higherEntry("k50").has_value());
  EXPECT_FALSE(m.zc().lowerEntry("k10").has_value());
}

TEST(OakApi, NavigationEntriesOnLegacyView) {
  Map m(smallChunks());
  for (int i = 10; i <= 30; i += 10) {
    m.put("k" + std::to_string(i), "v" + std::to_string(i));
  }
  auto first = m.firstEntry();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first, "k10");
  EXPECT_EQ(first->second, "v10");  // deserialized copy, not a view
  EXPECT_EQ(m.lastEntry()->second, "v30");
  EXPECT_EQ(m.ceilingEntry("k15")->first, "k20");
  EXPECT_EQ(m.floorEntry("k15")->first, "k10");
  EXPECT_EQ(m.higherEntry("k10")->first, "k20");
  EXPECT_EQ(m.lowerEntry("k30")->first, "k20");
  EXPECT_EQ(*m.firstKey(), "k10");
  EXPECT_EQ(*m.lastKey(), "k30");
}

TEST(OakApi, ScanOptionsCursors) {
  Map m(smallChunks());
  for (int i = 0; i < 20; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "k%02d", i);
    m.zc().put(buf, "v" + std::to_string(i));
  }
  // keySet: typed keys, both directions.
  std::vector<std::string> keys;
  for (const auto& k : m.zc().keySet()) keys.push_back(k);
  ASSERT_EQ(keys.size(), 20u);
  EXPECT_EQ(keys.front(), "k00");
  EXPECT_EQ(keys.back(), "k19");
  keys.clear();
  for (const auto& k : m.zc().keySet(ScanOptions::descending())) keys.push_back(k);
  EXPECT_EQ(keys.front(), "k19");
  EXPECT_EQ(keys.back(), "k00");
  // valueSet: zero-copy views.
  std::size_t n = 0;
  for (auto v : m.zc().valueSet(ScanOptions::streaming())) {
    EXPECT_TRUE(v.isValueView());
    ++n;
  }
  EXPECT_EQ(n, 20u);
  // Typed subMap with descending options.
  std::vector<std::string> got;
  for (const auto& e : m.zc().subMap("k05", "k10", ScanOptions::descending())) {
    got.push_back(e.key());
  }
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got.front(), "k09");
  EXPECT_EQ(got.back(), "k05");
}

TEST(OakApi, LegacyPutRemoveReturnPreviousValue) {
  Map m(smallChunks());
  EXPECT_FALSE(m.put("k", "first").has_value());  // fresh insert: no previous
  auto prev = m.put("k", "second");
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, "first");
  auto removed = m.remove("k");
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, "second");
  EXPECT_FALSE(m.remove("k").has_value());  // already gone
}

TEST(OakApi, StatsSnapshotThroughTypedMap) {
  Map m(smallChunks());
  for (int i = 0; i < 200; ++i) m.zc().put("k" + std::to_string(i), "v");
  for (int i = 0; i < 100; ++i) (void)m.zc().get("k" + std::to_string(i));
  const Metrics s = m.stats();
  EXPECT_GT(s.chunkCount, 0u);
  EXPECT_GT(s.alloc.allocatedBytes, 0u);
  if (obs::StatsRegistry::compiled()) {
    EXPECT_EQ(s.registry.op(obs::Op::Put).count, 200u);
    EXPECT_EQ(s.registry.op(obs::Op::Get).count, 100u);
  }
  EXPECT_NE(s.toJson().find("\"alloc\""), std::string::npos);
}

TEST(OakApi, SizeAndContains) {
  Map m(smallChunks());
  EXPECT_EQ(m.size(), 0u);
  m.zc().put("a", "1");
  m.zc().put("b", "2");
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.containsKey("a"));
  EXPECT_TRUE(m.zc().containsKey("b"));
  EXPECT_FALSE(m.containsKey("c"));
}

// ------------------------------------------------------------- config API
TEST(OakApi, OakMapIsTheOneShardShardedMap) {
  // One map type: both names alias the same class, and an OakConfig builds
  // a single-shard map.
  static_assert(std::is_same_v<Map, ShardedOakMap<std::string, std::string,
                                                  StringSerializer, StringSerializer>>);
  Map m(smallChunks());
  m.put("k", "v");
  EXPECT_EQ(m.stats().shards, 1u);
  EXPECT_EQ(m.core().shardCount(), 1u);
}

TEST(OakApi, BuilderComposesNestedGroups) {
  const auto cfg =
      OakConfig{}
          .withChunkCapacity(256)
          .withMem(MemConfig{}.withReclaim(ValueReclaim::Generational))
          .withMaintenance(maint::MaintenanceConfig{}.withThreads(0).withQueueDepth(7));
  EXPECT_EQ(cfg.chunkCapacity, 256);
  EXPECT_EQ(cfg.effectiveReclaim(), ValueReclaim::Generational);
  EXPECT_EQ(cfg.maintenance.effectiveThreads(), 0u);
  EXPECT_EQ(cfg.maintenance.queueDepth, 7u);
}

TEST(OakApi, ConfigIgnoresTheEnvironment) {
  // Every knob resolves as explicit config > compiled default: none of
  // these variables may reconfigure a map that leaves its fields at their
  // defaults (a stray OAK_STORAGE_DIR must not make it durable).
  const std::string dir = ::testing::TempDir() + "oak_env_ignored";
  const std::pair<const char*, std::string> vars[] = {
      {"OAK_MAGAZINES", "0"},           {"OAK_COMPACTION", "1"},
      {"OAK_COMPACTION_OCCUPANCY", "90"}, {"OAK_STORAGE_DIR", dir},
      {"OAK_FSYNC_POLICY", "every-commit"}, {"OAK_WAL_BYTES", "4096"},
      {"OAK_MAINT_THREADS", "2"}};
  struct Unset {
    const decltype(vars)& v;
    ~Unset() {
      for (const auto& [name, value] : v) ::unsetenv(name);
    }
  } unset{vars};
  for (const auto& [name, value] : vars) ::setenv(name, value.c_str(), 1);

  const OakConfig cfg;
  EXPECT_FALSE(cfg.effectiveCompaction());
  EXPECT_TRUE(cfg.effectiveMagazines());
  EXPECT_EQ(cfg.effectiveFsyncPolicy(), dur::FsyncPolicy::Interval);
  EXPECT_EQ(cfg.effectiveWalBytes(), std::size_t{64} << 20);
  EXPECT_EQ(cfg.maintenance.effectiveThreads(), 0u);

  {
    Map m{OakConfig{}};
    m.put("k", "v");
    EXPECT_FALSE(m.durable());
    EXPECT_EQ(m.maintenanceStats().threads, 0u);
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
  std::filesystem::remove_all(dir);

  OakCoreMap<> core;
  EXPECT_EQ(core.maintenanceStats().threads, 0u);
  EXPECT_TRUE(core.memoryManager().allocator().magazinesEnabled());
}

TEST(OakApi, MaintenanceFacadePassthroughs) {
  // A map without a worker pool: the control surface must still be safe to
  // call (pause/resume/drain no-op, stats come back empty).
  Map m(smallChunks());
  m.pauseMaintenance();
  m.resumeMaintenance();
  m.drainMaintenance();
  const auto ms = m.maintenanceStats();
  EXPECT_EQ(ms.threads, 0u);
  EXPECT_EQ(ms.pending, 0u);

  // With a pool: jobs queued behind pause are visible in stats and drain
  // leaves the queue empty.
  Map bg(smallChunks().withMaintenance(maint::MaintenanceConfig{}.withThreads(1)));
  for (int i = 0; i < 64; ++i) {
    bg.put("key-" + std::to_string(i), std::string(64, 'v'));
  }
  bg.drainMaintenance();
  EXPECT_EQ(bg.maintenanceStats().pending, 0u);
  EXPECT_EQ(bg.maintenanceStats().threads, 1u);
}

}  // namespace
}  // namespace oak
