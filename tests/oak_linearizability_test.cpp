// Linearizability testing of Oak's point operations (§4.5).
//
// Workers hammer a tiny key space recording invocation/response-stamped
// histories; a Wing&Gong-style checker then searches for a sequential
// witness.  Run many small rounds: small histories keep the check cheap
// while a 1-core host's preemption still yields adversarial interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/env.hpp"
#include "common/random.hpp"
#include "linearizability.hpp"
#include "oak/core_map.hpp"
#include "oak/sharded_map.hpp"

namespace oak {
namespace {

using lin::Operation;
using lin::OpType;

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

// ---- checker self-tests (it must reject bad histories) -------------------
TEST(LinChecker, AcceptsSequentialHistory) {
  std::vector<Operation> h;
  Operation put{OpType::Put, 1, 5, std::nullopt, true, 0, 1};
  Operation get{OpType::Get, 1, 0, 5, true, 2, 3};
  h.push_back(put);
  h.push_back(get);
  EXPECT_TRUE(lin::isLinearizable(h));
}

TEST(LinChecker, RejectsStaleRead) {
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 5, std::nullopt, true, 0, 1});
  h.push_back({OpType::Get, 1, 0, std::nullopt, true, 2, 3});  // absent?! no.
  EXPECT_FALSE(lin::isLinearizable(h));
}

TEST(LinChecker, RejectsDoublePutIfAbsentWin) {
  std::vector<Operation> h;
  h.push_back({OpType::PutIfAbsent, 1, 5, std::nullopt, true, 0, 10});
  h.push_back({OpType::PutIfAbsent, 1, 6, std::nullopt, true, 0, 10});
  EXPECT_FALSE(lin::isLinearizable(h));
}

TEST(LinChecker, AcceptsConcurrentOverlap) {
  // put(1,5) overlaps get(1): the get may see either state.
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 5, std::nullopt, true, 0, 10});
  h.push_back({OpType::Get, 1, 0, std::nullopt, true, 1, 9});  // absent: OK
  EXPECT_TRUE(lin::isLinearizable(h));
  h[1].out = 5;  // seen: also OK
  EXPECT_TRUE(lin::isLinearizable(h));
}

TEST(LinChecker, RejectsLostCompute) {
  // Two successful computes (+1 each) on value 0, then a read of 1.
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 0, std::nullopt, true, 0, 1});
  h.push_back({OpType::Compute, 1, 1, std::nullopt, true, 2, 3});
  h.push_back({OpType::Compute, 1, 1, std::nullopt, true, 4, 5});
  h.push_back({OpType::Get, 1, 0, 1, true, 6, 7});  // must be 2
  EXPECT_FALSE(lin::isLinearizable(h));
  h[3].out = 2;
  EXPECT_TRUE(lin::isLinearizable(h));
}

// ---- recording Oak histories ---------------------------------------------
// Works against any map exposing the OakCoreMap byte surface — the plain
// core and the sharded front-end record through the same code.
template <class Map>
class Recorder {
 public:
  explicit Recorder(Map& m) : m_(&m) {}

  void get(std::uint64_t k) {
    Operation op{OpType::Get, k, 0, std::nullopt, true, lin::nowNs(), 0};
    auto v = m_->getCopy(asBytes(keyOf(k)));
    op.responseNs = lin::nowNs();
    if (v) op.out = loadUnaligned<std::uint64_t>(v->data());
    ops_.push_back(op);
  }
  void put(std::uint64_t k, std::uint64_t v) {
    Operation op{OpType::Put, k, v, std::nullopt, true, lin::nowNs(), 0};
    m_->put(asBytes(keyOf(k)), asBytes(valOf(v)));
    op.responseNs = lin::nowNs();
    ops_.push_back(op);
  }
  void putIfAbsent(std::uint64_t k, std::uint64_t v) {
    Operation op{OpType::PutIfAbsent, k, v, std::nullopt, false, lin::nowNs(), 0};
    op.ok = m_->putIfAbsent(asBytes(keyOf(k)), asBytes(valOf(v)));
    op.responseNs = lin::nowNs();
    ops_.push_back(op);
  }
  void remove(std::uint64_t k) {
    Operation op{OpType::Remove, k, 0, std::nullopt, false, lin::nowNs(), 0};
    op.ok = m_->remove(asBytes(keyOf(k)));
    op.responseNs = lin::nowNs();
    ops_.push_back(op);
  }
  void compute(std::uint64_t k, std::uint64_t add) {
    Operation op{OpType::Compute, k, add, std::nullopt, false, lin::nowNs(), 0};
    op.ok = m_->computeIfPresent(asBytes(keyOf(k)), [add](OakWBuffer& w) {
      w.putU64(0, w.getU64(0) + add);
    });
    op.responseNs = lin::nowNs();
    ops_.push_back(op);
  }

  std::vector<Operation> ops_;

 private:
  Map* m_;
};

/// Records ascending/descending whole-map scans concurrent with point ops.
template <class Map>
class ScanRecorder {
 public:
  explicit ScanRecorder(Map& m) : m_(&m) {}

  void scan(bool descending) {
    lin::ScanObservation obs;
    obs.descending = descending;
    obs.invokeNs = lin::nowNs();
    if (descending) {
      for (auto it = m_->descend(); it.valid(); it.next()) record(obs, it);
    } else {
      for (auto it = m_->ascend(); it.valid(); it.next()) record(obs, it);
    }
    obs.responseNs = lin::nowNs();
    scans_.push_back(std::move(obs));
  }

  std::vector<lin::ScanObservation> scans_;

 private:
  template <class It>
  void record(lin::ScanObservation& obs, It& it) {
    auto e = it.entry();
    const std::uint64_t k = loadU64BE(e.key.data());
    std::uint64_t v = 0;
    // read() returns false when a remove won after the iterator saw the
    // entry; like a vanished entry, §4.2 allows skipping it.
    try {
      if (!e.value.read([&](ByteSpan s) { v = loadUnaligned<std::uint64_t>(s.data()); })) {
        return;
      }
    } catch (const ConcurrentModification&) {
      return;  // entry vanished mid-read; §4.2 allows skipping it
    }
    obs.entries.emplace_back(k, v);
  }

  Map* m_;
};

/// Records atomic snapshot scans: the open() window is the linearization
/// interval; the walk itself can take arbitrarily long afterwards — the pin
/// freezes the observed world.
template <class Map>
class SnapshotScanRecorder {
 public:
  explicit SnapshotScanRecorder(Map& m) : m_(&m) {}

  void scan() {
    lin::SnapshotScanObservation obs;
    obs.invokeNs = lin::nowNs();
    Snapshot snap = m_->openSnapshot();
    obs.responseNs = lin::nowNs();
    auto opts = ScanOptions::snapshotAt(snap.version());
    for (auto it = m_->ascend({}, {}, opts); it.valid(); it.next()) {
      auto e = it.entry();
      const std::uint64_t k = loadU64BE(e.key.data());
      std::uint64_t v = 0;
      // The iterator yielded this entry, so the pinned version MUST still
      // resolve it: a false here is itself a consistency violation.
      ASSERT_TRUE(e.readValue(
          [&](ByteSpan s) { v = loadUnaligned<std::uint64_t>(s.data()); }))
          << "pinned entry vanished for key " << k;
      obs.entries.emplace_back(k, v);
    }
    scans_.push_back(std::move(obs));
  }

  std::vector<lin::SnapshotScanObservation> scans_;

 private:
  Map* m_;
};

/// Shard layouts whose boundaries land INSIDE the tiny test key space, so
/// point ops and scans constantly straddle shard edges.  Shard counts
/// beyond the key space leave trailing shards empty — also worth testing.
ShardLayout straddlingLayout(std::size_t shards, int keys) {
  std::vector<ByteVec> bounds;
  for (std::size_t i = 1; i < shards; ++i) {
    // First boundaries inside [1, keys); the rest beyond the key space.
    bounds.push_back(keyOf(i < static_cast<std::size_t>(keys)
                               ? i
                               : static_cast<std::uint64_t>(keys) + i));
  }
  return ShardLayout::at(std::move(bounds));
}

struct RoundResult {
  std::vector<Operation> ops;
  std::vector<lin::ScanObservation> scans;
  std::vector<lin::SnapshotScanObservation> snapScans;
};

/// One recorded round against an already-built map: `threads` point-op
/// workers (`opsPer` ops each over `keys`), plus `scanThreads` workers
/// interleaving whole-map ascending/descending scans and `snapScanThreads`
/// workers recording atomic snapshot scans.
template <class Map>
RoundResult recordRoundOn(Map& map, unsigned threads, int opsPer, int keys,
                          std::uint64_t seed, unsigned scanThreads,
                          bool withCompute, unsigned snapScanThreads = 0) {
  std::vector<Recorder<Map>> recs;
  recs.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) recs.emplace_back(map);
  std::vector<ScanRecorder<Map>> scanRecs;
  scanRecs.reserve(scanThreads);
  for (unsigned t = 0; t < scanThreads; ++t) scanRecs.emplace_back(map);
  std::vector<SnapshotScanRecorder<Map>> snapRecs;
  snapRecs.reserve(snapScanThreads);
  for (unsigned t = 0; t < snapScanThreads; ++t) snapRecs.emplace_back(map);
  std::barrier gate(
      static_cast<std::ptrdiff_t>(threads + scanThreads + snapScanThreads));
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      XorShift rng(seed * 1000 + t);
      gate.arrive_and_wait();
      for (int i = 0; i < opsPer; ++i) {
        const std::uint64_t k = rng.nextBounded(keys);
        switch (rng.nextBounded(withCompute ? 5 : 4)) {
          case 0: recs[t].get(k); break;
          case 1: recs[t].put(k, rng.nextBounded(100)); break;
          case 2: recs[t].putIfAbsent(k, rng.nextBounded(100)); break;
          case 3: recs[t].remove(k); break;
          default: recs[t].compute(k, 1 + rng.nextBounded(3)); break;
        }
      }
    });
  }
  for (unsigned t = 0; t < scanThreads; ++t) {
    ts.emplace_back([&, t] {
      XorShift rng(seed * 7000 + t);
      gate.arrive_and_wait();
      for (int i = 0; i < 3; ++i) scanRecs[t].scan(rng.nextBounded(2) == 1);
    });
  }
  for (unsigned t = 0; t < snapScanThreads; ++t) {
    ts.emplace_back([&, t] {
      gate.arrive_and_wait();
      for (int i = 0; i < 3; ++i) snapRecs[t].scan();
    });
  }
  for (auto& t : ts) t.join();
  RoundResult out;
  for (auto& r : recs) out.ops.insert(out.ops.end(), r.ops_.begin(), r.ops_.end());
  for (auto& r : scanRecs) {
    out.scans.insert(out.scans.end(), r.scans_.begin(), r.scans_.end());
  }
  for (auto& r : snapRecs) {
    out.snapScans.insert(out.snapScans.end(), r.scans_.begin(), r.scans_.end());
  }
  return out;
}

/// One recorded round against a fresh single-core map.
std::vector<Operation> recordRound(unsigned threads, int opsPer, int keys,
                                   std::uint64_t seed, ValueReclaim reclaim) {
  auto cfg = OakConfig{}
                 .withChunkCapacity(16)  // tiny chunks: rebalances join the party
                 .withMem(MemConfig{}.withReclaim(reclaim));
  OakCoreMap<> map(cfg);
  return recordRoundOn(map, threads, opsPer, keys, seed, /*scanThreads=*/0,
                       /*withCompute=*/true)
      .ops;
}

/// One recorded round against a fresh sharded map with straddling layout.
RoundResult recordShardedRound(std::size_t shards, unsigned threads, int opsPer,
                               int keys, std::uint64_t seed,
                               unsigned scanThreads, bool withCompute,
                               unsigned snapScanThreads = 0) {
  auto cfg = ShardedOakConfig{}
                 .withLayout(straddlingLayout(shards, keys))
                 .withShard(OakConfig{}.withChunkCapacity(16));
  ShardedOakCoreMap<> map(std::move(cfg));
  return recordRoundOn(map, threads, opsPer, keys, seed, scanThreads,
                       withCompute, snapScanThreads);
}

/// Shard counts under test: OAK_SHARDS pins one (the CI sanitizer legs use
/// this); default sweeps 1, 4 and 7.
std::vector<std::size_t> shardCounts() {
  if (oak::env::raw("OAK_SHARDS") != nullptr) {
    return {static_cast<std::size_t>(oak::env::u64("OAK_SHARDS", 1))};
  }
  return {1, 4, 7};
}

TEST(OakLinearizability, PointOpsKeepHeaders) {
  for (std::uint64_t round = 0; round < 120; ++round) {
    auto h = recordRound(3, 6, 2, round, ValueReclaim::KeepHeaders);
    ASSERT_TRUE(lin::isLinearizable(std::move(h))) << "round " << round;
  }
}

TEST(OakLinearizability, PointOpsGenerational) {
  for (std::uint64_t round = 0; round < 120; ++round) {
    auto h = recordRound(3, 6, 2, round + 1000, ValueReclaim::Generational);
    ASSERT_TRUE(lin::isLinearizable(std::move(h))) << "round " << round;
  }
}

TEST(OakLinearizability, WiderKeySpace) {
  for (std::uint64_t round = 0; round < 60; ++round) {
    auto h = recordRound(4, 5, 4, round + 2000, ValueReclaim::KeepHeaders);
    ASSERT_TRUE(lin::isLinearizable(std::move(h))) << "round " << round;
  }
}

// ---- scan-checker self-tests ---------------------------------------------
TEST(ScanChecker, AcceptsEmptyAndSorted) {
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 5, std::nullopt, true, 0, 1});
  h.push_back({OpType::Put, 3, 7, std::nullopt, true, 2, 3});
  lin::ScanObservation s;
  s.invokeNs = 10;
  s.responseNs = 20;
  s.entries = {{1, 5}, {3, 7}};
  EXPECT_TRUE(lin::checkScanConsistency(s, h));
  s.descending = true;
  s.entries = {{3, 7}, {1, 5}};
  EXPECT_TRUE(lin::checkScanConsistency(s, h));
}

TEST(ScanChecker, RejectsUnsortedOutput) {
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 5, std::nullopt, true, 0, 1});
  h.push_back({OpType::Put, 3, 7, std::nullopt, true, 2, 3});
  lin::ScanObservation s;
  s.invokeNs = 10;
  s.responseNs = 20;
  s.entries = {{3, 7}, {1, 5}};  // descending order from an ascending scan
  std::string why;
  EXPECT_FALSE(lin::checkScanConsistency(s, h, &why));
  EXPECT_NE(why.find("unsorted"), std::string::npos);
}

TEST(ScanChecker, RejectsMissingStableKey) {
  std::vector<Operation> h;
  h.push_back({OpType::Put, 2, 9, std::nullopt, true, 0, 1});  // stable: no remove
  lin::ScanObservation s;
  s.invokeNs = 10;
  s.responseNs = 20;  // scan starts after the put responded
  std::string why;
  EXPECT_FALSE(lin::checkScanConsistency(s, h, &why));
  EXPECT_NE(why.find("stably present"), std::string::npos);
}

TEST(ScanChecker, AcceptsMissingKeyWhenRemoveOverlapsInsert) {
  std::vector<Operation> h;
  h.push_back({OpType::Put, 2, 9, std::nullopt, true, 5, 8});
  h.push_back({OpType::Remove, 2, 0, std::nullopt, true, 6, 9});  // overlaps
  lin::ScanObservation s;
  s.invokeNs = 10;
  s.responseNs = 20;
  EXPECT_TRUE(lin::checkScanConsistency(s, h));
}

TEST(ScanChecker, RejectsPhantomKeyAndPhantomValue) {
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 5, std::nullopt, true, 0, 1});
  lin::ScanObservation s;
  s.invokeNs = 10;
  s.responseNs = 20;
  s.entries = {{1, 5}, {9, 1}};  // key 9 was never inserted
  std::string why;
  EXPECT_FALSE(lin::checkScanConsistency(s, h, &why));
  EXPECT_NE(why.find("never successfully inserted"), std::string::npos);
  s.entries = {{1, 6}};  // value 6 was never written to key 1
  why.clear();
  EXPECT_FALSE(lin::checkScanConsistency(s, h, &why));
  EXPECT_NE(why.find("no insert wrote"), std::string::npos);
}

// ---- sharded rounds -------------------------------------------------------
// Point ops touch exactly one shard, so per-shard linearizability must
// compose to whole-map linearizability — same checker, sharded map, with
// keys straddling shard boundaries (layout puts boundaries at 1, 2, 3...).
TEST(ShardedLinearizability, PointOpsAcrossBoundaries) {
  for (std::size_t shards : shardCounts()) {
    for (std::uint64_t round = 0; round < 60; ++round) {
      auto r = recordShardedRound(shards, 3, 6, 4, round + 3000,
                                  /*scanThreads=*/0, /*withCompute=*/true);
      ASSERT_TRUE(lin::isLinearizable(std::move(r.ops)))
          << "shards " << shards << " round " << round;
    }
  }
}

// Concurrent whole-map scans must stay globally sorted across the k-way
// merge and observe / omit keys only as the §4.2 contract allows.
TEST(ShardedLinearizability, CrossShardScansConsistent) {
  for (std::size_t shards : shardCounts()) {
    for (std::uint64_t round = 0; round < 40; ++round) {
      auto r = recordShardedRound(shards, 2, 6, 4, round + 4000,
                                  /*scanThreads=*/2, /*withCompute=*/false);
      ASSERT_TRUE(lin::isLinearizable(r.ops))
          << "shards " << shards << " round " << round;
      for (const auto& scan : r.scans) {
        std::string why;
        ASSERT_TRUE(lin::checkScanConsistency(scan, r.ops, &why))
            << "shards " << shards << " round " << round << ": " << why;
      }
    }
  }
}

// ---- snapshot-scan checker self-tests -------------------------------------
TEST(SnapshotLinChecker, AcceptsExactCut) {
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 5, std::nullopt, true, 0, 1});
  h.push_back({OpType::Put, 2, 7, std::nullopt, true, 2, 3});
  lin::SnapshotScanObservation s;
  s.invokeNs = 4;
  s.responseNs = 5;
  s.entries = {{1, 5}, {2, 7}};
  EXPECT_TRUE(lin::isLinearizableWithSnapshots(h, {s}));
}

TEST(SnapshotLinChecker, RejectsTornCut) {
  // put(1) completed BEFORE put(2) was invoked: no single instant shows
  // key 2 without key 1 — a torn snapshot must be rejected.
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 5, std::nullopt, true, 0, 1});
  h.push_back({OpType::Put, 2, 7, std::nullopt, true, 2, 3});
  lin::SnapshotScanObservation s;
  s.invokeNs = 4;
  s.responseNs = 5;
  s.entries = {{2, 7}};  // saw the later write but not the earlier one
  EXPECT_FALSE(lin::isLinearizableWithSnapshots(h, {s}));
}

TEST(SnapshotLinChecker, RejectsFutureRead) {
  // The scan's open window closed before the put was invoked: observing
  // that write means the scan saw the future.
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 5, std::nullopt, true, 10, 11});
  lin::SnapshotScanObservation s;
  s.invokeNs = 0;
  s.responseNs = 1;
  s.entries = {{1, 5}};
  EXPECT_FALSE(lin::isLinearizableWithSnapshots(h, {s}));
}

TEST(SnapshotLinChecker, RejectsMissedPastWrite) {
  // The put responded before the scan opened: its effect is in the past of
  // every legal pin point and must be visible.
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 5, std::nullopt, true, 0, 1});
  lin::SnapshotScanObservation s;
  s.invokeNs = 10;
  s.responseNs = 11;
  s.entries = {};
  EXPECT_FALSE(lin::isLinearizableWithSnapshots(h, {s}));
}

TEST(SnapshotLinChecker, AcceptsEitherSideOfOverlap) {
  // put overlaps the open window: both worlds are legal pins.
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 5, std::nullopt, true, 0, 10});
  lin::SnapshotScanObservation s;
  s.invokeNs = 1;
  s.responseNs = 9;
  s.entries = {};
  EXPECT_TRUE(lin::isLinearizableWithSnapshots(h, {s}));
  s.entries = {{1, 5}};
  EXPECT_TRUE(lin::isLinearizableWithSnapshots(h, {s}));
}

TEST(SnapshotLinChecker, TwoPinsMustAgreeWithOneWitness) {
  // Two sequential snapshots with contradicting worlds for one history.
  std::vector<Operation> h;
  h.push_back({OpType::Put, 1, 5, std::nullopt, true, 0, 1});
  lin::SnapshotScanObservation s1;  // sees the key...
  s1.invokeNs = 2;
  s1.responseNs = 3;
  s1.entries = {{1, 5}};
  lin::SnapshotScanObservation s2;  // ...then a LATER pin un-sees it
  s2.invokeNs = 4;
  s2.responseNs = 5;
  s2.entries = {};
  EXPECT_FALSE(lin::isLinearizableWithSnapshots(h, {s1, s2}));
}

// ---- snapshot rounds against the real map ---------------------------------
// The tentpole claim, tested end to end: a snapshot scan at version V
// reflects every operation linearized at or before V and none after, with
// the scan participating in the search as one atomic read.
TEST(SnapshotLinearizability, SingleCoreRounds) {
  for (std::uint64_t round = 0; round < 80; ++round) {
    auto cfg = OakConfig{}.withChunkCapacity(16);
    OakCoreMap<> map(cfg);
    auto r = recordRoundOn(map, 3, 5, 3, round + 5000, /*scanThreads=*/0,
                           /*withCompute=*/true, /*snapScanThreads=*/2);
    ASSERT_TRUE(lin::isLinearizableWithSnapshots(r.ops, r.snapScans))
        << "round " << round;
  }
}

TEST(SnapshotLinearizability, ShardedRounds) {
  for (std::size_t shards : shardCounts()) {
    for (std::uint64_t round = 0; round < 40; ++round) {
      auto r = recordShardedRound(shards, 3, 5, 4, round + 6000,
                                  /*scanThreads=*/0, /*withCompute=*/true,
                                  /*snapScanThreads=*/2);
      ASSERT_TRUE(lin::isLinearizableWithSnapshots(r.ops, r.snapScans))
          << "shards " << shards << " round " << round;
    }
  }
}

// Snapshot atomicity must survive concurrent shard splits and merges: the
// cross-shard pin is taken once, before the router is consulted, so a
// repartition mid-scan must never tear the cut.
TEST(SnapshotLinearizability, RoundsUnderShardSplitMerge) {
  for (std::uint64_t round = 0; round < 25; ++round) {
    auto cfg = ShardedOakConfig{}
                   .withLayout(straddlingLayout(2, 4))
                   .withShard(OakConfig{}.withChunkCapacity(16));
    ShardedOakCoreMap<> map(std::move(cfg));
    std::atomic<bool> stop{false};
    std::thread churn([&] {
      XorShift rng(round ^ 0xFEED);
      while (!stop.load(std::memory_order_acquire)) {
        if (map.shardCount() < 4) {
          map.splitShardAt(rng.nextBounded(map.shardCount()),
                           keyOf(1 + rng.nextBounded(3)));
        }
        if (map.shardCount() > 1 && rng.nextBounded(2) == 0) {
          map.mergeShards(rng.nextBounded(map.shardCount() - 1));
        }
      }
    });
    auto r = recordRoundOn(map, 3, 5, 4, round + 7000, /*scanThreads=*/0,
                           /*withCompute=*/true, /*snapScanThreads=*/2);
    stop.store(true, std::memory_order_release);
    churn.join();
    ASSERT_TRUE(lin::isLinearizableWithSnapshots(r.ops, r.snapScans))
        << "round " << round;
  }
}

}  // namespace
}  // namespace oak
