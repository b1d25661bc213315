// Background maintenance service tests (ISSUE 6).
//
// Three layers under test:
//   1. MaintenanceService itself — dedupe, queue depth, pause/drain/detach.
//   2. OakCoreMap with a worker pool — writers race background rebalances;
//      the chain must stay walker-clean, and a worker-side OOM (chaos site
//      "maint.worker") must roll back exactly like an inline one and retry.
//   3. ShardedOakCoreMap online split/merge concurrent with point ops and
//      scans — checked with the §4.5 linearizability checker and the §4.2
//      scan-consistency rules from linearizability.hpp.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/fault.hpp"
#include "common/random.hpp"
#include "linearizability.hpp"
#include "maint/maintenance.hpp"
#include "oak/chunk_walker.hpp"
#include "oak/core_map.hpp"
#include "oak/sharded_map.hpp"

namespace oak {
namespace {

using maint::MaintenanceConfig;
using maint::MaintenanceService;

#define SKIP_UNLESS_CHECKED()                                  \
  do {                                                         \
    if (!OAK_CHECKED) {                                        \
      GTEST_SKIP() << "fault injection needs a checked build"; \
    }                                                          \
  } while (0)

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

// --------------------------------------------------- service-level tests

/// Test job target: counts executions per key and remembers the thread
/// that ran them.
struct JobLog {
  std::atomic<int> runs{0};
  std::atomic<int> keyedRuns[8]{};
  std::thread::id lastThread;

  static void run(void* owner, const ByteVec& key) {
    auto* self = static_cast<JobLog*>(owner);
    self->runs.fetch_add(1);
    if (key.size() == 8) {
      const std::uint64_t k = loadU64BE(key.data());
      if (k < 8) self->keyedRuns[k].fetch_add(1);
    }
    self->lastThread = std::this_thread::get_id();
  }
};

TEST(MaintService, SubmitDedupesPerOwnerAndKey) {
  MaintenanceService svc(/*threads=*/1);
  svc.pause();  // hold jobs so the dedupe window stays open
  JobLog log;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(svc.submit(&log, keyOf(1), 0, &JobLog::run));
  }
  EXPECT_TRUE(svc.submit(&log, keyOf(2), 0, &JobLog::run));
  auto st = svc.stats();
  EXPECT_EQ(st.pending, 2u);         // one job per distinct key
  EXPECT_EQ(st.coalesced, 99u);      // the other 99 submissions folded in
  EXPECT_EQ(st.submitted, 101u);
  svc.drain();
  EXPECT_EQ(log.keyedRuns[1].load(), 1);  // deduped job ran exactly once
  EXPECT_EQ(log.keyedRuns[2].load(), 1);
  EXPECT_EQ(svc.stats().pending, 0u);
}

TEST(MaintService, DistinctOwnersDoNotCoalesce) {
  MaintenanceService svc(/*threads=*/0);
  svc.pause();
  JobLog a, b;
  EXPECT_TRUE(svc.submit(&a, keyOf(1), 0, &JobLog::run));
  EXPECT_TRUE(svc.submit(&b, keyOf(1), 0, &JobLog::run));
  EXPECT_EQ(svc.stats().pending, 2u);
  svc.drain();
  EXPECT_EQ(a.runs.load(), 1);
  EXPECT_EQ(b.runs.load(), 1);
}

TEST(MaintService, SameOwnerAndKeyWithDifferentFnDoNotCoalesce) {
  // A chunk's rebalance job is keyed by its minKey, which can equal the key
  // of another job kind (a per-map evacuation or version-GC job).  The two
  // must both run: coalescing one onto the other would leave the dropped
  // job's queued-flag set and stop that kind of work for the map's life.
  MaintenanceService svc(/*threads=*/1);
  svc.pause();
  JobLog log;
  const MaintenanceService::JobFn otherKind = [](void* owner, const ByteVec& key) {
    JobLog::run(owner, key);
  };
  EXPECT_TRUE(svc.submit(&log, keyOf(2), 0, &JobLog::run));
  EXPECT_TRUE(svc.submit(&log, keyOf(2), 0, otherKind));
  EXPECT_EQ(svc.stats().pending, 2u);
  EXPECT_EQ(svc.stats().coalesced, 0u);
  svc.drain();
  EXPECT_EQ(log.keyedRuns[2].load(), 2);
}

TEST(MaintService, QueueDepthRejectsAndCountsRejections) {
  MaintenanceService svc(/*threads=*/0, /*rateLimitBytesPerSec=*/0,
                         /*queueDepth=*/2);
  svc.pause();
  JobLog log;
  EXPECT_TRUE(svc.submit(&log, keyOf(0), 0, &JobLog::run));
  EXPECT_TRUE(svc.submit(&log, keyOf(1), 0, &JobLog::run));
  EXPECT_FALSE(svc.submit(&log, keyOf(2), 0, &JobLog::run));  // full
  // Coalescing onto an already-queued key still succeeds at depth.
  EXPECT_TRUE(svc.submit(&log, keyOf(1), 0, &JobLog::run));
  auto st = svc.stats();
  EXPECT_EQ(st.pending, 2u);
  EXPECT_EQ(st.rejected, 1u);
  svc.drain();
  EXPECT_EQ(log.runs.load(), 2);
}

TEST(MaintService, DrainRunsQueuedJobsOnCallingThread) {
  MaintenanceService svc(/*threads=*/0);  // no workers: only drain executes
  JobLog log;
  for (std::uint64_t k = 0; k < 4; ++k) {
    svc.submit(&log, keyOf(k), 0, &JobLog::run);
  }
  EXPECT_EQ(log.runs.load(), 0);  // nothing ran yet — no workers
  svc.drain();
  EXPECT_EQ(log.runs.load(), 4);
  EXPECT_EQ(log.lastThread, std::this_thread::get_id());
  EXPECT_EQ(svc.stats().executed, 4u);
}

TEST(MaintService, PauseHoldsWorkResumeReleasesIt) {
  MaintenanceService svc(/*threads=*/1);
  svc.pause();
  JobLog log;
  svc.submit(&log, keyOf(1), 0, &JobLog::run);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(log.runs.load(), 0) << "paused worker must not pick up jobs";
  EXPECT_TRUE(svc.stats().paused);
  svc.resume();
  // The worker drains it shortly after resume; poll with a generous cap.
  for (int i = 0; i < 500 && log.runs.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(log.runs.load(), 1);
}

TEST(MaintService, DetachCancelsQueuedJobsForThatOwnerOnly) {
  MaintenanceService svc(/*threads=*/1);
  svc.pause();
  JobLog keep, gone;
  svc.submit(&gone, keyOf(1), 0, &JobLog::run);
  svc.submit(&keep, keyOf(1), 0, &JobLog::run);
  svc.submit(&gone, keyOf(2), 0, &JobLog::run);
  svc.detach(&gone);  // after this the service may never call into `gone`
  svc.resume();
  svc.drain();
  EXPECT_EQ(gone.runs.load(), 0);
  EXPECT_EQ(keep.runs.load(), 1);
}

/// Job that re-enqueues itself once mid-run — the shape of the worker
/// OOM-retry path in backgroundRebalance.
struct Resubmitter {
  MaintenanceService* svc = nullptr;
  std::atomic<int> runs{0};
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};

  static void run(void* owner, const ByteVec& key) {
    auto* self = static_cast<Resubmitter*>(owner);
    const int n = self->runs.fetch_add(1) + 1;
    self->started.store(true, std::memory_order_release);
    while (!self->release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    if (n == 1) self->svc->submit(owner, ByteVec(key), 0, &Resubmitter::run);
  }
};

TEST(MaintService, DetachRejectsResubmissionFromInFlightJob) {
  // Regression: an in-flight job that resubmits itself while detach() waits
  // it out must not leave a queued job behind — a worker running it after
  // detach returned would call into a destroyed owner.
  MaintenanceService svc(/*threads=*/1);
  Resubmitter job;
  job.svc = &svc;
  ASSERT_TRUE(svc.submit(&job, keyOf(1), 0, &Resubmitter::run));
  while (!job.started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Pause so a worker cannot helpfully run the resubmitted job before
  // detach() observes it — the leak is a job still queued at detach return.
  svc.pause();
  std::thread detacher([&] { svc.detach(&job); });
  // Give detach time to cancel the (empty) queue and park on the in-flight
  // wait before the job resubmits.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  job.release.store(true, std::memory_order_release);
  detacher.join();
  EXPECT_EQ(svc.stats().pending, 0u)
      << "resubmitted job survived detach — would run against a dead owner";
  const int runsAtDetach = job.runs.load();
  svc.drain();  // drain works while paused: it would run any leaked job
  EXPECT_EQ(job.runs.load(), runsAtDetach)
      << "service called into the owner after detach returned";
}

TEST(MaintService, DrainBypassesRateLimiter) {
  // 1 byte/sec with a megabyte-cost job: a worker would stall for ages, but
  // drain() must execute it immediately on the caller.
  MaintenanceService svc(/*threads=*/0, /*rateLimitBytesPerSec=*/1);
  JobLog log;
  svc.submit(&log, keyOf(1), 1u << 20, &JobLog::run);
  const auto t0 = std::chrono::steady_clock::now();
  svc.drain();
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(log.runs.load(), 1);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(dt).count(),
            5000);
}

// ------------------------------------------- map-level background rebalance

/// Writers race the worker pool; whatever interleaving happens, the chunk
/// chain must stay walker-clean and queued work must survive to a drain.
/// (This is the tsan target for writer-vs-worker races.)
TEST(MaintMap, BackgroundRebalanceRacesWritersWalkerClean) {
  auto cfg = OakConfig{}
                 .withChunkCapacity(64)  // small chunks: constant policy hits
                 .withMaintenance(MaintenanceConfig{}.withThreads(2));
  OakCoreMap<> map(cfg);
  constexpr unsigned kThreads = 3;
  std::barrier gate(kThreads);
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      XorShift rng(97 + t);
      gate.arrive_and_wait();
      for (int i = 0; i < 4000; ++i) {
        const std::uint64_t k = rng.nextBounded(2000);
        switch (rng.nextBounded(4)) {
          case 0: map.remove(asBytes(keyOf(k))); break;
          default: map.put(asBytes(keyOf(k)), asBytes(valOf(k * 3 + t))); break;
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  map.drainMaintenance();

  const auto rep = ChunkWalker<BytesComparator>::validate(map);
  EXPECT_TRUE(rep.problems.empty())
      << "first problem: " << (rep.problems.empty() ? "" : rep.problems[0]);
  const auto m = map.stats();
  EXPECT_GT(m.registry.counter(obs::Counter::MaintQueued), 0u);
  EXPECT_GT(m.registry.counter(obs::Counter::MaintExecuted), 0u);
  EXPECT_EQ(map.maintenanceStats().pending, 0u);
  // Every key the writers left live must still read back.
  std::size_t n = 0;
  for (auto it = map.ascend(); it.valid(); it.next()) ++n;
  EXPECT_EQ(n, map.sizeSlow());
}

TEST(MaintMap, SaturatedQueueFallsBackInline) {
  // Pause the pool so the 1-deep queue saturates instantly; advisory
  // compactions must then run inline (the seed's behavior) and count as
  // fallbacks, keeping the map compacting instead of drowning.
  auto cfg = OakConfig{}
                 .withChunkCapacity(64)
                 .withMaintenance(
                     MaintenanceConfig{}.withThreads(1).withQueueDepth(1));
  OakCoreMap<> map(cfg);
  map.pauseMaintenance();
  for (std::uint64_t i = 0; i < 6000; ++i) {
    map.put(asBytes(keyOf(i % 1500)), asBytes(valOf(i)));
    if (i % 3 == 1) map.remove(asBytes(keyOf((i * 7) % 1500)));
  }
  const auto m = map.stats();
  EXPECT_GT(m.registry.counter(obs::Counter::MaintInlineFallback), 0u);
  EXPECT_LE(map.maintenanceStats().pending, 1u);
  map.resumeMaintenance();
  map.drainMaintenance();
  const auto rep = ChunkWalker<BytesComparator>::validate(map);
  EXPECT_TRUE(rep.problems.empty());
}

TEST(MaintMap, DroppedRequestsRetriggerWhenFallbackDisabled) {
  // A paused 1-thread pool with a 1-deep queue: the first request parks in
  // the queue, every later one is dropped (fallback disabled) — the map
  // must keep absorbing writes regardless.
  auto cfg = OakConfig{}
                 .withChunkCapacity(64)
                 .withMaintenance(MaintenanceConfig{}
                                      .withThreads(1)
                                      .withQueueDepth(1)
                                      .withInlineFallback(false));
  OakCoreMap<> map(cfg);
  map.pauseMaintenance();
  for (std::uint64_t i = 0; i < 4000; ++i) {
    map.put(asBytes(keyOf(i % 1000)), asBytes(valOf(i)));
  }
  // Dropped requests are not fatal: structure stays valid and a drain runs
  // whatever is still queued.  (The queued job may be stale by now — the
  // chunk often got compacted by an inline *full* rebalance in the
  // meantime — so assert on the service's executed gauge, which counts the
  // job run itself, not on the map's rebalance counter.)
  ASSERT_EQ(map.maintenanceStats().pending, 1u);
  map.drainMaintenance();
  EXPECT_EQ(map.maintenanceStats().pending, 0u);
  EXPECT_GE(map.maintenanceStats().executed, 1u);
  const auto rep = ChunkWalker<BytesComparator>::validate(map);
  EXPECT_TRUE(rep.problems.empty());
}

// ------------------------------------------------------- chaos: maint.worker

TEST(MaintChaos, WorkerOomRollsBackCleanAndRetries) {
  SKIP_UNLESS_CHECKED();
  fault::disarmAll();
  auto cfg = OakConfig{}
                 .withChunkCapacity(64)
                 .withMaintenance(MaintenanceConfig{}.withThreads(1));
  OakCoreMap<> map(cfg);
  // Pause the worker while we arm, so the first job executes under the
  // armed schedule deterministically.
  map.pauseMaintenance();
  for (std::uint64_t i = 0; i < 3000; ++i) {
    map.put(asBytes(keyOf(i % 800)), asBytes(valOf(i)));
  }
  ASSERT_GT(map.maintenanceStats().pending, 0u) << "no rebalance was queued";

  // Every worker execution OOMs while armed: the rebalance must roll back
  // (nothing published) and the request must re-queue itself.
  fault::arm("maint.worker", fault::Schedule::probability(1.0, 42));
  map.resumeMaintenance();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GT(fault::injectedCount("maint.worker"), 0u)
      << "worker never reached the chaos site";
  {
    // Mid-failure the chain must already be walker-clean (rollback, not
    // half-published surgery).
    const auto rep = ChunkWalker<BytesComparator>::validate(map);
    EXPECT_TRUE(rep.problems.empty())
        << "first problem: " << (rep.problems.empty() ? "" : rep.problems[0]);
  }

  // Disarm: the re-queued request must now succeed.
  fault::disarm("maint.worker");
  map.drainMaintenance();
  EXPECT_GT(map.stats().registry.counter(obs::Counter::MaintExecuted), 0u);
  const auto rep = ChunkWalker<BytesComparator>::validate(map);
  EXPECT_TRUE(rep.problems.empty());
  // And the data survived it all.
  std::size_t n = 0;
  for (auto it = map.ascend(); it.valid(); it.next()) ++n;
  EXPECT_EQ(n, map.sizeSlow());
  EXPECT_EQ(n, 800u);
  fault::disarmAll();
}

// ------------------------------------- sharded split/merge linearizability

/// Records point-op histories (same recorder shape as
/// oak_linearizability_test) while the main thread splits and merges shards
/// under the ops.  Histories stay tiny so the Wing&Gong search is cheap.
struct ShardedRound {
  std::vector<lin::Operation> ops;
  std::vector<lin::ScanObservation> scans;
};

ShardedRound recordRoundWithSplits(std::uint64_t seed) {
  auto cfg =
      ShardedOakConfig{}
          .withShards(2)
          .withLayout(ShardLayout::at({keyOf(2)}))  // boundary inside keyspace
          .withShard(OakConfig{}.withChunkCapacity(16).withMaintenance(
              MaintenanceConfig{}.withThreads(1)));
  ShardedOakCoreMap<> map(std::move(cfg));
  constexpr unsigned kWorkers = 2;
  constexpr unsigned kScanners = 1;
  constexpr int kOpsPer = 12;
  constexpr int kKeys = 4;

  std::vector<std::vector<lin::Operation>> hist(kWorkers);
  std::vector<lin::ScanObservation> scans;
  std::barrier gate(kWorkers + kScanners + 1);
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kWorkers; ++t) {
    ts.emplace_back([&, t] {
      XorShift rng(seed * 1000 + t);
      gate.arrive_and_wait();
      for (int i = 0; i < kOpsPer; ++i) {
        const std::uint64_t k = rng.nextBounded(kKeys);
        lin::Operation op{};
        op.key = k;
        op.invokeNs = lin::nowNs();
        switch (rng.nextBounded(4)) {
          case 0: {
            op.type = lin::OpType::Get;
            auto v = map.getCopy(asBytes(keyOf(k)));
            op.responseNs = lin::nowNs();
            if (v) op.out = loadUnaligned<std::uint64_t>(v->data());
            op.ok = true;
            break;
          }
          case 1: {
            op.type = lin::OpType::Put;
            op.arg = rng.nextBounded(100);
            map.put(asBytes(keyOf(k)), asBytes(valOf(op.arg)));
            op.responseNs = lin::nowNs();
            op.ok = true;
            break;
          }
          case 2: {
            op.type = lin::OpType::PutIfAbsent;
            op.arg = rng.nextBounded(100);
            op.ok = map.putIfAbsent(asBytes(keyOf(k)), asBytes(valOf(op.arg)));
            op.responseNs = lin::nowNs();
            break;
          }
          default: {
            op.type = lin::OpType::Remove;
            op.ok = map.remove(asBytes(keyOf(k)));
            op.responseNs = lin::nowNs();
            break;
          }
        }
        hist[t].push_back(op);
      }
    });
  }
  ts.emplace_back([&] {
    gate.arrive_and_wait();
    for (int i = 0; i < 3; ++i) {
      lin::ScanObservation obs;
      obs.invokeNs = lin::nowNs();
      for (auto it = map.ascend(); it.valid(); it.next()) {
        auto e = it.entry();
        const std::uint64_t k = loadU64BE(e.key.data());
        std::uint64_t v = 0;
        try {
          // false: a remove won after the iterator saw the entry.
          if (!e.value.read(
                  [&](ByteSpan s) { v = loadUnaligned<std::uint64_t>(s.data()); })) {
            continue;
          }
        } catch (const ConcurrentModification&) {
          continue;  // §4.2: entry vanished mid-read, skipping is legal
        }
        obs.entries.emplace_back(k, v);
      }
      obs.responseNs = lin::nowNs();
      scans.push_back(std::move(obs));
    }
  });
  // Main thread: online shard surgery racing everything above.
  gate.arrive_and_wait();
  for (int round = 0; round < 3; ++round) {
    map.splitShardAt(0, keyOf(1));
    map.mergeShards(0);
    map.splitShardAt(map.shardCount() - 1, keyOf(3));
    map.mergeShards(map.shardCount() - 2);
  }
  for (auto& th : ts) th.join();

  ShardedRound out;
  for (auto& h : hist) out.ops.insert(out.ops.end(), h.begin(), h.end());
  out.scans = std::move(scans);
  return out;
}

TEST(MaintSharded, SplitMergeKeepsPointOpsLinearizable) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ShardedRound r = recordRoundWithSplits(seed);
    ASSERT_LE(r.ops.size(), 64u);
    EXPECT_TRUE(lin::isLinearizable(r.ops)) << "seed " << seed;
    for (const auto& scan : r.scans) {
      std::string why;
      EXPECT_TRUE(lin::checkScanConsistency(scan, r.ops, &why))
          << "seed " << seed << ": " << why;
    }
  }
}

TEST(MaintSharded, ExplicitSplitMergeRoundtripPreservesData) {
  auto cfg = ShardedOakConfig{}
                 .withShards(2)
                 .withLayout(ShardLayout::at({keyOf(500)}))
                 .withShard(OakConfig{}.withChunkCapacity(16));
  ShardedOakCoreMap<> map(std::move(cfg));
  for (std::uint64_t i = 0; i < 1000; ++i) {
    map.put(asBytes(keyOf(i)), asBytes(valOf(i)));
  }
  ASSERT_TRUE(map.splitShard(0));
  EXPECT_EQ(map.shardCount(), 3u);
  ASSERT_TRUE(map.mergeShards(0));
  EXPECT_EQ(map.shardCount(), 2u);
  EXPECT_GE(map.stats().registry.counter(obs::Counter::ShardSplit), 1u);
  EXPECT_GE(map.stats().registry.counter(obs::Counter::ShardMerge), 1u);

  // Merged scans stay totally ordered and complete despite the leftovers
  // the split left behind in the source shard.
  std::uint64_t expect = 0;
  for (auto it = map.ascend(); it.valid(); it.next(), ++expect) {
    EXPECT_EQ(loadU64BE(it.entry().key.data()), expect);
  }
  EXPECT_EQ(expect, 1000u);
  EXPECT_EQ(map.sizeSlow(), 1000u);
  const auto rep = ChunkWalker<BytesComparator>::validate(map);
  EXPECT_TRUE(rep.problems.empty())
      << "first problem: " << (rep.problems.empty() ? "" : rep.problems[0]);
}

TEST(MaintSharded, ConcurrentScansSeeNoDuplicatesAcrossMerge) {
  // Regression: during mergeShards phase 2 the absorbing core transiently
  // holds copies below its published lower boundary; the merged scans must
  // clamp each shard's lower bound or those keys surface from both the
  // absorbed and the absorbing shard.  No writers run, so every scan must
  // see each key exactly once, in order.
  // The race window is merge phase 2 (copying the absorbed shard into its
  // neighbor), so most keys live below the boundary to keep it wide.
  constexpr std::uint64_t kKeys = 2200;
  constexpr std::uint64_t kBoundary = 2000;
  auto cfg = ShardedOakConfig{}
                 .withShards(2)
                 .withLayout(ShardLayout::at({keyOf(kBoundary)}))
                 .withShard(OakConfig{}.withChunkCapacity(64));
  ShardedOakCoreMap<> map(std::move(cfg));
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.put(asBytes(keyOf(i)), asBytes(valOf(i)));
  }

  std::atomic<bool> done{false};
  std::thread surgeon([&] {
    for (int round = 0; round < 60; ++round) {
      map.mergeShards(0);
      map.splitShardAt(0, keyOf(kBoundary));
    }
    done.store(true, std::memory_order_release);
  });

  bool ok = true;
  while (ok && !done.load(std::memory_order_acquire)) {
    std::uint64_t expect = 0;
    for (auto it = map.ascend(); ok && it.valid(); it.next(), ++expect) {
      const std::uint64_t k = loadU64BE(it.entry().key.data());
      EXPECT_EQ(k, expect) << "duplicate or out-of-order key mid-merge";
      ok = (k == expect);
    }
    EXPECT_EQ(expect, kKeys);
    ok = ok && expect == kKeys;
  }
  surgeon.join();
}

TEST(MaintSharded, AutoManageSplitsHotShard) {
  // All load lands below the first boundary: the manager must split the hot
  // shard.  Thresholds tuned so one explicit manage pass fires (factor 1.2
  // with 100% of the load in shard 0 of 2 clears it).
  auto cfg =
      ShardedOakConfig{}
          .withShards(2)
          .withLayout(ShardLayout::at({keyOf(1u << 20)}))
          .withShard(OakConfig{}.withChunkCapacity(16).withMaintenance(
              MaintenanceConfig{}.withSplitLoadFactor(1.2).withMinSplitChunks(
                  2)));
  ShardedOakCoreMap<> map(std::move(cfg));
  for (std::uint64_t i = 0; i < 2000; ++i) {
    map.put(asBytes(keyOf(i)), asBytes(valOf(i)));  // all in shard 0
  }
  EXPECT_TRUE(map.manageShardsOnce()) << "hot shard was not split";
  EXPECT_EQ(map.shardCount(), 3u);
  EXPECT_GE(map.stats().registry.counter(obs::Counter::ShardSplit), 1u);
  EXPECT_EQ(map.sizeSlow(), 2000u);
}

TEST(MaintSharded, AutoShardManageSplitsHotShardFromPointOps) {
  // The automatic trigger: every kManageCheckOps point ops a thread submits
  // one hot/cold check to the shared service.  Load detection reads the
  // obs op counters, so it needs OAK_STATS.
  if (!obs::StatsRegistry::compiled()) GTEST_SKIP() << "needs OAK_STATS";
  using Map = ShardedOakCoreMap<>;
  // All load lands in shard 0; a split factor below 2 lets a 100% share of
  // a 2-shard map clear the threshold.
  auto cfg =
      ShardedOakConfig{}
          .withShards(2)
          .withLayout(ShardLayout::at({keyOf(1u << 20)}))
          .withShard(OakConfig{}.withChunkCapacity(16).withMaintenance(
              MaintenanceConfig{}.withThreads(1).withAutoShardManage(true).withSplitLoadFactor(
                  1.5)));
  Map map(std::move(cfg));
  constexpr std::uint64_t kKeys = 2000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.put(asBytes(keyOf(i)), asBytes(valOf(i)));
  }
  // Fill the check window with reads; one check fires, a second never does.
  for (std::uint64_t i = kKeys; i < Map::kManageCheckOps + 100; ++i) {
    EXPECT_TRUE(map.get(asBytes(keyOf(i % kKeys))).has_value());
  }
  map.drainMaintenance();
  EXPECT_EQ(map.stats().shards, 3u) << "automatic check did not split the hot shard";

  std::uint64_t expect = 0;
  for (auto it = map.ascend(); it.valid(); it.next(), ++expect) {
    ASSERT_EQ(loadU64BE(it.entry().key.data()), expect);
  }
  EXPECT_EQ(expect, kKeys);
}

TEST(MaintSharded, AutoManageMergesColdShards) {
  // Three shards; all subsequent load lands in the last one, so the two
  // cold left shards fall below the merge threshold and collapse.
  // splitLoadFactor is pinned out of reach: the one-sided load would
  // otherwise keep re-splitting the hot shard (split wins over merge in the
  // manager) and the cold pair would never collapse.
  auto cfg =
      ShardedOakConfig{}
          .withShards(3)
          .withLayout(ShardLayout::at({keyOf(100), keyOf(200)}))
          .withShard(OakConfig{}.withChunkCapacity(16).withMaintenance(
              MaintenanceConfig{}.withSplitLoadFactor(1e9).withMergeLoadFactor(
                  0.5)));
  ShardedOakCoreMap<> map(std::move(cfg));
  for (std::uint64_t i = 0; i < 300; ++i) {
    map.put(asBytes(keyOf(i)), asBytes(valOf(i)));
  }
  const std::size_t before = map.shardCount();
  bool merged = false;
  for (int round = 0; round < 10 && !merged; ++round) {
    // Sustained one-sided load: only the top shard sees traffic.
    for (std::uint64_t i = 0; i < 1200; ++i) {
      map.put(asBytes(keyOf(250 + (i % 50))), asBytes(valOf(i)));
    }
    merged = map.manageShardsOnce();
  }
  EXPECT_TRUE(merged);
  EXPECT_LT(map.shardCount(), before) << "cold shards never merged";
  EXPECT_GE(map.stats().registry.counter(obs::Counter::ShardMerge), 1u);
  EXPECT_EQ(map.sizeSlow(), 300u);
  const auto rep = ChunkWalker<BytesComparator>::validate(map);
  EXPECT_TRUE(rep.problems.empty());
}

}  // namespace
}  // namespace oak
