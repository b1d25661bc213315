// Uniform adapters over the compared solutions (§5.1):
//   Oak (ZC API), Oak-Copy (legacy API), SkipList-OnHeap, SkipList-OffHeap.
//
// Each adapter owns its memory environment: a budgeted ManagedHeap and —
// for the off-heap solutions — a budgeted BlockPool, split per the paper's
// methodology ("Oak and Skiplist-OffHeap split the available memory between
// the off-heap pool and the heap ... Skiplist-OnHeap allocates all the
// available memory to heap").
#pragma once

#include <memory>
#include <optional>
#include <string>

#include <cstdio>

#include "baselines/offheap_skiplist_map.hpp"
#include "baselines/onheap_skiplist_map.hpp"
#include "benchcore/workload.hpp"
#include "dur/wal.hpp"
#include "mheap/managed_heap.hpp"
#include "oak/chunk_walker.hpp"
#include "oak/core_map.hpp"
#include "oak/sharded_map.hpp"
#include "obs/metrics.hpp"

namespace oak::bench {

/// Blackhole sink to keep reads from being optimized away.
struct Blackhole {
  std::uint64_t acc = 0;
  void consume(ByteSpan s) noexcept {
    if (!s.empty()) acc += static_cast<std::uint64_t>(s[0]) + s.size();
  }
};

inline mheap::ManagedHeap::Config heapConfig(std::size_t budget) {
  mheap::ManagedHeap::Config hc;
  hc.budgetBytes = budget;
  return hc;
}

/// Splits total RAM: off-heap pool just big enough for raw data plus
/// cfg.offHeapSlackPct headroom (value headers, alignment, free-list and
/// size-class fragmentation), rest to heap.
struct RamSplit {
  std::size_t heapBytes;
  std::size_t offHeapBytes;
};
inline RamSplit splitRam(const BenchConfig& cfg, bool offHeapSolution) {
  if (!offHeapSolution) return {cfg.totalRamBytes, 0};
  std::size_t off = cfg.rawDataBytes() +
                    cfg.rawDataBytes() / 100 * cfg.offHeapSlackPct + (8u << 20);
  // Keep at least 1/8 of the budget for the heap — metadata has to live
  // somewhere; if the raw data alone exceeds 7/8 of RAM, the off-heap pool
  // budget will enforce the capacity cap.
  const std::size_t maxOff = cfg.totalRamBytes - cfg.totalRamBytes / 8;
  if (off > maxOff) off = maxOff;
  return {cfg.totalRamBytes - off, off};
}

// ------------------------------------------------------------------ Oak
// Always drives the sharded front-end; cfg.shards == 1 (the default) is a
// single-shard map whose router adds one empty binary search per op.
class OakAdapter {
 public:
  static constexpr const char* kName = "Oak";

  explicit OakAdapter(const BenchConfig& cfg, bool copyApi = false)
      : copyApi_(copyApi) {
    const RamSplit split = splitRam(cfg, true);
    heap_ = std::make_unique<mheap::ManagedHeap>(heapConfig(split.heapBytes));
    // Durable runs keep the budgeted pool but back its arenas with files
    // under <storageDir>/arenas, the same layout ShardedOakCoreMap would
    // pick for an owned pool.
    pool_ = std::make_unique<mem::BlockPool>(mem::BlockPool::Config{
        .blockBytes = cfg.blockBytes,
        .budgetBytes = split.offHeapBytes,
        .storageDir =
            cfg.storageDir.empty() ? std::string{} : cfg.storageDir + "/arenas"});
    auto mem = MemConfig{}.withMetaHeap(heap_.get()).withPool(pool_.get());
    if (cfg.generationalValues) mem.withReclaim(ValueReclaim::Generational);
    if (cfg.compaction) {
      mem.withCompaction(true).withCompactionOccupancy(cfg.compactionOccupancy);
    }
    auto shard = OakConfig{}
                     .withChunkCapacity(2048)
                     .withMem(mem)
                     .withMaintenance(
                         maint::MaintenanceConfig{}
                             .withThreads(cfg.maintThreads)
                             .withRateLimit(cfg.maintRateLimitBytesPerSec)
                             .withQueueDepth(cfg.maintQueueDepth));
    if (!cfg.storageDir.empty()) {
      auto dcfg = DurConfig{};
      if (auto p = dur::parseFsyncPolicy(cfg.fsyncPolicy)) dcfg.withFsyncPolicy(*p);
      shard.withDur(dcfg);
    }
    auto scfg = ShardedOakConfig{}
                    .withShards(cfg.shards < 1 ? 1 : cfg.shards)
                    .withShard(std::move(shard))
                    .withStorageDir(cfg.storageDir);  // empty = in-memory
    // Bench ids are dense in [0, keyRange) behind an 8-byte BE prefix —
    // split that range, not the full u64 space.
    scfg.withLayout(ShardLayout::uniformRange(scfg.shards, cfg.keyRange));
    map_ = std::make_unique<ShardedOakCoreMap<>>(std::move(scfg));
  }

  const char* name() const { return copyApi_ ? "Oak-Copy" : "Oak"; }

  bool ingest(ByteSpan key, ByteSpan value) { return map_->putIfAbsent(key, value); }
  void put(ByteSpan key, ByteSpan value) { map_->put(key, value); }
  bool remove(ByteSpan key) { return map_->remove(key); }

  bool get(ByteSpan key, Blackhole& bh) {
    if (copyApi_) {
      auto v = map_->getCopy(key);
      if (!v) return false;
      bh.consume(asBytes(*v));
      return true;
    }
    auto v = map_->get(key);
    if (!v) return false;
    try {
      v->read([&](ByteSpan s) { bh.consume(s); });
    } catch (const ConcurrentModification&) {
      return false;
    }
    return true;
  }

  /// 8-byte in-place update (Figure 4b).
  void compute(ByteSpan key) {
    map_->computeIfPresent(key, [](OakWBuffer& w) {
      w.putU64(0, w.getU64(0) + 1);
    });
  }

  std::size_t scanAsc(ByteSpan from, std::size_t n, Blackhole& bh, bool stream) {
    std::size_t cnt = 0;
    std::optional<ByteVec> lo;
    if (!from.empty()) lo = toVec(from);
    for (auto it = map_->ascend(std::move(lo), std::nullopt, ScanOptions::ascending(stream));
         it.valid() && cnt < n; it.next()) {
      auto e = it.entry();
      bh.consume(e.key);
      e.value.read([&](ByteSpan s) { bh.consume(s); });
      ++cnt;
    }
    return cnt;
  }

  std::size_t scanDesc(ByteSpan from, std::size_t n, Blackhole& bh, bool stream) {
    std::size_t cnt = 0;
    std::optional<ByteVec> hi;
    if (!from.empty()) hi = toVec(from);
    for (auto it = map_->descend(std::nullopt, std::move(hi), ScanOptions::descending(stream));
         it.valid() && cnt < n; it.next()) {
      auto e = it.entry();
      bh.consume(e.key);
      e.value.read([&](ByteSpan s) { bh.consume(s); });
      ++cnt;
    }
    return cnt;
  }

  /// Snapshot scan (snapshot-churn scenario): pins one read version across
  /// every shard and walks the frozen world — superseded values resolve
  /// through the version chain, so reads go through readValue().
  std::size_t scanSnapshotAsc(ByteSpan from, std::size_t n, Blackhole& bh) {
    std::size_t cnt = 0;
    std::optional<ByteVec> lo;
    if (!from.empty()) lo = toVec(from);
    for (auto it = map_->ascend(std::move(lo), std::nullopt, ScanOptions::snapshot());
         it.valid() && cnt < n; it.next()) {
      auto e = it.entry();
      bh.consume(e.key);
      e.readValue([&](ByteSpan s) { bh.consume(s); });
      ++cnt;
    }
    return cnt;
  }

  // Evacuation controls for the compaction bench: explicit relocation
  // passes, version-GC drain (removed values stay live until their chains
  // retire), and a write-quiescent barrier between churn waves.
  std::size_t compactNow() { return map_->compactNow(); }
  std::uint64_t collectVersionsNow() { return map_->collectVersionsNow(); }
  void quiesce() { map_->quiesce(); }

  // Durability controls for the recovery bench (no-ops when the config
  // carried no storageDir).
  bool durable() const noexcept { return map_->durable(); }
  std::uint64_t checkpointNow() { return map_->checkpointNow(); }
  void syncWal() { map_->syncWal(); }
  std::uint64_t recoveryReplayedRecords() const { return map_->recoveryReplayedRecords(); }
  std::uint64_t recoveryMillis() const { return map_->recoveryMillis(); }

  mheap::GcStats gcStats() const { return heap_->stats(); }
  /// Full internal-counter snapshot for the metrics line the driver emits.
  obs::Metrics metrics() const { return map_->stats(); }
  std::size_t offHeapFootprint() const { return map_->offHeapFootprintBytes(); }
  std::size_t finalSize() { return map_->sizeSlow(); }

  /// ChunkWalker structural audit; returns the number of problems found
  /// (the bench-smoke harness fails on non-zero).  Callers must quiesce
  /// the map first — the driver runs this after joining its workers.
  std::size_t validateStructure() {
    // Let queued background rebalances finish so the walk sees a settled
    // structure (walker handles mid-rebalance states too, but a drained
    // map makes validation failures deterministic).
    map_->drainMaintenance();
    const auto reports = ChunkWalker<BytesComparator>::validateShards(*map_);
    std::size_t problems = 0;
    for (const auto& rep : reports) {
      problems += rep.problems.size();
      for (const std::string& p : rep.problems) {
        std::fprintf(stderr, "bench validate: %s\n", p.c_str());
      }
    }
    return problems;
  }

 private:
  bool copyApi_;
  std::unique_ptr<mheap::ManagedHeap> heap_;
  std::unique_ptr<mem::BlockPool> pool_;
  std::unique_ptr<ShardedOakCoreMap<>> map_;
};

// -------------------------------------------------------- SkipList-OnHeap
class OnHeapAdapter {
 public:
  static constexpr const char* kName = "SkipList-OnHeap";

  explicit OnHeapAdapter(const BenchConfig& cfg) {
    const RamSplit split = splitRam(cfg, false);
    heap_ = std::make_unique<mheap::ManagedHeap>(heapConfig(split.heapBytes));
    map_ = std::make_unique<bl::OnHeapSkipListMap>(*heap_);
  }

  const char* name() const { return kName; }

  bool ingest(ByteSpan key, ByteSpan value) { return map_->putIfAbsent(key, value); }
  void put(ByteSpan key, ByteSpan value) { map_->put(key, value); }
  bool remove(ByteSpan key) { return map_->remove(key); }

  bool get(ByteSpan key, Blackhole& bh) {
    // JDK semantics: a reference to the live object, no copy.
    const auto* v = map_->getRef(key);
    if (v == nullptr) return false;
    bh.consume({v->data(), v->size()});
    return true;
  }

  void compute(ByteSpan key) {
    // Non-atomic in-place update, as the paper runs merge for Fig. 4b.
    map_->mutateInPlace(key, [](MutByteSpan v) {
      storeUnaligned(v.data(), loadUnaligned<std::uint64_t>(v.data()) + 1);
    });
  }

  std::size_t scanAsc(ByteSpan from, std::size_t n, Blackhole& bh, bool) {
    return map_->scanAscend(from, n, [&](bl::OnHeapSkipListMap::Entry e) {
      bh.consume(e.key);
      bh.consume(e.value);
    });
  }

  std::size_t scanDesc(ByteSpan from, std::size_t n, Blackhole& bh, bool) {
    return map_->scanDescend(from, n, [&](bl::OnHeapSkipListMap::Entry e) {
      bh.consume(e.key);
      bh.consume(e.value);
    });
  }

  mheap::GcStats gcStats() const { return heap_->stats(); }
  obs::Metrics metrics() const {
    obs::Metrics m;
    m.gc = heap_->stats();
    return m;
  }
  std::size_t offHeapFootprint() const { return 0; }
  std::size_t finalSize() { return map_->sizeApprox(); }

 private:
  std::unique_ptr<mheap::ManagedHeap> heap_;
  std::unique_ptr<bl::OnHeapSkipListMap> map_;
};

// ------------------------------------------------------- SkipList-OffHeap
class OffHeapAdapter {
 public:
  static constexpr const char* kName = "SkipList-OffHeap";

  explicit OffHeapAdapter(const BenchConfig& cfg) {
    const RamSplit split = splitRam(cfg, true);
    heap_ = std::make_unique<mheap::ManagedHeap>(heapConfig(split.heapBytes));
    pool_ = std::make_unique<mem::BlockPool>(mem::BlockPool::Config{
        .blockBytes = 8u << 20,
        .budgetBytes = split.offHeapBytes,
        .storageDir = {}});
    map_ = std::make_unique<bl::OffHeapSkipListMap>(*heap_, *pool_);
  }

  const char* name() const { return kName; }

  bool ingest(ByteSpan key, ByteSpan value) { return map_->putIfAbsent(key, value); }
  void put(ByteSpan key, ByteSpan value) { map_->put(key, value); }
  bool remove(ByteSpan key) { return map_->remove(key); }

  bool get(ByteSpan key, Blackhole& bh) {
    return map_->get(key, [&](ByteSpan s) { bh.consume(s); });
  }

  void compute(ByteSpan key) {
    // Non-atomic in-place update, as the paper runs merge for Fig. 4b.
    map_->mutateInPlace(key, [](MutByteSpan v) {
      storeUnaligned(v.data(), loadUnaligned<std::uint64_t>(v.data()) + 1);
    });
  }

  std::size_t scanAsc(ByteSpan from, std::size_t n, Blackhole& bh, bool) {
    return map_->scanAscend(from, n, [&](bl::OffHeapSkipListMap::Entry e) {
      bh.consume(e.key);
      bh.consume(e.value);
    });
  }

  std::size_t scanDesc(ByteSpan from, std::size_t n, Blackhole& bh, bool) {
    return map_->scanDescend(from, n, [&](bl::OffHeapSkipListMap::Entry e) {
      bh.consume(e.key);
      bh.consume(e.value);
    });
  }

  mheap::GcStats gcStats() const { return heap_->stats(); }
  obs::Metrics metrics() const {
    obs::Metrics m;
    m.gc = heap_->stats();
    m.alloc = map_->allocStats();
    return m;
  }
  std::size_t offHeapFootprint() const { return map_->offHeapFootprintBytes(); }
  std::size_t finalSize() { return map_->sizeApprox(); }

 private:
  std::unique_ptr<mheap::ManagedHeap> heap_;
  std::unique_ptr<mem::BlockPool> pool_;
  std::unique_ptr<bl::OffHeapSkipListMap> map_;
};

}  // namespace oak::bench
