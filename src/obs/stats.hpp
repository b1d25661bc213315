// Sharded low-overhead statistics substrate (observability core).
//
// Every OakCoreMap owns a StatsRegistry: an array of cache-line-padded
// per-thread shards indexed by ThreadRegistry::id().  Writers touch only
// their own shard — plain load+store increments, no RMW, no contention —
// and readers aggregate all shards into a consistent-enough snapshot
// (counters are monotone, so a racy sum is always between the start and
// end state of the scan).
//
// Latencies use log2-scaled histograms (bucket b covers [2^(b-1), 2^b) ns)
// and are *sampled*: one operation in kSampleEvery is timed with a pair of
// steady_clock reads, the rest pay only the shard counter bump.  This keeps
// the enabled-build overhead of even ~100 ns operations well under the 5%
// contract (see DESIGN.md, "Observability").
//
// The whole layer is compile-time removable: build with -DOAK_STATS=0 and
// every member below collapses to an empty inline no-op, leaving zero code
// and zero storage in the instrumented call sites.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_registry.hpp"

#ifndef OAK_STATS
#define OAK_STATS 1
#endif

namespace oak::obs {

/// Instrumented operation kinds (op-level counters + latency histograms).
enum class Op : std::uint32_t {
  Get = 0,
  GetCopy,
  Put,
  PutIfAbsent,
  PutIfAbsentCompute,
  Compute,
  Remove,
  ScanNext,  ///< one per entry an iterator yields (count-only in practice)
  kCount
};
inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

inline const char* opName(Op op) noexcept {
  switch (op) {
    case Op::Get: return "get";
    case Op::GetCopy: return "get_copy";
    case Op::Put: return "put";
    case Op::PutIfAbsent: return "put_if_absent";
    case Op::PutIfAbsentCompute: return "put_if_absent_compute";
    case Op::Compute: return "compute_if_present";
    case Op::Remove: return "remove";
    case Op::ScanNext: return "scan_next";
    case Op::kCount: break;
  }
  return "?";
}

/// Structural event counters (not latency-tracked).
enum class Counter : std::uint32_t {
  ChunkSplit = 0,     ///< rebalance produced more chunks than it engaged
  ChunkMerge,         ///< rebalance engaged the successor chunk
  OpRetries,          ///< tryPut/tryCompute attempts retried after an OOM
  ResourceExhausted,  ///< tryPut/tryCompute gave up: Status::ResourceExhausted
  MaintQueued,        ///< rebalance requests handed to the maintenance service
  MaintExecuted,      ///< background rebalances a worker actually performed
  MaintInlineFallback,///< queue-full (or blocking) requests run inline instead
  ShardSplit,         ///< online shard split published a new layout
  ShardMerge,         ///< online shard merge retired a boundary
  ShardMgmtFailed,    ///< shard split/merge rolled back on OOM (layout unchanged)
  SnapshotOpened,     ///< snapshot scans that pinned a fresh read version
  VersionsRetired,    ///< chain nodes + tombstones reclaimed by version GC
  EvacuationRuns,     ///< compactNow() passes (triggered or explicit)
  ArenasEvacuated,    ///< arenas emptied by relocation and returned to the pool
  SlicesRelocated,    ///< key / payload / version-node slices moved
  BytesRelocated,     ///< bytes copied by the relocator
  kCount
};
inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

inline const char* counterName(Counter c) noexcept {
  switch (c) {
    case Counter::ChunkSplit: return "chunk_split";
    case Counter::ChunkMerge: return "chunk_merge";
    case Counter::OpRetries: return "op_retries";
    case Counter::ResourceExhausted: return "resource_exhausted";
    case Counter::MaintQueued: return "maint_queued";
    case Counter::MaintExecuted: return "maint_executed";
    case Counter::MaintInlineFallback: return "maint_inline_fallback";
    case Counter::ShardSplit: return "shard_split";
    case Counter::ShardMerge: return "shard_merge";
    case Counter::ShardMgmtFailed: return "shard_mgmt_failed";
    case Counter::SnapshotOpened: return "snapshot_opened";
    case Counter::VersionsRetired: return "versions_retired";
    case Counter::EvacuationRuns: return "evacuation_runs";
    case Counter::ArenasEvacuated: return "arenas_evacuated";
    case Counter::SlicesRelocated: return "slices_relocated";
    case Counter::BytesRelocated: return "bytes_relocated";
    case Counter::kCount: break;
  }
  return "?";
}

/// log2 histogram geometry: bucket b holds samples with bit_width(ns) == b,
/// i.e. [2^(b-1), 2^b).  40 buckets cover up to ~9 minutes.
inline constexpr std::size_t kHistBuckets = 40;
/// One operation in kSampleEvery is wall-clock timed.
inline constexpr std::uint64_t kSampleEvery = 16;

inline std::size_t bucketFor(std::uint64_t nanos) noexcept {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(nanos));
  return b < kHistBuckets ? b : kHistBuckets - 1;
}
/// Representative latency of a bucket (geometric midpoint of its range).
inline double bucketNanos(std::size_t b) noexcept {
  if (b == 0) return 0.0;
  return 0.75 * static_cast<double>(std::uint64_t{1} << b);
}

// ------------------------------------------------------------- snapshots
/// Aggregated per-op view (sum over shards).  Always available — with
/// OAK_STATS=0 it is simply all-zero.
struct OpSnapshot {
  std::uint64_t count = 0;    ///< operations observed
  std::uint64_t sampled = 0;  ///< operations that were latency-timed
  std::array<std::uint64_t, kHistBuckets> buckets{};

  /// Percentile estimate from the sampled histogram, in nanoseconds.
  /// p in [0,1]; returns 0 when nothing was sampled.
  double percentileNanos(double p) const noexcept {
    if (sampled == 0) return 0.0;
    const double target = p * static_cast<double>(sampled);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      cum += buckets[b];
      if (static_cast<double>(cum) >= target && cum > 0) return bucketNanos(b);
    }
    return bucketNanos(kHistBuckets - 1);
  }
  double maxNanos() const noexcept {
    for (std::size_t b = kHistBuckets; b-- > 0;) {
      if (buckets[b] != 0) return bucketNanos(b);
    }
    return 0.0;
  }
};

struct RegistrySnapshot {
  std::array<OpSnapshot, kOpCount> ops{};
  std::array<std::uint64_t, kCounterCount> counters{};

  const OpSnapshot& op(Op o) const noexcept {
    return ops[static_cast<std::size_t>(o)];
  }
  std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }

  /// Accumulates another snapshot (whole-map view over per-shard registries).
  void merge(const RegistrySnapshot& o) noexcept {
    for (std::size_t i = 0; i < kOpCount; ++i) {
      ops[i].count += o.ops[i].count;
      ops[i].sampled += o.ops[i].sampled;
      for (std::size_t b = 0; b < kHistBuckets; ++b) {
        ops[i].buckets[b] += o.ops[i].buckets[b];
      }
    }
    for (std::size_t c = 0; c < kCounterCount; ++c) counters[c] += o.counters[c];
  }
};

/// Allocator gauges (MemoryManager::stats()).  Lives here rather than in
/// mem/ so the mem layer needs no extra header and the exporter sees one
/// vocabulary.
/// One size class's cached-slice occupancy (magazines + global stack).
struct MagClassStats {
  std::uint32_t classBytes = 0;
  std::uint64_t cachedSlices = 0;
};

struct AllocStats {
  std::size_t footprintBytes = 0;   ///< whole arenas owned by the instance
  std::size_t allocatedBytes = 0;   ///< bytes handed out and not yet freed
  std::size_t fragmentedBytes = 0;  ///< footprint - allocated (slack + free list)
  std::uint64_t allocCount = 0;     ///< cumulative allocations
  std::uint64_t freeCount = 0;      ///< cumulative frees
  std::uint64_t freedBytes = 0;     ///< cumulative bytes returned
  std::uint64_t freeListLength = 0; ///< current free-list segments

  // Evacuation gauges (relocatable-slice compaction, DESIGN.md §13).
  std::uint64_t arenaBlocks = 0;      ///< arenas currently owned
  std::uint64_t pinnedBlocks = 0;     ///< pinned-domain arenas (value headers)
  std::uint64_t evacuatingBlocks = 0; ///< arenas mid-evacuation

  // Size-class magazine layer (zero when disabled).
  std::uint64_t magHits = 0;        ///< allocations served from a magazine
  std::uint64_t magGlobalHits = 0;  ///< served from a global class stack
  std::uint64_t magMisses = 0;      ///< eligible sizes that hit first-fit
  std::uint64_t magFlushes = 0;     ///< magazine-overflow flush batches
  std::uint64_t magDrains = 0;      ///< thread-exit / emergency drains
  std::uint64_t magCachedSlices = 0;///< slices currently cached
  std::size_t magCachedBytes = 0;   ///< bytes currently cached
  std::vector<MagClassStats> magClasses;  ///< per-class occupancy (non-empty)

  /// Hit rate over magazine-eligible allocations, in [0,1].
  double magHitRate() const noexcept {
    const std::uint64_t hits = magHits + magGlobalHits;
    const std::uint64_t total = hits + magMisses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// Accumulates another arena's gauges (whole-map view over shard arenas).
  void merge(const AllocStats& o) {
    footprintBytes += o.footprintBytes;
    allocatedBytes += o.allocatedBytes;
    fragmentedBytes += o.fragmentedBytes;
    allocCount += o.allocCount;
    freeCount += o.freeCount;
    freedBytes += o.freedBytes;
    freeListLength += o.freeListLength;
    arenaBlocks += o.arenaBlocks;
    pinnedBlocks += o.pinnedBlocks;
    evacuatingBlocks += o.evacuatingBlocks;
    magHits += o.magHits;
    magGlobalHits += o.magGlobalHits;
    magMisses += o.magMisses;
    magFlushes += o.magFlushes;
    magDrains += o.magDrains;
    magCachedSlices += o.magCachedSlices;
    magCachedBytes += o.magCachedBytes;
    for (const MagClassStats& c : o.magClasses) {
      bool found = false;
      for (MagClassStats& mine : magClasses) {
        if (mine.classBytes == c.classBytes) {
          mine.cachedSlices += c.cachedSlices;
          found = true;
          break;
        }
      }
      if (!found) magClasses.push_back(c);
    }
  }
};

/// EBR gauges.
struct EbrStats {
  std::uint64_t epochLag = 0;  ///< global epoch minus oldest pinned epoch
  std::uint64_t retired = 0;   ///< nodes awaiting reclamation

  /// Whole-map view over per-shard EBR domains: the worst straggler lag,
  /// the total retired backlog.
  void merge(const EbrStats& o) noexcept {
    if (o.epochLag > epochLag) epochLag = o.epochLag;
    retired += o.retired;
  }
};

// ======================================================= enabled build ==
#if OAK_STATS

/// Per-map sharded counter/histogram store.  ~2.7 KB per shard; shards are
/// heap-allocated once per map instance.
class StatsRegistry {
  struct OpCell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sampled{0};
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  };
  struct alignas(64) Shard {
    std::array<OpCell, kOpCount> ops{};
    std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
  };

  /// Single-writer increment: each shard is written only by the one live
  /// thread owning that ThreadRegistry id, so a plain load+store pair is
  /// race-free and avoids the locked RMW an fetch_add would cost.
  static void bump(std::atomic<std::uint64_t>& c, std::uint64_t d = 1) noexcept {
    c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }

 public:
  StatsRegistry() : shards_(new Shard[kMaxThreads]) {}

  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Count `n` occurrences of `op` (no latency sample).
  void add(Op op, std::uint64_t n = 1) noexcept {
    bump(cell(op).count, n);
  }

  /// Counts one occurrence and reports whether this one should be timed.
  bool countAndSample(Op op) noexcept {
    OpCell& c = cell(op);
    const std::uint64_t prior = c.count.load(std::memory_order_relaxed);
    c.count.store(prior + 1, std::memory_order_relaxed);
    return (prior % kSampleEvery) == 0;
  }

  /// Records one timed sample for `op`.
  void recordLatency(Op op, std::uint64_t nanos) noexcept {
    OpCell& c = cell(op);
    bump(c.sampled);
    bump(c.buckets[bucketFor(nanos)]);
  }

  void incCounter(Counter which, std::uint64_t n = 1) noexcept {
    bump(shard().counters[static_cast<std::size_t>(which)], n);
  }

  /// Sums all shards.  O(kMaxThreads * kOpCount * kHistBuckets); intended
  /// for periodic export, not per-op paths.
  RegistrySnapshot snapshot() const {
    RegistrySnapshot s;
    for (std::uint32_t t = 0; t < kMaxThreads; ++t) {
      const Shard& sh = shards_[t];
      for (std::size_t o = 0; o < kOpCount; ++o) {
        OpSnapshot& dst = s.ops[o];
        const OpCell& src = sh.ops[o];
        dst.count += src.count.load(std::memory_order_relaxed);
        dst.sampled += src.sampled.load(std::memory_order_relaxed);
        for (std::size_t b = 0; b < kHistBuckets; ++b) {
          dst.buckets[b] += src.buckets[b].load(std::memory_order_relaxed);
        }
      }
      for (std::size_t c = 0; c < kCounterCount; ++c) {
        s.counters[c] += sh.counters[c].load(std::memory_order_relaxed);
      }
    }
    return s;
  }

  static constexpr bool compiled() noexcept { return true; }

 private:
  Shard& shard() noexcept { return shards_[ThreadRegistry::id()]; }
  OpCell& cell(Op op) noexcept {
    return shard().ops[static_cast<std::size_t>(op)];
  }

  std::unique_ptr<Shard[]> shards_;
};

/// RAII op probe: counts on construction, times a 1-in-kSampleEvery sample.
class OpTimer {
 public:
  OpTimer(StatsRegistry& r, Op op) noexcept : reg_(&r), op_(op) {
    if (r.countAndSample(op)) {
      t0_ = std::chrono::steady_clock::now();
      timed_ = true;
    }
  }
  ~OpTimer() {
    if (timed_) {
      const auto dt = std::chrono::steady_clock::now() - t0_;
      reg_->recordLatency(
          op_, static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
    }
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  StatsRegistry* reg_;
  Op op_;
  std::chrono::steady_clock::time_point t0_{};
  bool timed_ = false;
};

// ====================================================== disabled build ==
#else  // OAK_STATS == 0: zero storage, zero code.

class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  void add(Op, std::uint64_t = 1) noexcept {}
  bool countAndSample(Op) noexcept { return false; }
  void recordLatency(Op, std::uint64_t) noexcept {}
  void incCounter(Counter, std::uint64_t = 1) noexcept {}
  RegistrySnapshot snapshot() const { return {}; }
  static constexpr bool compiled() noexcept { return false; }
};

class OpTimer {
 public:
  OpTimer(StatsRegistry&, Op) noexcept {}
};

#endif  // OAK_STATS

}  // namespace oak::obs
