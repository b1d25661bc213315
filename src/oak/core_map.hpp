// OakCoreMap — the concurrent algorithm of §4, over serialized (byte) keys
// and values: the in-memory engine behind every shard.  The one typed map
// (oak/map.hpp) wraps ShardedOakCoreMap (oak/sharded_map.hpp), which runs one
// OakCoreMap per shard and owns routing and durability; Druid (§6) and the
// micro-benchmarks drive this core directly, always in memory.
//
// Metadata layout (§3.1, Figure 1):
//   * a lazy skiplist index: minKey -> chunk (on the simulated managed heap)
//   * a linked list of chunks; each chunk holds entries referring to
//     off-heap keys and value cells
//   * retired chunks forward through rebalancedTo and are reclaimed via EBR
//
// Operations implement Algorithms 1-3 with the paper's linearization points
// (§4.5); scans provide the paper's non-atomic guarantees (§4.2).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/checked.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/mutex.hpp"
#include "common/spin.hpp"
#include "dur/wal.hpp"
#include "maint/maintenance.hpp"
#include "mem/memory_manager.hpp"
#include "mheap/managed_heap.hpp"
#include "oak/buffer.hpp"
#include "oak/chunk.hpp"
#include "oak/scan_options.hpp"
#include "oak/serializer.hpp"
#include "oak/snapshot.hpp"
#include "oak/value.hpp"
#include "obs/metrics.hpp"
#include "skiplist/skiplist.hpp"
#include "sync/ebr.hpp"

namespace oak {

/// Memory knob group nested inside OakConfig.  All setters are fluent.
struct MemConfig {
  mheap::ManagedHeap* metaHeap = nullptr;  ///< on-heap metadata; default: unlimited
  mem::BlockPool* pool = nullptr;          ///< off-heap arena pool; default: global
  /// Value-header reclamation (§3.3): the paper's evaluated default keeps
  /// headers immortal; Generational recycles them through a versioned pool.
  ValueReclaim reclaim = ValueReclaim::KeepHeaders;
  /// Bytes withheld from the arena as an emergency reserve for the
  /// non-throwing tryPut/tryCompute degraded path (0 = no reserve).  See
  /// DESIGN.md "Failure model & degraded operation" for sizing guidance.
  std::size_t emergencyReserveBytes = 0;
  /// Size-class magazine layer for this instance's allocator.  Unset defers
  /// to the allocator's process-wide default (on unless a benchmark turned
  /// it off with FirstFitAllocator::setMagazinesDefaultEnabled).
  std::optional<bool> magazines;
  /// Background arena evacuation (slice relocation + compaction); opt-in,
  /// and compactNow() always works regardless.
  bool compaction = false;
  /// Occupancy threshold for victim selection: an arena whose live bytes
  /// are at or below this fraction of the block is evacuation-eligible.
  double compactionOccupancy = 0.25;
  /// Storage directory for durability (DESIGN.md §12), read only by the
  /// map front end (ShardedOakCoreMap); a bare OakCoreMap ignores it.
  /// Non-empty → the map is durable: file-backed arenas under <dir>/arenas,
  /// a WAL, checkpoints and crash recovery in <dir>.  One map per
  /// directory.  Empty (default) → in-memory.
  std::string storageDir;

  MemConfig& withMetaHeap(mheap::ManagedHeap* h) { metaHeap = h; return *this; }
  MemConfig& withPool(mem::BlockPool* p) { pool = p; return *this; }
  MemConfig& withReclaim(ValueReclaim r) { reclaim = r; return *this; }
  MemConfig& withEmergencyReserve(std::size_t bytes) {
    emergencyReserveBytes = bytes;
    return *this;
  }
  MemConfig& withMagazines(bool on) { magazines = on; return *this; }
  MemConfig& withCompaction(bool on) { compaction = on; return *this; }
  MemConfig& withCompactionOccupancy(double frac) {
    compactionOccupancy = frac;
    return *this;
  }
  MemConfig& withStorageDir(std::string dir) {
    storageDir = std::move(dir);
    return *this;
  }
};

/// Durability knob group nested inside OakConfig (read by the map front end,
/// active only when a storage directory is configured — see
/// MemConfig::storageDir).
struct DurConfig {
  /// WAL fsync policy.
  dur::FsyncPolicy fsyncPolicy = dur::FsyncPolicy::Interval;
  /// Interval policy's window: at most one fdatasync per this many ms.
  std::uint32_t fsyncIntervalMs = 50;
  /// WAL bytes that trigger an automatic checkpoint.
  std::size_t walBytes = 64u << 20;

  DurConfig& withFsyncPolicy(dur::FsyncPolicy p) { fsyncPolicy = p; return *this; }
  DurConfig& withFsyncIntervalMs(std::uint32_t ms) { fsyncIntervalMs = ms; return *this; }
  DurConfig& withWalBytes(std::size_t b) { walBytes = b; return *this; }
};

/// Map configuration: structure knobs at the top level, memory and
/// maintenance grouped into nested configs, all composable through fluent
/// setters:
///
///   auto cfg = OakConfig{}
///                  .withChunkCapacity(256)
///                  .withMem(MemConfig{}.withMetaHeap(&heap).withPool(&pool))
///                  .withMaintenance(MaintenanceConfig{}.withThreads(2));
///
/// Every knob resolves as explicit config > compiled default; no knob reads
/// the environment.  The effective*() accessors report the resolved values.
struct OakConfig {
  std::int32_t chunkCapacity = 2048;    ///< paper: 4K entries per chunk
  double maxUnsortedRatio = 0.5;        ///< rebalance when bypasses exceed this
  std::size_t ephemeralViewBytes = 48;  ///< modelled size of a Java buffer view

  /// Memory knobs (arena, managed heap, reclamation, magazines, storage).
  MemConfig mem;
  /// Durability knobs (WAL fsync policy, checkpoint trigger), read by the
  /// map front end; only meaningful when mem.storageDir is set.
  DurConfig dur;
  /// Background maintenance pool + online shard management thresholds
  /// (maint/maintenance.hpp).  Default: no workers — rebalance runs inline
  /// on the mutator, exactly the paper's (and the seed's) behavior.
  maint::MaintenanceConfig maintenance;

  // ---- effective values ------------------------------------------------
  ValueReclaim effectiveReclaim() const noexcept { return mem.reclaim; }
  std::size_t effectiveEmergencyReserve() const noexcept {
    return mem.emergencyReserveBytes;
  }
  bool effectiveMagazines() const noexcept {
    return mem.magazines.value_or(mem::FirstFitAllocator::magazinesDefaultEnabled());
  }
  bool effectiveCompaction() const noexcept { return mem.compaction; }
  dur::FsyncPolicy effectiveFsyncPolicy() const noexcept { return dur.fsyncPolicy; }
  std::size_t effectiveWalBytes() const noexcept { return dur.walBytes; }

  // ---- fluent setters --------------------------------------------------
  OakConfig& withChunkCapacity(std::int32_t c) { chunkCapacity = c; return *this; }
  OakConfig& withMaxUnsortedRatio(double r) { maxUnsortedRatio = r; return *this; }
  OakConfig& withEphemeralViewBytes(std::size_t b) {
    ephemeralViewBytes = b;
    return *this;
  }
  OakConfig& withMem(MemConfig m) { mem = std::move(m); return *this; }
  OakConfig& withDur(DurConfig d) { dur = std::move(d); return *this; }
  /// Convenience: durability in one call (same as mem.withStorageDir).
  OakConfig& withStorageDir(std::string dir) {
    mem.storageDir = std::move(dir);
    return *this;
  }
  OakConfig& withMaintenance(maint::MaintenanceConfig m) {
    maintenance = std::move(m);
    return *this;
  }
};

template <class Compare = BytesComparator>
class OakCoreMap {
  using ChunkT = detail::Chunk<Compare>;

  struct IndexCmp {
    Compare c;
    int operator()(const ByteVec& a, ByteSpan b) const noexcept {
      return c(asBytes(a), b);
    }
    int operator()(const ByteVec& a, const ByteVec& b) const noexcept {
      return c(asBytes(a), asBytes(b));
    }
  };
  using Index = sl::SkipList<ByteVec, ChunkT*, IndexCmp>;

 public:
  /// A bare core owns its maintenance pool (when cfg.maintenance.threads >
  /// 0) and a private snapshot domain.  ShardedOakCoreMap passes its shared
  /// `service` (null when it runs no workers) and `domain` to every shard,
  /// so all shards run jobs on one pool and a merged cross-shard scan pins
  /// one version.
  explicit OakCoreMap(OakConfig cfg = OakConfig{}, Compare cmp = Compare{})
      : OakCoreMap(std::move(cfg), cmp, nullptr, nullptr) {}
  OakCoreMap(OakConfig cfg, Compare cmp, maint::MaintenanceService* service,
             SnapshotDomain& domain)
      : OakCoreMap(std::move(cfg), cmp, service, &domain) {}

 private:
  OakCoreMap(OakConfig cfg, Compare cmp, maint::MaintenanceService* service,
             SnapshotDomain* domain)
      : cfg_(std::move(cfg)),
        cmp_(cmp),
        metaHeap_(cfg_.mem.metaHeap != nullptr ? *cfg_.mem.metaHeap
                                               : mheap::ManagedHeap::unlimited()),
        pool_(cfg_.mem.pool != nullptr ? *cfg_.mem.pool : mem::BlockPool::global()),
        mm_(pool_, static_cast<std::uint32_t>(cfg_.effectiveEmergencyReserve())),
        indexMem_(metaHeap_),
        index_(IndexCmp{cmp}, indexMem_) {
    // OakSan: chunk metadata (and the off-heap keys it references) is
    // reclaimed through ebr_, so key reads must happen under its guards.
    mm_.bindGuardDomain(&ebr_);
    // The magazine switch must land before the arena's first allocation.
    if (cfg_.mem.magazines.has_value()) {
      mm_.allocator().setMagazinesEnabled(*cfg_.mem.magazines);
    }
    if (cfg_.effectiveReclaim() == ValueReclaim::Generational) headerPool_.emplace(mm_);
    ChunkT* head = ChunkT::make(metaHeap_, mm_, cmp_, ByteVec{}, cfg_.chunkCapacity);
    head_.store(head, std::memory_order_release);
    index_.put(ByteVec{}, head);
    chunkCount_.store(1, std::memory_order_relaxed);
    if (domain == nullptr) {
      // Bare core: own the pool the config asks for, and a private domain.
      if (cfg_.maintenance.threads > 0) {
        ownedSvc_ = std::make_unique<maint::MaintenanceService>(
            cfg_.maintenance.threads, cfg_.maintenance.rateLimitBytesPerSec,
            cfg_.maintenance.queueDepth);
        service = ownedSvc_.get();
      }
      ownedSnapDomain_ = std::make_unique<SnapshotDomain>();
      domain = ownedSnapDomain_.get();
    }
    maintSvc_ = service;
    snapDomain_ = domain;
    snapCtx_ = detail::SnapCtx{snapDomain_, this, &OakCoreMap::vgcFeedThunk};
  }

 public:
  ~OakCoreMap() {
    // First cut the maintenance service loose: cancel queued jobs naming
    // this map and wait out in-flight ones — after detach no worker can
    // touch the chunks we are about to free.
    if (maintSvc_ != nullptr) maintSvc_->detach(this);
    // Quiescent teardown: reclaim chunks (live chain + retired) directly.
    ebr_.drainAll();
    ChunkT* c = head_.load(std::memory_order_relaxed);
    while (c != nullptr) {
      ChunkT* n = c->nextChunk().load(std::memory_order_relaxed);
      ChunkT::dispose(metaHeap_, c);
      c = n;
    }
  }

  OakCoreMap(const OakCoreMap&) = delete;
  OakCoreMap& operator=(const OakCoreMap&) = delete;

  // ============================================================== queries
  /// Algorithm 1.  Returns a zero-copy read view, or nullopt.
  std::optional<OakRBuffer> get(ByteSpan key) {
    obs::OpTimer t(stats_, obs::Op::Get);
    sync::Ebr::Guard g(ebr_);
    const std::uint64_t v = findValueRef(key);
    if (v == 0) return std::nullopt;
    detail::ValueCell cell(mm_, detail::VRef{v});
    // The no-op read validates liveness (deleted/tombstone/stale) under the
    // read lock and help-stamps a pending value, so any snapshot opened
    // after this get returns observes the value too (value.hpp helpStamp).
    if (!cell.read([](ByteSpan) {}, &snapCtx_)) return std::nullopt;
    metaHeap_.ephemeralObject(cfg_.ephemeralViewBytes);
    return OakRBuffer::forValue(cell);
  }

  /// Legacy-API get: deserializing copy (Oak-Copy in §5).  The copy itself
  /// is charged to the managed heap like the Java object it stands for.
  std::optional<ByteVec> getCopy(ByteSpan key) {
    obs::OpTimer t(stats_, obs::Op::GetCopy);
    std::optional<ByteVec> out = copyValue(key);
    if (out) metaHeap_.ephemeralObject(out->size() + cfg_.ephemeralViewBytes);
    return out;
  }

  /// getCopy without the op count and the managed-heap charge: for internal
  /// read-backs that are part of another operation (the front end's WAL
  /// record of a compute's post-image).
  std::optional<ByteVec> copyValue(ByteSpan key) {
    sync::Ebr::Guard g(ebr_);
    const std::uint64_t v = findValueRef(key);
    if (v == 0) return std::nullopt;
    std::optional<ByteVec> out;
    const bool ok = detail::ValueCell(mm_, detail::VRef{v})
                        .read([&](ByteSpan s) { out.emplace(s.begin(), s.end()); },
                              &snapCtx_);
    if (!ok) return std::nullopt;
    return out;
  }

  bool containsKey(ByteSpan key) {
    sync::Ebr::Guard g(ebr_);
    const std::uint64_t v = findValueRef(key);
    if (v == 0) return false;
    // Locked no-op read: tombstones report absent, pending values are
    // help-stamped (see get()).
    return detail::ValueCell(mm_, detail::VRef{v})
        .read([](ByteSpan) {}, &snapCtx_);
  }

  /// JDK replace(K,V): rewrites the value iff the key is present.  Atomic.
  /// Optionally copies the replaced bytes into *old (legacy-API semantics);
  /// the copy happens under the value's write lock, atomically with the
  /// overwrite.
  bool replace(ByteSpan key, ByteSpan value, ByteVec* old = nullptr) {
    return computeIfPresent(key, [&](OakWBuffer& w) {
      if (old != nullptr) {
        const ByteSpan s = w.span();
        old->assign(s.begin(), s.end());
      }
      w.resize(value.size());
      w.write(0, value);
    });
  }

  /// JDK replace(K,expected,new): conditional atomic swap on value bytes.
  bool replaceIf(ByteSpan key, ByteSpan expected, ByteSpan desired) {
    bool swapped = false;
    computeIfPresent(key, [&](OakWBuffer& w) {
      if (!bytesEqual(w.span(), expected)) return;
      w.resize(desired.size());
      w.write(0, desired);
      swapped = true;
    });
    return swapped;
  }

  // ============================================================== updates
  /// put (§4.3): unconditional; optionally copies the replaced value into
  /// *old (legacy-API semantics) — the copy happens atomically with the
  /// overwrite, under the value's write lock.  Returns true iff an existing
  /// live value was replaced (vs. a fresh insert).
  bool put(ByteSpan key, ByteSpan value, ByteVec* old = nullptr) {
    obs::OpTimer t(stats_, obs::Op::Put);
    bool replaced = false;
    doPut(key, value, nullptr, PutOp::Put, old, &replaced);
    maybeCollectVersions();
    maybeEvacuate();
    return replaced;
  }

  /// putIfAbsent (§4.3): true iff the key was absent and the value inserted.
  bool putIfAbsent(ByteSpan key, ByteSpan value) {
    obs::OpTimer t(stats_, obs::Op::PutIfAbsent);
    const bool ok = doPut(key, value, nullptr, PutOp::PutIfAbsent, nullptr, nullptr);
    maybeCollectVersions();
    maybeEvacuate();
    return ok;
  }

  /// putIfAbsentComputeIfPresent (§4.3): inserts `value` if absent,
  /// otherwise runs `func` on the existing value, atomically.
  template <class F>
  void putIfAbsentComputeIfPresent(ByteSpan key, ByteSpan value, F&& func) {
    obs::OpTimer t(stats_, obs::Op::PutIfAbsentCompute);
    ComputeFn fn = makeComputeFn(func);
    doPut(key, value, &fn, PutOp::PutIfAbsentComputeIfPresent, nullptr, nullptr);
    maybeCollectVersions();
    maybeEvacuate();
  }

  /// computeIfPresent (§4.4): true iff a live value existed and `func` ran.
  template <class F>
  bool computeIfPresent(ByteSpan key, F&& func) {
    obs::OpTimer t(stats_, obs::Op::Compute);
    ComputeFn fn = makeComputeFn(func);
    const bool ok = doIfPresent(key, &fn, IfPresentOp::Compute, nullptr);
    maybeCollectVersions();
    maybeEvacuate();
    return ok;
  }

  /// remove (§4.4); optionally copies the removed value.  Returns true iff
  /// this call removed a live mapping.
  bool remove(ByteSpan key, ByteVec* old = nullptr) {
    obs::OpTimer t(stats_, obs::Op::Remove);
    const bool ok = doIfPresent(key, nullptr, IfPresentOp::Remove, old);
    maybeCollectVersions();
    maybeEvacuate();
    return ok;
  }

  // ================================================== degraded operation
  /// Non-throwing put for callers that prefer a Status over OOM exceptions
  /// (DESIGN.md "Failure model & degraded operation").  Retries with an
  /// escalating reclamation ladder — epoch advancement, managed-heap
  /// collection, and finally the arena emergency reserve — before giving
  /// up.  Resource exhaustion is reported, never thrown; usage errors
  /// (empty key) still throw.
  Status tryPut(ByteSpan key, ByteSpan value) {
    return tryOp([&] { put(key, value); });
  }

  /// Non-throwing computeIfPresent.  `*computed` (if given) reports whether
  /// a live value existed and `func` ran.
  template <class F>
  Status tryCompute(ByteSpan key, F&& func, bool* computed = nullptr) {
    return tryOp([&] {
      const bool did = computeIfPresent(key, func);
      if (computed != nullptr) *computed = did;
    });
  }

  // ========================================================== scan support
  struct EntryView {
    ByteSpan key;  ///< valid while the iterator's epoch guard is held
    detail::ValueCell value;
    /// Non-zero on snapshot scans: the pinned read version.  Value reads
    /// must then go through readValue() so chained versions resolve.
    std::uint64_t snapshotVersion = 0;

    /// Reads the value as of the scan's view: the chain version at
    /// snapshotVersion for snapshot scans, the live payload otherwise.
    template <class F>
    bool readValue(F&& f) const {
      return snapshotVersion != 0
                 ? value.readAt(snapshotVersion, std::forward<F>(f))
                 : value.read(std::forward<F>(f));
    }
  };

 private:
  /// What the two scan directions share: the snapshot pin (taken BEFORE
  /// the epoch guard — a short mutex section must never block inside EBR),
  /// the guard itself, the current entry, liveness under the scan's view,
  /// and the ephemeral-object accounting of §2.2.  opts.stream reuses the
  /// caller-visible view object (paper's Stream API); Set-style scans charge
  /// a fresh view per returned entry.  opts.snapshotMode pins a read version
  /// V at construction (unless opts.snapshotVersion already names one): the
  /// scan then observes exactly the map state at V.
  class IterBase {
   public:
    bool valid() const noexcept { return chunk_ != nullptr; }

    /// The pinned read version (0 on non-snapshot scans).
    std::uint64_t snapshotVersion() const noexcept { return snapV_; }

    /// Current entry; call only while valid().
    EntryView entry() const {
      return EntryView{chunk_->keyAt(cur_),
                       detail::ValueCell(map_->mm_, detail::VRef{curVal_}),
                       snapV_};
    }

   protected:
    IterBase(OakCoreMap& m, const ScanOptions& opts)
        : map_(&m),
          snap_(opts.isSnapshot() && opts.snapshotVersion == 0
                    ? Snapshot(*m.snapDomain_)
                    : Snapshot{}),
          snapV_(!opts.isSnapshot()        ? 0
                 : opts.snapshotVersion != 0 ? opts.snapshotVersion
                                             : snap_.version()),
          guard_(m.ebr_),
          stream_(opts.stream) {
      if (snap_.valid()) m.stats_.incCounter(obs::Counter::SnapshotOpened);
      if (stream_) m.metaHeap_.ephemeralObject(m.cfg_.ephemeralViewBytes);
    }

    /// Liveness under the scan's view: at the pinned version for snapshot
    /// scans, the current instant otherwise.  Live scans must skip
    /// tombstones too: a removed key whose header is retained for older
    /// pinned versions is still absent *now*.
    bool entryLive(std::uint64_t v) const {
      detail::ValueCell cell(map_->mm_, detail::VRef{v});
      return snapV_ != 0 ? cell.visibleAt(snapV_)
                         : cell.livenessProbe() == detail::Liveness::Live;
    }

    /// Makes entry e (value ref v) current and charges its view.
    void yield(std::int32_t e, std::uint64_t v) {
      cur_ = e;
      curVal_ = v;
      if (!stream_) map_->metaHeap_.ephemeralObject(map_->cfg_.ephemeralViewBytes);
    }

    OakCoreMap* map_;
    Snapshot snap_;  ///< owned pin; empty when sharing the caller's pin
    std::uint64_t snapV_ = 0;
    sync::Ebr::Guard guard_;
    ChunkT* chunk_ = nullptr;
    std::int32_t cur_ = ChunkT::kNone;
    std::uint64_t curVal_ = 0;
    bool stream_;
  };

 public:
  /// Ascending iterator (§4.2).  Non-atomic; guarantees (1)-(3) of §4.2.
  /// opts.direction is ignored: the direction is this type.
  class AscendIter : public IterBase {
    using IterBase::chunk_;
    using IterBase::cur_;
    using IterBase::map_;

   public:
    AscendIter(OakCoreMap& m, std::optional<ByteVec> lo, std::optional<ByteVec> hi,
               ScanOptions opts)
        : IterBase(m, opts), hi_(std::move(hi)) {
      chunk_ = lo ? m.locateChunk(asBytes(*lo)) : m.firstChunk();
      cur_ = lo ? chunk_->lowerBound(asBytes(*lo)) : chunk_->headEntry();
      advanceToLive();
    }

    void next() {
      map_->stats_.add(obs::Op::ScanNext);
      cur_ = chunk_->entry(cur_).next.load(std::memory_order_acquire);
      advanceToLive();
    }

    /// Warm seek: repositions at the first key >= probe, reusing the
    /// current chunk when the probe falls inside it (skips the index floor
    /// query + list walk) and falling back to a cold locate otherwise.
    /// Identical post-state to a freshly constructed iterator at `probe`
    /// with the same options (oak_iterator_test cross-checks).
    void seek(ByteSpan probe) {
      ChunkT* c = chunk_;
      if (c != nullptr &&
          c->rebalancedTo().load(std::memory_order_acquire) == nullptr &&
          map_->cmp_(c->minKey(), probe) <= 0) {
        ChunkT* nx = c->nextChunk().load(std::memory_order_acquire);
        if (nx == nullptr || map_->cmp_(nx->minKey(), probe) > 0) {
          cur_ = c->lowerBound(probe);
          advanceToLive();
          return;
        }
      }
      chunk_ = map_->locateChunk(probe);
      cur_ = chunk_->lowerBound(probe);
      advanceToLive();
    }

   private:
    void advanceToLive() {
      for (;;) {
        while (cur_ == ChunkT::kNone) {
          ChunkT* nx = chunk_->nextChunk().load(std::memory_order_acquire);
          chunk_ = nx;
          if (chunk_ == nullptr) return;
          cur_ = chunk_->headEntry();
        }
        if (hi_ && map_->cmp_(chunk_->keyAt(cur_), asBytes(*hi_)) >= 0) {
          chunk_ = nullptr;  // passed the range end
          return;
        }
        const std::uint64_t v =
            chunk_->entry(cur_).valRef.load(std::memory_order_acquire);
        if (v != 0 && this->entryLive(v)) {
          // Pull the successor's cache lines while the caller consumes this
          // entry (chunk-chain software prefetch).
          const std::int32_t nx =
              chunk_->entry(cur_).next.load(std::memory_order_acquire);
          if (nx != ChunkT::kNone) chunk_->prefetchEntry(nx);
          this->yield(cur_, v);
          return;
        }
        cur_ = chunk_->entry(cur_).next.load(std::memory_order_acquire);
      }
    }

    std::optional<ByteVec> hi_;
  };

  /// Descending iterator (§4.2, Figure 2): walks each chunk's sorted prefix
  /// backwards, re-collecting the bypass runs onto a stack — no
  /// doubly-linked list and no per-key lookup.
  class DescendIter : public IterBase {
    using IterBase::chunk_;
    using IterBase::map_;

   public:
    DescendIter(OakCoreMap& m, std::optional<ByteVec> lo, std::optional<ByteVec> hi,
                ScanOptions opts)
        : IterBase(m, opts), lo_(std::move(lo)) {
      if (hi) {
        // hi is exclusive: start from the chunk containing keys < hi.
        chunk_ = m.locateChunk(asBytes(*hi));
        initChunk(asBytes(*hi), /*boundedAbove=*/true);
      } else {
        chunk_ = m.lastChunk();
        initChunk(ByteSpan{}, /*boundedAbove=*/false);
      }
      advanceToLive();
    }

    void next() {
      map_->stats_.add(obs::Op::ScanNext);
      advanceToLive();
    }

   private:
    /// Prepares the per-chunk descending state.
    void initChunk(ByteSpan upper, bool boundedAbove) {
      stack_.clear();
      boundary_ = ChunkT::kNone;
      if (chunk_ == nullptr) return;
      upper_.clear();
      bounded_ = boundedAbove;
      if (boundedAbove) upper_.assign(upper.begin(), upper.end());
      pp_ = boundedAbove ? prefixLower(upper) : (chunk_->sortedCount() - 1);
      fillBatch();
    }

    /// Greatest sorted-prefix index with key < probe, or kNone.
    std::int32_t prefixLower(ByteSpan probe) const noexcept {
      std::int32_t lo = 0, hi = chunk_->sortedCount(), ans = ChunkT::kNone;
      while (lo < hi) {
        const std::int32_t mid = lo + (hi - lo) / 2;
        if (map_->cmp_(chunk_->keyAt(mid), probe) < 0) {
          ans = mid;
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return ans;
    }

    /// Collects one bypass run [start .. boundary) onto the stack, bounded
    /// above by upper_ (when bounded_).  Then the boundary moves down.
    void fillBatch() {
      const std::int32_t start =
          (pp_ == ChunkT::kNone) ? chunk_->headEntry() : pp_;
      for (std::int32_t cur = start;
           cur != ChunkT::kNone && cur != boundary_;
           cur = chunk_->entry(cur).next.load(std::memory_order_acquire)) {
        if (bounded_ && map_->cmp_(chunk_->keyAt(cur), asBytes(upper_)) >= 0) break;
        stack_.push_back(cur);
      }
      // Only the first (topmost) batch can straddle the upper bound: every
      // later batch lies strictly below this batch's start key.
      bounded_ = false;
      boundary_ = start;
      exhausted_ = (pp_ == ChunkT::kNone);
      if (pp_ != ChunkT::kNone) --pp_;
    }

    void advanceToLive() {
      for (;;) {
        while (stack_.empty()) {
          if (exhausted_) {
            // Move to the chunk with the greatest minKey strictly below ours.
            chunk_ = map_->locatePrevChunk(chunk_->minKey());
            if (chunk_ == nullptr) return;
            initChunk(ByteSpan{}, /*boundedAbove=*/false);
            continue;
          }
          fillBatch();
        }
        const std::int32_t e = stack_.back();
        stack_.pop_back();
        if (lo_ && map_->cmp_(chunk_->keyAt(e), asBytes(*lo_)) < 0) {
          chunk_ = nullptr;  // passed the range start
          return;
        }
        const std::uint64_t v = chunk_->entry(e).valRef.load(std::memory_order_acquire);
        if (v == 0 || !this->entryLive(v)) continue;
        if (!stack_.empty()) chunk_->prefetchEntry(stack_.back());
        this->yield(e, v);
        return;
      }
    }

    std::vector<std::int32_t> stack_;
    std::int32_t pp_ = ChunkT::kNone;        // sorted-prefix cursor
    std::int32_t boundary_ = ChunkT::kNone;  // start of the previous batch
    bool exhausted_ = false;
    bool bounded_ = false;
    ByteVec upper_;
    std::optional<ByteVec> lo_;
  };

  // GCC 12 falsely flags the moved-from optionals below as
  // maybe-uninitialized when these calls are inlined (GCC bug 105562-style
  // std::optional false positive); the moves are well-defined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  AscendIter ascend(std::optional<ByteVec> lo = std::nullopt,
                    std::optional<ByteVec> hi = std::nullopt,
                    ScanOptions opts = {}) {
    return AscendIter(*this, std::move(lo), std::move(hi), opts);
  }
  DescendIter descend(std::optional<ByteVec> lo = std::nullopt,
                      std::optional<ByteVec> hi = std::nullopt,
                      ScanOptions opts = {}) {
    return DescendIter(*this, std::move(lo), std::move(hi), opts);
  }
#pragma GCC diagnostic pop

  // =============================================================== stats
  std::size_t sizeSlow() {
    std::size_t n = 0;
    for (auto it = ascend(); it.valid(); it.next()) ++n;
    return n;
  }
  std::size_t offHeapFootprintBytes() const noexcept { return mm_.footprintBytes(); }
  std::size_t offHeapAllocatedBytes() const noexcept { return mm_.allocatedBytes(); }
  std::size_t chunkCount() const noexcept {
    return chunkCount_.load(std::memory_order_relaxed);
  }
  std::size_t onHeapMetadataBytes() const noexcept {
    // chunks + (approximate) index nodes.  The chain walk must be guarded:
    // a concurrent rebalance may retire chunks out from under it (found by
    // the OakSan guard-domain assertion).
    sync::Ebr::Guard g(ebr_);
    std::size_t chunks = 0;
    for (ChunkT* c = head_.load(std::memory_order_acquire); c != nullptr;
         c = c->nextChunk().load(std::memory_order_acquire)) {
      chunks += c->footprintBytes();
    }
    return chunks + index_.sizeApprox() * 64;
  }
  std::uint64_t rebalanceCount() const noexcept {
    return rebalances_.load(std::memory_order_relaxed);
  }

  /// Full observability snapshot (obs layer): op counters/latencies,
  /// structure counters, allocator and EBR gauges, GC statistics.
  obs::Metrics stats() const {
    obs::Metrics m;
    m.registry = stats_.snapshot();
    m.rebalances = rebalanceCount();
    m.chunkCount = chunkCount();
    m.alloc = mm_.stats();
    m.arenas = {m.alloc};  // one arena region per core map
    m.ebr = obs::EbrStats{ebr_.epochLag(), ebr_.retiredCount()};
    if (headerPool_) {
      m.hdrPoolFree = headerPool_->freeCount();
      m.hdrCreated = headerPool_->createdCount();
    }
    m.gc = metaHeap_.stats();
    m.faultInjected = fault::injectedCount();
    if (maintSvc_ != nullptr) {
      const maint::MaintenanceStats ms = maintSvc_->stats();
      m.maintPending = ms.pending;
      m.maintInFlight = ms.inFlight;
      m.maintThrottledMs = ms.throttledMs;
      m.maintThreads = ms.threads;
    }
    m.snapshotsActive = snapDomain_->activeSnapshots();
    m.snapshotPinMs = snapDomain_->pinnedMsTotal();
    m.versionFeedDepth = versionFeedDepth();
    return m;
  }
  obs::StatsRegistry& statsRegistry() noexcept { return stats_; }

  // ================================================ maintenance lifecycle
  /// Stops background workers from picking up new jobs (in-flight ones
  /// finish).  No-op without a configured pool.
  void pauseMaintenance() {
    if (maintSvc_ != nullptr) maintSvc_->pause();
  }
  void resumeMaintenance() {
    if (maintSvc_ != nullptr) maintSvc_->resume();
  }
  /// Deterministic barrier: every queued maintenance job has run when this
  /// returns (the caller executes them if workers are paused or throttled).
  /// Tests and benchmarks use this as their fixed point.
  void drainMaintenance() {
    if (maintSvc_ != nullptr) maintSvc_->drain();
  }
  /// Service-level gauge snapshot (all zero without a configured pool).
  maint::MaintenanceStats maintenanceStats() const {
    return maintSvc_ != nullptr ? maintSvc_->stats() : maint::MaintenanceStats{};
  }
  /// The service this map submits to (owned or shared); null when
  /// maintenance is inline.
  maint::MaintenanceService* maintenanceService() noexcept { return maintSvc_; }

  // ==================================================== arena evacuation
  /// Evacuates sparse arenas (DESIGN.md §13): marks blocks whose live-byte
  /// occupancy is at or below the configured threshold, copies every live
  /// slice they still host into fresh arenas — keys via a publish-protected
  /// entry CAS (old slices EBR-retired for in-flight readers), payloads and
  /// version nodes under the value write lock; value headers are pinned and
  /// never move — then returns the emptied blocks to the pool.  Serialized
  /// against itself; readers and mutators stay fully concurrent.  Returns
  /// the number of arenas retired.  The MemConfig::compaction background
  /// trigger routes here through the maintenance service.
  std::size_t compactNow() {
    // oaklint: allow(R5, serializes whole evacuation runs against each
    // other only; never taken under an EBR guard or on any read path)
    MutexLock lk(compactMu_);
    stats_.incCounter(obs::Counter::EvacuationRuns);
    mem::FirstFitAllocator& alloc = mm_.allocator();
    const auto blockBytes = static_cast<double>(pool_.blockBytes());
    // Score sparsest-first and cap the victim set so one run cannot hold
    // whole arenas out of circulation for long.
    std::vector<mem::FirstFitAllocator::BlockOccupancy> occ = alloc.blockOccupancy();
    std::sort(occ.begin(), occ.end(), [](const auto& a, const auto& b) {
      return a.liveBytes < b.liveBytes;
    });
    constexpr std::size_t kMaxVictimsPerRun = 8;
    std::vector<std::uint32_t> victims;
    for (const auto& b : occ) {
      if (victims.size() >= kMaxVictimsPerRun) break;
      if (b.pinned || b.evacuating || b.current) continue;
      if (static_cast<double>(b.liveBytes) > cfg_.mem.compactionOccupancy * blockBytes) {
        break;  // sorted ascending: nothing sparser follows
      }
      if (alloc.beginEvacuate(b.block)) victims.push_back(b.block);
    }
    if (victims.empty()) return 0;
    // Victim slices cached in magazines must reach the flat free list (any
    // free AFTER the mark above already bypasses the magazines); one drain
    // covers every victim marked this run.
    alloc.flushMagazines();

    bool victimSet[mem::Ref::kMaxBlocks] = {};
    for (const std::uint32_t b : victims) victimSet[b] = true;
    const auto isVictim = [&victimSet](std::uint32_t block) {
      return block < mem::Ref::kMaxBlocks && victimSet[block];
    };

    bool aborted = false;
    try {
      // A sweep can miss entries a concurrent rebalance re-homes mid-walk;
      // repeat until a pass moves nothing.  Convergence: frees into a
      // marked block never re-enter circulation (tryFreeList skips it,
      // magazine pops park), so the set of victim-resident slices only
      // shrinks.
      for (int pass = 0; pass < 3; ++pass) {
        const std::uint64_t moved = relocatePass(isVictim);
        quiesce();  // let EBR-retired old key slices reach the free list
        if (moved == 0) break;
      }
    } catch (const std::bad_alloc&) {
      // OOM mid-evacuation: every slice already moved is individually
      // consistent (each moves atomically under its own fence), so just
      // stop and unmark — the next run picks up where this one left off.
      aborted = true;
    }
    quiesce();
    std::size_t retired = 0;
    for (const std::uint32_t b : victims) {
      if (!aborted && alloc.finishEvacuate(b)) {
        ++retired;
        stats_.incCounter(obs::Counter::ArenasEvacuated);
      } else {
        alloc.abortEvacuate(b);
      }
    }
    return retired;
  }

  // ============================================================ bulk load
  /// Bulk-loads ascending (key, value) pairs into fresh chunks without
  /// touching the put path; single-threaded, map must be empty.  Sharded
  /// recovery routes each shard's slice of a checkpoint stream here.
  /// `source(key, value)` yields pairs; returns false when exhausted.
  template <class Source>
  void bulkLoadSorted(Source&& source) {
    sync::Ebr::Guard g(ebr_);
    const auto per =
        static_cast<std::size_t>(std::max(cfg_.chunkCapacity / 2, 1));
    std::vector<typename ChunkT::LiveEntry> batch;
    batch.reserve(per);
    ChunkT* tail = head_.load(std::memory_order_relaxed);
    bool first = true;
    ByteSpan key, value;
    bool more = source(key, value);
    while (more) {
      batch.clear();
      ByteVec batchMin = toVec(key);
      while (more && batch.size() < per) {
        const mem::Ref keyRef = mm_.allocateKey(key);
        const detail::VRef vref =
            detail::ValueCell::allocate(mm_, value, headerPool());
        // Stamp now: the domain clock starts at 1, so loaded values are
        // visible to every snapshot — never "pending".
        detail::ValueCell(mm_, vref).helpStamp(snapCtx_);
        batch.push_back({keyRef.bits(), vref.bits()});
        more = source(key, value);
      }
      if (first) {
        tail->fillSorted(batch.data(), static_cast<std::int32_t>(batch.size()));
        first = false;
      } else {
        ChunkT* nc = ChunkT::make(metaHeap_, mm_, cmp_, std::move(batchMin),
                                  cfg_.chunkCapacity);
        nc->fillSorted(batch.data(), static_cast<std::int32_t>(batch.size()));
        tail->nextChunk().store(nc, std::memory_order_release);
        index_.put(toVec(nc->minKey()), nc);
        chunkCount_.fetch_add(1, std::memory_order_relaxed);
        tail = nc;
      }
    }
  }

  // ==================================================== snapshot lifecycle
  /// The MVCC clock/pin table this map stamps against (owned or shared).
  SnapshotDomain& snapshotDomain() noexcept { return *snapDomain_; }

  /// Pins a read version; scans opened with ScanOptions::snapshot() pin
  /// their own — this handle is for callers that want to hold one across
  /// several scans (pass its version via ScanOptions::snapshotVersion).
  Snapshot openSnapshot() { return Snapshot(*snapDomain_); }

  /// Attribution hook for pins opened outside this map's own iterators —
  /// the sharded merged scan opens ONE pin for all shards (per-shard
  /// iterators then see a pre-pinned version and don't count it).
  void noteSnapshotOpened() { stats_.incCounter(obs::Counter::SnapshotOpened); }

  /// Drains the version-GC feed once: prunes chain nodes no pinned snapshot
  /// can reach and hard-deletes expired tombstones.  Returns the number of
  /// versions retired.  Runs inline (deterministic — tests and quiescent
  /// teardown call it directly); the hot path feeds it through the
  /// maintenance service instead.
  std::uint64_t collectVersionsNow() {
    std::vector<std::uint64_t> batch;
    {
      SpinGuard lk(vgcMu_);
      batch.swap(vgcFeed_);
    }
    if (batch.empty()) return 0;
    const std::uint64_t minPinned = snapDomain_->minPinned();
    std::uint64_t retired = 0;
    std::vector<std::uint64_t> requeue;
    for (const std::uint64_t bits : batch) {
      detail::ValueCell cell(mm_, detail::VRef{bits});
      const detail::ValueCell::GcOutcome out =
          cell.collect(minPinned, headerPool());
      retired += out.retired;
      if (!out.clean) requeue.push_back(bits);
    }
    if (!requeue.empty()) {
      SpinGuard lk(vgcMu_);
      // oaklint: allow(R3, re-queue reuses the capacity the feed swap just
      // released; growth is bounded by the in-flight chained-cell peak)
      vgcFeed_.insert(vgcFeed_.end(), requeue.begin(), requeue.end());
    }
    if (retired != 0) {
      stats_.incCounter(obs::Counter::VersionsRetired, retired);
    }
    return retired;
  }

  /// Cells currently waiting on the version GC (pinned chains/tombstones).
  std::size_t versionFeedDepth() const {
    SpinGuard lk(vgcMu_);
    return vgcFeed_.size();
  }

  /// Drains deferred reclamation (retired chunks) — call from a quiescent
  /// state when precise footprint numbers matter (§3.2 footprint API).
  void quiesce() {
    for (int i = 0; i < 4; ++i) ebr_.tryAdvanceAndReclaim();
  }
  mheap::ManagedHeap& metaHeap() noexcept { return metaHeap_; }
  mem::MemoryManager& memoryManager() noexcept { return mm_; }
  const Compare& comparator() const noexcept { return cmp_; }

 private:
  enum class PutOp { Put, PutIfAbsent, PutIfAbsentComputeIfPresent };
  enum class IfPresentOp { Compute, Remove };

  // Type-erased compute body to keep doPut/doIfPresent out-of-line-able.
  struct ComputeFn {
    void* ctx;
    void (*fn)(void*, OakWBuffer&);
    void operator()(OakWBuffer& w) const { fn(ctx, w); }
  };
  template <class F>
  static ComputeFn makeComputeFn(F& f) {
    return ComputeFn{&f, [](void* ctx, OakWBuffer& w) { (*static_cast<F*>(ctx))(w); }};
  }

  ChunkT* firstChunk() const noexcept {
    return skipRedirectConst(head_.load(std::memory_order_acquire));
  }
  ChunkT* skipRedirectConst(ChunkT* c) const noexcept {
    for (;;) {
      ChunkT* r = c->rebalancedTo().load(std::memory_order_acquire);
      if (r == nullptr) return c;
      c = r;
    }
  }

  /// locateChunk (§3.1): index floor query plus a (normally short) walk of
  /// the chunk list, following rebalance redirects.
  ChunkT* locateChunk(ByteSpan key) const {
    OAK_CHECK(ebr_.currentThreadGuarded(),
              "chunk-list navigation (locateChunk) outside an epoch guard");
    typename Index::Node* n = index_.floorNode(key);
    ChunkT* c = (n != nullptr) ? n->loadValue() : nullptr;
    if (c == nullptr) c = head_.load(std::memory_order_acquire);
    c = skipRedirectConst(c);
    for (;;) {
      ChunkT* nx = c->nextChunk().load(std::memory_order_acquire);
      if (nx == nullptr || cmp_(nx->minKey(), key) > 0) return c;
      c = skipRedirectConst(nx);
    }
  }

  /// Chunk with the greatest minKey strictly smaller than `key` (descending
  /// scans' inter-chunk step), or nullptr.
  ChunkT* locatePrevChunk(ByteSpan key) const {
    OAK_CHECK(ebr_.currentThreadGuarded(),
              "chunk-list navigation (locatePrevChunk) outside an epoch guard");
    if (key.empty()) return nullptr;  // head's minKey is the -inf sentinel
    typename Index::Node* n = index_.lowerNode(key);
    ChunkT* c = (n != nullptr) ? n->loadValue() : head_.load(std::memory_order_acquire);
    c = skipRedirectConst(c);
    if (cmp_(c->minKey(), key) >= 0) return nullptr;
    for (;;) {
      ChunkT* nx = c->nextChunk().load(std::memory_order_acquire);
      if (nx == nullptr || cmp_(nx->minKey(), key) >= 0) return c;
      c = skipRedirectConst(nx);
    }
  }

  ChunkT* lastChunk() const {
    OAK_CHECK(ebr_.currentThreadGuarded(),
              "chunk-list navigation (lastChunk) outside an epoch guard");
    ChunkT* c = firstChunk();
    for (;;) {
      ChunkT* nx = c->nextChunk().load(std::memory_order_acquire);
      if (nx == nullptr) return c;
      c = skipRedirectConst(nx);
    }
  }

  std::uint64_t findValueRef(ByteSpan key) const {
    ChunkT* c = locateChunk(key);
    const std::int32_t ei = c->lookUp(key);
    if (ei == ChunkT::kNone) return 0;
    return c->entry(ei).valRef.load(std::memory_order_acquire);
  }

  /// Algorithm 2 (doPut), iteratively.
  bool doPut(ByteSpan key, ByteSpan value, const ComputeFn* func, PutOp op,
             ByteVec* old, bool* replaced) {
    if (key.empty()) throw OakUsageError("empty keys are reserved");
    sync::Ebr::Guard g(ebr_);
    for (;;) {
      ChunkT* c = locateChunk(key);
      std::int32_t ei = c->lookUp(key);
      std::uint64_t v =
          (ei != ChunkT::kNone) ? c->entry(ei).valRef.load(std::memory_order_acquire) : 0;

      if (v != 0) {
        detail::ValueCell cell(mm_, detail::VRef{v});
        const detail::Liveness live = cell.livenessProbe();
        if (live == detail::Liveness::Live) {
          // ---- Case 1: key present ----
          if (op == PutOp::PutIfAbsent) return false;
          bool succ;
          if (op == PutOp::Put) {
            succ = (old != nullptr) ? cell.exchange(value, old, snapCtx_)
                                    : cell.put(value, snapCtx_);
          } else {  // PutIfAbsentComputeIfPresent
            succ = cell.compute(
                [&](detail::ValueCell& vc) {
                  OakWBuffer w(vc);
                  (*func)(w);
                },
                snapCtx_);
          }
          if (!succ) continue;  // deleted/tombstoned underneath us — retry
          if (replaced != nullptr) *replaced = true;
          return true;
        }
        if (live == detail::Liveness::Tombstone) {
          // ---- Case 1b: logically absent, header pinned by snapshots ----
          // Re-insert in place over the tombstone so the version chain
          // stays attached to the key (a fresh insert, not a replace).
          if (cell.resurrect(value, snapCtx_)) return true;
          continue;  // raced: no longer a tombstone — re-route
        }
        // Dead (stale/deleted): fall through to case 2.
      }

      // ---- Case 2: key absent (no entry, ⊥ reference, or deleted value) --
      if (ei == ChunkT::kNone) {
        mem::Ref keyRef = mm_.allocateKey(key);
        std::int32_t cell;
        try {
          // Chaos site: a failure between key allocation and entry linkage
          // is the window where a naive implementation leaks the key slice.
          OAK_FAULT_POINT("chunk.link", ManagedOutOfMemory);
          cell = c->allocateEntry(keyRef);
        } catch (...) {
          mm_.free(keyRef);
          throw;
        }
        if (cell == ChunkT::kFull) {
          mm_.free(keyRef);
          rebalance(c);
          continue;
        }
        ei = c->entriesLLPutIfAbsent(cell);
        if (ei == ChunkT::kFrozen) {
          mm_.free(keyRef);  // the cell is unreachable; reclaim the key bytes
          rebalance(c);
          continue;
        }
        if (ei != cell) mm_.free(keyRef);  // lost to an equal-key entry
        // Re-read the (possibly pre-existing) entry's value reference.
        v = c->entry(ei).valRef.load(std::memory_order_acquire);
        if (v != 0 && !detail::ValueCell(mm_, detail::VRef{v}).isDeleted()) {
          continue;  // raced with an insert — handle as case 1 on retry
        }
      }

      const detail::VRef newV = detail::ValueCell::allocate(mm_, value, headerPool());
      if (!c->publish()) {
        detail::ValueCell::disposeUnpublished(mm_, newV, headerPool());
        rebalance(c);
        continue;
      }
      std::uint64_t expected = v;
      bool casOk = false;
      if (expected == 0 ||
          detail::ValueCell(mm_, detail::VRef{expected}).isDeleted()) {
        casOk = c->entry(ei).valRef.compare_exchange_strong(
            expected, newV.bits(), std::memory_order_acq_rel);
      }
      c->unpublish();
      if (!casOk) {
        detail::ValueCell::disposeUnpublished(mm_, newV, headerPool());
        continue;  // §4.3: retry — cannot linearize before the racing update
      }
      // Stamp before returning: snapshots treat a pending (writeVersion 0)
      // value as absent, so an insert left unstamped would stay invisible
      // to every later snapshot.  Stamp-before-return keeps real-time
      // order — any snapshot opened after this put returns has a version
      // at or above the stamp and therefore observes the insert; readers
      // racing the window between the CAS and this stamp help-stamp
      // themselves (value.hpp).
      detail::ValueCell(mm_, newV).helpStamp(snapCtx_);
      // The CAS above is this put's linearization point; the compaction that
      // follows is opportunistic maintenance.  If it fails on OOM (rebalance
      // rolled itself back), the put still succeeded — reporting the failure
      // would claim an update that in fact happened did not.
      try {
        maybeRebalanceAfterInsert(c);
      } catch (const std::bad_alloc&) {
      }
      return true;
    }
  }

  /// Algorithm 3 (doIfPresent), iteratively.
  bool doIfPresent(ByteSpan key, const ComputeFn* func, IfPresentOp op, ByteVec* old) {
    sync::Ebr::Guard g(ebr_);
    for (;;) {
      ChunkT* c = locateChunk(key);
      const std::int32_t ei = c->lookUp(key);
      const std::uint64_t v =
          (ei != ChunkT::kNone) ? c->entry(ei).valRef.load(std::memory_order_acquire) : 0;
      if (v == 0) return false;  // key not found (l.p.: this read)

      detail::ValueCell cell(mm_, detail::VRef{v});
      const detail::Liveness live = cell.livenessProbe();
      // Tombstones are logically absent; the header (and chain) must stay
      // for open snapshots, so do NOT clear the entry.
      if (live == detail::Liveness::Tombstone) return false;
      if (live == detail::Liveness::Live) {
        // ---- Case 1: live value ----
        if (op == IfPresentOp::Compute) {
          const bool ok = cell.compute(
              [&](detail::ValueCell& vc) {
                OakWBuffer w(vc);
                (*func)(w);
              },
              snapCtx_);
          if (ok) return true;
          // fall through: the value was deleted or tombstoned meanwhile
        } else {  // Remove
          switch (cell.removeAt(snapCtx_, old, headerPool())) {
            case detail::RemoveOutcome::Removed:
              // Hard delete (no snapshot could need it): clear the entry.
              finalizeRemove(key, v);
              return true;
            case detail::RemoveOutcome::Tombstoned:
              // Logical delete; the version GC finishes it once unpinned.
              return true;
            case detail::RemoveOutcome::Absent:
              break;  // raced — re-probe below
          }
        }
        // A concurrent remove may have tombstoned rather than deleted;
        // clearing the entry then would orphan pinned versions.
        if (cell.livenessProbe() == detail::Liveness::Tombstone) return false;
      }

      // ---- Case 2: deleted value — make sure the entry is cleared ----
      if (!c->publish()) {
        rebalance(c);
        continue;
      }
      std::uint64_t expected = v;
      bool ok = false;
      // Guard like doPut: only a DELETED value may be cleared — a tombstone
      // can be resurrected, so clearing on a stale probe would lose a put.
      if (detail::ValueCell(mm_, detail::VRef{v}).isDeleted()) {
        ok = c->entry(ei).valRef.compare_exchange_strong(
            expected, 0, std::memory_order_acq_rel);
      }
      c->unpublish();
      if (!ok) continue;
      return false;  // l.p.: the successful CAS to ⊥ (§4.5)
    }
  }

  /// §4.4: after a successful remove, opportunistically clear the entry's
  /// value reference (GC + fast-path aid; needs no retry on CAS failure).
  void finalizeRemove(ByteSpan key, std::uint64_t prev) {
    for (;;) {
      ChunkT* c = locateChunk(key);
      const std::int32_t ei = c->lookUp(key);
      const std::uint64_t v =
          (ei != ChunkT::kNone) ? c->entry(ei).valRef.load(std::memory_order_acquire) : 0;
      if (v != prev) return;  // entry reused or already cleared
      if (!c->publish()) {
        // The chunk is being rebalanced; the rebalancer drops deleted values
        // anyway, so the optimization is moot here.
        return;
      }
      std::uint64_t expected = v;
      c->entry(ei).valRef.compare_exchange_strong(expected, 0,
                                                  std::memory_order_acq_rel);
      c->unpublish();
      return;
    }
  }

  /// The advisory compaction policy (§3): too many linked-list bypasses
  /// relative to the sorted prefix.  Floor of capacity/8 keeps append-heavy
  /// chunks (fresh tails with a tiny sorted prefix) from compacting after
  /// every handful of inserts.
  bool wantsCompaction(ChunkT* c) const noexcept {
    const std::int32_t sorted = c->sortedCount();
    const std::int32_t unsorted = c->unsortedCount();
    const double base = std::max<double>(sorted, cfg_.chunkCapacity / 8.0);
    return unsorted > 8 &&
           static_cast<double>(unsorted) > cfg_.maxUnsortedRatio * base;
  }

  void maybeRebalanceAfterInsert(ChunkT* c) {
    if (!wantsCompaction(c)) return;
    // Advisory compactions are maintenance, not correctness: with a
    // background pool configured the mutator only *enqueues* the request
    // and keeps going.  (kFull/kFrozen rebalances stay inline — there the
    // chunk is blocking this writer's own progress.)
    if (maintSvc_ == nullptr) {
      rebalance(c);
      return;
    }
    scheduleRebalance(c);
  }

  /// Hands a compaction request to the maintenance service, deduped per
  /// chunk by minKey.  A saturated queue falls back to the seed's inline
  /// path (unless configured to drop).
  void scheduleRebalance(ChunkT* c) {
    const bool queued = maintSvc_->submit(this, toVec(c->minKey()),
                                          c->footprintBytes(), &rebalanceJob);
    if (queued) {
      stats_.incCounter(obs::Counter::MaintQueued);
    } else if (cfg_.maintenance.inlineFallback) {
      stats_.incCounter(obs::Counter::MaintInlineFallback);
      rebalance(c);
    }
  }

  /// Worker-side rebalance.  Jobs name chunks by minKey because the queued
  /// chunk may be retired (by a racing writer's kFull rebalance) before the
  /// worker runs: re-locate under an epoch guard, skip if already
  /// redirected, and re-check the policy against the chunk's current shape.
  static void rebalanceJob(void* owner, const ByteVec& key) {
    static_cast<OakCoreMap*>(owner)->backgroundRebalance(key);
  }
  void backgroundRebalance(const ByteVec& key) {
    sync::Ebr::Guard g(ebr_);
    ChunkT* c = locateChunk(asBytes(key));
    if (c->rebalancedTo().load(std::memory_order_acquire) != nullptr) return;
    if (!wantsCompaction(c)) return;  // stale request
    try {
      // Chaos site: an OOM in a *worker* must roll back exactly like an
      // inline one (walker-clean chain) and the request must survive to
      // retry — no writer is waiting to re-trigger it.
      OAK_FAULT_POINT("maint.worker", ManagedOutOfMemory);
      rebalance(c);
      stats_.incCounter(obs::Counter::MaintExecuted);
    } catch (const std::bad_alloc&) {
      try {
        maintSvc_->submit(this, ByteVec(key), c->footprintBytes(), &rebalanceJob);
      } catch (const std::bad_alloc&) {
        // Re-queueing failed under pressure; the next insert re-triggers.
      }
    }
  }

  // ------------------------------------------------------------ rebalance
  /// Split / compact / merge-with-next (§4.1).  Rebalances are serialized
  /// by a mutex (mutators stay concurrent; see DESIGN.md §4.2) which keeps
  /// the chunk-list surgery single-writer.
  void rebalance(ChunkT* c) {
    // oaklint: allow(R5, callers hold an EBR guard by design — the chunk
    // pointer must stay pinned across the surgery; the lock serializes
    // rebalancers only and is never taken on the read path)
    MutexLock lk(rebalanceMu_);
    if (c->rebalancedTo().load(std::memory_order_acquire) != nullptr) return;
    rebalances_.fetch_add(1, std::memory_order_relaxed);

    // Everything from freeze() to the fresh-chunk build can fail (chunk
    // metadata lives on the managed heap; minKey copies live on the host
    // heap).  Until the redirects are published nothing is visible to other
    // threads, so a failure rolls back: dispose the half-built replacements
    // (dispose frees chunk metadata only, never the key/value slices the
    // live entries still own) and thaw the engaged chunks in reverse engage
    // order.  The map is left exactly as before the rebalance started.
    std::vector<ChunkT*> engaged;
    std::vector<ChunkT*> fresh;
    // Dead entries are not migrated; their key slices are recorded here and
    // freed once no epoch-guarded reader can still compare against them.
    auto deadKeys = std::make_unique<std::vector<mem::Ref>>();
    ChunkT* last = c;
    engaged.reserve(2);
    try {
      OAK_FAULT_POINT("rebalance.split", ManagedOutOfMemory);
      c->freeze();
      engaged.push_back(c);
      std::vector<typename ChunkT::LiveEntry> live;
      live.reserve(static_cast<std::size_t>(c->allocatedCount()));
      c->collectLive(mm_, live, deadKeys.get());

      // Merge policy: engage the successor when this chunk is under-utilized
      // and the combined load still fits comfortably.
      ChunkT* next = c->nextChunk().load(std::memory_order_acquire);
      if (next != nullptr &&
          static_cast<std::int32_t>(live.size()) < cfg_.chunkCapacity / 4 &&
          next->allocatedCount() + static_cast<std::int32_t>(live.size()) <
              cfg_.chunkCapacity / 2) {
        next->freeze();
        engaged.push_back(next);
        next->collectLive(mm_, live, deadKeys.get());  // adjacent: stays sorted
        last = next;
      }

      // Build replacement chunks, each at most half full so inserts have
      // room.
      const std::int32_t per = cfg_.chunkCapacity / 2;
      std::size_t off = 0;
      do {
        const auto n = static_cast<std::int32_t>(
            std::min<std::size_t>(per, live.size() - off));
        ByteVec minKey = (off == 0)
                             ? toVec(c->minKey())
                             : toVec(mm_.keyBytes(mem::Ref{live[off].keyRefBits}));
        ChunkT* nc = ChunkT::make(metaHeap_, mm_, cmp_, std::move(minKey),
                                  cfg_.chunkCapacity);
        fresh.push_back(nc);
        nc->fillSorted(live.data() + off, n);
        off += static_cast<std::size_t>(n);
      } while (off < live.size());
    } catch (...) {
      for (ChunkT* nc : fresh) ChunkT::dispose(metaHeap_, nc);
      for (auto it = engaged.rbegin(); it != engaged.rend(); ++it) {
        (*it)->unfreeze();
      }
      throw;
    }

    // Wire the new chain, then publish redirects, then relink the list.
    ChunkT* tail = last->nextChunk().load(std::memory_order_acquire);
    for (std::size_t i = 0; i + 1 < fresh.size(); ++i) {
      fresh[i]->nextChunk().store(fresh[i + 1], std::memory_order_relaxed);
    }
    fresh.back()->nextChunk().store(tail, std::memory_order_release);
    for (ChunkT* old : engaged) {
      old->rebalancedTo().store(fresh.front(), std::memory_order_release);
    }
    if (head_.load(std::memory_order_acquire) == c) {
      head_.store(fresh.front(), std::memory_order_release);
    } else {
      ChunkT* pred = head_.load(std::memory_order_acquire);
      while (true) {
        ChunkT* nx = pred->nextChunk().load(std::memory_order_acquire);
        if (nx == c) break;
        assert(nx != nullptr && "engaged chunk must be reachable");
        pred = nx;
      }
      pred->nextChunk().store(fresh.front(), std::memory_order_release);
    }

    // Index maintenance: map new minKeys, then drop stale ones.  The index
    // is a lazy accelerator (§3.1): a missing or stale entry only lengthens
    // locateChunk's list walk, so under memory pressure we skip maintenance
    // rather than fail a rebalance whose redirects are already live.
    try {
      for (ChunkT* nc : fresh) index_.put(toVec(nc->minKey()), nc);
      for (ChunkT* old : engaged) {
        bool stillUsed = false;
        for (ChunkT* nc : fresh) {
          if (cmp_(old->minKey(), nc->minKey()) == 0) {
            stillUsed = true;
            break;
          }
        }
        if (!stillUsed) index_.erase(toVec(old->minKey()));
      }
    } catch (const std::bad_alloc&) {
      // Deliberately swallowed — see above.
    }

    chunkCount_.fetch_add(static_cast<std::int64_t>(fresh.size()) -
                              static_cast<std::int64_t>(engaged.size()),
                          std::memory_order_relaxed);
    if (fresh.size() > engaged.size()) stats_.incCounter(obs::Counter::ChunkSplit);
    if (engaged.size() > 1) stats_.incCounter(obs::Counter::ChunkMerge);

    // Old chunks stay navigable (redirects) until every concurrent reader
    // leaves its epoch; then they return to the managed heap.
    for (ChunkT* old : engaged) {
      ebr_.retire(
          old,
          [](void* p, void* ctx) {
            auto* self = static_cast<OakCoreMap*>(ctx);
            ChunkT::dispose(self->metaHeap_, static_cast<ChunkT*>(p));
          },
          this);
    }
    if (!deadKeys->empty()) {
      try {
        ebr_.retire(
            deadKeys.get(),
            [](void* p, void* ctx) {
              auto* self = static_cast<OakCoreMap*>(ctx);
              auto* keys = static_cast<std::vector<mem::Ref>*>(p);
              for (const mem::Ref k : *keys) self->mm_.free(k);
              delete keys;
            },
            this);
        deadKeys.release();
      } catch (const std::bad_alloc&) {
        // Memory pressure past the point of no return: strand the dead
        // keys (the pre-reclamation behavior) rather than fail a rebalance
        // whose redirects are already live.
      }
    }
  }

  /// Degraded-path driver: run `body`, absorbing OOM exceptions into a
  /// retry loop.  Each failed attempt climbs a reclamation ladder — advance
  /// epochs (retired chunks return both arena space and heap metadata),
  /// collect the managed heap, and on the penultimate attempt post the
  /// arena's emergency reserve.  When all attempts fail, report Retry if
  /// reclamation is still pending (the caller backing off has a chance),
  /// ResourceExhausted if the map is genuinely full.
  template <class Body>
  Status tryOp(Body&& body) {
    constexpr int kAttempts = 4;
    Backoff backoff;
    bool offHeap = false;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      try {
        body();
        return Status::Ok;
      } catch (const OffHeapOutOfMemory&) {
        offHeap = true;
      } catch (const ManagedOutOfMemory&) {
        offHeap = false;
      } catch (const std::bad_alloc&) {
        offHeap = false;  // host-heap pressure behaves like managed pressure
      }
      stats_.incCounter(obs::Counter::OpRetries);
      // The OOM unwound past our Ebr::Guard, so this thread no longer pins
      // an epoch and advancement can actually reclaim.
      quiesce();
      metaHeap_.collectNow();
      if (attempt == kAttempts - 2) mm_.releaseEmergencyReserve();
      backoff.pause();
    }
    const bool reclaimPending =
        offHeap ? (ebr_.retiredCount() != 0) : managedGarbagePending();
    if (reclaimPending) return Status::Retry;
    stats_.incCounter(obs::Counter::ResourceExhausted);
    return Status::ResourceExhausted;
  }

  bool managedGarbagePending() const {
    const mheap::GcStats gs = metaHeap_.stats();
    return gs.committedBytes > gs.liveBytes;
  }

  detail::HeaderPool* headerPool() noexcept {
    return headerPool_ ? &*headerPool_ : nullptr;
  }

  // --------------------------------------------------------- version GC
  /// SnapCtx feed hook: a writer that chained a superseded version (or laid
  /// a tombstone) registers the cell for the off-hot-path version GC.
  /// Called under the value write lock — a spin lock (not a mutex) keeps
  /// the feed legal there and under EBR guards.
  static void vgcFeedThunk(void* owner, std::uint64_t vrefBits) {
    static_cast<OakCoreMap*>(owner)->vgcEnqueue(vrefBits);
  }
  void vgcEnqueue(std::uint64_t vrefBits) {
    SpinGuard lk(vgcMu_);
    // oaklint: allow(R3, feed grows to the chained-cell peak then reuses
    // capacity; kEnqueued dedupe bounds it by the number of live headers)
    vgcFeed_.push_back(vrefBits);
  }

  /// Amortized version-GC trigger, called from update wrappers AFTER their
  /// EBR guard is released.  With a maintenance pool the collection is
  /// handed to a worker (deduped by a self-owned flag, which the job clears
  /// when it runs); inline otherwise.
  void maybeCollectVersions() {
    if ((vgcTick_.fetch_add(1, std::memory_order_relaxed) & 1023u) != 0) return;
    {
      SpinGuard lk(vgcMu_);
      if (vgcFeed_.empty()) return;
    }
    if (maintSvc_ == nullptr) {
      collectVersionsNow();
      return;
    }
    if (vgcJobQueued_.exchange(true, std::memory_order_acq_rel)) return;
    const bool queued = maintSvc_->submit(
        this, ByteVec{}, 4096, [](void* owner, const ByteVec&) {
          auto* self = static_cast<OakCoreMap*>(owner);
          self->vgcJobQueued_.store(false, std::memory_order_release);
          self->collectVersionsNow();
        });
    if (!queued) {
      // Saturated queue: run inline so the backlog cannot wedge behind a
      // stuck flag.
      vgcJobQueued_.store(false, std::memory_order_release);
      collectVersionsNow();
    }
  }

  // ----------------------------------------------------- arena evacuation
  /// One relocation sweep: walks every reachable chunk and re-homes the
  /// live slices victim blocks still host.  Returns the slices moved.
  template <class IsVictim>
  std::uint64_t relocatePass(const IsVictim& isVictim) {
    sync::Ebr::Guard g(ebr_);
    std::uint64_t movedSlices = 0;
    std::uint64_t movedBytes = 0;
    // Old key slices cannot be freed inline: an in-guard reader may have
    // loaded the old bits before our CAS, so they go through EBR — exactly
    // the rebalancer's dead-key protocol.
    auto deadKeys = std::make_unique<std::vector<mem::Ref>>();
    const auto retireDeadKeys = [&] {
      if (deadKeys->empty()) return;
      ebr_.retire(
          deadKeys.get(),
          [](void* p, void* ctx) {
            auto* self = static_cast<OakCoreMap*>(ctx);
            auto* keys = static_cast<std::vector<mem::Ref>*>(p);
            for (const mem::Ref k : *keys) self->mm_.free(k);
            delete keys;
          },
          this);
      deadKeys.release();
    };
    try {
      for (ChunkT* c = firstChunk(); c != nullptr;
           c = c->nextChunk().load(std::memory_order_acquire)) {
        if (c->rebalancedTo().load(std::memory_order_acquire) != nullptr) {
          continue;  // retired: its live entries reappear in the fresh chunk
        }
        // Chaos site: an allocation failure mid-evacuation must leave every
        // already-moved slice consistent and the run abortable.
        OAK_FAULT_POINT("mem.evacuate", OffHeapOutOfMemory);
        // Walk linked entries only: an allocated-but-unlinked cell is owned
        // by an in-flight doPut that may still free its local keyRef.
        for (std::int32_t ei = c->headEntry(); ei != ChunkT::kNone;
             ei = c->entry(ei).next.load(std::memory_order_acquire)) {
          auto& e = c->entry(ei);
          const std::uint64_t kbits = e.keyRef.load(std::memory_order_acquire);
          const mem::Ref kref{kbits};
          if (kbits != 0 && isVictim(kref.block())) {
            mem::Ref fresh = mm_.allocateKey(mm_.keyBytes(kref));
            // publish() fences against freeze: collectLive must not run
            // between our load and CAS, or the fresh slice could miss the
            // migration while the old one is retired under us.
            if (!c->publish()) {
              mm_.free(fresh);
              break;  // frozen: the rebalancer re-homes these entries
            }
            std::uint64_t expected = kbits;
            const bool swung = e.keyRef.compare_exchange_strong(
                expected, fresh.bits(), std::memory_order_acq_rel);
            c->unpublish();
            if (swung) {
              deadKeys->push_back(kref);
              ++movedSlices;
              movedBytes += kref.length();
            } else {
              mm_.free(fresh);  // raced — the next pass retries
            }
          }
          const std::uint64_t v = e.valRef.load(std::memory_order_acquire);
          if (v != 0) {
            const detail::ValueCell::RelocOutcome out =
                detail::ValueCell(mm_, detail::VRef{v}).relocateSlices(isVictim);
            movedSlices += out.slices;
            movedBytes += out.bytes;
          }
        }
      }
    } catch (...) {
      retireDeadKeys();  // already-swung keys' old slices must still reclaim
      throw;
    }
    retireDeadKeys();
    if (movedSlices != 0) {
      stats_.incCounter(obs::Counter::SlicesRelocated, movedSlices);
      stats_.incCounter(obs::Counter::BytesRelocated, movedBytes);
    }
    return movedSlices;
  }

  /// Amortized evacuation trigger, called from the update wrappers AFTER
  /// their EBR guard is released (compactNow quiesces, so it must never run
  /// under a guard).  Cheap tick gate, then a footprint probe — scanning
  /// occupancy is only worth it when whole arenas of slack exist — then the
  /// version-GC job's dedupe-flag pattern.
  void maybeEvacuate() {
    if (!cfg_.mem.compaction) return;
    if ((evacTick_.fetch_add(1, std::memory_order_relaxed) & 4095u) != 0) return;
    const std::size_t blockBytes = pool_.blockBytes();
    const std::size_t footprint = mm_.footprintBytes();
    const std::size_t live = mm_.allocatedBytes();
    if (footprint < 3 * blockBytes) return;
    if (footprint - std::min(live, footprint) < 2 * blockBytes) return;
    if (maintSvc_ == nullptr) {
      compactNow();
      return;
    }
    if (evacJobQueued_.exchange(true, std::memory_order_acq_rel)) return;
    const bool queued = maintSvc_->submit(
        this, ByteVec{}, 1u << 20, [](void* owner, const ByteVec&) {
          auto* self = static_cast<OakCoreMap*>(owner);
          self->evacJobQueued_.store(false, std::memory_order_release);
          self->compactNow();
        });
    if (!queued) {
      evacJobQueued_.store(false, std::memory_order_release);
      compactNow();
    }
  }

  OakConfig cfg_;
  Compare cmp_;
  mheap::ManagedHeap& metaHeap_;
  mem::BlockPool& pool_;
  mem::MemoryManager mm_;
  std::optional<detail::HeaderPool> headerPool_;
  mutable sync::Ebr ebr_;
  sl::ManagedMem indexMem_;
  Index index_;
  std::atomic<ChunkT*> head_{nullptr};
  /// Serializes chunk-list surgery; the list itself is atomic redirects, so
  /// nothing is OAK_GUARDED_BY it (pure mutual exclusion, like gcMu_).
  Mutex rebalanceMu_;
  std::atomic<std::int64_t> chunkCount_{0};
  std::atomic<std::uint64_t> rebalances_{0};
  mutable obs::StatsRegistry stats_;
  std::unique_ptr<maint::MaintenanceService> ownedSvc_;
  maint::MaintenanceService* maintSvc_ = nullptr;  // owned or shared; null = inline
  std::unique_ptr<SnapshotDomain> ownedSnapDomain_;
  SnapshotDomain* snapDomain_ = nullptr;  // owned or shared, never null
  detail::SnapCtx snapCtx_{};             // stable; handed to every ValueCell op
  mutable SpinLock vgcMu_;
  std::vector<std::uint64_t> vgcFeed_ OAK_GUARDED_BY(vgcMu_);  // VRef bits
  std::atomic<std::uint32_t> vgcTick_{0};
  std::atomic<bool> vgcJobQueued_{false};

  // Arena evacuation (DESIGN.md §13).  compactMu_ serializes whole runs
  // (pure mutual exclusion — victim state lives in the allocator).
  Mutex compactMu_;
  std::atomic<std::uint32_t> evacTick_{0};
  std::atomic<bool> evacJobQueued_{false};

  template <class>
  friend class ChunkWalker;  // OakSan invariant validator (oak/chunk_walker.hpp)
};

}  // namespace oak
