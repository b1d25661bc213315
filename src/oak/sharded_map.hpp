// ShardedOakCoreMap — a range-partitioned front-end over N independent
// OakCoreMap instances, with *online* shard management.
//
// Each shard is a full Oak core: its own chunk list, skiplist index, its
// own MemoryManager arena region (carved from the shared BlockPool), and
// its own EBR domain.  Rebalance serialization, allocator free lists, and
// epoch advancement therefore stay local to a shard — contention and GC
// pressure do not cross shard boundaries.
//
//   * Point operations route by key through a ShardRouter binary search
//     and keep the exact single-map linearization points (§4.5): one op
//     touches exactly one shard, so per-shard linearizability composes to
//     whole-map linearizability for point ops.
//   * Ordered scans read the shards one after another in key order, each
//     through an iterator clamped to its shard's owned range.  The clamped
//     ranges are disjoint, so cross-shard output is totally ordered and
//     free of duplicates even while a core still holds migrated keys (see
//     "retirement" below).  Navigation (ceilingEntry, floorEntry, ...) is
//     built on these scans.  The scan keeps the paper's non-atomic §4.2
//     guarantees, exactly as a single-shard scan does.
//
// Online shard management (split/merge) follows the paper's publish/freeze
// discipline (§4.1), lifted from chunks to shards:
//
//   The routing state lives in an immutable, epoch-published Table
//   {version, born, router, cores, sealed-range}.  Every point operation
//   pins the current table through a per-thread hazard slot (store-then-
//   recheck, the same shape as Chunk's publish array); the management
//   thread publishes a new table and waits until no slot references an
//   older one before it lets go of it.  Point ops therefore never block on
//   a split or merge — at worst a *writer* into the sealed range spins for
//   the copy window.
//
//   SPLIT(i) at key M:   v+1 publishes the same layout with [M, hi_i)
//   sealed (writers to that range spin; readers proceed).  After the seal
//   is quiescent the range is write-quiescent, so an emptied core rebuilds
//   [M, hi_i) from it without locks.  v+2 publishes boundary M with that
//   core owning [M, hi_i).
//
//   MERGE(i):   shard i is absorbed into shard i+1.  v+1 seals shard i's
//   whole range, shard i+1 rebuilds that range from it, and v+2 drops the
//   boundary.
//
//   Both copy through the one chunk-build path, OakCoreMap::replaceRange:
//   the copies land in fresh sorted chunks, restamped at arrival, and
//   replace whatever the receiving core still held in the range.
//
// Retirement — one rule for superseded shard state.  A layout (Table) is
// live while the published slot, the pinned history (a snapshot pinned
// before a migration must read through the layout current at its version)
// or an open merged scan holds it; scans hold one shared_ptr to their
// layout.  A core keeps only the keys some live layout routes to it: after
// every layout change and in quiesce(), keys outside the hull of its live
// ranges — the copies a migration left in its source — are dropped by the
// same chunk rebuild with no pairs (their chunks replaced, their keys
// EBR-retired, their values deleted), and a core no live layout names is
// emptied to one chunk and parked for the next split to reuse.  Cores
// live as long as the map and value headers are immortal or type-stable,
// so a zero-copy view (OakRBuffer) never dangles: a view whose entry was
// migrated and then trimmed throws ConcurrentModification, exactly as after
// a concurrent remove.
//
// Hot/cold detection (manageShardsOnce) compares per-shard op-count deltas
// from the obs registries; with autoShardManage the check is submitted to
// the shared MaintenanceService, so splits and merges run on background
// workers, deduplicated like any other maintenance job.
//
// This is the core of the one typed map: oak::OakMap and oak::ShardedOakMap
// (oak/map.hpp) are the same BasicOakMap over it, and a plain OakConfig
// means a 1-shard map.  It is also the only owner of durability (DESIGN.md
// §12): one WAL, one checkpoint stream and one manifest for the whole map,
// whatever the shard count; the shard cores always run in memory.  Every
// write logs through one path (durableWrite), in per-key linearization
// order; shard migration and retirement trims write nothing to the WAL.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/spin.hpp"
#include "common/thread_registry.hpp"
#include "dur/checkpoint.hpp"
#include "dur/crc32c.hpp"
#include "dur/wal.hpp"
#include "maint/maintenance.hpp"
#include "oak/core_map.hpp"
#include "oak/shard_router.hpp"

namespace oak {

struct ShardedOakConfig {
  ShardedOakConfig() = default;
  /// A plain OakConfig means a 1-shard map with that per-shard config, so
  /// every OakConfig call site builds the one map type unchanged.
  ShardedOakConfig(OakConfig c) : shard(std::move(c)) {}

  /// Shard count used with the default splitter.  Ignored when `layout`
  /// carries explicit boundaries (then layout.shards() wins).
  std::size_t shards = 1;
  /// Per-shard core configuration (every shard gets an identical copy; the
  /// BlockPool inside is shared, the arena regions are not).  Its nested
  /// `maintenance` group also configures the *shared* service and the
  /// shard-management policy (split/merge thresholds, autoShardManage).
  OakConfig shard;
  /// Boundary keys; empty => ShardLayout::uniformU64(shards).
  ShardLayout layout;

  // ---- fluent setters (mirror OakConfig's builder style) ----
  ShardedOakConfig& withShards(std::size_t n) { shards = n; return *this; }
  ShardedOakConfig& withShard(OakConfig c) { shard = std::move(c); return *this; }
  ShardedOakConfig& withLayout(ShardLayout l) { layout = std::move(l); return *this; }
  /// Durability in one call (DESIGN.md §12): the map logs through ONE WAL
  /// and one checkpoint stream at the front-end level.
  ShardedOakConfig& withStorageDir(std::string dir) {
    shard.mem.storageDir = std::move(dir);
    return *this;
  }
};

template <class Compare = BytesComparator>
class ShardedOakCoreMap {
  using Core = OakCoreMap<Compare>;
  struct Table;

 public:
  using Config = ShardedOakConfig;
  /// Online shard management never splits past this many shards.
  static constexpr std::size_t kMaxShards = 64;
  /// With autoShardManage, each thread submits a hot/cold check every this
  /// many of its operations.
  static constexpr std::uint64_t kManageCheckOps = 1 << 16;
  using EntryView = typename Core::EntryView;
  /// Navigation result: the entry's key (copied — it identifies the entry)
  /// and a zero-copy value view.
  struct KeyedEntry {
    ByteVec key;
    OakRBuffer value;
  };

  explicit ShardedOakCoreMap(ShardedOakConfig cfg = ShardedOakConfig{},
                             Compare cmp = Compare{})
      : cmp_(cmp) {
    ShardLayout layout = cfg.layout.boundaries.empty()
                             ? ShardLayout::uniformU64(cfg.shards < 1 ? 1 : cfg.shards)
                             : std::move(cfg.layout);
    shardCfg_ = cfg.shard;
    // Durability lives at the front-end: one WAL, one checkpoint stream,
    // one manifest (which also records the shard boundaries).  The cores
    // run in memory and share one file-backed pool when no explicit pool
    // was injected.
    durDir_ = shardCfg_.mem.storageDir;
    std::optional<dur::RecoveryPlan> plan;
    if (!durDir_.empty()) {
      std::filesystem::create_directories(durDir_);
      if (shardCfg_.mem.pool == nullptr) {
        ownedPool_ = std::make_unique<mem::BlockPool>(
            mem::BlockPool::Config{.storageDir = durDir_ + "/arenas"});
        shardCfg_.mem.pool = ownedPool_.get();
      }
      plan = dur::planRecovery(durDir_);
      if (plan->haveManifest && !plan->shardBounds.empty()) {
        // The manifest's boundaries are the crash-time layout: rebuilding
        // under them keeps each shard's checkpoint slice in its owner and
        // preserves any online splits/merges that happened before the stop.
        layout = ShardLayout::at(plan->shardBounds);
      }
    }
    // One maintenance service for every shard (and for our own
    // shard-management jobs), when the config asks for workers.
    if (shardCfg_.maintenance.threads > 0) {
      svc_ = std::make_unique<maint::MaintenanceService>(
          shardCfg_.maintenance.threads, shardCfg_.maintenance.rateLimitBytesPerSec,
          shardCfg_.maintenance.queueDepth);
    }
    autoManage_ = shardCfg_.maintenance.autoShardManage;
    gate_ = std::make_unique<GateSlot[]>(kMaxThreads);
    opTick_ = std::make_unique<OpTick[]>(kMaxThreads);

    auto t0 = std::make_shared<Table>(ShardRouter<Compare>(std::move(layout), cmp_));
    {
      MutexLock lk(mgmtMu_);
      for (std::size_t i = 0; i < t0->router.shards(); ++i) {
        t0->cores.push_back(takeCoreLocked());
      }
      publishLocked(std::move(t0));
    }
    if (plan.has_value()) initDurable(*plan);
  }

  ~ShardedOakCoreMap() {
    // Cancel queued shard-management jobs naming this map and wait out
    // in-flight ones; each core then detaches itself in its own destructor.
    if (svc_ != nullptr) svc_->detach(this);
  }

  ShardedOakCoreMap(const ShardedOakCoreMap&) = delete;
  ShardedOakCoreMap& operator=(const ShardedOakCoreMap&) = delete;

  // ================================================= shard accessors ==
  // These read the current table without pinning it: the returned
  // references are stable only while no concurrent shard management runs
  // (tests and tooling call them at quiescent points; the data path never
  // does).
  std::size_t shardCount() const noexcept {
    return table_.load(std::memory_order_acquire)->cores.size();
  }
  Core& shard(std::size_t i) noexcept {
    return *table_.load(std::memory_order_acquire)->cores[i];
  }
  const Core& shard(std::size_t i) const noexcept {
    return *table_.load(std::memory_order_acquire)->cores[i];
  }
  const ShardRouter<Compare>& router() const noexcept {
    return table_.load(std::memory_order_acquire)->router;
  }
  const Compare& comparator() const noexcept { return cmp_; }

  /// Shard a key routes to (exposed for tests and placement-aware callers).
  std::size_t shardFor(ByteSpan key) const noexcept {
    return table_.load(std::memory_order_acquire)->router.shardFor(key);
  }

  // ====================================================== point ops ==
  // Exactly the OakCoreMap surface; each call pins the current table,
  // routes to one shard, and (for writes) spins out of a sealed range.
  std::optional<OakRBuffer> get(ByteSpan key) {
    return readOp(key, [&](Core& c) { return c.get(key); });
  }
  std::optional<ByteVec> getCopy(ByteSpan key) {
    return readOp(key, [&](Core& c) { return c.getCopy(key); });
  }
  bool containsKey(ByteSpan key) {
    return readOp(key, [&](Core& c) { return c.containsKey(key); });
  }

  // Every write goes through durableWrite (see "durability" below), which
  // logs the record the routed op produced: the argument value, a remove
  // tombstone, or a compute's post-image.
  bool put(ByteSpan key, ByteSpan value, ByteVec* old = nullptr) {
    return durableWrite(key, [&](Core& c, auto& log) {
      const bool replaced = c.put(key, value, old);
      log(dur::kWalPut, value);
      return replaced;
    });
  }
  bool putIfAbsent(ByteSpan key, ByteSpan value) {
    return durableWrite(key, [&](Core& c, auto& log) {
      const bool ok = c.putIfAbsent(key, value);
      if (ok) log(dur::kWalPut, value);
      return ok;
    });
  }
  template <class F>
  void putIfAbsentComputeIfPresent(ByteSpan key, ByteSpan value, F&& func) {
    durableWrite(key, [&](Core& c, auto& log) {
      bool computed = false;
      c.putIfAbsentComputeIfPresent(key, value, [&](OakWBuffer& w) {
        func(w);
        computed = true;
        log(dur::kWalPut, w.span());
      });
      if (!computed) log(dur::kWalPut, value);
      return true;
    });
  }
  template <class F>
  bool computeIfPresent(ByteSpan key, F&& func) {
    return durableWrite(key, [&](Core& c, auto& log) {
      return c.computeIfPresent(key, [&](OakWBuffer& w) {
        func(w);
        log(dur::kWalPut, w.span());
      });
    });
  }
  bool remove(ByteSpan key, ByteVec* old = nullptr) {
    return durableWrite(key, [&](Core& c, auto& log) {
      const bool ok = c.remove(key, old);
      if (ok) log(dur::kWalRemove, ByteSpan{});
      return ok;
    });
  }
  bool replace(ByteSpan key, ByteSpan value, ByteVec* old = nullptr) {
    return durableWrite(key, [&](Core& c, auto& log) {
      const bool ok = c.replace(key, value, old);
      if (ok) log(dur::kWalPut, value);
      return ok;
    });
  }
  bool replaceIf(ByteSpan key, ByteSpan expected, ByteSpan desired) {
    return durableWrite(key, [&](Core& c, auto& log) {
      const bool ok = c.replaceIf(key, expected, desired);
      if (ok) log(dur::kWalPut, desired);
      return ok;
    });
  }

  /// Degraded-path ops (Status instead of OOM exceptions); one shard each,
  /// so the retry ladder and emergency reserve are the owning shard's.
  Status tryPut(ByteSpan key, ByteSpan value) {
    return durableWrite(key, [&](Core& c, auto& log) {
      const Status s = c.tryPut(key, value);
      if (s == Status::Ok) log(dur::kWalPut, value);
      return s;
    });
  }
  template <class F>
  Status tryCompute(ByteSpan key, F&& func, bool* computed = nullptr) {
    return durableWrite(key, [&](Core& c, auto& log) {
      return c.tryCompute(key, [&](OakWBuffer& w) {
        func(w);
        log(dur::kWalPut, w.span());
      }, computed);
    });
  }

  // ==================================================== navigation ==
  // Expressed through the clamped merged scans, which open shards one at a
  // time in key order: a lookup touches one shard unless its answer lies
  // past a shard edge, and range clamping (keys a core holds outside its
  // owned range until retirement trims them) stays a single-point concern.
  std::optional<KeyedEntry> firstEntry() {
    AscendIter it = ascend();
    return takeFirst(it);
  }
  std::optional<KeyedEntry> lastEntry() {
    DescendIter it = descend();
    return takeFirst(it);
  }
  std::optional<KeyedEntry> ceilingEntry(ByteSpan key) {
    AscendIter it = ascend(toVec(key));
    return takeFirst(it);
  }
  std::optional<KeyedEntry> higherEntry(ByteSpan key) {
    AscendIter it = ascend(toVec(key));
    if (it.valid() && bytesEqual(it.entry().key, key)) it.next();
    return takeFirst(it);
  }
  std::optional<KeyedEntry> floorEntry(ByteSpan key) {
    ByteVec hi = toVec(key);
    hi.push_back(std::byte{0});  // probe's exclusive successor in byte order
    DescendIter it = descend(std::nullopt, std::move(hi));
    return takeFirst(it);
  }
  std::optional<KeyedEntry> lowerEntry(ByteSpan key) {
    DescendIter it = descend(std::nullopt, toVec(key));
    return takeFirst(it);
  }

  // =================================================== merged scans ==
  /// Whole-map scan in key order.  Shards are range-partitioned and each
  /// per-shard iterator is clamped to its shard's owned range, so the
  /// clamped ranges are disjoint and reading the shards one after another
  /// (first to last ascending, last to first descending) is already sorted
  /// and free of duplicates; the clamp also hides keys a core holds outside
  /// its owned range.  One core iterator, and so one EBR guard, is open at a
  /// time: it lives inline in `cur_` and is destroyed before the next
  /// shard's is opened.
  ///
  /// Setup happens once, at construction: one snapshot pin for all shards,
  /// one layout held by shared_ptr, and each shard's clamp.  Holding the
  /// layout keeps it live under the retirement rule (file header), so every
  /// core it names keeps the keys it routes there until the scan closes.  A
  /// shard opened later still reads that layout's core, even if a split or
  /// merge has since superseded it — the same stale read §4.2 already allows
  /// an iterator that keeps reading a core after a migration.
  template <bool kDescending>
  class MergedIter {
    using CoreIter = std::conditional_t<kDescending, typename Core::DescendIter,
                                        typename Core::AscendIter>;

   public:
    MergedIter(ShardedOakCoreMap& m, std::optional<ByteVec> lo,
               std::optional<ByteVec> hi, ScanOptions opts) {
      if (opts.isSnapshot() && opts.snapshotVersion == 0) {
        // ONE pin for all shards: the merged scan observes a single version
        // consistent across the whole key space; per-shard iterators reuse
        // it through opts.snapshotVersion instead of pinning their own.
        snap_ = Snapshot(m.snapDomain_);
        opts.snapshotVersion = snap_.version();
      }
      opts_ = opts;
      // Snapshot scans must route through the layout that was current AT
      // the read version: shard migration restamps moved values, so a
      // layout published after the pin may not serve it.  The published
      // layout serves the scan when it is live or the layout was born at
      // or before the pin; otherwise the pinned history holds the right
      // one, taken under mgmtMu_ with NO hazard pin held (a migration
      // holding mgmtMu_ awaits hazard quiescence).
      const std::uint64_t snapV = snapshotVersion();
      {
        TableRef tr(m);
        if (snapV == 0 || tr->born <= snapV) table_ = tr->shared_from_this();
      }
      if (table_ == nullptr) table_ = m.snapshotScanView(snapV);
      const Table& t = *table_;
      if (snap_.valid()) t.cores.front()->noteSnapshotOpened();
      const std::size_t n = t.cores.size();
      const std::size_t first = t.router.lowerShard(lo);
      const std::size_t last = std::min(t.router.upperShard(hi), n - 1);
      for (std::size_t i = first; i <= last; ++i) {
        Leg leg{t.cores[i], lo, hi};
        // Clamp below as well as above: during a merge the absorbing core
        // transiently holds keys under its published lower boundary, and an
        // unclamped iterator would yield them from both shards.
        std::optional<ByteVec> ol = ownedLower(t, i);
        if (ol && (!leg.lo || m.cmp_(asBytes(*ol), asBytes(*leg.lo)) > 0)) leg.lo = std::move(ol);
        std::optional<ByteVec> ou = ownedUpper(t, i);
        if (ou && (!leg.hi || m.cmp_(asBytes(*ou), asBytes(*leg.hi)) < 0)) leg.hi = std::move(ou);
        legs_.push_back(std::move(leg));
      }
      if constexpr (kDescending) std::reverse(legs_.begin(), legs_.end());
      openNextShard();
    }

    bool valid() const noexcept { return cur_.has_value(); }
    std::uint64_t snapshotVersion() const noexcept {
      return opts_.isSnapshot() ? opts_.snapshotVersion : 0;
    }
    EntryView entry() const { return cur_->entry(); }
    void next() {
      cur_->next();
      if (!cur_->valid()) openNextShard();
    }

   private:
    friend ShardedOakCoreMap;  // internal walks (the checkpoint) step uncounted

    void step() {
      cur_->step();
      if (!cur_->valid()) openNextShard();
    }

    /// One shard's part of the scan: its core and clamped bounds.
    struct Leg {
      Core* core;
      std::optional<ByteVec> lo;
      std::optional<ByteVec> hi;
    };

    /// Drops the current shard's iterator (releasing its EBR guard), then
    /// opens shards in scan order until one has an entry or none remain.
    void openNextShard() {
      cur_.reset();
      while (nextLeg_ < legs_.size()) {
        Leg& leg = legs_[nextLeg_++];
        cur_.emplace(*leg.core, std::move(leg.lo), std::move(leg.hi), opts_);
        if (cur_->valid()) return;
        cur_.reset();
      }
    }

    // cur_ is declared last so it (and its EBR guard) is destroyed before
    // the layout that table_ keeps live.
    Snapshot snap_;  ///< the one cross-shard pin (snapshot mode only)
    ScanOptions opts_;
    std::shared_ptr<const Table> table_;
    std::vector<Leg> legs_;  ///< in scan order
    std::size_t nextLeg_ = 0;
    std::optional<CoreIter> cur_;
  };
  using AscendIter = MergedIter<false>;
  using DescendIter = MergedIter<true>;

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

  // ============================================ online shard management ==
  /// Splits shard `idx` at the median of its owned range.  Returns false
  /// when the shard is too small to pick a split key, `idx` is out of
  /// range, the map already has kMaxShards shards, or the copy hit OOM and
  /// rolled back (counted as shard_mgmt_failed).
  bool splitShard(std::size_t idx) {
    MutexLock lk(mgmtMu_);
    return splitLocked(idx, ByteVec{});
  }
  /// Splits shard `idx` at an explicit key, which must lie strictly inside
  /// the shard's owned range.
  bool splitShardAt(std::size_t idx, ByteVec midKey) {
    MutexLock lk(mgmtMu_);
    return splitLocked(idx, std::move(midKey));
  }
  /// Merges shard `idx` into its right neighbor `idx + 1`; the absorbed
  /// core is emptied once no live layout names it, and parked for reuse.
  bool mergeShards(std::size_t idx) {
    MutexLock lk(mgmtMu_);
    return mergeLocked(idx);
  }

  /// One hot/cold policy check: splits the hottest shard when its share of
  /// recent point ops exceeds splitLoadFactor times an even share (and it
  /// has at least minSplitChunks chunks), else merges the coldest adjacent
  /// pair when their combined share falls below mergeLoadFactor of even.
  /// Reads per-shard op counts from the obs registries, so with OAK_STATS=0
  /// it is a no-op.  Returns true iff a layout change was published.
  bool manageShardsOnce() {
    MutexLock lk(mgmtMu_);
    return manageLocked();
  }

  // ==================================================== maintenance ==
  void pauseMaintenance() {
    if (svc_ != nullptr) svc_->pause();
  }
  void resumeMaintenance() {
    if (svc_ != nullptr) svc_->resume();
  }
  void drainMaintenance() {
    if (svc_ != nullptr) svc_->drain();
  }
  maint::MaintenanceStats maintenanceStats() const {
    return svc_ != nullptr ? svc_->stats() : maint::MaintenanceStats{};
  }
  maint::MaintenanceService* maintenanceService() noexcept { return svc_.get(); }

  /// Evacuates sparse arenas in every shard (core_map.hpp compactNow);
  /// returns the total arenas retired to the pool.
  std::size_t compactNow() {
    MutexLock lk(mgmtMu_);
    std::size_t n = 0;
    forEachCoreLocked([&](Core& c) { n += c.compactNow(); });
    return n;
  }

  // ====================================================== snapshots ==
  /// The version clock + pin table every shard stamps against.
  SnapshotDomain& snapshotDomain() noexcept { return snapDomain_; }
  /// Pins the current map state; scans opened with
  /// `ScanOptions::snapshot()` pin their own version automatically.
  Snapshot openSnapshot() { return Snapshot(snapDomain_); }
  /// Drains every shard's version-GC feed once (tests / quiescent points).
  /// Returns the number of version-chain nodes and tombstones retired.
  std::uint64_t collectVersionsNow() {
    MutexLock lk(mgmtMu_);
    std::uint64_t n = 0;
    forEachCoreLocked([&](Core& c) { n += c.collectVersionsNow(); });
    return n;
  }

  // ===================================================== durability ==
  /// True when this map persists to a storage directory (DESIGN.md §12).
  bool durable() const noexcept { return wal_ != nullptr; }

  /// Synchronous whole-map checkpoint: rotates the one front-end WAL while
  /// pinning a snapshot version, streams the merged cross-shard scan at
  /// that version into a new checkpoint file, and commits a manifest that
  /// also records the current shard boundaries.  Returns pairs written
  /// (0 on in-memory maps).  Concurrent mutations proceed (only the
  /// WAL-rotation instant is serialized with appends).  The auto-trigger
  /// (DurConfig::walBytes) runs the same checkpoint, through the maintenance
  /// service when there is one.
  std::uint64_t checkpointNow() { return checkpoint(/*automatic=*/false); }

  /// Forces everything appended to the WAL so far onto disk.
  void syncWal() {
    if (wal_ != nullptr) wal_->sync();
  }

  std::uint64_t recoveryReplayedRecords() const noexcept {
    return recoveryReplayed_.load(std::memory_order_relaxed);
  }
  std::uint64_t recoveryMillis() const noexcept {
    return recoveryMs_.load(std::memory_order_relaxed);
  }

  // ========================================================= stats ==
  std::size_t sizeSlow() {
    std::size_t n = 0;
    for (AscendIter it = ascend(); it.valid(); it.next()) ++n;
    return n;
  }
  std::size_t offHeapFootprintBytes() const {
    MutexLock lk(mgmtMu_);
    std::size_t n = 0;
    forEachCoreLocked([&](const Core& c) { n += c.offHeapFootprintBytes(); });
    return n;
  }
  std::size_t offHeapAllocatedBytes() const {
    MutexLock lk(mgmtMu_);
    std::size_t n = 0;
    forEachCoreLocked([&](const Core& c) { n += c.offHeapAllocatedBytes(); });
    return n;
  }
  std::size_t chunkCount() const {
    MutexLock lk(mgmtMu_);
    std::size_t n = 0;
    forEachCoreLocked([&](const Core& c) { n += c.chunkCount(); });
    return n;
  }
  /// Rebalances across every core the map has made — monotone across
  /// merges, and includes background-executed rebalances (the core's
  /// counter does not care who ran the protocol).
  std::uint64_t rebalanceCount() const {
    MutexLock lk(mgmtMu_);
    std::uint64_t n = 0;
    forEachCoreLocked([&](const Core& c) { n += c.rebalanceCount(); });
    return n;
  }

  /// Whole-map observability snapshot: per-shard Metrics folded into one
  /// (counter/gauge sums, max EBR lag, maintenance gauges absorbed with
  /// max since every shard reports the same shared service).  Every core
  /// the map has made is folded in, parked ones too, so op and rebalance
  /// counters never step backwards across a merge — but only live shards
  /// count toward `shards`.
  obs::Metrics stats() const {
    MutexLock lk(mgmtMu_);
    std::vector<obs::Metrics> per;
    per.reserve(cores_.size());
    forEachCoreLocked([&](const Core& c) { per.push_back(c.stats()); });
    obs::Metrics m = obs::Metrics::aggregate(per);
    m.shards = table_.load(std::memory_order_acquire)->cores.size();
    // Durability gauges live at the front-end (the cores run in-memory and
    // contribute zeros above).
    if (wal_ != nullptr) {
      const dur::WalStats ws = wal_->stats();
      m.durable = true;
      m.walAppends = ws.appends;
      m.walFsyncs = ws.fsyncs;
      m.walBytes = ws.bytes;
      m.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    }
    m.recoveryReplayed = recoveryReplayed_.load(std::memory_order_relaxed);
    m.recoveryMs = recoveryMs_.load(std::memory_order_relaxed);
    return m;
  }
  /// Per-shard snapshots (one oak::Metrics per live shard, unaggregated).
  std::vector<obs::Metrics> shardStats() const {
    MutexLock lk(mgmtMu_);
    const Table* t = table_.load(std::memory_order_acquire);
    std::vector<obs::Metrics> per;
    per.reserve(t->cores.size());
    for (const auto& c : t->cores) per.push_back(c->stats());
    return per;
  }

  /// Runs the retirement pass (trimming what closed scans and released
  /// pins no longer need), then drains deferred reclamation in every
  /// core's EBR domain.
  void quiesce() {
    MutexLock lk(mgmtMu_);
    reclaimLocked();
    forEachCoreLocked([&](Core& c) { c.quiesce(); });
  }

 private:
  // ------------------------------------------------- published tables --
  // Immutable routing state.  A new Table is built off-path under mgmtMu_,
  // published with one seq_cst store, and dropped from the pinned
  // history only after every hazard slot has moved past it; a merged scan
  // keeps one alive through its shared_ptr (see the retirement rule).
  struct Table : std::enable_shared_from_this<Table> {
    std::uint64_t version = 0;
    /// Snapshot-clock value when this table was published.  Shard migration
    /// restamps moved values at copy time, so a snapshot pinned at V must
    /// route through the layout that was current at V: the last table with
    /// born <= V (see snapshotScanView).  Monotone in publish order because
    /// the clock never goes backwards.
    std::uint64_t born = 0;
    ShardRouter<Compare> router;
    std::vector<Core*> cores;  ///< owned by cores_, alive as long as the map
    // Sealed write range [sealLo, sealHi) — writers spin, readers proceed.
    // nullopt bounds mean -inf / +inf.
    bool sealed = false;
    std::optional<ByteVec> sealLo;
    std::optional<ByteVec> sealHi;

    explicit Table(ShardRouter<Compare> r) : router(std::move(r)) {}
  };

  struct alignas(64) GateSlot {
    std::atomic<Table*> t{nullptr};
    std::atomic<std::uint32_t> depth{0};
  };
  struct alignas(64) OpTick {
    std::atomic<std::uint64_t> n{0};
  };

  /// Hazard-slot pin on the current table (store-then-recheck, the same
  /// shape as Chunk's publish array and classic hazard pointers).  Nested
  /// acquisitions on one thread reuse the outer pin.
  class TableRef {
   public:
    explicit TableRef(const ShardedOakCoreMap& m)
        : m_(&m), tid_(ThreadRegistry::id()) {
      GateSlot& s = m.gate_[tid_];
      const std::uint32_t d = s.depth.load(std::memory_order_relaxed);
      s.depth.store(d + 1, std::memory_order_relaxed);
      if (d > 0) {
        t_ = s.t.load(std::memory_order_relaxed);
        return;
      }
      for (;;) {
        Table* t = m.table_.load(std::memory_order_acquire);
        s.t.store(t, std::memory_order_seq_cst);
        if (m.table_.load(std::memory_order_seq_cst) == t) {
          t_ = t;
          return;
        }
      }
    }
    ~TableRef() {
      GateSlot& s = m_->gate_[tid_];
      const std::uint32_t d = s.depth.load(std::memory_order_relaxed) - 1;
      s.depth.store(d, std::memory_order_relaxed);
      if (d == 0) s.t.store(nullptr, std::memory_order_release);
    }
    TableRef(const TableRef&) = delete;
    TableRef& operator=(const TableRef&) = delete;

    Table& operator*() const noexcept { return *t_; }
    Table* operator->() const noexcept { return t_; }

   private:
    const ShardedOakCoreMap* m_;
    std::uint32_t tid_;
    Table* t_;
  };
  friend class TableRef;

  bool writeSealed(const Table& t, ByteSpan key) const {
    if (!t.sealed) return false;
    if (t.sealLo && cmp_(key, asBytes(*t.sealLo)) < 0) return false;
    if (t.sealHi && cmp_(key, asBytes(*t.sealHi)) >= 0) return false;
    return true;
  }

  template <class F>
  auto readOp(ByteSpan key, F&& f) {
    noteOp();
    TableRef t(*this);
    return f(*t->cores[t->router.shardFor(key)]);
  }

  template <class F>
  auto writeOp(ByteSpan key, F&& f) {
    noteOp();
    Backoff b;
    for (;;) {
      {
        TableRef t(*this);
        if (!writeSealed(*t, key)) {
          return f(*t->cores[t->router.shardFor(key)]);
        }
      }  // release the pin while spinning: the publisher must make progress
      b.pause();
    }
  }

  template <class It>
  std::optional<KeyedEntry> takeFirst(It& it) {
    if (!it.valid()) return std::nullopt;
    auto e = it.entry();
    return KeyedEntry{toVec(e.key), OakRBuffer::forValue(e.value)};
  }

  // ------------------------------------------------ publish / retire --
  Table* publishLocked(std::shared_ptr<Table> t) OAK_REQUIRES(mgmtMu_) {
    t->version = tables_.empty() ? 1 : tables_.back()->version + 1;
    t->born = snapDomain_.now();
    Table* p = t.get();
    tables_.push_back(std::move(t));
    table_.store(p, std::memory_order_seq_cst);
    return p;
  }

  /// Waits until no hazard slot references a table other than `current`.
  /// Transient older stores from the acquire loop retract on their own
  /// (the re-check fails once table_ has moved), so this terminates.
  void awaitQuiescentLocked(const Table* current) const OAK_REQUIRES(mgmtMu_) {
    for (std::uint32_t i = 0; i < kMaxThreads; ++i) {
      Backoff b;
      for (;;) {
        Table* t = gate_[i].t.load(std::memory_order_seq_cst);
        if (t == nullptr || t == current) break;
        b.pause();
      }
    }
  }

  /// The retirement pass (file header), run after every layout change and
  /// in quiesce().  History prune first: a superseded table T serves the
  /// pins in [T.born, next.born), so it leaves `tables_` once none is open
  /// (a pin opened later reads at least the published layout's born), and
  /// stays in `retired_` while a scan holds it.  Then, once a layout has
  /// left the live set (or a rollback or an OOM left work behind), every
  /// core is trimmed to the hull of the ranges the live layouts route to it,
  /// and a core none of them names is emptied and parked in `spare_`.
  /// Otherwise the pass does no seeks at all.
  void reclaimLocked() OAK_REQUIRES(mgmtMu_) {
    awaitQuiescentLocked(table_.load(std::memory_order_relaxed));
    for (std::size_t i = 0; i + 1 < tables_.size();) {
      if (snapDomain_.pinnedIn(tables_[i]->born, tables_[i + 1]->born)) {
        ++i;
        continue;
      }
      retired_.emplace_back(tables_[i]);
      tables_.erase(tables_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    std::vector<std::shared_ptr<const Table>> live(tables_.begin(), tables_.end());
    const std::size_t expired =
        std::erase_if(retired_, [&](const std::weak_ptr<const Table>& w) {
          std::shared_ptr<const Table> t = w.lock();
          if (t == nullptr) return true;
          live.push_back(std::move(t));
          return false;
        });
    if (expired == 0 && !trimDue_) return;
    // trimDue_ stays raised until the trim completes: a trim that runs out
    // of memory leaves the rest to the next pass.
    trimDue_ = true;
    constexpr auto kNoPairs = [](auto&&) {};
    try {
      for (const auto& up : cores_) {
        Core* c = up.get();
        if (std::find(spare_.begin(), spare_.end(), c) != spare_.end()) continue;
        bool named = false;
        std::optional<ByteVec> lo, hi;  // hull of c's live ranges; nullopt = unbounded
        for (const auto& t : live) {
          for (std::size_t i = 0; i < t->cores.size(); ++i) {
            if (t->cores[i] != c) continue;
            std::optional<ByteVec> l = ownedLower(*t, i), h = ownedUpper(*t, i);
            if (!named || (lo && (!l || cmp_(asBytes(*l), asBytes(*lo)) < 0))) {
              lo = std::move(l);
            }
            if (!named || (hi && (!h || cmp_(asBytes(*h), asBytes(*hi)) > 0))) {
              hi = std::move(h);
            }
            named = true;
          }
        }
        if (!named) {
          c->replaceRange(std::nullopt, std::nullopt, kNoPairs);
          spare_.push_back(c);
          continue;
        }
        if (lo) c->replaceRange(std::nullopt, std::move(lo), kNoPairs);
        if (hi) c->replaceRange(std::move(hi), std::nullopt, kNoPairs);
      }
    } catch (const std::bad_alloc&) {
      return;
    }
    trimDue_ = false;
  }

  /// An emptied core for a new shard: a parked one when there is one, else
  /// a fresh core registered for the map's lifetime.
  Core* takeCoreLocked() OAK_REQUIRES(mgmtMu_) {
    if (!spare_.empty()) {
      Core* c = spare_.back();
      spare_.pop_back();
      return c;
    }
    cores_.push_back(std::make_unique<Core>(shardCfg_, cmp_, svc_.get(), snapDomain_));
    return cores_.back().get();
  }

  /// The layout that was current at snapshot version `v`: the last retained
  /// table with born <= v (pinned versions keep theirs retained).  A pin
  /// older than every retained table only happens when the caller broke
  /// the snapshotAt contract (pin released); the oldest retained layout is
  /// the best remaining approximation.
  std::shared_ptr<const Table> snapshotScanView(std::uint64_t v) const {
    MutexLock lk(mgmtMu_);
    std::shared_ptr<const Table> best = tables_.front();
    for (const auto& t : tables_) {
      if (t->born <= v) best = t;
    }
    return best;
  }

  // --------------------------------------------------- owned ranges --
  static std::optional<ByteVec> ownedLower(const Table& t, std::size_t i) {
    if (i == 0) return std::nullopt;
    return toVec(t.router.boundary(i - 1));
  }
  static std::optional<ByteVec> ownedUpper(const Table& t, std::size_t i) {
    if (i + 1 >= t.cores.size()) return std::nullopt;
    return toVec(t.router.boundary(i));
  }
  static std::vector<ByteVec> boundsOf(const Table& t) {
    std::vector<ByteVec> b;
    b.reserve(t.router.shards() - 1);
    for (std::size_t i = 0; i + 1 < t.router.shards(); ++i) {
      b.push_back(toVec(t.router.boundary(i)));
    }
    return b;
  }

  template <class F>
  void forEachCoreLocked(F&& f) const OAK_REQUIRES(mgmtMu_) {
    for (const auto& c : cores_) f(*c);
  }

  // ---------------------------------------------------- split / merge --
  /// Median key of the shard's *owned* range, via two clamped passes.
  /// Empty result: too few live entries to split.
  ByteVec pickSplitKey(Core& src, const std::optional<ByteVec>& lo,
                       const std::optional<ByteVec>& hi) {
    std::size_t n = 0;
    for (auto it = src.ascend(lo, hi); it.valid(); it.next()) ++n;
    if (n < 2) return ByteVec{};
    auto it = src.ascend(lo, hi);
    for (std::size_t i = 0; i < n / 2; ++i) it.next();
    return toVec(it.entry().key);
  }

  /// Phase 1 of a migration: republishes `cur`'s layout with [lo, hi)
  /// sealed for writers and waits until every thread sees the seal — after
  /// that the range is write-quiescent.
  void sealLocked(const Table& cur, std::optional<ByteVec> lo,
                  std::optional<ByteVec> hi) OAK_REQUIRES(mgmtMu_) {
    auto v = std::make_shared<Table>(cur.router);
    v->cores = cur.cores;
    v->sealed = true;
    v->sealLo = std::move(lo);
    v->sealHi = std::move(hi);
    awaitQuiescentLocked(publishLocked(std::move(v)));
  }

  /// Phase 3: publishes `bounds` over `cores` and retires what it supersedes.
  void commitLocked(std::vector<ByteVec> bounds, std::vector<Core*> cores)
      OAK_REQUIRES(mgmtMu_) {
    auto v = std::make_shared<Table>(
        ShardRouter<Compare>(ShardLayout::at(std::move(bounds)), cmp_));
    v->cores = std::move(cores);
    publishLocked(std::move(v));
    reclaimLocked();
  }

  /// Phase 2: the sealed range is write-quiescent, so plain reads (stepped
  /// uncounted) give a consistent image, and `to` rebuilds [lo, hi) from it
  /// (OakCoreMap::replaceRange: the copies are restamped at arrival, and
  /// whatever `to` still held there is dropped).  Never logged.
  void migrateLocked(Core& to, Core& from, const std::optional<ByteVec>& lo,
                     const std::optional<ByteVec>& hi) OAK_REQUIRES(mgmtMu_) {
    to.replaceRange(lo, hi, [&](auto&& add) {
      for (auto it = from.ascend(lo, hi, ScanOptions::streaming()); it.valid(); it.step()) {
        const EntryView e = it.entry();
        e.value.read([&](ByteSpan v) { add(e.key, v); });
      }
    });
  }

  /// OOM during the copy: unseal under the old layout (the migration never
  /// happened; the failed rebuild left `to` unchanged) and let the
  /// retirement pass park a core the old layout does not name.
  bool rollbackLocked(const Table& cur) OAK_REQUIRES(mgmtMu_) {
    cur.cores.front()->statsRegistry().incCounter(obs::Counter::ShardMgmtFailed);
    trimDue_ = true;
    commitLocked(boundsOf(cur), cur.cores);
    return false;
  }

  bool splitLocked(std::size_t idx, ByteVec mid) OAK_REQUIRES(mgmtMu_) {
    const Table& cur = *table_.load(std::memory_order_relaxed);
    const std::size_t n = cur.cores.size();
    if (idx >= n || n >= kMaxShards) return false;
    const std::optional<ByteVec> lo = ownedLower(cur, idx);
    const std::optional<ByteVec> hi = ownedUpper(cur, idx);
    if (mid.empty()) mid = pickSplitKey(*cur.cores[idx], lo, hi);
    if (mid.empty()) return false;
    if (lo && cmp_(asBytes(mid), asBytes(*lo)) <= 0) return false;
    if (hi && cmp_(asBytes(mid), asBytes(*hi)) >= 0) return false;

    Core* src = cur.cores[idx];
    sealLocked(cur, mid, hi);
    Core* fresh = nullptr;
    try {
      fresh = takeCoreLocked();
      migrateLocked(*fresh, *src, mid, hi);
    } catch (const std::bad_alloc&) {
      return rollbackLocked(cur);
    }
    // The fresh core owns [mid, hi); src keeps its migrated copies only
    // while a live layout still routes there (the retirement rule).
    std::vector<ByteVec> bounds = boundsOf(cur);
    bounds.insert(bounds.begin() + static_cast<std::ptrdiff_t>(idx), mid);
    std::vector<Core*> cores = cur.cores;
    cores.insert(cores.begin() + static_cast<std::ptrdiff_t>(idx) + 1, fresh);
    commitLocked(std::move(bounds), std::move(cores));
    src->statsRegistry().incCounter(obs::Counter::ShardSplit);
    return true;
  }

  bool mergeLocked(std::size_t idx) OAK_REQUIRES(mgmtMu_) {
    const Table& cur = *table_.load(std::memory_order_relaxed);
    const std::size_t n = cur.cores.size();
    if (n < 2 || idx + 1 >= n) return false;
    const std::optional<ByteVec> lo = ownedLower(cur, idx);
    const ByteVec b = toVec(cur.router.boundary(idx));
    Core* into = cur.cores[idx + 1];
    sealLocked(cur, lo, b);
    try {
      migrateLocked(*into, *cur.cores[idx], lo, b);
    } catch (const std::bad_alloc&) {
      return rollbackLocked(cur);
    }
    std::vector<ByteVec> bounds = boundsOf(cur);
    bounds.erase(bounds.begin() + static_cast<std::ptrdiff_t>(idx));
    std::vector<Core*> cores = cur.cores;
    cores.erase(cores.begin() + static_cast<std::ptrdiff_t>(idx));
    commitLocked(std::move(bounds), std::move(cores));
    into->statsRegistry().incCounter(obs::Counter::ShardMerge);
    return true;
  }

  // ---------------------------------------------------- hot/cold policy --
  static constexpr std::uint64_t kManageMinOps = 1024;

  bool manageLocked() OAK_REQUIRES(mgmtMu_) {
    const Table* t = table_.load(std::memory_order_relaxed);
    const std::size_t n = t->cores.size();
    const maint::MaintenanceConfig& mc = shardCfg_.maintenance;

    // Per-shard point-op deltas since the last check (counters are
    // monotone; a fresh core starts at 0, a reused one at its last check).
    std::vector<std::uint64_t> load(n, 0);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const obs::RegistrySnapshot s = t->cores[i]->statsRegistry().snapshot();
      std::uint64_t ops = 0;
      for (const obs::Op o :
           {obs::Op::Get, obs::Op::GetCopy, obs::Op::Put, obs::Op::PutIfAbsent,
            obs::Op::PutIfAbsentCompute, obs::Op::Compute, obs::Op::Remove}) {
        ops += s.op(o).count;
      }
      std::uint64_t& last = lastOps_[t->cores[i]];
      load[i] = ops - last;
      total += load[i];
      last = ops;
    }
    if (total < kManageMinOps) return false;

    std::size_t hot = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (load[i] > load[hot]) hot = i;
    }
    if (static_cast<double>(load[hot]) * static_cast<double>(n) >
            mc.splitLoadFactor * static_cast<double>(total) &&
        t->cores[hot]->chunkCount() >= mc.minSplitChunks) {
      if (splitLocked(hot, ByteVec{})) return true;
    }

    if (n >= 2) {
      std::size_t cold = 0;
      std::uint64_t best = ~std::uint64_t{0};
      for (std::size_t i = 0; i + 1 < n; ++i) {
        if (load[i] + load[i + 1] < best) {
          best = load[i] + load[i + 1];
          cold = i;
        }
      }
      if (static_cast<double>(best) * static_cast<double>(n) <
          mc.mergeLoadFactor * static_cast<double>(total)) {
        return mergeLocked(cold);
      }
    }
    return false;
  }

  // ----------------------------------------------------- durability --
  /// The one durable-write path (DESIGN.md §12.1).  `op(core, log)` runs
  /// the routed write and calls `log(type, value)` with the record it
  /// linearized: the argument value, a tombstone, or (from inside the
  /// compute wrapper, under the value's header lock) a compute's post-image.
  /// A durable map holds the key's stripe across op and append, so per key
  /// WAL order = linearization order; the fdatasync wait and checkpoint
  /// trigger run after it is released.  In-memory maps and recovery replay
  /// take no stripe.  A compute function must not write to a durable map.
  template <class Op>
  auto durableWrite(ByteSpan key, Op&& op) {
    std::uint64_t ticket = 0;
    auto log = [&](std::uint8_t type, ByteSpan value) {
      if (wal_ != nullptr) ticket = wal_->append(type, key, value);
    };
    auto run = [&] { return writeOp(key, [&](Core& c) { return op(c, log); }); };
    if (wal_ == nullptr) return run();
    auto result = [&] {
      MutexLock lk(stripes_[dur::crc32c(key) & (kStripes - 1)].mu);
      return run();
    }();
    if (ticket != 0) {
      wal_->commit(ticket);
      maybeCheckpoint();
    }
    return result;
  }

  /// Auto-checkpoint trigger: when the current WAL segment outgrows the
  /// configured budget, hand a checkpoint job to the maintenance service
  /// (deduped by a self-owned flag) or run inline without one.
  void maybeCheckpoint() {
    if (wal_->bytesSinceRotate() < shardCfg_.dur.walBytes) return;
    if (svc_ == nullptr) {
      checkpoint(/*automatic=*/true);
      return;
    }
    if (cpJobQueued_.exchange(true, std::memory_order_acq_rel)) return;
    const bool queued = svc_->submit(
        this, ByteVec{}, 1u << 20, [](void* owner, const ByteVec&) {
          auto* self = static_cast<ShardedOakCoreMap*>(owner);
          self->cpJobQueued_.store(false, std::memory_order_release);
          self->checkpoint(/*automatic=*/true);
        });
    if (!queued) {
      cpJobQueued_.store(false, std::memory_order_release);
      checkpoint(/*automatic=*/true);
    }
  }

  /// checkpointNow's body.  An `automatic` checkpoint (the walBytes
  /// trigger) re-checks its trigger under cpMu_: writers that crossed it
  /// together queue here, and once the first has rotated the rest find a
  /// short segment and return.
  std::uint64_t checkpoint(bool automatic) {
    if (wal_ == nullptr) return 0;
    MutexLock lk(cpMu_);
    if (automatic && wal_->bytesSinceRotate() < shardCfg_.dur.walBytes) return 0;
    // Rotate-and-pin under the WAL append mutex: every record already in
    // the closed segments was appended — hence version-stamped — before
    // the snapshot opened, so its effect is at or below V and lands in the
    // checkpoint.  Anything after the rotation goes to the new segment and
    // replays on top; a record stamped before the pin but appended after
    // the rotation is re-applied harmlessly, because it is a full post-image
    // or a tombstone and every later write to its key follows it in the new
    // segment (the key's stripe orders them).  (§12.3 has the full argument.)
    std::optional<Snapshot> snap;
    const std::uint64_t newWalSeq =
        wal_->rotate([&] { snap.emplace(snapDomain_); });
    const std::uint64_t v = snap->version();
    const std::uint64_t newCpSeq = std::max(cpSeq_, prevCpSeq_) + 1;
    dur::CheckpointWriter w(durDir_, newCpSeq, v);
    // Stepped uncounted: the checkpoint is internal work, not user scan
    // traffic.  It stays a Set-style walk (one managed-heap view per entry):
    // a stream walk measured a 1.4-1.7x higher get p99 on perfbench
    // durable-upsert (4-core host).
    for (auto it = ascend(std::nullopt, std::nullopt, ScanOptions::snapshotAt(v));
         it.valid(); it.step()) {
      auto e = it.entry();
      e.readValue([&](ByteSpan val) { w.append(e.key, val); });
    }
    const std::uint64_t pairs = w.finish();
    dur::Manifest m;
    m.cpSeq = newCpSeq;
    m.cpVersion = v;
    m.walStart = newWalSeq;
    m.pairs = pairs;
    {
      // Boundaries may drift between the scan and this capture; recovery
      // routing is self-consistent under ANY sorted boundary set, so a
      // racing split/merge costs nothing but a different initial layout.
      MutexLock mlk(mgmtMu_);
      m.shardBounds = boundsOf(*table_.load(std::memory_order_acquire));
    }
    m.prevCpSeq = cpSeq_;
    m.prevWalStart = walStartSeq_;
    m.store(durDir_);
    dur::purgeObsolete(durDir_, m);
    cpSeq_ = newCpSeq;
    walStartSeq_ = newWalSeq;
    prevCpSeq_ = m.prevCpSeq;
    prevWalStart_ = m.prevWalStart;
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    return pairs;
  }

  /// Recovery: route the checkpoint's globally sorted pair stream into the
  /// shards, one chunk rebuild over each owned range (a shard consumes until
  /// its upper boundary; OakCoreMap::replaceRange), then
  /// replay the WAL tail through the routed public ops.  wal_ is still null
  /// throughout, so nothing re-logs.  Old segments stay on disk until the
  /// next checkpoint — the replayed records' durability still lives there.
  void initDurable(const dur::RecoveryPlan& plan) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t replayed = 0;
    if (plan.cpSeq != 0) {
      auto reader = dur::CheckpointReader::open(durDir_, plan.cpSeq);
      if (reader.has_value()) {
        Table* t = table_.load(std::memory_order_acquire);
        ByteSpan pk, pv;
        bool pending = reader->next(pk, pv);
        for (std::size_t i = 0; i < t->cores.size() && pending; ++i) {
          const std::optional<ByteVec> ub = ownedUpper(*t, i);
          t->cores[i]->replaceRange(ownedLower(*t, i), ub, [&](auto&& add) {
            for (; pending && (!ub || cmp_(pk, asBytes(*ub)) < 0);
                 pending = reader->next(pk, pv)) {
              add(pk, pv);
            }
          });
        }
      }
    }
    for (const std::uint64_t seq : plan.walSegments) {
      const auto st = dur::replayWalSegment(
          dur::walSegmentPath(durDir_, seq),
          [&](std::uint8_t type, ByteSpan k, ByteSpan v) {
            if (type == dur::kWalPut) {
              put(k, v);
            } else if (type == dur::kWalRemove) {
              remove(k);
            }
          });
      if (st.has_value()) replayed += st->records;
    }
    recoveryReplayed_.store(replayed, std::memory_order_relaxed);
    {
      MutexLock lk(cpMu_);
      cpSeq_ = plan.cpSeq;
      walStartSeq_ =
          plan.walSegments.empty() ? plan.nextWalSeq : plan.walSegments.front();
    }
    wal_ = std::make_unique<dur::Wal>(
        durDir_, plan.nextWalSeq,
        dur::Wal::Options{.policy = shardCfg_.dur.fsyncPolicy,
                          .intervalMs = shardCfg_.dur.fsyncIntervalMs});
    if (!plan.haveManifest) {
      // First open: commit an empty-checkpoint manifest so a crash before
      // the first checkpoint still finds its WAL start on reopen.
      MutexLock lk(cpMu_);
      dur::Manifest m;
      m.cpSeq = 0;
      m.walStart = plan.nextWalSeq;
      {
        MutexLock mlk(mgmtMu_);
        m.shardBounds = boundsOf(*table_.load(std::memory_order_acquire));
      }
      m.store(durDir_);
    }
    recoveryMs_.store(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
  }

  void noteOp() {
    if (!autoManage_) return;
    OpTick& slot = opTick_[ThreadRegistry::id()];
    const std::uint64_t k = slot.n.load(std::memory_order_relaxed) + 1;
    slot.n.store(k, std::memory_order_relaxed);
    if (k % kManageCheckOps != 0) return;
    if (svc_ != nullptr) {
      // Deduped per (owner, fn): at most one queued check per map.
      svc_->submit(this, ByteVec{}, 0, [](void* self, const ByteVec&) {
        static_cast<ShardedOakCoreMap*>(self)->manageShardsOnce();
      });
    } else {
      manageShardsOnce();
    }
  }

  // Declaration order is destruction-critical: cores_ must be destroyed
  // before svc_ — each core's destructor detaches from the service.
  Compare cmp_;
  OakConfig shardCfg_;  // per-core config (the durable pool injected)
  /// File-backed arena substrate for durable maps (declared before the
  /// cores so every core is destroyed before its arenas unmap).
  std::unique_ptr<mem::BlockPool> ownedPool_;
  std::unique_ptr<maint::MaintenanceService> svc_;  // null = inline maintenance
  // One snapshot domain for every shard: a merged cross-shard scan pins a
  // single read version, and writers on any shard stamp against the same
  // clock.  Likewise declared before the cores: a shard's version GC reads
  // the domain's pin floor, so the domain must outlive them.
  SnapshotDomain snapDomain_;

  mutable Mutex mgmtMu_;
  /// Every core the map has made, kept for the map's lifetime (views never
  /// dangle); `spare_` holds the emptied ones no live layout names.
  std::vector<std::unique_ptr<Core>> cores_ OAK_GUARDED_BY(mgmtMu_);
  std::vector<Core*> spare_ OAK_GUARDED_BY(mgmtMu_);
  std::vector<std::shared_ptr<Table>> tables_
      OAK_GUARDED_BY(mgmtMu_);  // published + pinned history
  std::vector<std::weak_ptr<const Table>> retired_
      OAK_GUARDED_BY(mgmtMu_);  // pruned; an open scan may still hold one
  bool trimDue_ OAK_GUARDED_BY(mgmtMu_) = false;  // a rollback or OOM left work
  std::atomic<Table*> table_{nullptr};
  mutable std::unique_ptr<GateSlot[]> gate_;

  bool autoManage_ = false;
  std::unique_ptr<OpTick[]> opTick_;
  std::map<const Core*, std::uint64_t> lastOps_;  // op counts at last check

  // Durability (src/dur): all null/zero for in-memory maps.  One WAL and
  // one checkpoint stream for the whole map, whatever the shard count.
  std::string durDir_;  // empty = in-memory
  std::unique_ptr<dur::Wal> wal_;  // created after recovery replay
  static constexpr std::size_t kStripes = 256;  ///< durableWrite's, by crc32c(key)
  struct alignas(64) Stripe { Mutex mu; };
  Stripe stripes_[kStripes];
  Mutex cpMu_;  // serializes checkpoints and the manifest generation state
  std::uint64_t cpSeq_ OAK_GUARDED_BY(cpMu_) = 0;
  std::uint64_t walStartSeq_ OAK_GUARDED_BY(cpMu_) = 1;
  std::uint64_t prevCpSeq_ OAK_GUARDED_BY(cpMu_) = 0;
  std::uint64_t prevWalStart_ OAK_GUARDED_BY(cpMu_) = 0;
  std::atomic<bool> cpJobQueued_{false};
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> recoveryReplayed_{0};
  std::atomic<std::uint64_t> recoveryMs_{0};
};

}  // namespace oak
