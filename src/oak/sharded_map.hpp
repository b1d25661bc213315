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
//     free of duplicates even after splits (see "migration leftovers"
//     below).  Navigation (ceilingEntry, floorEntry, ...) is built on these
//     scans.  The scan keeps the paper's non-atomic §4.2 guarantees,
//     exactly as a single-shard scan does.
//
// Online shard management (split/merge) follows the paper's publish/freeze
// discipline (§4.1), lifted from chunks to shards:
//
//   The routing state lives in an immutable, epoch-published Table
//   {version, router, cores, sealed-range}.  Every operation pins the
//   current table through a per-thread hazard slot (store-then-recheck, the
//   same shape as Chunk's publish array); the management thread publishes a
//   new table and waits until no slot references an older one before it
//   frees it.  Point ops therefore never block on a split or merge — at
//   worst a *writer* into the sealed range spins for the copy window.
//
//   SPLIT(i) at key M:   v+1 publishes the same layout with [M, hi_i)
//   sealed (writers to that range spin; readers proceed).  After the seal
//   is quiescent the range is write-quiescent, so its entries are copied
//   into a fresh core without locks.  v+2 publishes boundary M with the
//   fresh core owning [M, hi_i).  The source core keeps the migrated
//   entries as inert "migration leftovers": range clamping hides them from
//   every post-split operation, and in-flight pre-split readers observing
//   them is exactly the stale-read §4.2 already allows.  Leftovers are
//   reclaimed with the core.
//
//   MERGE(i):   shard i is absorbed into shard i+1 (always leftward, so a
//   core never receives keys below its owned range — that direction is
//   what keeps leftovers from ever aliasing live entries).  v+1 seals
//   shard i's whole range, the copy lands in shard i+1, and v+2 drops the
//   boundary.  The absorbed core moves to a zombie list so outstanding
//   zero-copy views (OakRBuffer) stay valid for the map's lifetime.
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
// whatever the shard count; the shard cores always run in memory.
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

    auto t0 = std::make_unique<Table>(ShardRouter<Compare>(std::move(layout), cmp_));
    t0->cores.reserve(t0->router.shards());
    for (std::size_t i = 0; i < t0->router.shards(); ++i) {
      t0->cores.push_back(makeCore());
    }
    {
      MutexLock lk(mgmtMu_);
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

  // The WAL hooks fire after the routed operation linearizes, before the
  // call returns (see "durability" below).  All are no-ops when wal_ is
  // null — in-memory maps and recovery replay.
  bool put(ByteSpan key, ByteSpan value, ByteVec* old = nullptr) {
    const bool replaced = writeOp(key, [&](Core& c) { return c.put(key, value, old); });
    walLogPut(key, value);
    return replaced;
  }
  bool putIfAbsent(ByteSpan key, ByteSpan value) {
    const bool ok = writeOp(key, [&](Core& c) { return c.putIfAbsent(key, value); });
    if (ok) walLogPut(key, value);
    return ok;
  }
  template <class F>
  void putIfAbsentComputeIfPresent(ByteSpan key, ByteSpan value, F&& func) {
    writeOp(key, [&](Core& c) {
      c.putIfAbsentComputeIfPresent(key, value, std::forward<F>(func));
      return true;
    });
    walLogPostImage(key);
  }
  template <class F>
  bool computeIfPresent(ByteSpan key, F&& func) {
    const bool ok = writeOp(key, [&](Core& c) {
      return c.computeIfPresent(key, std::forward<F>(func));
    });
    if (ok) walLogPostImage(key);
    return ok;
  }
  bool remove(ByteSpan key, ByteVec* old = nullptr) {
    const bool ok = writeOp(key, [&](Core& c) { return c.remove(key, old); });
    if (ok) walLogRemove(key);
    return ok;
  }
  bool replace(ByteSpan key, ByteSpan value, ByteVec* old = nullptr) {
    const bool ok =
        writeOp(key, [&](Core& c) { return c.replace(key, value, old); });
    if (ok) walLogPut(key, value);
    return ok;
  }
  bool replaceIf(ByteSpan key, ByteSpan expected, ByteSpan desired) {
    const bool ok =
        writeOp(key, [&](Core& c) { return c.replaceIf(key, expected, desired); });
    if (ok) walLogPut(key, desired);
    return ok;
  }

  /// Degraded-path ops (Status instead of OOM exceptions); one shard each,
  /// so the retry ladder and emergency reserve are the owning shard's.
  Status tryPut(ByteSpan key, ByteSpan value) {
    const Status s = writeOp(key, [&](Core& c) { return c.tryPut(key, value); });
    if (s == Status::Ok) walLogPut(key, value);
    return s;
  }
  template <class F>
  Status tryCompute(ByteSpan key, F&& func, bool* computed = nullptr) {
    bool ran = false;
    const Status s = writeOp(key, [&](Core& c) {
      return c.tryCompute(key, std::forward<F>(func), &ran);
    });
    if (computed != nullptr) *computed = ran;
    if (s == Status::Ok && ran) walLogPostImage(key);
    return s;
  }

  // ==================================================== navigation ==
  // Expressed through the clamped merged scans, which open shards one at a
  // time in key order: a lookup touches one shard unless its answer lies
  // past a shard edge, and range clamping (migration leftovers!) stays a
  // single-point concern.
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
  /// and free of duplicates; the clamp also hides migration leftovers.  One
  /// core iterator, and so one EBR guard, is open at a time: it lives inline
  /// in `cur_` and is destroyed before the next shard's is opened.
  ///
  /// Setup happens once, at construction: one snapshot pin for all shards,
  /// the layout, each shard's clamp, and shared ownership of the cores, so
  /// a concurrent merge retiring a core never invalidates a running scan.
  /// A shard opened later still reads the core captured here, even if a
  /// split or merge has since superseded it — the same stale read §4.2
  /// already allows an iterator that keeps reading a core after a
  /// migration.  Any future trimming of migration leftovers must therefore
  /// wait until no open scan holds the superseded layout.
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
      const auto build = [&](const ShardRouter<Compare>& router,
                             const std::vector<std::shared_ptr<Core>>& cores) {
        if (snap_.valid() && !cores.empty()) cores.front()->noteSnapshotOpened();
        const std::size_t n = cores.size();
        const std::size_t first = router.lowerShard(lo);
        const std::size_t last = std::min(router.upperShard(hi), n - 1);
        for (std::size_t i = first; i <= last; ++i) {
          Leg leg{cores[i], lo, hi};
          if (i > 0) {
            // Clamp below as well as above: during a merge the absorbing
            // core transiently holds keys under its published lower
            // boundary, and an unclamped iterator would yield them from
            // both shards.
            ByteVec lb = toVec(router.boundary(i - 1));
            if (!leg.lo || m.cmp_(asBytes(lb), asBytes(*leg.lo)) > 0) leg.lo = std::move(lb);
          }
          if (i + 1 < n) {
            ByteVec ub = toVec(router.boundary(i));
            if (!leg.hi || m.cmp_(asBytes(ub), asBytes(*leg.hi)) < 0) leg.hi = std::move(ub);
          }
          legs_.push_back(std::move(leg));
        }
        if constexpr (kDescending) std::reverse(legs_.begin(), legs_.end());
      };
      // Snapshot scans must route through the layout that was current AT
      // the read version: shard migration restamps moved values, so the
      // published layout may not serve versions older than the last
      // split/merge (the originals survive as sealed leftovers in the
      // pre-migration cores).  When no superseded table is retained the
      // published layout serves every pinned version, so the common path
      // stays the plain hazard pin; the flag re-check AFTER pinning closes
      // the race with a concurrent migration publish (see historyRetained_).
      const std::uint64_t snapV = snapshotVersion();
      bool useHistory = snapV != 0 && m.historyRetained();
      if (!useHistory) {
        TableRef tr(m);
        if (snapV != 0 && m.historyRetained()) {
          useHistory = true;  // raced a migration; drop the pin, use history
        } else {
          build(tr->router, tr->cores);
        }
      }
      if (useHistory) {
        // Taken WITHOUT a hazard pin held: snapshotScanView blocks on
        // mgmtMu_, and a migration holding mgmtMu_ awaits hazard
        // quiescence.
        const auto view = m.snapshotScanView(snapV);
        build(view.router, view.cores);
      }
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
    /// One shard's part of the scan: its core and clamped bounds.
    struct Leg {
      std::shared_ptr<Core> core;  // keepalive across merges
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
    // the core that legs_ keeps alive.
    Snapshot snap_;  ///< the one cross-shard pin (snapshot mode only)
    ScanOptions opts_;
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
  /// when the shard is too small to pick a split key (or `idx` is out of
  /// range, or the copy hit OOM and rolled back).
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
  /// Merges shard `idx` into its right neighbor `idx + 1` (the absorbed
  /// core is kept as a zombie so outstanding views stay valid).
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
    forEachCoreLocked([&](const Core& c) { n += const_cast<Core&>(c).compactNow(); });
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
    forEachCoreLocked(
        [&](const Core& c) { n += const_cast<Core&>(c).collectVersionsNow(); });
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
  /// (DurConfig::walBytes) routes here through the maintenance service.
  std::uint64_t checkpointNow() {
    if (wal_ == nullptr) return 0;
    MutexLock lk(cpMu_);
    // Rotate-and-pin under the WAL append mutex: every record already in
    // the closed segments was appended — hence version-stamped — before
    // the snapshot opened, so its effect is at or below V and lands in the
    // checkpoint.  Anything after the rotation goes to the new segment and
    // replays on top.  (§12.3 has the full argument.)
    std::optional<Snapshot> snap;
    const std::uint64_t newWalSeq =
        wal_->rotate([&] { snap.emplace(snapDomain_); });
    const std::uint64_t v = snap->version();
    const std::uint64_t newCpSeq = std::max(cpSeq_, prevCpSeq_) + 1;
    dur::CheckpointWriter w(durDir_, newCpSeq, v);
    for (auto it = ascend(std::nullopt, std::nullopt,
                          ScanOptions::snapshotAt(v));
         it.valid(); it.next()) {
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
  /// Rebalances across current shards *and* zombies — monotone across
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
  /// max since every shard reports the same shared service).  Zombie cores
  /// are folded in too, so op and rebalance counters never step backwards
  /// across a merge — but only live shards count toward `shards`.
  obs::Metrics stats() const {
    MutexLock lk(mgmtMu_);
    const Table* t = table_.load(std::memory_order_acquire);
    std::vector<obs::Metrics> per;
    per.reserve(t->cores.size() + zombies_.size());
    for (const auto& c : t->cores) per.push_back(c->stats());
    for (const auto& z : zombies_) per.push_back(z->stats());
    obs::Metrics m = obs::Metrics::aggregate(per);
    m.shards = t->cores.size();
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

  /// Drains deferred reclamation in every shard's EBR domain.
  void quiesce() {
    MutexLock lk(mgmtMu_);
    forEachCoreLocked([&](const Core& c) { const_cast<Core&>(c).quiesce(); });
  }

 private:
  // ------------------------------------------------- published tables --
  // Immutable routing state.  A new Table is built off-path under mgmtMu_,
  // published with one seq_cst store, and freed only after every hazard
  // slot has moved past it.
  struct Table {
    std::uint64_t version = 0;
    /// Snapshot-clock value when this table was published.  Shard migration
    /// restamps moved values at copy time, so a snapshot pinned at V must
    /// route through the layout that was current at V: the last table with
    /// born <= V (see snapshotScanView).  Monotone in publish order because
    /// the clock never goes backwards.
    std::uint64_t born = 0;
    ShardRouter<Compare> router;
    std::vector<std::shared_ptr<Core>> cores;
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
    return routed(key, std::forward<F>(f));
  }

  /// Runs `f` on the core owning `key`, without counting a user op.
  template <class F>
  auto routed(ByteSpan key, F&& f) {
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

  // -------------------------------------------------- publish / prune --
  Table* publishLocked(std::unique_ptr<Table> t) OAK_REQUIRES(mgmtMu_) {
    t->version = tables_.empty()
                     ? 1
                     : table_.load(std::memory_order_relaxed)->version + 1;
    t->born = snapDomain_.now();
    // Raise the history flag BEFORE the new table becomes reachable: a
    // snapshot scan that hazard-pins the new table and then loads the flag
    // (both seq_cst) is therefore guaranteed to see it raised and divert to
    // the version-resolved path while superseded layouts may still matter.
    if (!tables_.empty()) {
      historyRetained_.store(true, std::memory_order_seq_cst);
    }
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

  /// Frees superseded tables; cores that left the layout move to the
  /// zombie list so outstanding OakRBuffer views stay valid for the map's
  /// lifetime (scans hold their own shared_ptr and do not need this).
  ///
  /// Superseded tables are NOT freed while a snapshot pin may still resolve
  /// to them: table T's validity window is [T.born, successor.born), so T
  /// stays until successor.born <= minPinned() — i.e. every open snapshot
  /// already reads a version the successor layout serves correctly.  The
  /// freed set is always a prefix of `tables_` (born is monotone in publish
  /// order), so the publish-ordered vector survives intact.
  void pruneLocked() OAK_REQUIRES(mgmtMu_) {
    Table* cur = table_.load(std::memory_order_relaxed);
    awaitQuiescentLocked(cur);
    for (const auto& up : tables_) {
      if (up.get() == cur) continue;
      for (const auto& c : up->cores) {
        bool live = false;
        for (const auto& cc : cur->cores) {
          if (cc == c) { live = true; break; }
        }
        if (live) continue;
        bool seen = false;
        for (const auto& z : zombies_) {
          if (z == c) { seen = true; break; }
        }
        if (!seen) zombies_.push_back(c);
      }
    }
    const std::uint64_t minPin = snapDomain_.minPinned();
    std::size_t freeUpTo = 0;  // exclusive end of the freeable prefix
    while (freeUpTo + 1 < tables_.size() &&
           tables_[freeUpTo + 1]->born <= minPin) {
      ++freeUpTo;
    }
    tables_.erase(tables_.begin(),
                  tables_.begin() + static_cast<std::ptrdiff_t>(freeUpTo));
    // Safe to drop the flag once only the published table remains: every
    // pin that still needed an older layout kept it retained (minPinned
    // gate above), so reaching size 1 means all open pins — and any pin
    // opened from here on, whose version is at least the survivor's born —
    // resolve to the published table.
    if (tables_.size() == 1) {
      historyRetained_.store(false, std::memory_order_seq_cst);
    }
  }

  // ------------------------------------------------------ scan views --
  /// Value-copy of one table's routing state: the merged scans build
  /// from this so they never dangle on a pruned Table (cores stay alive via
  /// the shared_ptrs, boundaries via the router copy).
  struct ScanTableView {
    ShardRouter<Compare> router;
    std::vector<std::shared_ptr<Core>> cores;
  };

  /// True while a superseded table is retained for open snapshot pins.
  /// Snapshot scan opens check this (seq_cst) after hazard-pinning the
  /// published table; false means the published layout serves every pinned
  /// version, so the open avoids mgmtMu_ and the view copies entirely.
  bool historyRetained() const noexcept {
    return historyRetained_.load(std::memory_order_seq_cst);
  }

  /// The layout that was current at snapshot version `v`.  Shard migration
  /// (split/merge) restamps moved values at copy time, which makes them
  /// invisible to pins older than the migration — those pins must keep
  /// routing through the pre-migration layout, whose cores retain the
  /// originals as sealed leftovers.  pruneLocked() retains superseded
  /// tables exactly as long as a pin can resolve to them.
  ScanTableView snapshotScanView(std::uint64_t v) const {
    MutexLock lk(mgmtMu_);
    const Table* best = nullptr;
    for (const auto& up : tables_) {  // publish order, born monotone
      if (up->born <= v) best = up.get();
    }
    // A pin older than every retained table can only happen when the
    // caller broke the snapshotAt contract (pin released); the oldest
    // retained layout is the best remaining approximation.
    if (best == nullptr) best = tables_.front().get();
    return ScanTableView{best->router, best->cores};
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
    const Table* t = table_.load(std::memory_order_acquire);
    for (const auto& c : t->cores) f(*c);
    for (const auto& z : zombies_) f(*z);
  }

  // ---------------------------------------------------- split / merge --
  /// Median key of the shard's *owned* range (leftovers excluded), via two
  /// clamped passes.  Empty result: too few live entries to split.
  ByteVec pickSplitKey(Core& src, const std::optional<ByteVec>& lo,
                       const std::optional<ByteVec>& hi) {
    std::size_t n = 0;
    for (auto it = src.ascend(lo, hi); it.valid(); it.next()) ++n;
    if (n < 2) return ByteVec{};
    auto it = src.ascend(lo, hi);
    for (std::size_t i = 0; i < n / 2; ++i) it.next();
    return toVec(it.entry().key);
  }

  bool splitLocked(std::size_t idx, ByteVec mid) OAK_REQUIRES(mgmtMu_) {
    Table& cur = *table_.load(std::memory_order_relaxed);
    const std::size_t n = cur.cores.size();
    if (idx >= n) return false;
    const std::optional<ByteVec> lo = ownedLower(cur, idx);
    const std::optional<ByteVec> hi = ownedUpper(cur, idx);
    if (mid.empty()) mid = pickSplitKey(*cur.cores[idx], lo, hi);
    if (mid.empty()) return false;
    if (lo && cmp_(asBytes(mid), asBytes(*lo)) <= 0) return false;
    if (hi && cmp_(asBytes(mid), asBytes(*hi)) >= 0) return false;

    std::shared_ptr<Core> src = cur.cores[idx];

    // Phase 1: seal [mid, hi) for writers and wait until every thread sees
    // the seal — after that the range is write-quiescent in `src`.
    {
      auto v = std::make_unique<Table>(cur.router);
      v->cores = cur.cores;
      v->sealed = true;
      v->sealLo = mid;
      v->sealHi = hi;
      awaitQuiescentLocked(publishLocked(std::move(v)));
    }

    // Phase 2: copy the sealed range into a fresh core.  Values are
    // write-quiescent, so plain reads + puts are a consistent snapshot.
    std::shared_ptr<Core> fresh;
    try {
      fresh = makeCore();
      ByteVec val;
      for (auto it = src->ascend(mid, hi); it.valid(); it.next()) {
        auto e = it.entry();
        val.clear();
        if (!e.value.read([&](ByteSpan s) { val.assign(s.begin(), s.end()); })) {
          continue;  // deleted-but-linked: nothing to migrate
        }
        fresh->put(e.key, asBytes(val));
      }
    } catch (const std::bad_alloc&) {
      // Roll back: unseal under the old layout; the split never happened.
      auto v = std::make_unique<Table>(cur.router);
      v->cores = cur.cores;
      publishLocked(std::move(v));
      pruneLocked();
      return false;
    }

    // Phase 3: publish boundary `mid` with the fresh core owning [mid, hi).
    // `src` keeps the migrated entries as inert leftovers (see file header).
    std::vector<ByteVec> bounds = boundsOf(cur);
    bounds.insert(bounds.begin() + static_cast<std::ptrdiff_t>(idx), mid);
    auto v = std::make_unique<Table>(
        ShardRouter<Compare>(ShardLayout::at(std::move(bounds)), cmp_));
    v->cores = cur.cores;
    v->cores.insert(v->cores.begin() + static_cast<std::ptrdiff_t>(idx) + 1, fresh);
    publishLocked(std::move(v));
    pruneLocked();
    src->statsRegistry().incCounter(obs::Counter::ShardSplit);
    return true;
  }

  bool mergeLocked(std::size_t idx) OAK_REQUIRES(mgmtMu_) {
    Table& cur = *table_.load(std::memory_order_relaxed);
    const std::size_t n = cur.cores.size();
    if (n < 2 || idx + 1 >= n) return false;
    const std::optional<ByteVec> lo = ownedLower(cur, idx);
    const ByteVec b = toVec(cur.router.boundary(idx));
    std::shared_ptr<Core> absorbed = cur.cores[idx];
    std::shared_ptr<Core> into = cur.cores[idx + 1];

    // Phase 1: seal the absorbed shard's whole range [lo, b).
    {
      auto v = std::make_unique<Table>(cur.router);
      v->cores = cur.cores;
      v->sealed = true;
      v->sealLo = lo;
      v->sealHi = b;
      awaitQuiescentLocked(publishLocked(std::move(v)));
    }

    // Phase 2: copy into the right neighbor.  Leftward absorption only:
    // `into` never held keys below its owned range, so these puts cannot
    // alias stale leftovers (which sit *above* a core's owned range).
    try {
      ByteVec val;
      for (auto it = absorbed->ascend(lo, b); it.valid(); it.next()) {
        auto e = it.entry();
        val.clear();
        if (!e.value.read([&](ByteSpan s) { val.assign(s.begin(), s.end()); })) {
          continue;
        }
        into->put(e.key, asBytes(val));
      }
    } catch (const std::bad_alloc&) {
      auto v = std::make_unique<Table>(cur.router);
      v->cores = cur.cores;
      publishLocked(std::move(v));
      pruneLocked();
      return false;
    }

    // Phase 3: drop boundary idx; the absorbed core becomes a zombie.
    std::vector<ByteVec> bounds = boundsOf(cur);
    bounds.erase(bounds.begin() + static_cast<std::ptrdiff_t>(idx));
    auto v = std::make_unique<Table>(
        ShardRouter<Compare>(ShardLayout::at(std::move(bounds)), cmp_));
    v->cores = cur.cores;
    v->cores.erase(v->cores.begin() + static_cast<std::ptrdiff_t>(idx));
    publishLocked(std::move(v));
    pruneLocked();
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
    // monotone; cores are keyed by address so fresh cores start at 0).
    std::vector<std::uint64_t> load(n, 0);
    std::uint64_t total = 0;
    std::map<const void*, std::uint64_t> now;
    for (std::size_t i = 0; i < n; ++i) {
      const obs::RegistrySnapshot s = t->cores[i]->statsRegistry().snapshot();
      std::uint64_t ops = 0;
      for (const obs::Op o :
           {obs::Op::Get, obs::Op::GetCopy, obs::Op::Put, obs::Op::PutIfAbsent,
            obs::Op::PutIfAbsentCompute, obs::Op::Compute, obs::Op::Remove}) {
        ops += s.op(o).count;
      }
      const void* key = t->cores[i].get();
      const auto prev = lastOps_.find(key);
      load[i] = ops - (prev != lastOps_.end() ? prev->second : 0);
      total += load[i];
      now[key] = ops;
    }
    lastOps_.swap(now);
    if (total < kManageMinOps) return false;

    std::size_t hot = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (load[i] > load[hot]) hot = i;
    }
    if (n < kMaxShards &&
        static_cast<double>(load[hot]) * static_cast<double>(n) >
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
  /// WAL hooks, called from the public mutation wrappers after the routed
  /// operation's in-memory linearization (and version stamp) but before
  /// the call returns — the append IS the commit point.  Appends are
  /// serialized by the WAL mutex, so two non-concurrent same-key ops log
  /// in linearization order; truly concurrent same-key writes may log in
  /// either order, both valid linearizations (DESIGN.md §12.2).
  void walLogPut(ByteSpan key, ByteSpan value) {
    if (wal_ == nullptr) return;
    wal_->appendPut(key, value);
    maybeCheckpoint();
  }
  void walLogRemove(ByteSpan key) {
    if (wal_ == nullptr) return;
    wal_->appendRemove(key);
    maybeCheckpoint();
  }
  /// Compute-style ops mutate in place, so the record is the post-image
  /// read back after the compute released the value's lock.  A read finding
  /// the key gone means a concurrent remove won; its remove record covers
  /// the key, so logging nothing is exact.  KNOWN GAP (DESIGN.md §12.1):
  /// the read-back and the append are not one atomic step, so two
  /// overlapping computes on one key can log f2(f1(x)) and then f1(x);
  /// replay then restores f1(x), which matches neither linearization and
  /// loses an upsert across reopen.  Closing it needs version-stamped WAL
  /// records or an append made under the value's header lock.
  ///
  /// The read-back is part of the compute, not a user GetCopy: it goes
  /// through the routed core uncounted (no op, no managed-heap charge, no
  /// shard-management tick).
  void walLogPostImage(ByteSpan key) {
    if (wal_ == nullptr) return;
    if (auto v = routed(key, [&](Core& c) { return c.copyValue(key); })) {
      wal_->appendPut(key, asBytes(*v));
      maybeCheckpoint();
    }
  }

  /// Auto-checkpoint trigger: when the current WAL segment outgrows the
  /// configured budget, hand a checkpoint job to the maintenance service
  /// (deduped by a self-owned flag) or run inline without one.
  void maybeCheckpoint() {
    if (wal_->bytesSinceRotate() < shardCfg_.dur.walBytes) return;
    if (svc_ == nullptr) {
      checkpointNow();
      return;
    }
    if (cpJobQueued_.exchange(true, std::memory_order_acq_rel)) return;
    const bool queued = svc_->submit(
        this, ByteVec{}, 1u << 20, [](void* owner, const ByteVec&) {
          auto* self = static_cast<ShardedOakCoreMap*>(owner);
          self->cpJobQueued_.store(false, std::memory_order_release);
          self->checkpointNow();
        });
    if (!queued) {
      cpJobQueued_.store(false, std::memory_order_release);
      checkpointNow();
    }
  }

  /// Recovery: route the checkpoint's globally sorted pair stream into each
  /// shard's bulk loader (a shard consumes until its upper boundary), then
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
          t->cores[i]->bulkLoadSorted([&](ByteSpan& key, ByteSpan& value) {
            if (!pending) return false;
            if (ub && cmp_(pk, asBytes(*ub)) >= 0) return false;
            key = pk;
            value = pv;
            // Advancing is safe before the consumer copies: the reader
            // hands out spans into its whole-file buffer, so the previous
            // pair's bytes stay put.
            pending = reader->next(pk, pv);
            return true;
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

  /// A shard core running on the shared service and snapshot domain.
  std::shared_ptr<Core> makeCore() {
    return std::make_shared<Core>(shardCfg_, cmp_, svc_.get(), snapDomain_);
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

  // Declaration order is destruction-critical: tables_/zombies_ (the
  // cores) must be destroyed before svc_ — each core's destructor
  // detaches from the service.
  Compare cmp_;
  OakConfig shardCfg_;  // per-core config (the durable pool injected)
  /// File-backed arena substrate for durable maps (declared before the
  /// tables so every core is destroyed before its arenas unmap).
  std::unique_ptr<mem::BlockPool> ownedPool_;
  std::unique_ptr<maint::MaintenanceService> svc_;  // null = inline maintenance
  // One snapshot domain for every shard: a merged cross-shard scan pins a
  // single read version, and writers on any shard stamp against the same
  // clock.  Likewise declared before the cores: a shard's version GC reads
  // the domain's pin floor, so the domain must outlive them.
  SnapshotDomain snapDomain_;

  mutable Mutex mgmtMu_;
  std::vector<std::unique_ptr<Table>> tables_
      OAK_GUARDED_BY(mgmtMu_);  // current + not-yet-pruned
  std::vector<std::shared_ptr<Core>> zombies_
      OAK_GUARDED_BY(mgmtMu_);  // merged-away cores
  std::atomic<Table*> table_{nullptr};
  /// Raised (before publish) whenever a publish supersedes a table, lowered
  /// by pruneLocked once history is down to the published table alone.
  /// seq_cst pairs with the pin-then-check in the merged scan constructor.
  std::atomic<bool> historyRetained_{false};
  mutable std::unique_ptr<GateSlot[]> gate_;

  bool autoManage_ = false;
  std::unique_ptr<OpTick[]> opTick_;
  std::map<const void*, std::uint64_t> lastOps_;  // op counts at last check

  // Durability (src/dur): all null/zero for in-memory maps.  One WAL and
  // one checkpoint stream for the whole map, whatever the shard count.
  std::string durDir_;  // empty = in-memory
  std::unique_ptr<dur::Wal> wal_;  // created after recovery replay
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
