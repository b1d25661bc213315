// OakMap<K, V, KSer, VSer, Compare> — the typed public API.
//
// Mirrors Table 1 of the paper:
//
//   * map.zc()   — ZeroCopyConcurrentNavigableMap: get and scans return
//                  OakRBuffers; updates return void/bool and never copy the
//                  old value.
//   * map itself — the legacy ConcurrentNavigableMap surface: object-typed
//                  parameters and returns (each query deserializes a copy;
//                  updates return the previous value).
//
// Both views share one core instance, exactly as in the paper ("the ZC and
// legacy API implementations share most of it", §4).  Scans are configured
// through a typed ScanOptions (direction + stream) used uniformly by
// entrySet/keySet/valueSet and the core iterators.
//
// There is one map.  BasicOakMap wraps ShardedOakCoreMap<Compare>
// (oak/sharded_map.hpp): range-partitioned OakCoreMap shards, whose scans
// read the shards one after another in key order, and the only owner of
// durability.  OakMap and ShardedOakMap
// name the same type; a plain OakConfig builds a 1-shard map, whose single
// chunk list is the paper's map.
#pragma once

#include <functional>
#include <optional>
#include <utility>

#include "oak/core_map.hpp"
#include "oak/scan_options.hpp"
#include "oak/sharded_map.hpp"

namespace oak {

template <class K, class V, class KSer, class VSer, class Compare = BytesComparator>
  requires SerializerFor<KSer, K> && SerializerFor<VSer, V>
class BasicOakMap {
  using Core = ShardedOakCoreMap<Compare>;

 public:
  /// Takes a ShardedOakConfig, or a plain OakConfig for a 1-shard map.
  explicit BasicOakMap(ShardedOakConfig cfg = {}, Compare cmp = Compare{})
      : core_(std::move(cfg), cmp) {}

  /// Named constructor for durable maps (DESIGN.md §12): opens (or creates)
  /// the storage directory, recovers the last checkpoint plus the WAL tail,
  /// and returns a map ready for traffic.  Equivalent to constructing with
  /// cfg.withStorageDir(dir) — this spelling just makes recovery explicit
  /// at the call site.
  static BasicOakMap open(const std::string& dir, ShardedOakConfig cfg = {},
                          Compare cmp = Compare{}) {
    cfg.withStorageDir(dir);
    return BasicOakMap(std::move(cfg), cmp);
  }

  /// Typed navigation result: the entry's key (deserialized — it identifies
  /// the entry) plus a zero-copy view of its value.
  struct KeyedEntry {
    K key;
    OakRBuffer value;
  };

  // ===================================================== zero-copy view ==
  class ZeroCopyView {
   public:
    explicit ZeroCopyView(Core& core) : core_(&core) {}

    /// OakRBuffer get(K) — a view, not a copy (§2.2).
    std::optional<OakRBuffer> get(const K& key) {
      ScratchSerialized<KSer, K> k(key);
      return core_->get(k.span());
    }

    /// Serialized-bytes copy of the value (no deserialization) — the raw
    /// rendering of the legacy get for callers that want bytes.
    std::optional<ByteVec> getCopy(const K& key) {
      ScratchSerialized<KSer, K> k(key);
      return core_->getCopy(k.span());
    }

    /// void put(K, V) — does not return the old value.
    void put(const K& key, const V& value) {
      ScratchSerialized<KSer, K> k(key);
      ScratchSerialized<VSer, V> v(value);
      core_->put(k.span(), v.span());
    }

    /// boolean putIfAbsent(K, V).
    bool putIfAbsent(const K& key, const V& value) {
      ScratchSerialized<KSer, K> k(key);
      ScratchSerialized<VSer, V> v(value);
      return core_->putIfAbsent(k.span(), v.span());
    }

    /// boolean replace(K, V): rewrite iff present; no old value returned.
    bool replace(const K& key, const V& value) {
      ScratchSerialized<KSer, K> k(key);
      ScratchSerialized<VSer, V> v(value);
      return core_->replace(k.span(), v.span());
    }

    /// boolean replace(K, expected, desired): atomic CAS on the serialized
    /// value bytes under the value's write lock.
    bool replaceIf(const K& key, const V& expected, const V& desired) {
      ScratchSerialized<KSer, K> k(key);
      ScratchSerialized<VSer, V> e(expected);
      ScratchSerialized<VSer, V> d(desired);
      return core_->replaceIf(k.span(), e.span(), d.span());
    }

    /// void remove(K).
    void remove(const K& key) {
      ScratchSerialized<KSer, K> k(key);
      core_->remove(k.span());
    }

    /// boolean computeIfPresent(K, Function(OakWBuffer)) — atomic in-place.
    template <class F>
    bool computeIfPresent(const K& key, F&& func) {
      ScratchSerialized<KSer, K> k(key);
      return core_->computeIfPresent(k.span(), std::forward<F>(func));
    }

    /// boolean putIfAbsentComputeIfPresent(K, V, Function(OakWBuffer)).
    template <class F>
    void putIfAbsentComputeIfPresent(const K& key, const V& value, F&& func) {
      ScratchSerialized<KSer, K> k(key);
      ScratchSerialized<VSer, V> v(value);
      core_->putIfAbsentComputeIfPresent(k.span(), v.span(), std::forward<F>(func));
    }

    bool containsKey(const K& key) {
      ScratchSerialized<KSer, K> k(key);
      return core_->containsKey(k.span());
    }

    // ------------------------------------------------ navigation queries
    /// ConcurrentNavigableMap ordered lookups; values stay zero-copy.
    std::optional<KeyedEntry> firstEntry() { return typed(core_->firstEntry()); }
    std::optional<KeyedEntry> lastEntry() { return typed(core_->lastEntry()); }
    std::optional<KeyedEntry> ceilingEntry(const K& key) {
      ScratchSerialized<KSer, K> k(key);
      return typed(core_->ceilingEntry(k.span()));
    }
    std::optional<KeyedEntry> higherEntry(const K& key) {
      ScratchSerialized<KSer, K> k(key);
      return typed(core_->higherEntry(k.span()));
    }
    std::optional<KeyedEntry> floorEntry(const K& key) {
      ScratchSerialized<KSer, K> k(key);
      return typed(core_->floorEntry(k.span()));
    }
    std::optional<KeyedEntry> lowerEntry(const K& key) {
      ScratchSerialized<KSer, K> k(key);
      return typed(core_->lowerEntry(k.span()));
    }

    // --------------------------------------------------------- scan views
    /// Zero-copy entry cursor: keySet/valueSet/entrySet are projections of
    /// this (the C++ rendering of the Set<OakRBuffer,...> APIs).
    class EntryCursor {
     public:
      EntryCursor(Core& core, std::optional<ByteVec> lo, std::optional<ByteVec> hi,
                  ScanOptions opts)
          : descending_(opts.isDescending()) {
        if (descending_) {
          desc_.emplace(core, std::move(lo), std::move(hi), opts);
        } else {
          asc_.emplace(core, std::move(lo), std::move(hi), opts);
        }
      }

      bool valid() const {
        return descending_ ? desc_->valid() : asc_->valid();
      }
      void next() { descending_ ? desc_->next() : asc_->next(); }

      /// Key view (immutable; lock-free).
      OakRBuffer keyBuffer() const {
        return OakRBuffer::forKey(rawEntry().key);
      }
      /// Value view (read-locked; may throw ConcurrentModification later).
      /// Snapshot scans hand out snapshot views: the buffer keeps resolving
      /// the version pinned at cursor-open time even after later overwrites.
      OakRBuffer valueBuffer() const {
        const auto e = rawEntry();
        return e.snapshotVersion != 0
                   ? OakRBuffer::forValueAt(e.value, e.snapshotVersion)
                   : OakRBuffer::forValue(e.value);
      }
      K key() const { return KSer::deserialize(rawEntry().key); }
      /// Deserializing convenience (copies — prefer valueBuffer()).
      std::optional<V> value() const {
        std::optional<V> out;
        rawEntry().readValue([&](ByteSpan s) { out.emplace(VSer::deserialize(s)); });
        return out;
      }

      // ---- range-for support: `for (auto& e : map.zc().entrySet())` ----
      struct EndSentinel {};
      class Iterator {
       public:
        explicit Iterator(EntryCursor* c) : c_(c) {}
        const EntryCursor& operator*() const { return *c_; }
        const EntryCursor* operator->() const { return c_; }
        Iterator& operator++() {
          c_->next();
          return *this;
        }
        bool operator!=(EndSentinel) const { return c_->valid(); }
        bool operator==(EndSentinel) const { return !c_->valid(); }

       private:
        EntryCursor* c_;
      };
      Iterator begin() { return Iterator(this); }
      EndSentinel end() const { return {}; }

     private:
      typename Core::EntryView rawEntry() const {
        return descending_ ? desc_->entry() : asc_->entry();
      }
      bool descending_;
      std::optional<typename Core::AscendIter> asc_;
      std::optional<typename Core::DescendIter> desc_;
    };

    /// keySet projection: yields deserialized keys.
    class KeyCursor {
     public:
      KeyCursor(Core& core, std::optional<ByteVec> lo, std::optional<ByteVec> hi,
                ScanOptions opts)
          : c_(core, std::move(lo), std::move(hi), opts) {}

      bool valid() const { return c_.valid(); }
      void next() { c_.next(); }
      K key() const { return c_.key(); }
      OakRBuffer keyBuffer() const { return c_.keyBuffer(); }

      struct EndSentinel {};
      class Iterator {
       public:
        explicit Iterator(KeyCursor* c) : c_(c) {}
        K operator*() const { return c_->key(); }
        Iterator& operator++() {
          c_->next();
          return *this;
        }
        bool operator!=(EndSentinel) const { return c_->valid(); }
        bool operator==(EndSentinel) const { return !c_->valid(); }

       private:
        KeyCursor* c_;
      };
      Iterator begin() { return Iterator(this); }
      EndSentinel end() const { return {}; }

     private:
      EntryCursor c_;
    };

    /// valueSet projection: yields zero-copy value views.
    class ValueCursor {
     public:
      ValueCursor(Core& core, std::optional<ByteVec> lo, std::optional<ByteVec> hi,
                  ScanOptions opts)
          : c_(core, std::move(lo), std::move(hi), opts) {}

      bool valid() const { return c_.valid(); }
      void next() { c_.next(); }
      OakRBuffer valueBuffer() const { return c_.valueBuffer(); }
      std::optional<V> value() const { return c_.value(); }

      struct EndSentinel {};
      class Iterator {
       public:
        explicit Iterator(ValueCursor* c) : c_(c) {}
        OakRBuffer operator*() const { return c_->valueBuffer(); }
        Iterator& operator++() {
          c_->next();
          return *this;
        }
        bool operator!=(EndSentinel) const { return c_->valid(); }
        bool operator==(EndSentinel) const { return !c_->valid(); }

       private:
        ValueCursor* c_;
      };
      Iterator begin() { return Iterator(this); }
      EndSentinel end() const { return {}; }

     private:
      EntryCursor c_;
    };

    EntryCursor entrySet(ScanOptions opts = {}) {
      return EntryCursor(*core_, {}, {}, opts);
    }
    KeyCursor keySet(ScanOptions opts = {}) {
      return KeyCursor(*core_, {}, {}, opts);
    }
    ValueCursor valueSet(ScanOptions opts = {}) {
      return ValueCursor(*core_, {}, {}, opts);
    }

    // JDK-flavored conveniences over entrySet(ScanOptions).
    EntryCursor entryStreamSet() { return entrySet(ScanOptions::ascending(true)); }
    EntryCursor descendingEntrySet() { return entrySet(ScanOptions::descending()); }
    EntryCursor descendingEntryStreamSet() {
      return entrySet(ScanOptions::descending(true));
    }

    /// subMap [fromKey, toKey) — direction and stream mode via ScanOptions.
    EntryCursor subMap(const K& fromKey, const K& toKey, ScanOptions opts = {}) {
      ScratchSerialized<KSer, K> lo(fromKey);
      ScratchSerialized<KSer, K> hi(toKey);
      return EntryCursor(*core_, toVec(lo.span()), toVec(hi.span()), opts);
    }
    EntryCursor tailMap(const K& fromKey, ScanOptions opts = {}) {
      ScratchSerialized<KSer, K> lo(fromKey);
      return EntryCursor(*core_, toVec(lo.span()), {}, opts);
    }
    EntryCursor headMap(const K& toKey, ScanOptions opts = {}) {
      ScratchSerialized<KSer, K> hi(toKey);
      return EntryCursor(*core_, {}, toVec(hi.span()), opts);
    }

   private:
    std::optional<KeyedEntry> typed(std::optional<typename Core::KeyedEntry> e) {
      if (!e) return std::nullopt;
      return KeyedEntry{KSer::deserialize(asBytes(e->key)), e->value};
    }
    Core* core_;
  };

  ZeroCopyView zc() { return ZeroCopyView(core_); }

  // ======================================================= legacy view ==
  // ConcurrentNavigableMap-style object API (right column of Table 1).

  /// V get(K) — deserializing copy (the paper's Oak-Copy configuration).
  std::optional<V> get(const K& key) {
    ScratchSerialized<KSer, K> k(key);
    auto bytes = core_.getCopy(k.span());
    if (!bytes) return std::nullopt;
    return VSer::deserialize(asBytes(*bytes));
  }

  /// V put(K, V) — returns the previous value (copied atomically).
  std::optional<V> put(const K& key, const V& value) {
    ScratchSerialized<KSer, K> k(key);
    ScratchSerialized<VSer, V> v(value);
    ByteVec old;
    if (!core_.put(k.span(), v.span(), &old)) return std::nullopt;
    return VSer::deserialize(asBytes(old));
  }

  /// V putIfAbsent(K, V) — returns the existing value if present.
  std::optional<V> putIfAbsent(const K& key, const V& value) {
    ScratchSerialized<KSer, K> k(key);
    ScratchSerialized<VSer, V> v(value);
    if (core_.putIfAbsent(k.span(), v.span())) return std::nullopt;
    return get(key);
  }

  /// V replace(K, V) — rewrites iff present; returns the previous value
  /// (copied atomically with the overwrite, under the value's write lock).
  std::optional<V> replace(const K& key, const V& value) {
    ScratchSerialized<KSer, K> k(key);
    ScratchSerialized<VSer, V> v(value);
    ByteVec old;
    if (!core_.replace(k.span(), v.span(), &old)) return std::nullopt;
    return VSer::deserialize(asBytes(old));
  }

  /// boolean replace(K, expected, desired) — atomic CAS on serialized bytes.
  bool replaceIf(const K& key, const V& expected, const V& desired) {
    ScratchSerialized<KSer, K> k(key);
    ScratchSerialized<VSer, V> e(expected);
    ScratchSerialized<VSer, V> d(desired);
    return core_.replaceIf(k.span(), e.span(), d.span());
  }

  /// V remove(K) — returns the removed value.
  std::optional<V> remove(const K& key) {
    ScratchSerialized<KSer, K> k(key);
    ByteVec old;
    if (!core_.remove(k.span(), &old)) return std::nullopt;
    return VSer::deserialize(asBytes(old));
  }

  bool containsKey(const K& key) {
    ScratchSerialized<KSer, K> k(key);
    return core_.containsKey(k.span());
  }

  // ------------------------------------------------- degraded operation
  /// Status tryPut(K, V) — never throws on resource exhaustion; returns
  /// Ok, Retry (reclamation pending, back off and call again) or
  /// ResourceExhausted (the map is genuinely full).
  Status tryPut(const K& key, const V& value) {
    ScratchSerialized<KSer, K> k(key);
    ScratchSerialized<VSer, V> v(value);
    return core_.tryPut(k.span(), v.span());
  }

  /// Status tryCompute(K, Function(OakWBuffer)) — non-throwing in-place
  /// update; `*computed` reports whether the key was present.
  template <class F>
  Status tryCompute(const K& key, F&& func, bool* computed = nullptr) {
    ScratchSerialized<KSer, K> k(key);
    return core_.tryCompute(k.span(), std::forward<F>(func), computed);
  }

  // ------------------------------------------------ navigation queries
  /// Deserializing navigation (legacy view): typed key *and* value copies.
  std::optional<std::pair<K, V>> firstEntry() { return copyOut(core_.firstEntry()); }
  std::optional<std::pair<K, V>> lastEntry() { return copyOut(core_.lastEntry()); }
  std::optional<std::pair<K, V>> ceilingEntry(const K& key) {
    ScratchSerialized<KSer, K> k(key);
    return copyOut(core_.ceilingEntry(k.span()));
  }
  std::optional<std::pair<K, V>> higherEntry(const K& key) {
    ScratchSerialized<KSer, K> k(key);
    return copyOut(core_.higherEntry(k.span()));
  }
  std::optional<std::pair<K, V>> floorEntry(const K& key) {
    ScratchSerialized<KSer, K> k(key);
    return copyOut(core_.floorEntry(k.span()));
  }
  std::optional<std::pair<K, V>> lowerEntry(const K& key) {
    ScratchSerialized<KSer, K> k(key);
    return copyOut(core_.lowerEntry(k.span()));
  }
  std::optional<K> firstKey() {
    auto e = firstEntry();
    if (!e) return std::nullopt;
    return std::move(e->first);
  }
  std::optional<K> lastKey() {
    auto e = lastEntry();
    if (!e) return std::nullopt;
    return std::move(e->first);
  }

  std::size_t size() { return core_.sizeSlow(); }

  // ---------------------------------------------------------- statistics
  /// Observability snapshot (obs layer): op counters + latency percentiles,
  /// rebalance/chunk structure, allocator gauges, EBR lag, GC stats.
  Metrics stats() const { return core_.stats(); }

  std::size_t offHeapFootprintBytes() const { return core_.offHeapFootprintBytes(); }
  std::size_t offHeapAllocatedBytes() const { return core_.offHeapAllocatedBytes(); }
  std::size_t chunkCount() const { return core_.chunkCount(); }
  std::uint64_t rebalanceCount() const { return core_.rebalanceCount(); }

  // --------------------------------------------------------- maintenance
  /// Background-maintenance control (no-ops when the map runs without a
  /// worker pool).  pause() parks the workers after their current job;
  /// drain() runs every queued job on the calling thread and returns with
  /// an empty queue — the usual pre-snapshot / pre-validation barrier.
  void pauseMaintenance() { core_.pauseMaintenance(); }
  void resumeMaintenance() { core_.resumeMaintenance(); }
  void drainMaintenance() { core_.drainMaintenance(); }
  maint::MaintenanceStats maintenanceStats() const {
    return core_.maintenanceStats();
  }
  /// Evacuates sparse arenas in every shard now (see OakCoreMap::compactNow);
  /// returns the arenas retired to the pool.
  std::size_t compactNow() { return core_.compactNow(); }

  // ---------------------------------------------------------- durability
  /// True when this map persists to a storage directory (DESIGN.md §12).
  bool durable() const noexcept { return core_.durable(); }
  /// Synchronous checkpoint; returns pairs written (0 on in-memory maps).
  std::uint64_t checkpointNow() { return core_.checkpointNow(); }
  /// Forces all WAL appends so far to disk (FsyncPolicy::Never/Interval).
  void syncWal() { core_.syncWal(); }
  /// WAL records replayed by the last open (0 = clean or in-memory).
  std::uint64_t recoveryReplayedRecords() const noexcept {
    return core_.recoveryReplayedRecords();
  }
  std::uint64_t recoveryMillis() const noexcept { return core_.recoveryMillis(); }

  // ----------------------------------------------------------- snapshots
  /// Pins the current map state and returns the RAII pin.  Scans opened
  /// with `ScanOptions::snapshot()` pin (and release) their own version
  /// automatically; an explicit pin is only needed to read the same
  /// version from several cursors.
  Snapshot openSnapshot() { return core_.openSnapshot(); }
  SnapshotDomain& snapshotDomain() noexcept { return core_.snapshotDomain(); }
  /// Drains the version-GC feed once; returns chain nodes + tombstones
  /// retired.  Normally unnecessary — version GC runs amortized on the
  /// write path (or on the maintenance pool when one is configured).
  std::uint64_t collectVersionsNow() { return core_.collectVersionsNow(); }

  Core& core() { return core_; }

 private:
  std::optional<std::pair<K, V>> copyOut(std::optional<typename Core::KeyedEntry> e) {
    if (!e) return std::nullopt;
    // The value view may be deleted concurrently between the lookup and the
    // read; the legacy contract is a copy-or-absent answer, so treat that
    // race as absence of this entry.
    try {
      std::optional<V> v;
      e->value.read([&](ByteSpan s) { v.emplace(VSer::deserialize(s)); });
      return std::make_pair(KSer::deserialize(asBytes(e->key)), std::move(*v));
    } catch (const ConcurrentModification&) {
      return std::nullopt;
    }
  }

  Core core_;
};

/// The map.  Built from an OakConfig it has one shard — one chunk list, the
/// paper's map; built from a ShardedOakConfig (withShards(N) or an explicit
/// ShardLayout) it has N independent shards (own chunk list, arena region,
/// EBR domain) whose full-map scans read the shards in key order.
template <class K, class V, class KSer, class VSer, class Compare = BytesComparator>
using OakMap = BasicOakMap<K, V, KSer, VSer, Compare>;

/// Same type as OakMap; the name reads better at multi-shard call sites.
template <class K, class V, class KSer, class VSer, class Compare = BytesComparator>
using ShardedOakMap = OakMap<K, V, KSer, VSer, Compare>;

/// Convenience alias matching the benchmarks: string keys, ByteVec values.
using OakStringMap = OakMap<std::string, ByteVec, StringSerializer, BytesSerializer>;

}  // namespace oak
