// MVCC snapshot substrate (ROADMAP item 1: point-in-time snapshot reads).
//
// The paper's iterators are deliberately *not* atomic (§4.2); analytics-style
// long scans therefore observe writer churn mid-flight.  This layer adds the
// missing point-in-time mode on top of the generational value headers:
//
//   * A per-map (per sharded-map) VERSION CLOCK — a monotonically increasing
//     64-bit counter.  Writers *read* the clock and stamp the value header
//     (value.hpp: ValueHeader::writeVersion) under the value write lock; only
//     snapshot opens *advance* it.  The stamp store is the write's
//     snapshot-visibility linearization point.
//
//   * SNAPSHOT PINS.  Opening a snapshot atomically fetches-and-increments
//     the clock; the fetched value V is the snapshot's read version.  A scan
//     at V observes exactly the mappings whose stamp is <= V (value.hpp:
//     ValueCell::readAt walks the per-value version chain).  The pin table
//     tells the version GC which superseded versions are still reachable.
//
// Ordering argument (why "stamp <= V  <=>  write visible at V" is sound):
// both the stamp's clock load and the open's fetch_add are seq_cst.  If a
// writer's load returned s and a snapshot's fetch_add returned V >= s, the
// load is ordered before the fetch_add in the seq_cst total order — i.e. the
// write's stamp was chosen no later than the snapshot opened, so including
// it in the snapshot is a legal linearization.  Conversely any stamp chosen
// after the open reads a clock value > V and is excluded.
//
// The open protocol inserts a SENTINEL PIN (version 0) *before* advancing
// the clock and swaps it for the real pin after: minPinned() therefore never
// skips a snapshot that is mid-open, so the version GC (core_map.hpp:
// collectVersionsNow) cannot reclaim a version an in-flight open is about to
// pin.  Writers consult activeSnapshots() *after* loading their stamp: if it
// reads 0, every open that could still need the superseded version has its
// fetch_add ordered after the writer's clock load, hence V >= stamp and the
// *new* value is the one visible at V — the old version need not be chained.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <utility>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace oak {

/// Shared version clock + snapshot pin table.  One domain per OakCoreMap, or
/// one shared across every shard of a ShardedOakCoreMap (handed to each
/// shard's constructor) so the merged cross-shard scan reads one consistent
/// version.
class SnapshotDomain {
 public:
  /// minPinned() when no snapshot is open: every version is reclaimable.
  static constexpr std::uint64_t kNoPin = ~std::uint64_t{0};

  SnapshotDomain() = default;
  SnapshotDomain(const SnapshotDomain&) = delete;
  SnapshotDomain& operator=(const SnapshotDomain&) = delete;

  /// Current clock value — the stamp a writer records under the value write
  /// lock.  seq_cst: see the ordering argument in the header comment.
  std::uint64_t now() const noexcept {
    return clock_.load(std::memory_order_seq_cst);
  }

  /// Writers check this (after loading their stamp) to skip chaining the
  /// superseded version when no snapshot could observe it.
  std::uint64_t activeSnapshots() const noexcept {
    return active_.load(std::memory_order_seq_cst);
  }

  /// Opens a snapshot and returns its read version V.  Prefer the Snapshot
  /// RAII handle below.  Sentinel-pin first so a concurrent GC pass never
  /// observes the gap between the clock advance and the real pin.
  std::uint64_t open() {
    {
      MutexLock lk(mu_);
      pins_[0] += 1;
    }
    active_.fetch_add(1, std::memory_order_seq_cst);
    const std::uint64_t v = clock_.fetch_add(1, std::memory_order_seq_cst);
    {
      MutexLock lk(mu_);
      pins_[v] += 1;
      unpinLocked(0);
    }
    opened_.fetch_add(1, std::memory_order_relaxed);
    return v;
  }

  /// Releases a pin taken by open().  `heldNs` feeds the snapshot_pin_ms
  /// gauge (how long scans hold versions against the GC).
  void close(std::uint64_t v, std::uint64_t heldNs) {
    {
      MutexLock lk(mu_);
      unpinLocked(v);
    }
    active_.fetch_sub(1, std::memory_order_seq_cst);
    pinnedNs_.fetch_add(heldNs, std::memory_order_relaxed);
  }

  /// Oldest version any open snapshot can still read (kNoPin when none).
  /// A superseded version chained at [dataVersion, supersededAt) is
  /// reclaimable iff minPinned() >= supersededAt.
  std::uint64_t minPinned() const {
    MutexLock lk(mu_);
    return pins_.empty() ? kNoPin : pins_.begin()->first;
  }

  std::uint64_t openedCount() const noexcept {
    return opened_.load(std::memory_order_relaxed);
  }
  /// Cumulative wall time snapshots have held pins, in milliseconds.
  std::uint64_t pinnedMsTotal() const noexcept {
    return pinnedNs_.load(std::memory_order_relaxed) / 1000000u;
  }

 private:
  void unpinLocked(std::uint64_t v) OAK_REQUIRES(mu_) {
    auto it = pins_.find(v);
    if (it != pins_.end() && --it->second == 0) pins_.erase(it);
  }

  std::atomic<std::uint64_t> clock_{1};
  std::atomic<std::uint64_t> active_{0};
  mutable Mutex mu_;
  std::map<std::uint64_t, std::uint32_t> pins_ OAK_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> opened_{0};
  std::atomic<std::uint64_t> pinnedNs_{0};
};

/// Movable RAII pin on a SnapshotDomain.  Iterators opened in snapshot mode
/// own one (the sharded merged iterator owns exactly one for all shards).
class Snapshot {
 public:
  Snapshot() = default;
  explicit Snapshot(SnapshotDomain& dom)
      : dom_(&dom), openedAt_(std::chrono::steady_clock::now()) {
    v_ = dom.open();
  }
  Snapshot(Snapshot&& o) noexcept
      : dom_(o.dom_), v_(o.v_), openedAt_(o.openedAt_) {
    o.dom_ = nullptr;
    o.v_ = 0;
  }
  Snapshot& operator=(Snapshot&& o) noexcept {
    if (this != &o) {
      release();
      dom_ = o.dom_;
      v_ = o.v_;
      openedAt_ = o.openedAt_;
      o.dom_ = nullptr;
      o.v_ = 0;
    }
    return *this;
  }
  ~Snapshot() { release(); }

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  bool valid() const noexcept { return dom_ != nullptr; }
  std::uint64_t version() const noexcept { return v_; }

 private:
  void release() noexcept {
    if (dom_ == nullptr) return;
    const auto held = std::chrono::steady_clock::now() - openedAt_;
    dom_->close(v_, static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(held)
                            .count()));
    dom_ = nullptr;
    v_ = 0;
  }

  SnapshotDomain* dom_ = nullptr;
  std::uint64_t v_ = 0;
  std::chrono::steady_clock::time_point openedAt_{};
};

}  // namespace oak
