// ManagedHeap — the managed-runtime (JVM) simulation substrate.
//
// The paper's evaluation hinges on two properties of Java's heap that plain
// C++ lacks:
//
//   1. *GC cost*: collections do work proportional to the committed object
//      population and pause mutators; cost rises steeply as free headroom
//      shrinks (paper §5.2, Figures 3 and 5).
//   2. *Object layout overhead*: every object carries a header (16 B) plus
//      alignment, inflating the RAM needed for a dataset (paper: skiplist
//      utilizes <40% of RAM for raw data).
//
// This class reproduces both mechanically:
//
//   * Objects are allocated with a charged size = payload + 16 B header,
//     8-byte aligned, and recorded in a slot registry.
//   * `free()` does NOT return memory: it marks the object as garbage.
//     Bytes are reclaimed only by a collection cycle, so a program needs GC
//     headroom beyond its live set — exactly like a real collector.
//   * A collection is triggered when committed bytes exceed a fraction of
//     the budget.  Its *mark* phase does real work: it walks the slot
//     registry and touches the first and last cache line of every live
//     object (simulating tracing), and its *sweep* frees garbage slots.
//     Mutator threads entering alloc/free spin at a safepoint while a
//     stop-the-world cycle runs.
//   * When a full collection cannot bring committed bytes under budget the
//     allocation throws ManagedOutOfMemory.
//   * Ephemeral ("young generation") churn — Java's short-lived iterator and
//     buffer-view objects — is modelled cheaply by chargeEphemeral(): bytes
//     accumulate and every `youngGenBytes` of churn triggers a small
//     fixed-cost young collection.  This is what differentiates Oak's
//     Set-style scan API (one ephemeral object per entry) from its Stream
//     API (one per scan) in Figure 4e/4f.
//
// The simulation is deliberately simple — it is a cost model, not a
// collector — but every cost is incurred as real CPU work and real
// allocation-failure behaviour, so benchmarks measure it rather than assume
// it.  See DESIGN.md §1.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/mutex.hpp"

#include "common/error.hpp"

namespace oak::mheap {

struct GcStats {
  std::uint64_t fullGcCycles = 0;
  std::uint64_t youngGcCycles = 0;
  std::uint64_t gcNanos = 0;         ///< CPU time spent in collection work
  std::uint64_t allocations = 0;
  std::uint64_t oomThrows = 0;
  std::uint64_t gcLastDitch = 0;     ///< emergency full GCs on the OOM edge
  std::size_t liveBytes = 0;         ///< live (reachable) charged bytes
  std::size_t committedBytes = 0;    ///< live + not-yet-collected garbage
  std::size_t liveObjects = 0;
};

class ManagedHeap {
 public:
  struct Config {
    std::size_t budgetBytes = std::size_t{4} << 30;
    std::size_t headerBytes = 16;        ///< Java object header + alignment
    double gcTriggerFraction = 0.85;     ///< full GC when committed exceeds this
    /// Copying/compacting collectors need reserve space beyond the live set;
    /// the effective capacity is budget / headroomFactor.  1.8 is calibrated
    /// from the paper's own capacity data: SkipList-OnHeap caps at 44 GB raw
    /// inside 128 GB (Fig. 3a) and I^2-legacy needs 29 GB for 8.6 GB raw
    /// (Fig. 5b) — both imply a 2.2-2.9x total/live ceiling once object
    /// headers are accounted separately.
    double headroomFactor = 2.2;
    std::size_t youngGenBytes = 8u << 20;///< ephemeral churn per young GC
    std::size_t youngGcCostIters = 4096; ///< fixed work per young collection
    bool enabled = true;                 ///< false = plain malloc (no GC model)
  };

  ManagedHeap() : ManagedHeap(Config{}) {}
  explicit ManagedHeap(Config cfg);
  ~ManagedHeap();

  ManagedHeap(const ManagedHeap&) = delete;
  ManagedHeap& operator=(const ManagedHeap&) = delete;

  /// Allocate `bytes` of managed memory.  Throws ManagedOutOfMemory.
  void* alloc(std::size_t bytes);

  /// Logically frees an object: it becomes garbage until the next cycle.
  void free(void* p) noexcept;

  /// Typed helpers for node-like objects.
  template <class T, class... Args>
  T* create(Args&&... args) {
    void* p = alloc(sizeof(T));
    return new (p) T(std::forward<Args>(args)...);
  }
  template <class T>
  void destroy(T* p) noexcept {
    if (p == nullptr) return;
    p->~T();
    free(p);
  }

  /// Account a short-lived allocation (Java young-gen churn) without paying
  /// a malloc.  Cheap: two relaxed atomic adds; every youngGenBytes of churn
  /// runs a fixed-cost young collection.
  void chargeEphemeral(std::size_t bytes) noexcept;

  /// Models a short-lived *object* allocation at full fidelity: a real
  /// allocation + free through the heap (header, slot registry, garbage
  /// accounting, eventual GC work).  This is what Java pays for each
  /// ephemeral OakRBuffer / Map.Entry a Set-style scan creates (§2.2) —
  /// the dominant cost the paper's Figure 4e attributes to Oak's Set API.
  void ephemeralObject(std::size_t bytes) noexcept {
    if (!cfg_.enabled) return;
    try {
      free(alloc(bytes));
    } catch (const std::bad_alloc&) {
      // Young objects die young: an allocation burst may not fit, but it
      // never OOMs a real JVM.  Swallow and keep running.
    }
  }

  GcStats stats() const;
  std::size_t budgetBytes() const noexcept { return cfg_.budgetBytes; }
  bool enabled() const noexcept { return cfg_.enabled; }

  /// Force a full collection (tests / benchmarks).
  void collectNow();

  /// Process-wide default heap with an effectively unlimited budget — used
  /// when callers do not care about the GC model (most unit tests).
  static ManagedHeap& unlimited();

 private:
  struct Slot {
    std::atomic<void*> ptr{nullptr};
    std::atomic<std::uint32_t> charged{0};
    // 0 = free, 1 = live, 2 = garbage
    std::atomic<std::uint8_t> state{0};
  };

  std::size_t chargeFor(std::size_t bytes) const noexcept {
    return ((bytes + cfg_.headerBytes + 7) & ~std::size_t{7});
  }

  void safepoint() const noexcept;
  void fullGc();
  /// The one stop-the-world sweep: frees every garbage slot (and, with
  /// `mark`, first touches every live object like a tracing mark).
  void collectLocked(bool mark) OAK_REQUIRES(gcMu_);
  bool tryReserve(std::size_t charge);
  std::uint32_t grabSlot();
  /// Pushes a slot onto the free stack (failure unwind and sweep).
  void releaseSlot(std::uint32_t idx) noexcept;
  /// The single funnel for allocation failure: every OOM exit increments
  /// oomThrows_ exactly once and raises the typed exception.
  [[noreturn]] void throwOom();

  Config cfg_;

  std::vector<Slot> slots_;
  std::atomic<std::uint32_t> slotHighWater_{0};
  // Treiber stack of recycled slot indices, linked through nextFree_.
  std::vector<std::atomic<std::uint32_t>> nextFree_;
  std::atomic<std::uint64_t> freeHead_;  // [aba:32|index+1:32]

  std::atomic<std::size_t> committed_{0};
  std::atomic<std::size_t> garbageBytes_{0};
  std::atomic<std::size_t> liveObjects_{0};

  std::atomic<std::size_t> ephemeralBytes_{0};
  std::atomic<std::size_t> bytesSinceGc_{0};

  std::atomic<bool> stw_{false};
  /// Serializes collectors; the swept state itself is atomic slots, so
  /// nothing is OAK_GUARDED_BY(gcMu_) — the lock is pure mutual exclusion.
  Mutex gcMu_;

  std::atomic<std::uint64_t> fullGcCycles_{0};
  std::atomic<std::uint64_t> youngGcCycles_{0};
  std::atomic<std::uint64_t> gcNanos_{0};
  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::uint64_t> oomThrows_{0};
  std::atomic<std::uint64_t> gcLastDitch_{0};
};

/// RAII handle for a managed byte array (used by baselines for key/value
/// "objects").
class ManagedBytes {
 public:
  ManagedBytes() = default;
  static ManagedBytes* make(ManagedHeap& heap, const std::byte* data, std::size_t n);
  static void dispose(ManagedHeap& heap, ManagedBytes* p) noexcept;

  const std::byte* data() const noexcept {
    return reinterpret_cast<const std::byte*>(this + 1);
  }
  std::byte* data() noexcept { return reinterpret_cast<std::byte*>(this + 1); }
  std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
};

}  // namespace oak::mheap
