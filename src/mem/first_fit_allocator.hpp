// First-fit flat free-list allocator over pooled arenas (§3.2).
//
// "Key and value buffers are allocated from the arena's flat free list using
//  a first-fit approach; they return to the free list upon KV-pair deletion
//  or value resize."
//
// Fast path: an atomic bump pointer inside the instance's current arena.
// Recycling path: per-thread size-class magazines backed by global per-class
// free stacks (mem/magazine.hpp) absorb the delete/resize churn that the
// paper's flat free list would serialize behind one lock; only oversized
// (> SizeClasses::kMaxSegBytes) or cold allocations fall through to the
// first-fit scan and arena growth.  Magazine-eligible segments are carved at
// their class size, so alloc and free agree on segment geometry from the
// user length alone.  All allocations are 8-byte aligned and never span
// arenas.
//
// Exhaustion: before OffHeapOutOfMemory can escape the grow path, every
// magazine and global stack is drained back into the flat free list and the
// allocation retried — cached slices can never cause a spurious
// ResourceExhausted in the PR-4 degraded path.  Exiting threads drain their
// magazines via a ThreadRegistry exit hook.
//
// OakSan hooks (common/checked.hpp):
//  * An allocation-start bitmap (one bit per 8-byte granule, every build)
//    records which slices are live; free() uses it to reject double-free —
//    aborting in checked builds, error-returning otherwise — and the
//    ChunkWalker uses it to prove no live entry points at a freed slice.
//  * Under AddressSanitizer, whole arenas are poisoned on acquisition and
//    slices are unpoisoned on alloc / re-poisoned on free, so off-heap
//    use-after-free and out-of-bounds trap like heap bugs do.
//  * In OAK_CHECKED builds every slice carries a 16-byte header with a
//    magic state word and a generation tag; translate() validates it on
//    every dereference and aborts with a diagnostic on stale handles.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/annotations.hpp"
#include "common/checked.hpp"
#include "common/mutex.hpp"
#include "common/spin.hpp"
#include "mem/block_pool.hpp"
#include "mem/magazine.hpp"
#include "mem/ref.hpp"
#include "mem/size_classes.hpp"

namespace oak::mem {

class FirstFitAllocator {
 public:
  /// `emergencyReserveBytes` > 0 carves a segment of that size out of the
  /// first arena and keeps it off the free list; releaseEmergencyReserve()
  /// makes it allocatable.  The degraded tryPut path uses it as a last
  /// tranche before reporting Status::ResourceExhausted.
  explicit FirstFitAllocator(BlockPool& pool, std::uint32_t emergencyReserveBytes = 0);
  ~FirstFitAllocator();

  FirstFitAllocator(const FirstFitAllocator&) = delete;
  FirstFitAllocator& operator=(const FirstFitAllocator&) = delete;

  /// Allocates `len` bytes off-heap. Thread-safe. Throws OffHeapOutOfMemory.
  Ref alloc(std::uint32_t len);

  /// Allocates `len` bytes in the *pinned* domain: dedicated arenas that are
  /// never evacuation victims, so the returned slice's physical address is
  /// stable for the allocation's whole life.  Value headers live here —
  /// OakRBuffer escapes EBR guards holding raw header pointers, so headers
  /// must never move (DESIGN.md §13).  Pinned slices are freed through the
  /// ordinary free(); routing is by block.  Thread-safe; throws
  /// OffHeapOutOfMemory.
  Ref allocPinned(std::uint32_t len);

  /// Returns a previously allocated reference to the free list. Thread-safe.
  /// Returns false (checked builds: aborts) when `ref` is null, not owned by
  /// this allocator, or already free — the free list is left untouched, so a
  /// double-free cannot corrupt it.
  bool free(Ref ref);

  /// Pointer to the first byte of `ref`.  Safe to call concurrently with
  /// allocation; the caller must have obtained `ref` through a properly
  /// synchronized channel (entry CAS etc.).  Checked builds validate the
  /// slice header and abort on use-after-free / stale handles.
  std::byte* translate(Ref ref) const noexcept {
#if OAK_CHECKED
    validateLive(ref, "translate");
#endif
    return bases_[ref.block()].load(std::memory_order_acquire) + ref.offset();
  }

  /// True when `ref` addresses a currently-live allocation start (bitmap
  /// probe; available in every build).  Used by debug validators.
  bool isLive(Ref ref) const noexcept {
    if (ref.isNull() || ref.block() >= Ref::kMaxBlocks) return false;
    const std::atomic<std::uint64_t>* map =
        allocMap_[ref.block()].load(std::memory_order_acquire);
    if (map == nullptr) return false;
    const std::uint32_t g = ref.offset() / kAlign;
    return ((map[g >> 6].load(std::memory_order_relaxed) >> (g & 63)) & 1) != 0;
  }

#if OAK_CHECKED
  /// Generation stamped into the slice header when `ref` was allocated.
  std::uint32_t generationOf(Ref ref) const noexcept;
  /// Aborts unless `ref` is live and still carries `expectedGen` — the
  /// exact-ABA probe (a recycled slice passes isLive but fails this).
  void assertLiveGeneration(Ref ref, std::uint32_t expectedGen) const noexcept;
#endif

  /// Total off-heap bytes this instance holds (whole arenas) — the paper's
  /// "fast estimation of RAM footprint".
  std::size_t footprintBytes() const noexcept {
    return ownedBlocks() * pool_.blockBytes();
  }
  std::size_t ownedBlocks() const noexcept {
    return nOwned_.load(std::memory_order_relaxed);
  }
  /// Bytes handed out and not yet freed (logical occupancy).
  std::size_t allocatedBytes() const noexcept {
    return outBytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t allocCount() const noexcept {
    return allocCount_.load(std::memory_order_relaxed);
  }
  /// Cumulative frees / bytes returned to the free list (obs gauges).
  std::uint64_t freeOpCount() const noexcept {
    return freeOps_.load(std::memory_order_relaxed);
  }
  std::uint64_t freedBytes() const noexcept {
    return freedBytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t freeListLength() const;

  /// Per-instance magazine switch.  Must be flipped before the first
  /// allocation (asserted): the class mapping decides segment geometry, so
  /// toggling it mid-life would make free() reconstitute segments alloc
  /// never carved.  Tests and A/B benchmarks use this to compare against
  /// the bare first-fit path.
  void setMagazinesEnabled(bool on);
  bool magazinesEnabled() const noexcept { return magsEnabled_; }

  /// Process-wide default for new instances (on unless turned off here).
  /// Benchmarks use it to build whole maps on the pre-magazine path.
  static void setMagazinesDefaultEnabled(bool on);
  static bool magazinesDefaultEnabled();

  /// True when `a`-byte and `b`-byte allocations are carved at different
  /// segment sizes.  Value resize uses this as its reallocation policy
  /// (§3.2 "return to the free list upon ... value resize"): a shrink that
  /// stays inside the slice's size class keeps the slice; one that crosses
  /// a class boundary frees and reallocates so the bytes recycle instead
  /// of ratcheting every value up to its historical maximum.  Oversized
  /// (magazine-ineligible) slices always shrink in place.
  static bool classDiffers(std::uint32_t a, std::uint32_t b) noexcept {
    const std::uint32_t na = roundUp(a) + kSliceHeaderBytes;
    const std::uint32_t nb = roundUp(b) + kSliceHeaderBytes;
    if (!SizeClasses::eligible(na) || !SizeClasses::eligible(nb)) return false;
    return SizeClasses::classFor(na) != SizeClasses::classFor(nb);
  }

  /// Magazine counters + per-class occupancy (zeroed when disabled).
  MagazineDepot::Stats magazineStats() const {
    return magsEnabled_ ? depot_.stats() : MagazineDepot::Stats{};
  }
  std::uint64_t magazineHitCount() const noexcept {
    return depot_.hitCount() + depot_.globalHitCount();
  }
  std::uint64_t magazineMissCount() const noexcept {
    return depot_.missCount();
  }

  // ── Arena evacuation (DESIGN.md §13) ────────────────────────────────────
  //
  // The relocation pass marks sparse arenas with beginEvacuate(), copies
  // every live slice out (the map layer owns that walk), and calls
  // finishEvacuate() once the arena provably holds no live slice.  While a
  // block is marked:
  //  * tryFreeList() skips its segments, so no new allocation lands in it;
  //  * free() bypasses the magazines for its slices (straight to the flat
  //    free list), and magazine pops that surface one of its cached
  //    segments park it on the free list instead of handing it out.
  // finishEvacuate() succeeds only when the block's free-list segments plus
  // its recorded waste bytes tile the whole arena — an in-flight allocation
  // holds its segment *out* of the list, so the tiling check cannot pass
  // while any slice is live or being carved.

  /// Per-block occupancy snapshot for evacuation scoring.
  struct BlockOccupancy {
    std::uint32_t block;
    std::uint64_t liveBytes;  ///< bytes handed out of this block, not yet freed
    bool pinned;              ///< pinned domain (never an evacuation victim)
    bool evacuating;          ///< beginEvacuate() marked, not yet finished
    bool current;             ///< hosts a bump cursor (data or pinned)
  };
  std::vector<BlockOccupancy> blockOccupancy();

  /// Marks `block` as an evacuation victim.  Refuses (returns false) blocks
  /// this allocator does not own, pinned blocks, the current bump block, the
  /// block hosting the un-released emergency reserve, and blocks already
  /// marked.  After marking victims the caller must flushMagazines() so
  /// previously-cached victim segments return to the free list.
  bool beginEvacuate(std::uint32_t block);
  /// Clears the victim mark; the block becomes allocatable again.
  void abortEvacuate(std::uint32_t block);
  /// Releases a fully-evacuated victim back to the pool: verifies the
  /// free-segment tiling, purges the block's free-list entries, poisons the
  /// arena, and returns its id (and budget) to the BlockPool.  Returns false
  /// when the block still holds live (or in-flight) slices — the caller
  /// retries next pass or aborts.
  bool finishEvacuate(std::uint32_t block);
  bool isEvacuating(std::uint32_t block) const noexcept {
    return block < Ref::kMaxBlocks &&
           evacuating_[block].load(std::memory_order_acquire);
  }

  /// Releases every owned arena whose free segments + waste tile the whole
  /// block (no live slice).  Called from the grow path under terminal
  /// pressure so fully-dead-but-unreleased arenas don't count toward the
  /// budget and trip ResourceExhausted prematurely; also callable directly.
  /// Returns the number of arenas released.
  std::size_t releaseDeadArenas();

  /// Empties every magazine + global stack into the flat free list (public
  /// face of the grow path's terminal-pressure drain; evacuation uses it to
  /// flush cached victim segments).
  void flushMagazines() { (void)drainMagazinesToFreeList(); }

  /// Evacuation gauges.
  std::size_t pinnedBlocks() const noexcept {
    return nPinned_.load(std::memory_order_relaxed);
  }
  std::size_t evacuatingBlocks() const noexcept {
    return nEvacuating_.load(std::memory_order_relaxed);
  }
  std::uint64_t liveBytesInBlock(std::uint32_t block) const noexcept {
    return block < Ref::kMaxBlocks
               ? liveBytes_[block].load(std::memory_order_relaxed)
               : 0;
  }

  /// Hands the carved emergency reserve to the free list.  Returns false
  /// when no reserve is held (never configured, not yet carved, or already
  /// released).  The reserve is released at most once.
  bool releaseEmergencyReserve();
  /// True while a carved reserve is still being held back.
  bool emergencyReserveAvailable() const;

  BlockPool& pool() noexcept { return pool_; }

 private:
  static constexpr std::uint32_t kAlign = 8;

  // Every allocation is padded with a leading slice header in checked
  // builds; segment arithmetic uses the constant so both modes share one
  // code path (it is 0 — and the header vanishes — when unchecked).
#if OAK_CHECKED
  static constexpr std::uint32_t kSliceHeaderBytes = 16;
  static constexpr std::uint32_t kLiveMagic = 0xA110CA7Eu;
  static constexpr std::uint32_t kFreeMagic = 0xF4EEF4EEu;
  struct SliceHeader {
    std::uint32_t state;       // kLiveMagic / kFreeMagic
    std::uint32_t generation;  // stamped at alloc; survives the free
    std::uint32_t length;      // user-visible length at allocation
    std::uint32_t pad_;
  };
  static_assert(sizeof(SliceHeader) == kSliceHeaderBytes);
  SliceHeader* sliceHeader(Ref ref) const noexcept {
    return reinterpret_cast<SliceHeader*>(
        bases_[ref.block()].load(std::memory_order_acquire) + ref.offset() -
        kSliceHeaderBytes);
  }
  void validateLive(Ref ref, const char* what) const noexcept;
#else
  static constexpr std::uint32_t kSliceHeaderBytes = 0;
#endif

  static constexpr std::uint32_t roundUp(std::uint32_t n) noexcept {
    return n < kAlign ? kAlign : ((n + kAlign - 1) & ~(kAlign - 1));
  }

  Ref tryBump(std::uint32_t need) { return tryBumpOn(cur_, need); }
  Ref tryBumpOn(std::atomic<std::uint64_t>& cursor, std::uint32_t need);
  Ref tryFreeList(std::uint32_t need) OAK_EXCLUDES(freeMu_);
  Ref tryPinnedFreeList(std::uint32_t need) OAK_EXCLUDES(freeMu_);
  void newBlockLocked(std::uint32_t need, bool pinned) OAK_REQUIRES(growMu_);
  /// Magazine pops route evacuating-block segments back to the flat free
  /// list (returns true) instead of handing them out.
  bool parkIfEvacuating(Ref seg);
  std::size_t releaseDeadArenasLocked() OAK_REQUIRES(growMu_);
  /// Drops every free-list entry belonging to `id` (both domains).
  void purgeFreeSegmentsLocked(std::uint32_t id) OAK_REQUIRES(freeMu_);
  /// Poisons, forgets, and returns `id` to the pool.  The block must hold no
  /// live slice and no free-list entry.
  void releaseBlockLocked(std::uint32_t id) OAK_REQUIRES(growMu_);
  /// Stamps the slice header, flips the bitmap bit, unpoisons, accounts.
  /// `seg` is a raw segment of exactly `need` bytes (the class size for
  /// magazine-eligible allocations, roundUp(len) + header otherwise).
  Ref finishAlloc(Ref seg, std::uint32_t len, std::uint32_t need);
  /// Empties every magazine + global stack into the flat free list; the
  /// grow path's last resort before letting OffHeapOutOfMemory escape.
  /// Returns true when at least one segment was recovered.
  bool drainMagazinesToFreeList();
#if OAK_CHECKED
  /// Aborts unless a magazine-served raw segment still carries the freed
  /// header free() stamped — catches corruption of cached slices.
  void validateCachedSegment(Ref seg) const noexcept;
#endif
  static void threadExitTrampoline(void* ctx, std::uint32_t tid);

  BlockPool& pool_;

  // Packed current-arena cursor: [block:20 | offset:40] (offset is bounded by
  // the 26-bit Ref range anyway).  pinnedCur_ is the same thing for the
  // pinned domain.
  std::atomic<std::uint64_t> cur_{0};
  std::atomic<std::uint64_t> pinnedCur_{0};
  Mutex growMu_ OAK_ACQUIRED_BEFORE(freeMu_);

  // Flat free list: vector of free segments scanned first-fit.  The pinned
  // domain keeps its own list so data-domain allocations can never be
  // served from (and thereby un-tile) a pinned arena.
  mutable SpinLock freeMu_;
  std::vector<Ref> freeList_ OAK_GUARDED_BY(freeMu_);
  std::vector<Ref> pinnedFree_ OAK_GUARDED_BY(freeMu_);
  std::atomic<std::uint64_t> freeCount_{0};

  // Emergency reserve: a raw segment (same format as free-list entries)
  // withheld from allocation until releaseEmergencyReserve().  reserveSeg_
  // is guarded by freeMu_; the carve itself happens under growMu_.
  const std::uint32_t reserveBytes_;
  bool reserveCarved_ OAK_GUARDED_BY(freeMu_) = false;
  Ref reserveSeg_ OAK_GUARDED_BY(freeMu_){};

  // block id -> base pointer (written once per acquired block).
  std::atomic<std::byte*> bases_[Ref::kMaxBlocks];
  // block id -> allocation-start bitmap (one bit per kAlign granule).
  std::atomic<std::atomic<std::uint64_t>*> allocMap_[Ref::kMaxBlocks];
  std::vector<std::uint32_t> owned_ OAK_GUARDED_BY(growMu_);
  std::atomic<std::size_t> nOwned_{0};

  // Per-block accounting for evacuation: bytes handed out and not yet freed
  // (occupancy scoring), bytes dropped without a free-list entry (arena-
  // switch tails too small to salvage — so the tiling check can still close),
  // and the pinned / evacuating flags that drive alloc- and free-path
  // routing.
  std::atomic<std::uint64_t> liveBytes_[Ref::kMaxBlocks] = {};
  std::atomic<std::uint32_t> wasteBytes_[Ref::kMaxBlocks] = {};
  std::atomic<bool> pinned_[Ref::kMaxBlocks] = {};
  std::atomic<bool> evacuating_[Ref::kMaxBlocks] = {};
  std::atomic<std::size_t> nPinned_{0};
  std::atomic<std::size_t> nEvacuating_{0};

  // Size-class magazine front-end (mem/magazine.hpp).  magsEnabled_ is
  // fixed before the first allocation; see setMagazinesEnabled().
  MagazineDepot depot_{bases_, kSliceHeaderBytes};
  bool magsEnabled_;

  std::atomic<std::size_t> outBytes_{0};
  std::atomic<std::uint64_t> allocCount_{0};
  std::atomic<std::uint64_t> freeOps_{0};
  std::atomic<std::uint64_t> freedBytes_{0};
#if OAK_CHECKED
  std::atomic<std::uint32_t> sliceGen_{1};
#endif
};

}  // namespace oak::mem
