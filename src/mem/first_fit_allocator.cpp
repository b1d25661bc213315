#include "mem/first_fit_allocator.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/thread_registry.hpp"

namespace oak::mem {

namespace {
std::atomic<bool> gMagazinesDefault{true};
}  // namespace

void FirstFitAllocator::setMagazinesDefaultEnabled(bool on) {
  gMagazinesDefault.store(on, std::memory_order_relaxed);
}

bool FirstFitAllocator::magazinesDefaultEnabled() {
  return gMagazinesDefault.load(std::memory_order_relaxed);
}

void FirstFitAllocator::setMagazinesEnabled(bool on) {
  // The class mapping decides how big a segment each allocation carves;
  // flipping it after segments exist would make free() reconstitute sizes
  // alloc never produced.
  assert(allocCount_.load(std::memory_order_relaxed) == 0 &&
         freeOps_.load(std::memory_order_relaxed) == 0);
  magsEnabled_ = on;
}

void FirstFitAllocator::threadExitTrampoline(void* ctx, std::uint32_t tid) {
  static_cast<FirstFitAllocator*>(ctx)->depot_.drainThread(tid);
}

namespace {
constexpr std::uint64_t packCur(std::uint32_t block, std::uint64_t offset) {
  return (static_cast<std::uint64_t>(block + 1) << 40) | offset;
}
constexpr bool curValid(std::uint64_t cur) { return (cur >> 40) != 0; }
constexpr std::uint32_t curBlock(std::uint64_t cur) {
  return static_cast<std::uint32_t>(cur >> 40) - 1;
}
constexpr std::uint64_t curOffset(std::uint64_t cur) {
  return cur & ((std::uint64_t{1} << 40) - 1);
}

#if OAK_CHECKED
std::uint32_t loadU32(const std::uint32_t& w) noexcept {
  return std::atomic_ref<const std::uint32_t>(w).load(std::memory_order_acquire);
}
void storeU32(std::uint32_t& w, std::uint32_t v) noexcept {
  std::atomic_ref<std::uint32_t>(w).store(v, std::memory_order_release);
}
#endif
}  // namespace

FirstFitAllocator::FirstFitAllocator(BlockPool& pool,
                                     std::uint32_t emergencyReserveBytes)
    : pool_(pool),
      reserveBytes_(emergencyReserveBytes == 0
                        ? 0
                        : roundUp(emergencyReserveBytes) + kSliceHeaderBytes),
      magsEnabled_(magazinesDefaultEnabled()) {
  for (auto& b : bases_) b.store(nullptr, std::memory_order_relaxed);
  for (auto& m : allocMap_) m.store(nullptr, std::memory_order_relaxed);
  // Exiting threads flush their magazines so no freed slice is stranded in
  // a dead per-thread slot (harmless no-op while magazines are disabled).
  ThreadRegistry::addExitHook(&FirstFitAllocator::threadExitTrampoline, this);
}

FirstFitAllocator::~FirstFitAllocator() {
  ThreadRegistry::removeExitHook(&FirstFitAllocator::threadExitTrampoline, this);
  MutexLock lk(growMu_);  // destructor is exclusive, but keeps the analysis exact
  for (std::uint32_t id : owned_) {
    delete[] allocMap_[id].load(std::memory_order_relaxed);
    pool_.release(id);
  }
}

Ref FirstFitAllocator::alloc(std::uint32_t len) {
  OAK_FAULT_POINT("alloc.offheap", OffHeapOutOfMemory);
  // Internal bookkeeping is 8-byte-granular, but the returned reference
  // carries the *exact* requested length: callers (key comparisons, value
  // sizes) must never observe alignment padding.
  std::uint32_t need = roundUp(len) + kSliceHeaderBytes;
  if (need > pool_.blockBytes() || need >= Ref::kMaxLength) {
    throw OakUsageError("allocation larger than arena size");
  }
  // Magazine fast path: recycled segments of this size class, served from
  // the calling thread's cache and, failing that, the class's global
  // stack.  Eligible allocations are carved at the class size everywhere
  // (including the first-fit fallback below) so free() can reconstitute
  // the segment from the user length alone.
  if (magsEnabled_ && SizeClasses::eligible(need)) {
    const std::uint32_t cls = SizeClasses::classFor(need);
    need = SizeClasses::bytesFor(cls);
    const std::uint32_t tid = ThreadRegistry::id();
    // Loops: a pop can surface a segment cached before its block became an
    // evacuation victim — park it on the free list and try the next one.
    while (Ref seg = depot_.popLocal(cls, tid)) {
      if (parkIfEvacuating(seg)) continue;
#if OAK_CHECKED
      validateCachedSegment(seg);
#endif
      return finishAlloc(seg, len, need);
    }
    // The refill itself can need host memory (first touch of a thread's
    // magazines); chaos tests inject OOM here to prove doPut stays
    // strongly exception-safe when the magazine layer fails mid-flight.
    OAK_FAULT_POINT("alloc.magazine", OffHeapOutOfMemory);
    while (Ref seg = depot_.popGlobal(cls, tid)) {
      if (parkIfEvacuating(seg)) continue;
#if OAK_CHECKED
      validateCachedSegment(seg);
#endif
      return finishAlloc(seg, len, need);
    }
    depot_.noteMiss();
  }
  for (;;) {
    // §3.2: first fit from the flat free list; the bump pointer only serves
    // virgin space.  A relaxed counter keeps the common empty-list case off
    // the lock.
    if (freeCount_.load(std::memory_order_relaxed) != 0) {
      if (Ref seg = tryFreeList(need)) return finishAlloc(seg, len, need);
    }
    if (Ref seg = tryBump(need)) return finishAlloc(seg, len, need);
    MutexLock lk(growMu_);
    // Re-check under the lock: another thread may have installed a new arena.
    const std::uint64_t cur = cur_.load(std::memory_order_acquire);
    if (curValid(cur) && curOffset(cur) + need <= pool_.blockBytes()) continue;
    try {
      newBlockLocked(need, /*pinned=*/false);
    } catch (const OffHeapOutOfMemory&) {
      // Terminal pressure: slices parked in magazines are still free
      // memory, and an arena whose every byte is already back on the free
      // list is free *budget*.  Recover both and retry before letting
      // exhaustion escape, so cached slices and dead-but-unreleased arenas
      // never turn into a spurious ResourceExhausted for the degraded
      // tryPut path.
      if (!drainMagazinesToFreeList() && releaseDeadArenasLocked() == 0) throw;
    }
  }
}

Ref FirstFitAllocator::allocPinned(std::uint32_t len) {
  OAK_FAULT_POINT("alloc.offheap", OffHeapOutOfMemory);
  const std::uint32_t need = roundUp(len) + kSliceHeaderBytes;
  if (need > pool_.blockBytes() || need >= Ref::kMaxLength) {
    throw OakUsageError("allocation larger than arena size");
  }
  // No magazine front-end: pinned allocations (value headers) are recycled
  // by the HeaderPool a layer above, so churn here is already absorbed.
  for (;;) {
    if (Ref seg = tryPinnedFreeList(need)) return finishAlloc(seg, len, need);
    if (Ref seg = tryBumpOn(pinnedCur_, need)) return finishAlloc(seg, len, need);
    {
      MutexLock lk(growMu_);
      const std::uint64_t cur = pinnedCur_.load(std::memory_order_acquire);
      if (curValid(cur) && curOffset(cur) + need <= pool_.blockBytes()) continue;
      try {
        newBlockLocked(need, /*pinned=*/true);
        continue;
      } catch (const OffHeapOutOfMemory&) {
        // Drained data-domain segments can't serve a pinned allocation, but
        // a released dead arena frees pool budget for the retry.
        if (drainMagazinesToFreeList() || releaseDeadArenasLocked() != 0) continue;
      }
    }
    // Pool budget exhausted with nothing reclaimable: degrade to the data
    // domain rather than fail — relocation never touches a header, so a
    // victim block hosting one merely fails its tiling check and the
    // evacuation aborts.  The cost is one unevacuatable block, not safety;
    // tiny-budget (single-arena) configurations depend on this path.
    return alloc(len);
  }
}

bool FirstFitAllocator::parkIfEvacuating(Ref seg) {
  if (!evacuating_[seg.block()].load(std::memory_order_acquire)) return false;
  SpinGuard lk(freeMu_);
  // oaklint: allow(R3, evacuation parking is rare — one entry per cached
  // victim segment, once per evacuation)
  freeList_.push_back(seg);
  freeCount_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FirstFitAllocator::drainMagazinesToFreeList() {
  if (!magsEnabled_) return false;
  std::vector<Ref> segs;
  if (depot_.drainAll(segs) == 0) return false;
  SpinGuard lk(freeMu_);
  // oaklint: allow(R3, terminal-OOM recovery path, cold by construction)
  freeList_.insert(freeList_.end(), segs.begin(), segs.end());
  freeCount_.fetch_add(segs.size(), std::memory_order_relaxed);
  return true;
}

Ref FirstFitAllocator::finishAlloc(Ref seg, std::uint32_t len, std::uint32_t need) {
  const std::uint32_t block = seg.block();
  [[maybe_unused]] std::byte* base = bases_[block].load(std::memory_order_acquire);
  // The whole segment (header + rounded payload) becomes addressable; the
  // alignment slack past roundUp(len) stays inside the segment, while
  // everything beyond it remains poisoned arena slack.
  OAK_ASAN_UNPOISON(base + seg.offset(), need);
#if OAK_CHECKED
  auto* h = reinterpret_cast<SliceHeader*>(base + seg.offset());
  h->length = len;
  storeU32(h->generation, sliceGen_.fetch_add(1, std::memory_order_relaxed));
  storeU32(h->state, kLiveMagic);
#endif
  const std::uint32_t userOff = seg.offset() + kSliceHeaderBytes;
  std::atomic<std::uint64_t>* map = allocMap_[block].load(std::memory_order_acquire);
  const std::uint32_t g = userOff / kAlign;
  const std::uint64_t prev =
      map[g >> 6].fetch_or(std::uint64_t{1} << (g & 63), std::memory_order_relaxed);
  OAK_CHECK(((prev >> (g & 63)) & 1) == 0,
            "allocator handed out an already-live slice {block=%u off=%u len=%u}",
            block, userOff, len);
  (void)prev;
  outBytes_.fetch_add(need, std::memory_order_relaxed);
  liveBytes_[block].fetch_add(need, std::memory_order_relaxed);
  allocCount_.fetch_add(1, std::memory_order_relaxed);
  return Ref::make(block, userOff, len);
}

Ref FirstFitAllocator::tryBumpOn(std::atomic<std::uint64_t>& cursor,
                                 std::uint32_t need) {
  std::uint64_t cur = cursor.load(std::memory_order_acquire);
  for (;;) {
    if (!curValid(cur)) return Ref{};
    const std::uint64_t off = curOffset(cur);
    if (off + need > pool_.blockBytes()) return Ref{};
    if (cursor.compare_exchange_weak(cur, packCur(curBlock(cur), off + need),
                                     std::memory_order_acq_rel)) {
      return Ref::make(curBlock(cur), static_cast<std::uint32_t>(off), need);
    }
  }
}

Ref FirstFitAllocator::tryFreeList(std::uint32_t need) {
  SpinGuard lk(freeMu_);
  for (std::size_t i = 0; i < freeList_.size(); ++i) {
    Ref seg = freeList_[i];
    if (seg.length() < need) continue;
    // Victim blocks are draining toward release: no new allocation may land
    // in one, or the evacuation tiling check could never close.
    if (evacuating_[seg.block()].load(std::memory_order_relaxed)) continue;
    const std::uint32_t rest = seg.length() - need;
    if (rest >= kAlign) {
      // Split: hand out the prefix, keep the remainder in place.
      freeList_[i] = Ref::make(seg.block(), seg.offset() + need, rest);
      return Ref::make(seg.block(), seg.offset(), need);
    }
    freeList_[i] = freeList_.back();
    freeList_.pop_back();
    freeCount_.fetch_sub(1, std::memory_order_relaxed);
    return seg;  // exact (or nearly exact) fit — hand out the whole segment
  }
  return Ref{};
}

Ref FirstFitAllocator::tryPinnedFreeList(std::uint32_t need) {
  SpinGuard lk(freeMu_);
  for (std::size_t i = 0; i < pinnedFree_.size(); ++i) {
    Ref seg = pinnedFree_[i];
    if (seg.length() < need) continue;
    const std::uint32_t rest = seg.length() - need;
    if (rest >= kAlign) {
      pinnedFree_[i] = Ref::make(seg.block(), seg.offset() + need, rest);
      return Ref::make(seg.block(), seg.offset(), need);
    }
    pinnedFree_[i] = pinnedFree_.back();
    pinnedFree_.pop_back();
    return seg;
  }
  return Ref{};
}

void FirstFitAllocator::newBlockLocked(std::uint32_t need, bool pinned) {
  const std::uint32_t id = pool_.acquire();  // may throw OffHeapOutOfMemory
  // Fresh (or recycled) arenas are all slack: poison everything and let
  // finishAlloc unpoison the slices it hands out.
  OAK_ASAN_POISON(pool_.arena(id).base(), pool_.blockBytes());
  const std::size_t granules = pool_.blockBytes() / kAlign;
  allocMap_[id].store(new std::atomic<std::uint64_t>[(granules + 63) / 64](),
                      std::memory_order_release);
  // Recycled ids must not inherit accounting from a previous life.
  liveBytes_[id].store(0, std::memory_order_relaxed);
  wasteBytes_[id].store(0, std::memory_order_relaxed);
  evacuating_[id].store(false, std::memory_order_relaxed);
  pinned_[id].store(pinned, std::memory_order_release);
  if (pinned) nPinned_.fetch_add(1, std::memory_order_relaxed);
  bases_[id].store(pool_.arena(id).base(), std::memory_order_release);
  owned_.push_back(id);
  nOwned_.fetch_add(1, std::memory_order_relaxed);

  // Salvage the tail of the previous arena into the free list so the switch
  // does not leak the unused suffix.  Tails too small to be worth a
  // free-list entry are recorded as waste so the evacuation tiling check
  // can still prove the old block empty.
  auto& cursor = pinned ? pinnedCur_ : cur_;
  const std::uint64_t old = cursor.exchange(packCur(id, 0), std::memory_order_acq_rel);
  if (curValid(old)) {
    const std::uint64_t off = curOffset(old);
    const std::uint64_t tail = pool_.blockBytes() - off;
    if (tail >= kAlign && tail >= need / 8) {
      SpinGuard lk(freeMu_);
      // oaklint: allow(R3, arena-switch tail salvage runs once per new block)
      (pinned ? pinnedFree_ : freeList_)
          .push_back(Ref::make(curBlock(old), static_cast<std::uint32_t>(off),
                               static_cast<std::uint32_t>(tail)));
      if (!pinned) freeCount_.fetch_add(1, std::memory_order_relaxed);
    } else if (tail > 0) {
      wasteBytes_[curBlock(old)].fetch_add(static_cast<std::uint32_t>(tail),
                                           std::memory_order_relaxed);
    }
  }

  // Carve the emergency reserve out of the first arena that can host it
  // alongside the triggering allocation.  The segment stays raw (the same
  // format the free list holds) and invisible to alloc() until
  // releaseEmergencyReserve() posts it.
  if (!pinned && reserveBytes_ != 0 && !reserveCarved_ &&
      reserveBytes_ + need <= pool_.blockBytes()) {
    if (Ref seg = tryBump(reserveBytes_)) {
      SpinGuard lk(freeMu_);
      reserveSeg_ = seg;
      reserveCarved_ = true;
    }
  }
}

bool FirstFitAllocator::releaseEmergencyReserve() {
  SpinGuard lk(freeMu_);
  if (reserveSeg_.isNull()) return false;
  // oaklint: allow(R3, reserve release happens once, under terminal pressure)
  freeList_.push_back(reserveSeg_);
  freeCount_.fetch_add(1, std::memory_order_relaxed);
  reserveSeg_ = Ref{};
  return true;
}

bool FirstFitAllocator::emergencyReserveAvailable() const {
  SpinGuard lk(freeMu_);
  return !reserveSeg_.isNull();
}

bool FirstFitAllocator::free(Ref ref) {
  if (ref.isNull()) {
    OAK_CHECK(false, "free of the null off-heap reference");
    return false;
  }
  const std::uint32_t block = ref.block();
  std::atomic<std::uint64_t>* map =
      block < Ref::kMaxBlocks ? allocMap_[block].load(std::memory_order_acquire)
                              : nullptr;
  if (map == nullptr || ref.offset() < kSliceHeaderBytes) {
    OAK_CHECK(false, "free of foreign ref {block=%u off=%u len=%u}", block,
              ref.offset(), ref.length());
    return false;
  }
  // Claim the allocation-start bit; losing it means this slice is already
  // free (or a racing free won) — reject without touching the free list.
  const std::uint32_t g = ref.offset() / kAlign;
  const std::uint64_t bit = std::uint64_t{1} << (g & 63);
  const std::uint64_t prev = map[g >> 6].fetch_and(~bit, std::memory_order_relaxed);
  if ((prev & bit) == 0) {
    OAK_CHECK(false, "double-free of off-heap slice {block=%u off=%u len=%u}",
              block, ref.offset(), ref.length());
    return false;
  }
#if OAK_CHECKED
  SliceHeader* h = sliceHeader(ref);
  const std::uint32_t state = loadU32(h->state);
  OAK_CHECK(state == kLiveMagic,
            "free of slice with corrupt header {block=%u off=%u len=%u state=%#x}",
            block, ref.offset(), ref.length(), state);
  OAK_CHECK(h->length == ref.length(),
            "free with mismatched length {block=%u off=%u}: allocated %u, freeing %u "
            "(stale or forged reference, generation=%u)",
            block, ref.offset(), h->length, ref.length(), loadU32(h->generation));
  storeU32(h->state, kFreeMagic);
#endif
  // Reconstitute the full segment the allocation occupied.  Stats count
  // only successful frees — every rejection above returned before touching
  // freeOps_/freedBytes_.  Pinned-domain slices never took the class
  // rounding (allocPinned carves exact need), so their geometry is `need`;
  // data-domain magazine-eligible slices were carved at their class size
  // even when they arrive on the flat path below (evacuating-block bypass).
  const std::uint32_t need = roundUp(ref.length()) + kSliceHeaderBytes;
  const bool pinnedBlk = pinned_[block].load(std::memory_order_acquire);
  const bool classCarved = !pinnedBlk && magsEnabled_ && SizeClasses::eligible(need);
  if (classCarved && !evacuating_[block].load(std::memory_order_acquire)) {
    // Magazine path: the allocation was carved at its class size, so the
    // same mapping reconstitutes it exactly.  The entire payload
    // (including class slack) is poisoned — cached slices trap under ASan
    // until the depot recycles them; the freed header stays readable so
    // OakSan can keep diagnosing use-after-free.
    const std::uint32_t cls = SizeClasses::classFor(need);
    const std::uint32_t segBytes = SizeClasses::bytesFor(cls);
    OAK_ASAN_POISON(bases_[block].load(std::memory_order_acquire) + ref.offset(),
                    segBytes - kSliceHeaderBytes);
    outBytes_.fetch_sub(segBytes, std::memory_order_relaxed);
    liveBytes_[block].fetch_sub(segBytes, std::memory_order_relaxed);
    freeOps_.fetch_add(1, std::memory_order_relaxed);
    freedBytes_.fetch_add(segBytes, std::memory_order_relaxed);
    depot_.cache(Ref::make(block, ref.offset() - kSliceHeaderBytes, segBytes),
                 cls, ThreadRegistry::id());
    return true;
  }
  // Flat path: pinned slices, oversized/cold slices, and victim-block
  // slices (which must reach the free list directly so the evacuation
  // tiling check can see them).
  const std::uint32_t segBytes =
      classCarved ? SizeClasses::bytesFor(SizeClasses::classFor(need)) : need;
  OAK_ASAN_POISON(bases_[block].load(std::memory_order_acquire) + ref.offset(),
                  segBytes - kSliceHeaderBytes);
  outBytes_.fetch_sub(segBytes, std::memory_order_relaxed);
  liveBytes_[block].fetch_sub(segBytes, std::memory_order_relaxed);
  freeOps_.fetch_add(1, std::memory_order_relaxed);
  freedBytes_.fetch_add(segBytes, std::memory_order_relaxed);
  SpinGuard lk(freeMu_);
  std::vector<Ref>& list = pinnedBlk ? pinnedFree_ : freeList_;
  // oaklint: allow(R3, free-list vector growth is amortized; magazines absorb
  // the hot size classes so this path is the cold spill)
  list.push_back(Ref::make(block, ref.offset() - kSliceHeaderBytes, segBytes));
  if (!pinnedBlk) freeCount_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

#if OAK_CHECKED
void FirstFitAllocator::validateCachedSegment(Ref seg) const noexcept {
  const auto* h = reinterpret_cast<const SliceHeader*>(
      bases_[seg.block()].load(std::memory_order_acquire) + seg.offset());
  const std::uint32_t state = loadU32(h->state);
  if (state != kFreeMagic) {
    oakCheckFail(__FILE__, __LINE__,
                 "magazine cache corruption: cached segment {block=%u off=%u "
                 "len=%u} header state=%#x (expected freed slice)",
                 seg.block(), seg.offset(), seg.length(), state);
  }
}
#endif

#if OAK_CHECKED
void FirstFitAllocator::validateLive(Ref ref, const char* what) const noexcept {
  if (ref.isNull()) {
    oakCheckFail(__FILE__, __LINE__, "%s of the null off-heap reference", what);
  }
  const std::uint32_t block = ref.block();
  const std::byte* base = block < Ref::kMaxBlocks
                              ? bases_[block].load(std::memory_order_acquire)
                              : nullptr;
  if (base == nullptr || ref.offset() < kSliceHeaderBytes) {
    oakCheckFail(__FILE__, __LINE__,
                 "%s of foreign ref {block=%u off=%u len=%u}: arena not owned "
                 "by this allocator",
                 what, block, ref.offset(), ref.length());
  }
  const SliceHeader* h = sliceHeader(ref);
  const std::uint32_t state = loadU32(h->state);
  if (state == kFreeMagic) {
    oakCheckFail(__FILE__, __LINE__,
                 "use-after-free: %s of freed slice {block=%u off=%u len=%u} "
                 "(freed generation=%u, arena base=%p)",
                 what, block, ref.offset(), ref.length(), loadU32(h->generation),
                 static_cast<const void*>(base));
  }
  if (state != kLiveMagic) {
    oakCheckFail(__FILE__, __LINE__,
                 "wild reference: %s of {block=%u off=%u len=%u} which is not an "
                 "allocation start (header state=%#x, arena base=%p)",
                 what, block, ref.offset(), ref.length(), state,
                 static_cast<const void*>(base));
  }
  if (ref.length() > h->length) {
    oakCheckFail(__FILE__, __LINE__,
                 "stale handle: %s of {block=%u off=%u len=%u} but the live slice "
                 "here is only %u bytes (generation=%u — the slice was recycled)",
                 what, block, ref.offset(), ref.length(), h->length,
                 loadU32(h->generation));
  }
}

std::uint32_t FirstFitAllocator::generationOf(Ref ref) const noexcept {
  validateLive(ref, "generationOf");
  return loadU32(sliceHeader(ref)->generation);
}

void FirstFitAllocator::assertLiveGeneration(Ref ref,
                                             std::uint32_t expectedGen) const noexcept {
  validateLive(ref, "assertLiveGeneration");
  const std::uint32_t actual = loadU32(sliceHeader(ref)->generation);
  if (actual != expectedGen) {
    oakCheckFail(__FILE__, __LINE__,
                 "ABA/stale handle: {block=%u off=%u len=%u} expected generation %u "
                 "but the slice now carries generation %u (recycled underneath the "
                 "holder)",
                 ref.block(), ref.offset(), ref.length(), expectedGen, actual);
  }
}
#endif

std::uint64_t FirstFitAllocator::freeListLength() const {
  SpinGuard lk(freeMu_);
  return freeList_.size();
}

std::vector<FirstFitAllocator::BlockOccupancy> FirstFitAllocator::blockOccupancy() {
  MutexLock lk(growMu_);
  const std::uint64_t cur = cur_.load(std::memory_order_acquire);
  const std::uint64_t pcur = pinnedCur_.load(std::memory_order_acquire);
  std::vector<BlockOccupancy> out;
  out.reserve(owned_.size());
  for (std::uint32_t id : owned_) {
    out.push_back({id, liveBytes_[id].load(std::memory_order_relaxed),
                   pinned_[id].load(std::memory_order_relaxed),
                   evacuating_[id].load(std::memory_order_relaxed),
                   (curValid(cur) && curBlock(cur) == id) ||
                       (curValid(pcur) && curBlock(pcur) == id)});
  }
  return out;
}

bool FirstFitAllocator::beginEvacuate(std::uint32_t block) {
  MutexLock lk(growMu_);
  if (block >= Ref::kMaxBlocks ||
      bases_[block].load(std::memory_order_acquire) == nullptr) {
    return false;
  }
  if (pinned_[block].load(std::memory_order_relaxed)) return false;
  const std::uint64_t cur = cur_.load(std::memory_order_acquire);
  if (curValid(cur) && curBlock(cur) == block) return false;
  {
    SpinGuard g(freeMu_);
    if (!reserveSeg_.isNull() && reserveSeg_.block() == block) return false;
  }
  if (evacuating_[block].exchange(true, std::memory_order_acq_rel)) return false;
  nEvacuating_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FirstFitAllocator::abortEvacuate(std::uint32_t block) {
  if (block >= Ref::kMaxBlocks) return;
  if (evacuating_[block].exchange(false, std::memory_order_acq_rel)) {
    nEvacuating_.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool FirstFitAllocator::finishEvacuate(std::uint32_t block) {
  MutexLock lk(growMu_);
  if (block >= Ref::kMaxBlocks ||
      !evacuating_[block].load(std::memory_order_acquire)) {
    return false;
  }
  {
    SpinGuard g(freeMu_);
    // The tiling check: every byte of the arena must be accounted for by a
    // free segment or recorded waste.  A live slice, an in-flight carve, or
    // a segment still cached in a magazine all leave a hole.
    std::uint64_t sum = wasteBytes_[block].load(std::memory_order_relaxed);
    for (Ref s : freeList_) {
      if (s.block() == block) sum += s.length();
    }
    if (sum != pool_.blockBytes()) return false;
    purgeFreeSegmentsLocked(block);
  }
  releaseBlockLocked(block);
  return true;
}

std::size_t FirstFitAllocator::releaseDeadArenas() {
  MutexLock lk(growMu_);
  return releaseDeadArenasLocked();
}

std::size_t FirstFitAllocator::releaseDeadArenasLocked() {
  const std::uint64_t cur = cur_.load(std::memory_order_acquire);
  const std::uint64_t pcur = pinnedCur_.load(std::memory_order_acquire);
  std::vector<std::uint32_t> dead;
  {
    SpinGuard g(freeMu_);
    // One pass over both lists accumulating per-block free bytes, then the
    // same tiling test finishEvacuate() uses.
    std::vector<std::uint64_t> sums(Ref::kMaxBlocks, 0);
    for (Ref s : freeList_) sums[s.block()] += s.length();
    for (Ref s : pinnedFree_) sums[s.block()] += s.length();
    for (std::uint32_t id : owned_) {
      if (curValid(cur) && curBlock(cur) == id) continue;
      if (curValid(pcur) && curBlock(pcur) == id) continue;
      // Evacuating blocks belong to an in-progress compaction pass; their
      // release (or abort) is that pass's call to make.
      if (evacuating_[id].load(std::memory_order_relaxed)) continue;
      if (!reserveSeg_.isNull() && reserveSeg_.block() == id) continue;
      if (sums[id] + wasteBytes_[id].load(std::memory_order_relaxed) ==
          pool_.blockBytes()) {
        // oaklint: allow(R3, terminal-OOM recovery path, cold by construction)
        dead.push_back(id);
      }
    }
    for (std::uint32_t id : dead) purgeFreeSegmentsLocked(id);
  }
  for (std::uint32_t id : dead) releaseBlockLocked(id);
  return dead.size();
}

void FirstFitAllocator::purgeFreeSegmentsLocked(std::uint32_t id) {
  const auto drop = [id](std::vector<Ref>& list) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < list.size(); ++r) {
      if (list[r].block() != id) list[w++] = list[r];
    }
    const std::size_t removed = list.size() - w;
    list.resize(w);
    return removed;
  };
  const std::size_t removed = drop(freeList_);
  if (removed != 0) freeCount_.fetch_sub(removed, std::memory_order_relaxed);
  drop(pinnedFree_);
}

void FirstFitAllocator::releaseBlockLocked(std::uint32_t id) {
  // The arena goes back to the pool poisoned; whoever re-acquires it (this
  // allocator or a sibling sharing the pool) re-poisons on acquisition
  // anyway, and in between any touch traps.
  OAK_ASAN_POISON(bases_[id].load(std::memory_order_acquire), pool_.blockBytes());
  bases_[id].store(nullptr, std::memory_order_release);
  delete[] allocMap_[id].exchange(nullptr, std::memory_order_acq_rel);
  liveBytes_[id].store(0, std::memory_order_relaxed);
  wasteBytes_[id].store(0, std::memory_order_relaxed);
  if (pinned_[id].exchange(false, std::memory_order_acq_rel)) {
    nPinned_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (evacuating_[id].exchange(false, std::memory_order_acq_rel)) {
    nEvacuating_.fetch_sub(1, std::memory_order_relaxed);
  }
  owned_.erase(std::find(owned_.begin(), owned_.end(), id));
  nOwned_.fetch_sub(1, std::memory_order_relaxed);
  pool_.release(id);
}

}  // namespace oak::mem
