#include "mheap/managed_heap.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/checked.hpp"
#include "common/fault.hpp"
#include "common/spin.hpp"

namespace oak::mheap {

namespace {

constexpr std::uint8_t kFree = 0;
constexpr std::uint8_t kLive = 1;
constexpr std::uint8_t kGarbage = 2;

// Physical prefix stored in front of every managed payload.
struct ObjHeader {
  std::uint32_t slot;
  std::uint32_t charged;
  std::uint64_t pad;  // keep payload 16-byte aligned like a JVM object
};
static_assert(sizeof(ObjHeader) == 16);

std::uint64_t nowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Volatile sink so the mark-phase memory touches cannot be optimized away.
volatile std::uint64_t gMarkSink;

std::size_t slotCountFor(std::size_t budget) {
  // ~one slot per 128 budgeted bytes, clamped to a sane range.
  std::size_t n = budget / 128;
  if (n < (1u << 16)) n = 1u << 16;
  if (n > (1u << 22)) n = 1u << 22;
  return n;
}

}  // namespace

ManagedHeap::ManagedHeap(Config cfg)
    : cfg_(cfg),
      slots_(slotCountFor(cfg.budgetBytes)),
      nextFree_(slots_.size()),
      freeHead_(0) {}

ManagedHeap::~ManagedHeap() {
  // Release everything still registered (live or garbage).
  const std::uint32_t hw = slotHighWater_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < hw; ++i) {
    if (slots_[i].state.load(std::memory_order_relaxed) != kFree) {
      std::free(slots_[i].ptr.load(std::memory_order_relaxed));
    }
  }
}

void ManagedHeap::safepoint() const noexcept {
  Backoff b;
  while (stw_.load(std::memory_order_acquire)) b.pause();
}

std::uint32_t ManagedHeap::grabSlot() {
  // Pop from the recycled-slot Treiber stack.
  std::uint64_t head = freeHead_.load(std::memory_order_acquire);
  while ((head & 0xffffffffu) != 0) {
    const std::uint32_t idx = static_cast<std::uint32_t>(head & 0xffffffffu) - 1;
    const std::uint32_t next = nextFree_[idx].load(std::memory_order_relaxed);
    const std::uint64_t newHead =
        ((head >> 32) + 1) << 32 | static_cast<std::uint64_t>(next);
    if (freeHead_.compare_exchange_weak(head, newHead, std::memory_order_acq_rel)) {
      return idx;
    }
  }
  // Extend the high-water region.
  const std::uint32_t idx = slotHighWater_.fetch_add(1, std::memory_order_acq_rel);
  if (idx >= slots_.size()) {
    slotHighWater_.fetch_sub(1, std::memory_order_relaxed);
    return UINT32_MAX;
  }
  return idx;
}

bool ManagedHeap::tryReserve(std::size_t charge) {
  const std::size_t effBudget = static_cast<std::size_t>(
      static_cast<double>(cfg_.budgetBytes) / cfg_.headroomFactor);
  const std::size_t committed =
      committed_.fetch_add(charge, std::memory_order_acq_rel) + charge;
  bytesSinceGc_.fetch_add(charge, std::memory_order_relaxed);
  if (committed <= static_cast<std::size_t>(static_cast<double>(effBudget) *
                                            cfg_.gcTriggerFraction)) {
    return true;
  }
  // Above the trigger line: collect, but pace collections so a nearly-full
  // heap degrades throughput instead of collecting on every allocation.
  const std::size_t pace = cfg_.budgetBytes / 64 < (1u << 20)
                               ? (1u << 20)
                               : cfg_.budgetBytes / 64;
  if (bytesSinceGc_.load(std::memory_order_relaxed) >= pace ||
      committed > effBudget) {
    fullGc();
  }
  if (committed_.load(std::memory_order_acquire) <= effBudget) return true;
  // Last-ditch full collection before declaring OOM.
  gcLastDitch_.fetch_add(1, std::memory_order_relaxed);
  fullGc();
  if (committed_.load(std::memory_order_acquire) <= effBudget) return true;
  committed_.fetch_sub(charge, std::memory_order_acq_rel);
  return false;
}

void ManagedHeap::releaseSlot(std::uint32_t idx) noexcept {
  std::uint64_t head = freeHead_.load(std::memory_order_acquire);
  for (;;) {
    nextFree_[idx].store(static_cast<std::uint32_t>(head & 0xffffffffu),
                         std::memory_order_relaxed);
    const std::uint64_t newHead =
        ((head >> 32) + 1) << 32 | static_cast<std::uint64_t>(idx + 1);
    if (freeHead_.compare_exchange_weak(head, newHead, std::memory_order_acq_rel)) {
      break;
    }
  }
}

void ManagedHeap::throwOom() {
  oomThrows_.fetch_add(1, std::memory_order_relaxed);
  throw ManagedOutOfMemory();
}

void* ManagedHeap::alloc(std::size_t bytes) {
  if (!cfg_.enabled) {
    void* raw = std::malloc(sizeof(ObjHeader) + bytes);
    if (raw == nullptr) throw ManagedOutOfMemory();
    auto* h = static_cast<ObjHeader*>(raw);
    h->slot = UINT32_MAX;
    h->charged = 0;
    return h + 1;
  }
  safepoint();
  if (OAK_FAULT_BRANCH("mheap.alloc")) throwOom();
  const std::size_t charge = chargeFor(bytes);
  if (!tryReserve(charge)) throwOom();
  std::uint32_t slot = grabSlot();
  if (slot == UINT32_MAX) {
    // Sweeping garbage recycles slots — the slot-registry flavour of the
    // last-ditch collection.
    gcLastDitch_.fetch_add(1, std::memory_order_relaxed);
    fullGc();
    slot = grabSlot();
    if (slot == UINT32_MAX) {
      committed_.fetch_sub(charge, std::memory_order_acq_rel);
      throwOom();
    }
  }
  void* raw = std::malloc(sizeof(ObjHeader) + bytes);
  if (raw == nullptr) {
    // Unwind fully: the reservation and the grabbed slot both return, so a
    // host-malloc failure leaks neither budget nor registry slots.
    releaseSlot(slot);
    committed_.fetch_sub(charge, std::memory_order_acq_rel);
    throwOom();
  }
  auto* h = static_cast<ObjHeader*>(raw);
  h->slot = slot;
  h->charged = static_cast<std::uint32_t>(charge);
  Slot& s = slots_[slot];
  s.ptr.store(raw, std::memory_order_relaxed);
  s.charged.store(static_cast<std::uint32_t>(charge), std::memory_order_relaxed);
  s.state.store(kLive, std::memory_order_release);
  liveObjects_.fetch_add(1, std::memory_order_relaxed);
  allocations_.fetch_add(1, std::memory_order_relaxed);
  return h + 1;
}

void ManagedHeap::free(void* p) noexcept {
  if (p == nullptr) return;
  auto* h = reinterpret_cast<ObjHeader*>(p) - 1;
  if (!cfg_.enabled || h->slot == UINT32_MAX) {
    std::free(h);
    return;
  }
  safepoint();
  // Claim the live->garbage transition atomically: a double-free (e.g. a
  // chunk disposed twice through racing retire paths) would otherwise
  // double-count garbageBytes_ and corrupt liveObjects_.  Checked builds
  // abort; release builds ignore the second free.
  const std::uint8_t prev =
      slots_[h->slot].state.exchange(kGarbage, std::memory_order_acq_rel);
  OAK_CHECK(prev == kLive,
            "managed-heap double-free of %p (slot %u already state=%u)", p,
            h->slot, prev);
  if (prev != kLive) return;
  // The object becomes garbage; its bytes stay committed until the next
  // collection sweeps it — this is what creates the GC-headroom requirement.
  garbageBytes_.fetch_add(h->charged, std::memory_order_relaxed);
  liveObjects_.fetch_sub(1, std::memory_order_relaxed);
}

void ManagedHeap::fullGc() {
  MutexLock lk(gcMu_);
  // A racing thread may have collected while we waited for the lock; if the
  // heap is comfortably under trigger again, skip.
  const std::size_t committed = committed_.load(std::memory_order_acquire);
  if (committed < static_cast<std::size_t>(static_cast<double>(cfg_.budgetBytes) /
                                           cfg_.headroomFactor *
                                           cfg_.gcTriggerFraction * 0.9) &&
      bytesSinceGc_.load(std::memory_order_relaxed) <
          committed_.load(std::memory_order_relaxed) / 4) {
    return;
  }
  bytesSinceGc_.store(0, std::memory_order_relaxed);
  collectLocked(/*mark=*/true);
}

void ManagedHeap::collectNow() {
  MutexLock lk(gcMu_);
  collectLocked(/*mark=*/false);
}

void ManagedHeap::collectLocked(bool mark) {
  const std::uint64_t t0 = nowNanos();
  stw_.store(true, std::memory_order_seq_cst);

  const std::uint32_t hw = slotHighWater_.load(std::memory_order_acquire);
  std::uint64_t sink = 0;
  std::size_t reclaimed = 0;
  for (std::uint32_t i = 0; i < hw; ++i) {
    Slot& s = slots_[i];
    const std::uint8_t st = s.state.load(std::memory_order_acquire);
    if (st == kLive && mark) {
      // Mark: trace through the object — touch its header and its middle
      // cache line (real memory traffic proportional to the live set).
      const auto* raw = static_cast<const unsigned char*>(
          s.ptr.load(std::memory_order_relaxed));
      const std::uint32_t charged = s.charged.load(std::memory_order_relaxed);
      sink += raw[0];
      if (charged > 2 * sizeof(ObjHeader) + 64) {
        sink += raw[sizeof(ObjHeader) + (charged - sizeof(ObjHeader)) / 2];
      }
    } else if (st == kGarbage) {
      // Sweep: reclaim the object and recycle its slot.
      std::free(s.ptr.load(std::memory_order_relaxed));
      reclaimed += s.charged.load(std::memory_order_relaxed);
      s.ptr.store(nullptr, std::memory_order_relaxed);
      s.state.store(kFree, std::memory_order_release);
      releaseSlot(i);
    }
  }
  if (mark) gMarkSink = sink;
  committed_.fetch_sub(reclaimed, std::memory_order_acq_rel);
  garbageBytes_.fetch_sub(reclaimed, std::memory_order_relaxed);

  stw_.store(false, std::memory_order_seq_cst);
  fullGcCycles_.fetch_add(1, std::memory_order_relaxed);
  gcNanos_.fetch_add(nowNanos() - t0, std::memory_order_relaxed);
}

void ManagedHeap::chargeEphemeral(std::size_t bytes) noexcept {
  if (!cfg_.enabled) return;
  // A young-gen allocation is cheap but not free: the JVM bumps a pointer
  // and *initializes the object* (header + zeroed fields).  Model that as a
  // real write of the object's bytes into a thread-local nursery ring.
  // Large charges (value copies) skip the write — the caller's own memcpy
  // already did the equivalent work.
  if (bytes <= 256) {
    thread_local std::byte nursery[16 * 1024];
    thread_local std::size_t cursor = 0;
    if (cursor + bytes > sizeof(nursery)) cursor = 0;
    std::memset(nursery + cursor, 0, bytes);
    cursor += (bytes + 15) & ~std::size_t{15};
  }
  const std::size_t total = ephemeralBytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (total < cfg_.youngGenBytes) return;
  // One thread claims the young collection; the rest keep running (young
  // pauses are short — we charge the claimer only).
  std::size_t expected = total;
  if (!ephemeralBytes_.compare_exchange_strong(expected, 0, std::memory_order_acq_rel)) {
    return;
  }
  const std::uint64_t t0 = nowNanos();
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < cfg_.youngGcCostIters; ++i) {
    sink = sink * 6364136223846793005ull + 1442695040888963407ull;
  }
  gMarkSink = sink;
  youngGcCycles_.fetch_add(1, std::memory_order_relaxed);
  gcNanos_.fetch_add(nowNanos() - t0, std::memory_order_relaxed);
}

GcStats ManagedHeap::stats() const {
  GcStats out;
  out.fullGcCycles = fullGcCycles_.load(std::memory_order_relaxed);
  out.youngGcCycles = youngGcCycles_.load(std::memory_order_relaxed);
  out.gcNanos = gcNanos_.load(std::memory_order_relaxed);
  out.allocations = allocations_.load(std::memory_order_relaxed);
  out.oomThrows = oomThrows_.load(std::memory_order_relaxed);
  out.gcLastDitch = gcLastDitch_.load(std::memory_order_relaxed);
  out.committedBytes = committed_.load(std::memory_order_relaxed);
  const std::size_t garbage = garbageBytes_.load(std::memory_order_relaxed);
  out.liveBytes = out.committedBytes > garbage ? out.committedBytes - garbage : 0;
  out.liveObjects = liveObjects_.load(std::memory_order_relaxed);
  return out;
}

ManagedHeap& ManagedHeap::unlimited() {
  static ManagedHeap heap{Config{.budgetBytes = std::size_t{64} << 30,
                                 .headerBytes = 16,
                                 .gcTriggerFraction = 0.85,
                                 .headroomFactor = 2.2,
                                 .youngGenBytes = 64u << 20,
                                 .youngGcCostIters = 4096,
                                 .enabled = true}};
  return heap;
}

ManagedBytes* ManagedBytes::make(ManagedHeap& heap, const std::byte* data, std::size_t n) {
  void* p = heap.alloc(sizeof(ManagedBytes) + n);
  auto* mb = new (p) ManagedBytes();
  mb->size_ = n;
  if (n != 0 && data != nullptr) std::memcpy(mb->data(), data, n);
  return mb;
}

void ManagedBytes::dispose(ManagedHeap& heap, ManagedBytes* p) noexcept {
  if (p != nullptr) heap.free(p);
}

}  // namespace oak::mheap
