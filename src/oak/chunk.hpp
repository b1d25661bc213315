// Chunk objects (§3.1, §4.1).
//
// A chunk covers a contiguous key range [minKey, next->minKey).  It holds a
// fixed-capacity array of entries; a prefix of the array is sorted (filled
// by the rebalancer at chunk creation) and supports binary search, while
// later insertions take cells from the free suffix and are spliced into the
// intra-chunk sorted linked list via "bypasses" (Figure 2).
//
// Entries refer to off-heap keys and values through packed mem::Refs; the
// value reference is the CAS target of Algorithms 2 and 3.  Each entry also
// caches its key's first 8 bytes (keyPrefix), so under BytesComparator the
// search decides order on the entry cell and reads the off-heap key only
// when two prefixes tie.
//
// Synchronization with the rebalancer follows the paper's publish/freeze
// protocol: updaters publish an intent, re-check the frozen flag, CAS, and
// unpublish; the rebalancer freezes the chunk and drains published intents
// before copying entries.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/spin.hpp"
#include "common/thread_registry.hpp"
#include "mem/memory_manager.hpp"
#include "mheap/managed_heap.hpp"
#include "oak/serializer.hpp"
#include "oak/value.hpp"

namespace oak::detail {

template <class Compare>
class Chunk {
 public:
  static constexpr std::int32_t kNone = -1;    ///< ⊥ entry index
  static constexpr std::int32_t kFrozen = -2;  ///< chunk is being rebalanced
  static constexpr std::int32_t kFull = -3;    ///< no free entry cells

  enum class State : std::uint32_t { Normal = 0, Frozen = 1 };

  struct Entry {
    std::atomic<std::uint64_t> valRef{0};   // mem::Ref to the value header, or ⊥
    std::atomic<std::uint64_t> keyRef{0};   // mem::Ref to the immutable key
    // keyPrefix(key), written before the keyRef release-store; readers reach
    // a cell only through the published sorted prefix or an acquire-loaded
    // link, so a plain field is race-free.
    std::uint64_t prefix = 0;
    std::atomic<std::int32_t> next{kNone};  // intra-chunk sorted list
  };
  static_assert(sizeof(Entry) == 32, "entry cell: two refs, prefix, link");

  /// Chunks live on the simulated managed heap (they are Java metadata
  /// objects in the original); the entries array is allocated inline.
  static Chunk* make(mheap::ManagedHeap& heap, mem::MemoryManager& mm, Compare cmp,
                     ByteVec minKey, std::int32_t capacity) {
    void* raw = heap.alloc(sizeof(Chunk) +
                           static_cast<std::size_t>(capacity) * sizeof(Entry));
    return new (raw) Chunk(mm, cmp, std::move(minKey), capacity);
  }

  static void dispose(mheap::ManagedHeap& heap, Chunk* c) noexcept {
    c->~Chunk();
    heap.free(c);
  }

  // ---------------------------------------------------------------- basics
  ByteSpan minKey() const noexcept { return asBytes(minKey_); }
  std::int32_t capacity() const noexcept { return capacity_; }
  std::int32_t sortedCount() const noexcept { return sortedCount_; }
  std::int32_t allocatedCount() const noexcept {
    const std::int32_t a = allocIdx_.load(std::memory_order_acquire);
    return a < capacity_ ? a : capacity_;
  }
  std::int32_t unsortedCount() const noexcept { return allocatedCount() - sortedCount_; }

  Entry& entry(std::int32_t i) noexcept { return entries()[i]; }
  const Entry& entry(std::int32_t i) const noexcept { return entries()[i]; }

  ByteSpan keyAt(std::int32_t i) const noexcept {
    const mem::Ref r{entries()[i].keyRef.load(std::memory_order_acquire)};
    return mm_->keyBytes(r);
  }

  bool isFrozen() const noexcept {
    return state_.load(std::memory_order_acquire) != State::Normal;
  }

  std::atomic<Chunk*>& nextChunk() noexcept { return next_; }
  std::atomic<Chunk*>& rebalancedTo() noexcept { return rebalancedTo_; }

  std::int32_t headEntry() const noexcept { return head_.load(std::memory_order_acquire); }

  /// OakSan: raw tail hint for the invariant walker (hints may be stale but
  /// must always index an allocated entry or be kNone).
  std::int32_t tailHintDebug() const noexcept {
    return tailHint_.load(std::memory_order_acquire);
  }

  // ---------------------------------------------------------------- search
  /// Greatest sorted-prefix index whose key is <= probe, or kNone.
  ///
  /// Branchless binary search: both updates below are ternaries over the
  /// comparator sign, which the compiler lowers to conditional moves — the
  /// hard-to-predict "which half" branch disappears, and a software
  /// prefetch of the next midpoint's entry cell hides the dependent load.
  /// Semantically identical to the classic branchy form (oak_iterator_test
  /// cross-checks it against a reference implementation).
  std::int32_t prefixFloor(ByteSpan probe) const noexcept {
    return prefixFloor(probe, keyPrefix(probe));
  }
  std::int32_t prefixFloor(ByteSpan probe, std::uint64_t pp) const noexcept {
    std::int32_t lo = 0;          // number of prefix keys known <= probe
    std::int32_t len = sortedCount_;
    const Entry* cells = entries();
    while (len > 0) {
      const std::int32_t half = len / 2;
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(&cells[lo + half / 2], 0, 1);
      __builtin_prefetch(&cells[lo + half + (len - half) / 2], 0, 1);
#endif
      const bool le = compareAt(lo + half, probe, pp) <= 0;
      lo = le ? lo + half + 1 : lo;
      len = le ? len - half - 1 : half;
    }
    return lo == 0 ? kNone : lo - 1;
  }

  /// Greatest sorted-prefix index whose key is < probe, or kNone (the
  /// descending iterator's starting point under an exclusive upper bound).
  std::int32_t prefixLower(ByteSpan probe) const noexcept {
    const std::uint64_t pp = keyPrefix(probe);
    std::int32_t lo = 0, hi = sortedCount_, ans = kNone;
    while (lo < hi) {
      const std::int32_t mid = lo + (hi - lo) / 2;
      if (compareAt(mid, probe, pp) < 0) {
        ans = mid;
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return ans;
  }

  /// Software prefetch of entry i's cell and key bytes — iterator lookahead
  /// along the in-chunk linked list (no-op out of range).
  void prefetchEntry(std::int32_t i) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (i < 0 || i >= capacity_) return;
    const Entry& e = entries()[i];
    __builtin_prefetch(&e, 0, 1);
    const mem::Ref r{e.keyRef.load(std::memory_order_acquire)};
    if (!r.isNull()) __builtin_prefetch(mm_->keyBytes(r).data(), 0, 1);
#else
    (void)i;
#endif
  }

  /// Best linked starting point with key <= probe: the sorted-prefix floor,
  /// upgraded by the tail hint (the greatest-key entry seen so far) when the
  /// probe lies beyond it.  The hint turns append-heavy ingestion — e.g.
  /// Druid's time-ordered tuples (§6) — from an O(bypass-run) walk into
  /// O(1), and is only ever a shortcut: stale hints just mean more walking.
  std::int32_t searchStart(ByteSpan probe, std::uint64_t pp) const noexcept {
    const std::int32_t pos = prefixFloor(probe, pp);
    const std::int32_t th = tailHint_.load(std::memory_order_acquire);
    if (th != kNone && th != pos && compareAt(th, probe, pp) <= 0) return th;
    return pos;
  }

  /// lookUp(k) (§4.1): binary search on the sorted prefix, then walk the
  /// entries linked list.  Returns the unique entry holding k, or kNone.
  /// Proceeds concurrently with rebalance without aborting.
  std::int32_t lookUp(ByteSpan probe) const noexcept {
    const std::uint64_t pp = keyPrefix(probe);
    const std::int32_t pos = searchStart(probe, pp);
    std::int32_t cur;
    if (pos == kNone) {
      cur = head_.load(std::memory_order_acquire);
    } else {
      if (compareAt(pos, probe, pp) == 0) return pos;
      cur = entries()[pos].next.load(std::memory_order_acquire);
    }
    while (cur != kNone) {
      const int c = compareAt(cur, probe, pp);
      if (c == 0) return cur;
      if (c > 0) return kNone;
      cur = entries()[cur].next.load(std::memory_order_acquire);
    }
    return kNone;
  }

  /// First entry with key >= probe (for iterators), or kNone.
  std::int32_t lowerBound(ByteSpan probe) const noexcept {
    const std::uint64_t pp = keyPrefix(probe);
    const std::int32_t pos = prefixFloor(probe, pp);
    std::int32_t cur;
    if (pos == kNone) {
      cur = head_.load(std::memory_order_acquire);
    } else {
      if (compareAt(pos, probe, pp) == 0) return pos;
      cur = entries()[pos].next.load(std::memory_order_acquire);
    }
    while (cur != kNone && compareAt(cur, probe, pp) < 0) {
      cur = entries()[cur].next.load(std::memory_order_acquire);
    }
    return cur;
  }

  // ------------------------------------------------------------- insertion
  /// allocateEntry(keyRef) (§4.1): grabs a free cell with F&A and stores the
  /// key reference and the key's prefix.  Returns kFull when the chunk is
  /// exhausted (the caller triggers a rebalance and retries).
  std::int32_t allocateEntry(mem::Ref keyRef) noexcept {
    const std::int32_t i = allocIdx_.fetch_add(1, std::memory_order_acq_rel);
    if (i >= capacity_) {
      allocIdx_.store(capacity_, std::memory_order_relaxed);  // clamp
      return kFull;
    }
    Entry& e = entries()[i];
    e.valRef.store(0, std::memory_order_relaxed);
    e.next.store(kNone, std::memory_order_relaxed);
    e.prefix = keyPrefix(mm_->keyBytes(keyRef));
    e.keyRef.store(keyRef.bits(), std::memory_order_release);
    return i;
  }

  /// entriesLLputIfAbsent(ei) (§4.1): links an allocated entry into the
  /// sorted list with CAS, preserving key uniqueness.  Returns:
  ///   * ei            — linked successfully;
  ///   * another index — an entry with the same key already exists;
  ///   * kFrozen       — the chunk is being rebalanced (caller retries).
  std::int32_t entriesLLPutIfAbsent(std::int32_t ei) noexcept {
    if (ei == kNone) return kNone;
    const ByteSpan key = keyAt(ei);
    const std::uint64_t pp = entries()[ei].prefix;
    for (;;) {
      if (isFrozen()) return kFrozen;
      std::int32_t pred = kNone;
      std::int32_t cur;
      const std::int32_t pos = searchStart(key, pp);
      if (pos != kNone) {
        if (compareAt(pos, key, pp) == 0) return pos;
        pred = pos;
        cur = entries()[pos].next.load(std::memory_order_acquire);
      } else {
        cur = head_.load(std::memory_order_acquire);
      }
      while (cur != kNone) {
        const int c = compareAt(cur, key, pp);
        if (c == 0) return cur;
        if (c > 0) break;
        pred = cur;
        cur = entries()[cur].next.load(std::memory_order_acquire);
      }
      entries()[ei].next.store(cur, std::memory_order_relaxed);
      std::atomic<std::int32_t>& link = (pred == kNone) ? head_ : entries()[pred].next;
      std::int32_t expected = cur;
      if (link.compare_exchange_strong(expected, ei, std::memory_order_acq_rel)) {
        if (cur == kNone) advanceTailHint(ei, key, pp);
        return ei;
      }
      // Lost the race; recompute the insertion position.
    }
  }

  /// Monotonically advances the tail hint to `ei` (key must exceed the
  /// current hint's key; only called for entries linked at the list tail).
  void advanceTailHint(std::int32_t ei, ByteSpan key, std::uint64_t pp) noexcept {
    std::int32_t cur = tailHint_.load(std::memory_order_acquire);
    for (;;) {
      if (cur != kNone && compareAt(cur, key, pp) >= 0) return;
      if (tailHint_.compare_exchange_weak(cur, ei, std::memory_order_acq_rel)) return;
    }
  }

  // ------------------------------------------------- publish/freeze (§4.1)
  /// Announces an impending entry update.  Fails (returns false) if the
  /// chunk is frozen — the caller must retry the whole operation.
  bool publish() noexcept {
    const std::uint32_t tid = ThreadRegistry::id();
    if (isFrozen()) return false;
    pending_[tid].store(1, std::memory_order_seq_cst);
    if (state_.load(std::memory_order_seq_cst) != State::Normal) {
      pending_[tid].store(0, std::memory_order_release);
      return false;
    }
    return true;
  }

  void unpublish() noexcept {
    pending_[ThreadRegistry::id()].store(0, std::memory_order_release);
  }

  /// Rebalancer side: freezes the chunk and waits until every published
  /// update drains.  After freeze() returns, no entry field changes.
  void freeze() noexcept {
    state_.store(State::Frozen, std::memory_order_seq_cst);
    const std::uint32_t hw = ThreadRegistry::highWater();
    for (std::uint32_t t = 0; t < hw; ++t) {
      Backoff b;
      while (pending_[t].load(std::memory_order_seq_cst) != 0) b.pause();
    }
  }

  /// Rebalance rollback: re-opens a chunk frozen by a rebalance that failed
  /// before publishing any redirect.  Safe only while rebalancedTo() is
  /// still null and the caller holds the rebalance lock: updaters that
  /// observed Frozen retreat into rebalance(), serialize behind that lock,
  /// and re-examine the chunk state afterwards.
  void unfreeze() noexcept {
    state_.store(State::Normal, std::memory_order_seq_cst);
  }

  // ------------------------------------------------------------- rebalance
  struct LiveEntry {
    std::uint64_t keyRefBits;
    std::uint64_t valRefBits;
  };

  /// Collects live (non-⊥, non-deleted value) entries in ascending key
  /// order.  Must run after freeze(); entry fields are then stable.
  ///
  /// When `deadKeys` is non-null, the key refs of dead entries (not
  /// migrated by the rebalance) are recorded for deferred reclamation —
  /// §3.2 "return to the free list upon KV-pair deletion".  Each entry is
  /// classified exactly once, off a single valRef read: a migrated value
  /// that gets removed *through the replacement chunk* moments later must
  /// not retroactively flip this entry to dead, or its key — still
  /// referenced by the replacement — would be freed under a live entry.
  template <class Out>
  void collectLive(mem::MemoryManager& mm, Out& out,
                   std::vector<mem::Ref>* deadKeys = nullptr) const {
    std::int32_t cur = head_.load(std::memory_order_acquire);
    while (cur != kNone) {
      const Entry& e = entries()[cur];
      const std::uint64_t v = e.valRef.load(std::memory_order_acquire);
      if (v != 0 && !ValueCell(mm, VRef{v}).isDeleted()) {
        out.push_back(LiveEntry{e.keyRef.load(std::memory_order_acquire), v});
      } else if (deadKeys != nullptr) {
        const mem::Ref k{e.keyRef.load(std::memory_order_acquire)};
        if (!k.isNull()) deadKeys->push_back(k);
      }
      cur = e.next.load(std::memory_order_acquire);
    }
  }

  /// Fills a freshly created chunk with a sorted run of live entries
  /// (rebalancer only; no concurrency).
  void fillSorted(const LiveEntry* src, std::int32_t count) noexcept {
    for (std::int32_t i = 0; i < count; ++i) {
      Entry& e = entries()[i];
      e.prefix = keyPrefix(mm_->keyBytes(mem::Ref{src[i].keyRefBits}));
      e.keyRef.store(src[i].keyRefBits, std::memory_order_relaxed);
      e.valRef.store(src[i].valRefBits, std::memory_order_relaxed);
      e.next.store(i + 1 < count ? i + 1 : kNone, std::memory_order_relaxed);
    }
    sortedCount_ = count;
    allocIdx_.store(count, std::memory_order_relaxed);
    tailHint_.store(count > 0 ? count - 1 : kNone, std::memory_order_relaxed);
    head_.store(count > 0 ? 0 : kNone, std::memory_order_release);
  }

  std::size_t footprintBytes() const noexcept {
    return sizeof(Chunk) + static_cast<std::size_t>(capacity_) * sizeof(Entry);
  }

 private:
  Chunk(mem::MemoryManager& mm, Compare cmp, ByteVec minKey, std::int32_t capacity)
      : mm_(&mm), cmp_(cmp), minKey_(std::move(minKey)), capacity_(capacity) {
    for (std::int32_t i = 0; i < capacity_; ++i) new (&entries()[i]) Entry();
    for (auto& p : pending_) p.store(0, std::memory_order_relaxed);
  }

  ~Chunk() = default;

  /// Entry i's key against probe, with cmp_'s sign.  Under BytesComparator
  /// the cached prefixes decide unless they tie; only then is the off-heap
  /// key read.  `pp` is keyPrefix(probe).
  int compareAt(std::int32_t i, ByteSpan probe, std::uint64_t pp) const noexcept {
    if constexpr (std::is_same_v<Compare, BytesComparator>) {
      const std::uint64_t p = entries()[i].prefix;
      if (p != pp) return p < pp ? -1 : 1;
    }
    return cmp_(keyAt(i), probe);
  }

  Entry* entries() noexcept { return reinterpret_cast<Entry*>(this + 1); }
  const Entry* entries() const noexcept {
    return reinterpret_cast<const Entry*>(this + 1);
  }

  mem::MemoryManager* mm_;
  Compare cmp_;
  ByteVec minKey_;
  const std::int32_t capacity_;
  std::int32_t sortedCount_ = 0;

  std::atomic<std::int32_t> allocIdx_{0};
  std::atomic<std::int32_t> head_{kNone};
  std::atomic<std::int32_t> tailHint_{kNone};
  std::atomic<State> state_{State::Normal};
  std::atomic<Chunk*> next_{nullptr};
  std::atomic<Chunk*> rebalancedTo_{nullptr};

  std::atomic<std::uint32_t> pending_[kMaxThreads];
};

}  // namespace oak::detail
