// Off-heap value cells (§3.3: "Value access and concurrency control"),
// extended with an MVCC version chain for snapshot scans (snapshot.hpp).
//
// A value is   [ ValueHeader (40 B) | payload bytes ... ]   with the header
// carrying the read-write lock + deleted bit, a version (generation), the
// logical size, and an indirected payload reference.  The payload initially
// sits right behind the header; in-situ updates that outgrow it swing the
// payload reference to a fresh segment under the write lock ("extends the
// value's memory allocation if its code so requires", §2.2).
//
// Entries address values through packed, versioned references:
//
//     VRef = [ block:12 | offset/8:23 | version:29 ]
//
// (headers are 8-byte aligned; the header length is a constant, so the
// reference needs no length field — which frees bits for the version.)
//
// Two reclamation policies (§3.3):
//
//  * KeepHeaders (default; the configuration the paper evaluates): on
//    remove/resize only the *payload* returns to the free list; headers are
//    never reclaimed while the map lives.  References are then trivially
//    ABA-free (§4.4).
//
//  * Generational (the "more elaborate solution that uses generations
//    (epochs) in order to reclaim headers as well" that the paper mentions
//    but scopes out): headers live in a type-stable pool and are recycled.
//    Every (re)allocation stamps the header — and the reference — with a
//    fresh generation from a monotonic counter; all accessors re-validate
//    the generation after taking the lock, so a stale reference behaves
//    exactly like a deleted value, and the valRef CAS in finalizeRemove
//    cannot ABA because the 64-bit reference embeds the generation.
//    Freed headers keep their deleted bit set (readers fail fast without
//    writing), and the pool's intrusive free-list link occupies the
//    payload-reference field, which is only ever read under the lock —
//    type-stability is what makes immediate reuse safe.
//
// ---- MVCC layer (DESIGN.md §11) ----
//
// Each header additionally carries:
//
//   * writeVersion — the SnapshotDomain clock value stamped when the current
//     payload (or tombstone) became the value's state.  0 means "pending": a
//     freshly inserted value whose stamp has not been chosen yet.  Readers
//     HELP-stamp pending values (single 0 -> s CAS) so that a value a point
//     read returns is always stamped before any later snapshot opens.
//   * chainRef — a newest-first singly linked list of superseded versions
//     (VersionNode), each a self-contained off-heap copy stamped with the
//     version at which *it* became current.  A node whose successor's stamp
//     is <= every pinned snapshot version is unreachable and is pruned by
//     the version GC (collect()) under the write lock.
//   * flags — kTombstone marks a logically removed value whose header (and
//     chain) must outlive the remove because an open snapshot may still read
//     an older version; kEnqueued dedupes the version-GC feed.
//
// All chain mutation happens under the value write lock; readAt() walks the
// chain under the read lock, so no extra reclamation protocol is needed for
// nodes — the lock is the linearization and safety boundary.  Writers stamp
// with a plain clock *load*; only snapshot opens advance the clock (see
// snapshot.hpp for the ordering argument).
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/spin.hpp"
#include "mem/memory_manager.hpp"
#include "oak/snapshot.hpp"
#include "sync/word_rwlock.hpp"

namespace oak {

/// Value-header reclamation policy (§3.3).
enum class ValueReclaim : std::uint8_t {
  KeepHeaders,   ///< paper's evaluated default: headers are immortal
  Generational,  ///< headers recycled through a versioned, type-stable pool
};

namespace detail {

/// ValueHeader::flags bits (also reused in VersionNode::flags).
inline constexpr std::uint32_t kTombstone = 1u << 0;
inline constexpr std::uint32_t kEnqueued = 1u << 1;  ///< in the version-GC feed

struct ValueHeader {
  sync::WordRwLock lock;                  // readers/writer/deleted (§3.3)
  std::atomic<std::uint32_t> version;     // generation stamp
  std::uint32_t size;                     // logical value size; lock-guarded
  std::atomic<std::uint32_t> flags{0};    // kTombstone | kEnqueued
  std::atomic<std::uint64_t> payloadRef;  // mem::Ref bits; lock-guarded writes
                                          // (free-list link while pooled)
  std::atomic<std::uint64_t> writeVersion{0};  // MVCC stamp; 0 = pending
  std::atomic<std::uint64_t> chainRef{0};      // newest superseded VersionNode
};
static_assert(sizeof(ValueHeader) == 40);

constexpr std::uint32_t kValueHeaderBytes = sizeof(ValueHeader);

/// One superseded version, chained off ValueHeader::chainRef (newest first,
/// strictly decreasing dataVersion).  Self-contained: the payload bytes live
/// right behind the node, so chain reads never chase the live payload.
struct VersionNode {
  std::uint64_t dataVersion;  ///< stamp at which this version became current
  std::uint64_t prevBits;     ///< mem::Ref bits of the next-older node (0 = end)
  std::uint32_t size;         ///< payload length (0 for tombstone markers)
  std::uint32_t flags;        ///< kTombstone: the value was absent here
};
static_assert(sizeof(VersionNode) == 24);
constexpr std::uint32_t kVersionNodeBytes = sizeof(VersionNode);

/// Everything a ValueCell mutation needs to participate in MVCC: the clock /
/// pin table, and the owning map's version-GC feed (a plain function pointer
/// so value.hpp stays below core_map.hpp in the include order).
struct SnapCtx {
  SnapshotDomain* domain = nullptr;
  void* feedOwner = nullptr;
  void (*feed)(void* owner, std::uint64_t vrefBits) = nullptr;
};

/// Lock-free value liveness, for routing writes in OakCoreMap::doPut.
enum class Liveness : std::uint8_t { Live, Tombstone, Dead };

/// Tri-state result of a versioned remove.
enum class RemoveOutcome : std::uint8_t {
  Removed,     ///< hard-removed (no snapshot could need it); entry finalizable
  Tombstoned,  ///< logically removed; header + chain stay for open snapshots
  Absent,      ///< already deleted / tombstoned / stale — nothing to remove
};

/// Packed versioned value reference (never 0 — block is stored +1).
class VRef {
 public:
  static constexpr unsigned kBlockBits = 12;
  static constexpr unsigned kOffsetBits = 23;  // in 8-byte units
  static constexpr unsigned kVersionBits = 29;

  constexpr VRef() noexcept : bits_(0) {}
  constexpr explicit VRef(std::uint64_t bits) noexcept : bits_(bits) {}

  static VRef make(std::uint32_t block, std::uint32_t byteOffset,
                   std::uint32_t version) noexcept {
    return VRef(
        (static_cast<std::uint64_t>(block + 1) << (kOffsetBits + kVersionBits)) |
        (static_cast<std::uint64_t>(byteOffset >> 3) << kVersionBits) |
        (version & ((1u << kVersionBits) - 1)));
  }

  constexpr bool isNull() const noexcept { return bits_ == 0; }
  std::uint32_t block() const noexcept {
    return static_cast<std::uint32_t>(bits_ >> (kOffsetBits + kVersionBits)) - 1;
  }
  std::uint32_t byteOffset() const noexcept {
    return (static_cast<std::uint32_t>(bits_ >> kVersionBits) &
            ((1u << kOffsetBits) - 1))
           << 3;
  }
  std::uint32_t version() const noexcept {
    return static_cast<std::uint32_t>(bits_) & ((1u << kVersionBits) - 1);
  }
  constexpr std::uint64_t bits() const noexcept { return bits_; }

 private:
  std::uint64_t bits_;
};

/// Physical ref of the 40-byte header a VRef names.  The ONE place outside
/// mem/ that materializes a {block, offset} — safe because headers live in
/// the allocator's pinned domain and never relocate (DESIGN.md §13).
// oaklint: allow(R7, pinned-domain value headers never relocate)
inline mem::Ref headerRef(VRef ref) noexcept {
  return mem::Ref::make(ref.block(), ref.byteOffset(), kValueHeaderBytes);
}

/// Monotonic generation source (global: collisions would additionally
/// require identical header addresses, so cross-map sharing is harmless).
inline std::uint32_t nextGeneration() noexcept {
  static std::atomic<std::uint32_t> gen{1};
  std::uint32_t g = gen.fetch_add(1, std::memory_order_relaxed);
  g &= (1u << VRef::kVersionBits) - 1;
  return g == 0 ? nextGeneration() : g;
}

/// Type-stable pool of 40-byte value headers (Generational mode).  Freed
/// headers keep the deleted bit set so stale readers fail fast; the free
/// list links through the payloadRef field (never touched without the
/// lock).
class HeaderPool {
 public:
  explicit HeaderPool(mem::MemoryManager& mm) : mm_(&mm) {}

  /// Returns a header with a fresh generation, lock word reset, marked
  /// not-deleted, MVCC fields cleared (pending, no chain).  The caller must
  /// fully initialize size/payload before publishing the reference.
  mem::Ref acquire(std::uint32_t* versionOut) {
    mem::Ref ref;
    {
      SpinGuard lk(mu_);
      if (!free_.empty()) {
        ref = free_.back();
        free_.pop_back();
      }
    }
    if (ref.isNull()) {
      // Pinned domain: OakRBuffer escapes EBR guards holding a raw header
      // pointer, so headers must keep their physical address for life —
      // they are never evacuation victims (DESIGN.md §13).
      ref = mm_->allocPinned(kValueHeaderBytes);
      new (mm_->translate(ref)) ValueHeader();
      created_.fetch_add(1, std::memory_order_relaxed);
    }
    auto* hdr = reinterpret_cast<ValueHeader*>(mm_->translate(ref));
    const std::uint32_t v = nextGeneration();
    // Order: stamp the new generation first, then open the lock word.  A
    // stale reader that sneaks through the fresh lock word fails the
    // generation check it performs under the lock.
    hdr->version.store(v, std::memory_order_release);
    hdr->flags.store(0, std::memory_order_relaxed);
    hdr->writeVersion.store(0, std::memory_order_relaxed);
    hdr->chainRef.store(0, std::memory_order_relaxed);
    hdr->lock.resetOpen();
    if (versionOut != nullptr) *versionOut = v;
    return ref;
  }

  /// Recycles a header whose value was removed.  Caller guarantees the
  /// deleted bit is set, the chain is freed, and no writer/readers remain.
  void release(mem::Ref headerRef) {
    SpinGuard lk(mu_);
    // oaklint: allow(R3, header recycle list grows to the in-flight peak and
    // then reuses capacity; delete-heavy phases amortize the growth)
    free_.push_back(headerRef);
  }

  std::size_t freeCount() const {
    SpinGuard lk(mu_);
    return free_.size();
  }

  /// Cumulative fresh header allocations (pool misses) — steady state
  /// should plateau at the peak number of headers ever in flight.
  std::uint64_t createdCount() const noexcept {
    return created_.load(std::memory_order_relaxed);
  }

 private:
  mem::MemoryManager* mm_;
  mutable SpinLock mu_;
  std::vector<mem::Ref> free_ OAK_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> created_{0};
};

/// A handle pairing a (versioned) value reference with the memory manager
/// that owns it.  Cheap to construct; all methods are O(1) + user work
/// (+ chain length for snapshot reads and version GC).
class ValueCell {
 public:
  ValueCell(mem::MemoryManager& mm, VRef ref) noexcept
      : mm_(&mm),
        hdr_(reinterpret_cast<ValueHeader*>(mm.translate(headerRef(ref)))),
        ref_(ref) {}

  /// Allocates and initializes a value holding `bytes`.  Header and payload
  /// are separate segments: on remove the payload hole can then host a
  /// future payload of the same size (§3.2's "reuse of the space taken up
  /// by the deleted value" — a contiguous [header|payload] layout would
  /// leave every hole one header too small for an equal-sized reinsert).
  /// With a pool (Generational mode) the header is recycled, type-stable
  /// storage.  Fully initialized *before* it becomes reachable.  The value
  /// starts PENDING (writeVersion 0); the inserting writer help-stamps it
  /// right after the publishing CAS.
  static VRef allocate(mem::MemoryManager& mm, ByteSpan bytes,
                       HeaderPool* pool = nullptr) {
    const auto len = static_cast<std::uint32_t>(bytes.size());
    mem::Ref h;
    std::uint32_t version = 0;
    if (pool != nullptr) {
      h = pool->acquire(&version);
    } else {
      h = mm.allocPinned(kValueHeaderBytes);
      new (mm.translate(h)) ValueHeader();
      version = nextGeneration();
      reinterpret_cast<ValueHeader*>(mm.translate(h))
          ->version.store(version, std::memory_order_relaxed);
    }
    auto* hdr = reinterpret_cast<ValueHeader*>(mm.translate(h));
    mem::Ref payload;
    try {
      payload = mm.allocRaw(len);
    } catch (...) {
      // Nothing references the header yet; return it so an OOM between the
      // two allocations leaks neither the header nor a pooled slot.
      if (pool != nullptr) {
        hdr->lock.markDeletedRaw();
        pool->release(h);
      } else {
        mm.free(h);
      }
      throw;
    }
    hdr->size = len;
    hdr->payloadRef.store(payload.bits(), std::memory_order_relaxed);
    copyBytes({mm.translate(payload), len}, bytes);
    return VRef::make(h.block(), h.offset(), version);
  }

  /// Frees a value that never became reachable (lost CAS).  Nothing can
  /// reference it, so both header and payload are returned.
  static void disposeUnpublished(mem::MemoryManager& mm, VRef ref,
                                 HeaderPool* pool = nullptr) {
    const mem::Ref href = headerRef(ref);
    auto* hdr = reinterpret_cast<ValueHeader*>(mm.translate(href));
    const mem::Ref payload{hdr->payloadRef.load(std::memory_order_relaxed)};
    if (payload.length() != 0) mm.free(payload);
    if (pool != nullptr) {
      // Mark deleted so stale probes fail fast, then recycle.
      hdr->lock.markDeletedRaw();
      pool->release(href);
    } else {
      mm.free(href);
    }
  }

  /// v.put(val): overwrite in place (resizing if needed).  Returns false if
  /// the value is deleted, tombstoned, or the reference is stale (§4.3
  /// case 1 retries).  May throw OffHeapOutOfMemory when the value grows or
  /// the superseded version must be chained; the old contents stay intact
  /// (allocations happen before anything mutates).
  bool put(ByteSpan bytes, const SnapCtx& sc) {
    sync::WriteGuard g(hdr_->lock);
    if (!g.acquired() || stale()) return false;
    if (tombstoneLocked()) return false;
    overwriteLocked(sc, [&] { writeLocked(bytes); });
    return true;
  }

  /// Like put, but first copies the previous contents into *old — gives the
  /// legacy API its atomic "put returns the old value" semantics.
  bool exchange(ByteSpan bytes, ByteVec* old, const SnapCtx& sc) {
    sync::WriteGuard g(hdr_->lock);
    if (!g.acquired() || stale()) return false;
    if (tombstoneLocked()) return false;
    if (old != nullptr) {
      const ByteSpan cur = payloadLocked();
      old->assign(cur.begin(), cur.end());
    }
    overwriteLocked(sc, [&] { writeLocked(bytes); });
    return true;
  }

  /// v.compute(func): runs the user lambda atomically, exactly once (§2.2).
  /// The superseded version is chained BEFORE the lambda mutates in place.
  template <class F>
  bool compute(F&& f, const SnapCtx& sc) {
    sync::WriteGuard g(hdr_->lock);
    if (!g.acquired() || stale()) return false;
    if (tombstoneLocked()) return false;
    overwriteLocked(sc, [&] { f(*this); });
    return true;
  }

  /// Re-inserts over a tombstone: the logical insert path for a key whose
  /// header still carries chained versions.  Returns false (nothing done)
  /// if the cell is no longer a tombstone — the caller re-routes.  May
  /// throw OffHeapOutOfMemory; the tombstone stays intact.
  bool resurrect(ByteSpan bytes, const SnapCtx& sc) {
    sync::WriteGuard g(hdr_->lock);
    if (!g.acquired() || stale()) return false;
    if (!tombstoneLocked()) return false;
    const std::uint64_t s = sc.domain->now();
    // Chain the tombstone interval so snapshots between the remove and this
    // insert keep reading "absent".  (On a payload-alloc throw below the
    // pushed marker is a benign duplicate of the head state.)
    if (sc.domain->activeSnapshots() != 0) pushChainLocked(sc);
    const auto len = static_cast<std::uint32_t>(bytes.size());
    const mem::Ref payload = mm_->allocRaw(len);
    copyBytes({mm_->translate(payload), len}, bytes);
    hdr_->payloadRef.store(payload.bits(), std::memory_order_relaxed);
    hdr_->size = len;
    hdr_->flags.fetch_and(~kTombstone, std::memory_order_relaxed);
    hdr_->writeVersion.store(s, std::memory_order_release);
    return true;
  }

  /// Versioned remove.  With open snapshots the value becomes a TOMBSTONE —
  /// header and chain survive so readAt() can still serve older versions;
  /// the version GC hard-deletes it once no pin can reach it.  Without open
  /// snapshots this is a hard remove.  May throw
  /// OffHeapOutOfMemory while chaining (value left intact).
  RemoveOutcome removeAt(const SnapCtx& sc, ByteVec* old = nullptr,
                         HeaderPool* pool = nullptr) {
    bool hard = false;
    {
      sync::WriteGuard g(hdr_->lock);
      if (!g.acquired() || stale()) return RemoveOutcome::Absent;
      if (tombstoneLocked()) return RemoveOutcome::Absent;
      if (old != nullptr) {
        const ByteSpan cur = payloadLocked();
        old->assign(cur.begin(), cur.end());
      }
      helpStamp(sc);
      const std::uint64_t s = sc.domain->now();
      if (sc.domain->activeSnapshots() != 0) {
        pushChainLocked(sc);  // may throw: nothing mutated yet
        const mem::Ref payload{hdr_->payloadRef.load(std::memory_order_relaxed)};
        if (payload.length() != 0) mm_->free(payload);
        hdr_->payloadRef.store(0, std::memory_order_relaxed);
        hdr_->size = 0;
        hdr_->flags.fetch_or(kTombstone, std::memory_order_relaxed);
        hdr_->writeVersion.store(s, std::memory_order_release);
      } else {
        hardDeleteLocked();
        hard = true;
      }
    }
    if (hard && pool != nullptr) pool->release(headerRef(ref_));
    return hard ? RemoveOutcome::Removed : RemoveOutcome::Tombstoned;
  }

  /// Hard-deletes the value whatever its state (live or tombstone), with
  /// its chain: for a cell no reader can be routed to any more (a chunk
  /// rebuild dropped its entry).  Views on it then throw
  /// ConcurrentModification.  No-op if already deleted or stale.
  void hardDelete(HeaderPool* pool) noexcept {
    {
      sync::WriteGuard g(hdr_->lock);
      if (!g.acquired() || stale()) return;
      hardDeleteLocked();
    }
    if (pool != nullptr) pool->release(headerRef(ref_));
  }

  /// Lock-free liveness probe: deleted bit or generation mismatch.
  bool isDeleted() const noexcept {
    return hdr_->lock.isDeleted() ||
           hdr_->version.load(std::memory_order_acquire) != ref_.version();
  }

  /// Lock-free three-way probe for doPut routing (authoritative re-checks
  /// happen under the write lock inside put/resurrect/removeAt).
  Liveness livenessProbe() const noexcept {
    if (isDeleted()) return Liveness::Dead;
    return (hdr_->flags.load(std::memory_order_acquire) & kTombstone) != 0
               ? Liveness::Tombstone
               : Liveness::Live;
  }

  /// Stamps a pending value with the current clock.  Lock-free — the single
  /// 0 -> s transition makes concurrent helpers race-free.  Point readers
  /// MUST call this before returning a value: it guarantees that any
  /// snapshot opened after the read completes observes the value too
  /// (stamp <= that snapshot's version), keeping get vs snapshot-scan
  /// histories linearizable.
  void helpStamp(const SnapCtx& sc) noexcept {
    std::uint64_t ws = hdr_->writeVersion.load(std::memory_order_acquire);
    if (ws != 0) return;
    const std::uint64_t s = sc.domain->now();
    hdr_->writeVersion.compare_exchange_strong(ws, s,
                                               std::memory_order_acq_rel);
  }

  /// Runs `f(ByteSpan)` under the read lock.  Returns false (without
  /// running f) if the value is deleted, tombstoned, or the reference is
  /// stale.  With a SnapCtx the read help-stamps pending values first (see
  /// helpStamp) — the stale check under the lock makes that safe against
  /// generation recycling.
  template <class F>
  bool read(F&& f, const SnapCtx* sc = nullptr) const {
    sync::ReadGuard g(hdr_->lock);
    if (!g.acquired() || stale()) return false;
    if ((hdr_->flags.load(std::memory_order_acquire) & kTombstone) != 0) {
      return false;
    }
    if (sc != nullptr) const_cast<ValueCell*>(this)->helpStamp(*sc);
    f(payloadLocked());
    return true;
  }

  /// Snapshot read: runs `f` on the payload visible at version `v`, walking
  /// the version chain when the current state is newer.  Returns false when
  /// the key was absent at `v` (tombstoned at or before v, born after v, or
  /// deleted — a deleted header is never needed by a pinned version, see
  /// DESIGN.md §11).  With a SnapCtx a pending value is help-stamped first,
  /// as read() does: its stamp is then > v, so the inserter cannot later
  /// CAS in a stamp <= v and make a second read at v disagree.
  template <class F>
  bool readAt(std::uint64_t v, F&& f, const SnapCtx* sc = nullptr) const {
    sync::ReadGuard g(hdr_->lock);
    if (!g.acquired() || stale()) return false;
    if (sc != nullptr) const_cast<ValueCell*>(this)->helpStamp(*sc);
    const std::uint64_t ws = hdr_->writeVersion.load(std::memory_order_acquire);
    if (ws == 0) return false;  // pending: absent at v
    const bool tomb =
        (hdr_->flags.load(std::memory_order_acquire) & kTombstone) != 0;
    if (ws <= v) {
      if (tomb) return false;
      f(payloadLocked());
      return true;
    }
    // Current state is newer than the snapshot: walk to the first version
    // that was already current at v.  Safe under the read lock — push and
    // prune both hold the write lock.
    std::uint64_t bits = hdr_->chainRef.load(std::memory_order_acquire);
    while (bits != 0) {
      const VersionNode* n = nodeAt(bits);
      if (n->dataVersion <= v) {
        if ((n->flags & kTombstone) != 0) return false;
        f(nodePayload(n));
        return true;
      }
      bits = n->prevBits;
    }
    return false;  // inserted after v
  }

  /// True iff the key had a live mapping at version `v`.
  bool visibleAt(std::uint64_t v, const SnapCtx* sc) const {
    return readAt(v, [](ByteSpan) {}, sc);
  }

  /// Outcome of one version-GC pass over this cell.
  struct GcOutcome {
    std::uint32_t retired = 0;  ///< chain nodes / tombstones reclaimed
    bool clean = false;         ///< nothing left pending for this header
  };

  /// Version GC: prunes chain nodes no pinned snapshot can reach and
  /// hard-deletes tombstones once invisible to every pin.  `minPinned` is
  /// SnapshotDomain::minPinned().  Runs under the write lock; noexcept
  /// (only frees).  When !clean the caller re-enqueues the cell.
  GcOutcome collect(std::uint64_t minPinned, HeaderPool* pool) noexcept {
    GcOutcome out;
    bool died = false;
    {
      sync::WriteGuard g(hdr_->lock);
      if (!g.acquired() || stale()) {
        out.clean = true;  // hard-removed elsewhere; chain freed there
        return out;
      }
      const std::uint64_t ws =
          hdr_->writeVersion.load(std::memory_order_relaxed);
      // Prune the unreachable suffix: node n (superseded at `superAt`) is
      // unneeded iff minPinned >= superAt — then every open snapshot already
      // sees a newer state.  Unneeded nodes always form a suffix.
      std::uint64_t superAt = ws;
      std::uint64_t bits = hdr_->chainRef.load(std::memory_order_relaxed);
      VersionNode* newer = nullptr;
      while (bits != 0) {
        VersionNode* n = nodeAt(bits);
        if (superAt != 0 && superAt <= minPinned) {
          out.retired += freeChainFrom(bits);
          if (newer == nullptr) {
            hdr_->chainRef.store(0, std::memory_order_relaxed);
          } else {
            newer->prevBits = 0;
          }
          break;
        }
        superAt = n->dataVersion;
        newer = n;
        bits = n->prevBits;
      }
      const bool tomb = tombstoneLocked();
      if (tomb && ws != 0 && ws <= minPinned) {
        // The tombstone itself is invisible to every pin: finish the remove.
        // The chain was necessarily fully pruned above (superAt started at
        // ws <= minPinned).  The entry's valRef keeps pointing at a deleted
        // header — exactly the state finalizeRemove's give-up path leaves,
        // which every reader and doPut already handles.
        hdr_->lock.setDeleted();
        ++out.retired;
        died = true;
        out.clean = true;
      } else {
        out.clean =
            hdr_->chainRef.load(std::memory_order_relaxed) == 0 && !tomb;
        if (out.clean) {
          hdr_->flags.fetch_and(~kEnqueued, std::memory_order_relaxed);
        }
      }
    }
    if (died && pool != nullptr) pool->release(headerRef(ref_));
    return out;
  }

  /// What one relocateSlices() call moved.
  struct RelocOutcome {
    std::uint32_t slices = 0;
    std::uint64_t bytes = 0;
  };

  /// Evacuation support (DESIGN.md §13): moves this value's payload and any
  /// chained version nodes whose block `isVictim(block)` into fresh slices.
  /// Runs under the write lock — the same fence every reader (read/readAt)
  /// and writer takes — so the old slices can be freed immediately: nobody
  /// can hold a payload pointer across the lock.  The header itself is
  /// pinned and never moves.  May throw OffHeapOutOfMemory; every slice
  /// moved before the throw is fully swung and its old copy freed, so the
  /// cell stays consistent and the evacuation pass simply aborts.
  template <class IsVictim>
  RelocOutcome relocateSlices(const IsVictim& isVictim) {
    RelocOutcome out;
    sync::WriteGuard g(hdr_->lock);
    if (!g.acquired() || stale()) return out;  // dead header: chain freed at remove
    const mem::Ref payload{hdr_->payloadRef.load(std::memory_order_relaxed)};
    if (!payload.isNull() && payload.length() != 0 && isVictim(payload.block())) {
      const mem::Ref fresh = mm_->allocRaw(payload.length());
      copyBytes({mm_->translate(fresh), payload.length()},
                {mm_->translate(payload), payload.length()});
      hdr_->payloadRef.store(fresh.bits(), std::memory_order_release);
      mm_->free(payload);
      ++out.slices;
      out.bytes += payload.length();
    }
    // Version chain: nodes are self-contained [VersionNode | payload] slices
    // mutated only under the write lock, so copy + relink + free is safe.
    std::uint64_t bits = hdr_->chainRef.load(std::memory_order_relaxed);
    VersionNode* newer = nullptr;
    while (bits != 0) {
      const mem::Ref node{bits};
      VersionNode* n = nodeAt(bits);
      if (isVictim(node.block())) {
        const mem::Ref fresh = mm_->allocRaw(node.length());
        copyBytes({mm_->translate(fresh), node.length()},
                  {reinterpret_cast<const std::byte*>(n), node.length()});
        if (newer == nullptr) {
          hdr_->chainRef.store(fresh.bits(), std::memory_order_release);
        } else {
          newer->prevBits = fresh.bits();
        }
        mm_->free(node);
        ++out.slices;
        out.bytes += node.length();
        n = nodeAt(fresh.bits());
      }
      newer = n;
      bits = n->prevBits;
    }
    return out;
  }

  // ---- Accessors valid only while the write lock is held (compute body) --
  ByteSpan payloadLocked() const noexcept {
    const mem::Ref payload{hdr_->payloadRef.load(std::memory_order_relaxed)};
    return {mm_->translate(payload), hdr_->size};
  }
  MutByteSpan mutablePayloadLocked() noexcept {
    const mem::Ref payload{hdr_->payloadRef.load(std::memory_order_relaxed)};
    return {mm_->translate(payload), hdr_->size};
  }

  /// Grows/shrinks the logical size; may move the payload.  Contents are
  /// preserved up to min(old, new) size.  Write lock must be held.
  /// Shrinks that stay inside the slice's size class keep the slice; a
  /// grow, or a shrink across a class boundary, reallocates so the old
  /// bytes return to the allocator (§3.2 free-on-resize).
  void resizeLocked(std::uint32_t newSize) {
    const mem::Ref payload{hdr_->payloadRef.load(std::memory_order_relaxed)};
    if (newSize <= payload.length() &&
        !mem::FirstFitAllocator::classDiffers(payload.length(), newSize)) {
      hdr_->size = newSize;
      return;
    }
    mem::Ref fresh = mm_->allocRaw(newSize);
    const std::uint32_t keep = hdr_->size < newSize ? hdr_->size : newSize;
    copyBytes({mm_->translate(fresh), keep}, {mm_->translate(payload), keep});
    hdr_->payloadRef.store(fresh.bits(), std::memory_order_relaxed);
    if (payload.length() != 0) mm_->free(payload);
    hdr_->size = newSize;
  }

  ValueHeader* header() noexcept { return hdr_; }
  VRef vref() const noexcept { return ref_; }
  mem::MemoryManager& mm() noexcept { return *mm_; }

 private:
  /// Generation re-validation; call with the lock held.
  bool stale() const noexcept {
    return hdr_->version.load(std::memory_order_acquire) != ref_.version();
  }

  bool tombstoneLocked() const noexcept {
    return (hdr_->flags.load(std::memory_order_relaxed) & kTombstone) != 0;
  }

  VersionNode* nodeAt(std::uint64_t bits) const noexcept {
    return reinterpret_cast<VersionNode*>(mm_->translate(mem::Ref{bits}));
  }
  static ByteSpan nodePayload(const VersionNode* n) noexcept {
    return {reinterpret_cast<const std::byte*>(n) + kVersionNodeBytes, n->size};
  }

  /// The versioned in-place write shared by put, exchange and compute:
  /// help-stamp a pending value, chain the superseded version when a
  /// snapshot may still read it, run `mutate`, then stamp.  Write lock held.
  template <class Mutate>
  void overwriteLocked(const SnapCtx& sc, Mutate&& mutate) {
    helpStamp(sc);
    const std::uint64_t s = sc.domain->now();
    // Stamp loaded BEFORE the active check: if activeSnapshots() reads 0,
    // any open that could still need the superseded version has its clock
    // fetch_add ordered after our load, so its V >= s and the NEW value is
    // the one visible at V (snapshot.hpp header comment).
    if (sc.domain->activeSnapshots() != 0) pushChainLocked(sc);
    mutate();
    hdr_->writeVersion.store(s, std::memory_order_release);
  }

  /// Copies the CURRENT state (payload or tombstone, with its stamp) into a
  /// fresh chain node and links it.  Write lock held; may throw OOM before
  /// anything is linked (strong guarantee — this is what keeps a
  /// mid-snapshot OOM from corrupting the chain a walker is pinned to).
  void pushChainLocked(const SnapCtx& sc) {
    const bool tomb = tombstoneLocked();
    const std::uint32_t len = tomb ? 0 : hdr_->size;
    const mem::Ref node = mm_->allocRaw(kVersionNodeBytes + len);
    auto* n = reinterpret_cast<VersionNode*>(mm_->translate(node));
    n->dataVersion = hdr_->writeVersion.load(std::memory_order_relaxed);
    n->prevBits = hdr_->chainRef.load(std::memory_order_relaxed);
    n->size = len;
    n->flags = tomb ? kTombstone : 0;
    if (len != 0) {
      copyBytes({reinterpret_cast<std::byte*>(n) + kVersionNodeBytes, len},
                payloadLocked());
    }
    hdr_->chainRef.store(node.bits(), std::memory_order_release);
    enqueueForGcLocked(sc);
  }

  /// Feeds this cell to the owning map's version GC, once (kEnqueued
  /// dedupes; the GC clears the bit when the header comes out clean).
  void enqueueForGcLocked(const SnapCtx& sc) {
    if (sc.feed == nullptr) return;
    const std::uint32_t prior =
        hdr_->flags.fetch_or(kEnqueued, std::memory_order_relaxed);
    if ((prior & kEnqueued) == 0) sc.feed(sc.feedOwner, ref_.bits());
  }

  /// Frees every node from `bits` down.  Write lock held.
  std::uint32_t freeChainFrom(std::uint64_t bits) noexcept {
    std::uint32_t n = 0;
    while (bits != 0) {
      const std::uint64_t prev = nodeAt(bits)->prevBits;
      mm_->free(mem::Ref{bits});
      bits = prev;
      ++n;
    }
    return n;
  }

  /// Sets the deleted bit and frees payload and chain.  Write lock held.
  void hardDeleteLocked() noexcept {
    hdr_->lock.setDeleted();
    const mem::Ref payload{hdr_->payloadRef.load(std::memory_order_relaxed)};
    if (payload.length() != 0) mm_->free(payload);
    hdr_->payloadRef.store(0, std::memory_order_relaxed);
    hdr_->size = 0;
    freeChainFrom(hdr_->chainRef.load(std::memory_order_relaxed));
    hdr_->chainRef.store(0, std::memory_order_relaxed);
  }

  // Not noexcept: growing the payload allocates and may throw.  The alloc
  // happens before any header mutation, so a throw leaves the old value
  // fully intact (strong guarantee).
  void writeLocked(ByteSpan bytes) {
    const auto len = static_cast<std::uint32_t>(bytes.size());
    mem::Ref payload{hdr_->payloadRef.load(std::memory_order_relaxed)};
    // Reallocate on grow, and on shrinks that cross a size-class boundary
    // (§3.2 free-on-resize: without it every value ratchets up to its
    // historical maximum and the freed-slice recycling loop starves).
    if (len > payload.length() ||
        mem::FirstFitAllocator::classDiffers(payload.length(), len)) {
      mem::Ref fresh = mm_->allocRaw(len);
      hdr_->payloadRef.store(fresh.bits(), std::memory_order_relaxed);
      if (payload.length() != 0) mm_->free(payload);
      payload = fresh;
    }
    copyBytes({mm_->translate(payload), len}, bytes);
    hdr_->size = len;
  }

  mem::MemoryManager* mm_;
  ValueHeader* hdr_;
  VRef ref_;
};

}  // namespace detail
}  // namespace oak
