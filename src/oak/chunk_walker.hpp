// OakSan structural validator (debug tooling, any build).
//
// ChunkWalker audits an OakCoreMap's metadata against the invariants the
// paper's algorithms rely on (§3.1, §4.1):
//
//   * the chunk chain is acyclic and minKeys are strictly ascending;
//   * no chunk reachable from head_ is frozen or carries a rebalance
//     redirect (retired chunks must be unlinked before they are retired);
//   * per chunk: sortedCount <= allocatedCount <= capacity, the tail hint
//     indexes an allocated entry, and the intra-chunk linked list visits at
//     most `capacity` entries in strictly ascending key order within
//     [minKey, next->minKey);
//   * every linked entry's key reference — and every live value's header
//     and payload references — point at slices the allocator still
//     considers live (no metadata pointing into freed off-heap memory).
//
// The walk runs under an epoch guard so it is safe against concurrent
// readers, but precise results assume no concurrent *mutators*: call it
// from tests at quiescent points (after joins, between phases).
//
// validate() returns a Report; validateOrDie() aborts through the OakSan
// failure path with the first problems attached — usable as a death-test
// target and as a hard stop in stress harnesses even when OAK_CHECKED=OFF.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/checked.hpp"
#include "oak/core_map.hpp"
#include "oak/sharded_map.hpp"

namespace oak {

template <class Compare>
class ChunkWalker {
  using Map = OakCoreMap<Compare>;
  using Sharded = ShardedOakCoreMap<Compare>;
  using ChunkT = detail::Chunk<Compare>;

 public:
  struct Report {
    bool ok = true;
    std::size_t chunks = 0;
    std::size_t linkedEntries = 0;
    std::size_t liveValues = 0;
    std::vector<std::string> problems;

    void fail(std::string msg) {
      ok = false;
      if (problems.size() < kMaxProblems) problems.push_back(std::move(msg));
    }
    static constexpr std::size_t kMaxProblems = 32;
  };

  static Report validate(Map& m) {
    Report rep;
    sync::Ebr::Guard g(m.ebr_);
    mem::FirstFitAllocator& alloc = m.mm_.allocator();

    // A cycle in the chain would walk forever; bound by the map's own count
    // (with slack for chunks added by a concurrent rebalance).
    const std::size_t maxChunks =
        m.chunkCount_.load(std::memory_order_acquire) * 2 + 64;

    ChunkT* prev = nullptr;
    std::size_t steps = 0;
    for (ChunkT* c = m.head_.load(std::memory_order_acquire); c != nullptr;
         c = c->nextChunk().load(std::memory_order_acquire)) {
      if (++steps > maxChunks) {
        rep.fail(format("chunk chain exceeds %zu nodes (cycle?)", maxChunks));
        return rep;
      }
      ++rep.chunks;
      validateChunk(m, alloc, c, prev, rep);
      prev = c;
    }
    if (rep.chunks == 0) rep.fail("empty chunk chain (head_ is null)");
    return rep;
  }

  /// Test support: visits every linked entry as f(keyRef, valRefBits) under
  /// an epoch guard.  Lets fault-injection tests harvest real metadata
  /// references without widening the map's public API.
  template <class F>
  static void forEachEntry(Map& m, F&& f) {
    sync::Ebr::Guard g(m.ebr_);
    for (ChunkT* c = m.head_.load(std::memory_order_acquire); c != nullptr;
         c = c->nextChunk().load(std::memory_order_acquire)) {
      for (std::int32_t cur = c->headEntry(); cur != ChunkT::kNone;
           cur = c->entry(cur).next.load(std::memory_order_acquire)) {
        f(mem::Ref{c->entry(cur).keyRef.load(std::memory_order_acquire)},
          c->entry(cur).valRef.load(std::memory_order_acquire));
      }
    }
  }

  /// Aborts (in every build) when validate() finds a violation.
  static void validateOrDie(Map& m) {
    Report rep = validate(m);
    if (rep.ok) return;
    std::string all;
    for (const std::string& p : rep.problems) {
      all += "\n    ";
      all += p;
    }
    oakCheckFail(__FILE__, __LINE__,
                 "ChunkWalker found %zu structural violation(s):%s",
                 rep.problems.size(), all.c_str());
  }

  // ------------------------------------------------------ sharded maps
  /// Validates one shard's chain, plus the router invariant that a core
  /// never holds a key *below* its owned range — a fault in one shard must
  /// never implicate its neighbors.  Keys at/above the upper boundary are
  /// legal: shard splits leave migrated entries behind in the source core
  /// ("migration leftovers"), hidden from routing by range clamping; the
  /// cross-shard order audit in validate(Sharded&) checks that clamping.
  static Report validateShard(Sharded& m, std::size_t i) {
    Report rep = validate(m.shard(i));
    // Lower-boundary containment via the shard's own ordered extreme — but
    // only on a structurally sound chain: the comparison reads key bytes,
    // and if the chain check above flagged a freed slice that read would
    // fault (checked builds abort) instead of reporting.
    if (!rep.ok || i == 0) return rep;
    auto first = m.shard(i).ascend();
    if (first.valid() &&
        m.comparator()(first.entry().key, m.router().boundary(i - 1)) < 0) {
      rep.fail(format("shard %zu holds a key below its lower boundary", i));
    }
    return rep;
  }

  /// Per-shard reports, validated independently (a corrupted shard yields
  /// exactly one failing report; healthy shards stay clean).
  static std::vector<Report> validateShards(Sharded& m) {
    std::vector<Report> reps;
    reps.reserve(m.shardCount());
    for (std::size_t i = 0; i < m.shardCount(); ++i) {
      reps.push_back(validateShard(m, i));
    }
    return reps;
  }

  /// Whole-map rollup: every shard's problems, each prefixed "shard i:",
  /// plus a cross-shard order audit through the map's own clamped merged
  /// scan — the check that catches broken boundary clamping (duplicate or
  /// out-of-order keys surfacing from migration leftovers).
  static Report validate(Sharded& m) {
    Report all;
    const std::vector<Report> reps = validateShards(m);
    for (std::size_t i = 0; i < reps.size(); ++i) {
      all.chunks += reps[i].chunks;
      all.linkedEntries += reps[i].linkedEntries;
      all.liveValues += reps[i].liveValues;
      for (const std::string& p : reps[i].problems) {
        all.fail(format("shard %zu: ", i) + p);
      }
    }
    if (all.ok) {
      ByteVec prev;
      bool have = false;
      for (auto it = m.ascend(); it.valid(); it.next()) {
        const ByteSpan k = it.entry().key;
        if (have && m.comparator()(asBytes(prev), k) >= 0) {
          all.fail("merged scan yields non-ascending keys (boundary "
                   "clamping violation)");
          break;
        }
        prev.assign(k.begin(), k.end());
        have = true;
      }
    }
    return all;
  }

  /// Aborts (in every build) when any shard fails validation.
  static void validateOrDie(Sharded& m) {
    Report rep = validate(m);
    if (rep.ok) return;
    std::string all;
    for (const std::string& p : rep.problems) {
      all += "\n    ";
      all += p;
    }
    oakCheckFail(__FILE__, __LINE__,
                 "ChunkWalker found %zu structural violation(s):%s",
                 rep.problems.size(), all.c_str());
  }

  /// forEachEntry over one shard (fault-injection tests pick their victim
  /// shard explicitly; the plain overload serves single-core maps).
  template <class F>
  static void forEachEntry(Sharded& m, std::size_t shard, F&& f) {
    forEachEntry(m.shard(shard), std::forward<F>(f));
  }

 private:
  static void validateChunk(Map& m, mem::FirstFitAllocator& alloc, ChunkT* c,
                            ChunkT* prev, Report& rep) {
    if (c->rebalancedTo().load(std::memory_order_acquire) != nullptr) {
      rep.fail(format("chunk %p is in the chain but carries a rebalance "
                      "redirect (retired chunk still linked)",
                      static_cast<void*>(c)));
    }
    if (c->isFrozen()) {
      rep.fail(format("chunk %p is in the chain but frozen (rebalance left "
                      "it published)",
                      static_cast<void*>(c)));
    }
    const std::int32_t cap = c->capacity();
    const std::int32_t sorted = c->sortedCount();
    const std::int32_t allocd = c->allocatedCount();
    if (sorted < 0 || sorted > allocd || allocd > cap) {
      rep.fail(format("chunk %p counters out of range: sorted=%d allocated=%d "
                      "capacity=%d",
                      static_cast<void*>(c), sorted, allocd, cap));
      return;  // entry indices below would be unreliable
    }
    const std::int32_t th = c->tailHintDebug();
    if (th != ChunkT::kNone && (th < 0 || th >= allocd)) {
      rep.fail(format("chunk %p tail hint %d outside allocated range [0,%d)",
                      static_cast<void*>(c), th, allocd));
    }
    if (prev != nullptr && m.cmp_(prev->minKey(), c->minKey()) >= 0) {
      rep.fail(format("chunk %p minKey not strictly above predecessor %p",
                      static_cast<void*>(c), static_cast<void*>(prev)));
    }

    // Intra-chunk sorted list: bounded, ascending, inside the key range.
    ChunkT* nx = c->nextChunk().load(std::memory_order_acquire);
    std::int32_t walked = 0;
    std::int32_t predIdx = ChunkT::kNone;
    for (std::int32_t cur = c->headEntry(); cur != ChunkT::kNone;
         cur = c->entry(cur).next.load(std::memory_order_acquire)) {
      if (++walked > cap) {
        rep.fail(format("chunk %p entry list visits more than capacity=%d "
                        "entries (cycle?)",
                        static_cast<void*>(c), cap));
        return;
      }
      if (cur < 0 || cur >= allocd) {
        rep.fail(format("chunk %p entry list reaches index %d outside "
                        "allocated range [0,%d)",
                        static_cast<void*>(c), cur, allocd));
        return;
      }
      ++rep.linkedEntries;
      const mem::Ref keyRef{c->entry(cur).keyRef.load(std::memory_order_acquire)};
      if (keyRef.isNull()) {
        rep.fail(format("chunk %p entry %d linked with a null key reference",
                        static_cast<void*>(c), cur));
        continue;
      }
      if (!alloc.isLive(keyRef)) {
        rep.fail(format("chunk %p entry %d key {block=%u off=%u len=%u} "
                        "points at a freed slice",
                        static_cast<void*>(c), cur, keyRef.block(),
                        keyRef.offset(), keyRef.length()));
        continue;  // keyAt() would fault (checked builds abort) — skip order checks
      }
      const ByteSpan key = c->keyAt(cur);
      if (predIdx != ChunkT::kNone && m.cmp_(c->keyAt(predIdx), key) >= 0) {
        rep.fail(format("chunk %p entries %d -> %d break ascending key order",
                        static_cast<void*>(c), predIdx, cur));
      }
      if (!c->minKey().empty() && m.cmp_(key, c->minKey()) < 0) {
        rep.fail(format("chunk %p entry %d key below the chunk's minKey",
                        static_cast<void*>(c), cur));
      }
      if (nx != nullptr && m.cmp_(key, nx->minKey()) >= 0) {
        rep.fail(format("chunk %p entry %d key reaches into the next chunk's "
                        "range",
                        static_cast<void*>(c), cur));
      }
      predIdx = cur;
      validateValue(m, alloc, c, cur, rep);
    }
  }

  static void validateValue(Map& m, mem::FirstFitAllocator& alloc, ChunkT* c,
                            std::int32_t ei, Report& rep) {
    const std::uint64_t v = c->entry(ei).valRef.load(std::memory_order_acquire);
    if (v == 0) return;  // ⊥ — legal (insert in flight or cleared remove)
    const detail::VRef vref{v};
    const mem::Ref headerRef = detail::headerRef(vref);
    // Probe liveness BEFORE building a ValueCell: its constructor translates
    // the header reference, which checked builds validate (and abort on).
    if (!alloc.isLive(headerRef)) {
      rep.fail(format("chunk %p entry %d value header {block=%u off=%u} "
                      "points at a freed slice",
                      static_cast<void*>(c), ei, vref.block(),
                      vref.byteOffset()));
      return;
    }
    detail::ValueCell cell(m.mm_, vref);
    if (cell.isDeleted()) return;  // deleted-but-unlinked is legal (§4.4)
    // A tombstone is absent *now* but its header (and version chain) is
    // retained for pinned snapshots — legal, and not a live value.
    if (cell.livenessProbe() != detail::Liveness::Live) return;
    ++rep.liveValues;
    bool payloadOk = true;
    const bool readOk = cell.read([&](ByteSpan payload) {
      // Under the read lock the payload reference is stable; the span must
      // be a live slice large enough for the logical size.
      if (payload.size() != 0) {
        const mem::Ref pref{cell.header()->payloadRef.load(std::memory_order_relaxed)};
        if (!alloc.isLive(pref) || pref.length() < payload.size()) payloadOk = false;
      }
    });
    if (readOk && !payloadOk) {
      rep.fail(format("chunk %p entry %d live value payload points at a "
                      "freed or undersized slice",
                      static_cast<void*>(c), ei));
    }
  }

  template <class... Args>
  static std::string format(const char* fmt, Args... args) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return std::string(buf);
  }
};

}  // namespace oak
