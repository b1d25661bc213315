// Write-ahead log (DESIGN.md §12).
//
// Durable maps append one record per acknowledged mutation — the full
// post-image or tombstone the operation linearized, under the key's write
// stripe — and commit() it (the fsync the policy demands) before the call
// returns.  The commit point is that append plus its commit.
// Records are length-prefixed and CRC32C-guarded:
//
//   [u32 crc over the rest] [u32 payloadLen] [u8 type] [u32 klen] [key] [value]
//
// (value length is payloadLen - 5 - klen; type 1 = put, 2 = remove).  A
// segment file starts with an 8-byte magic and its big-endian sequence
// number.  Replay applies records in file order and stops at the first
// short, oversized, or CRC-failing record — the torn-tail rule: a crash can
// tear only the final append, so everything before the tear is intact, and
// anything after a mid-file corruption is indistinguishable from garbage.
//
// Fsync policy:
//   Never        no explicit flushing — durability to the page cache only
//   Interval     fdatasync at most once per window (default; bounded loss)
//   EveryCommit  every append is durable before it is acknowledged, with
//                group commit: concurrent appenders share one fdatasync
//
// Appends land in a user-space group-commit buffer and reach the kernel in
// batched write()s (threshold, sync, commit under EveryCommit, rotate, or
// close) — append pays a memcpy, not a syscall.  Under Never/Interval a
// crash can lose the unflushed batch, which those policies already permit;
// under EveryCommit commit() writes the batch and shares one fdatasync
// with every concurrent committer.
//
// rotate() closes the segment and runs a caller hook under the append
// mutex; the checkpointer opens its snapshot inside that hook, which is the
// ordering proof that every record in closed segments is covered by the
// checkpoint (DESIGN.md §12.3).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/mutex.hpp"

namespace oak::dur {

enum class FsyncPolicy : std::uint8_t { Never = 0, Interval = 1, EveryCommit = 2 };

/// Parses "never" / "interval" / "every-commit" (also "everycommit",
/// "commit"); anything else → nullopt.
std::optional<FsyncPolicy> parseFsyncPolicy(std::string_view s) noexcept;
const char* fsyncPolicyName(FsyncPolicy p) noexcept;

inline constexpr std::uint8_t kWalPut = 1;
inline constexpr std::uint8_t kWalRemove = 2;
/// Segment header: 8-byte magic + big-endian u64 sequence number.
inline constexpr char kWalMagic[8] = {'O', 'A', 'K', 'W', 'A', 'L', '0', '1'};
inline constexpr std::size_t kWalHeaderBytes = 16;
/// Upper bound on a single record payload; anything larger in a file is
/// treated as corruption (keys and values are far below this).
inline constexpr std::uint32_t kWalMaxPayload = 1u << 30;

std::string walSegmentPath(const std::string& dir, std::uint64_t seq);

struct WalStats {
  std::uint64_t appends = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes = 0;  ///< record bytes written (headers excluded)
};

class Wal {
 public:
  struct Options {
    FsyncPolicy policy = FsyncPolicy::Interval;
    std::uint32_t intervalMs = 50;
  };

  /// Opens (creates) segment `startSeq` in `dir`.  The directory must exist.
  Wal(std::string dir, std::uint64_t startSeq, Options opts);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// append() adds one record (kWalPut/kWalRemove) to the group-commit
  /// batch and returns its ticket; commit(ticket) then waits as the policy
  /// demands (a shared fdatasync under EveryCommit, one per window under
  /// Interval).  Both throw OakIoError if a write or sync fails.
  std::uint64_t append(std::uint8_t type, ByteSpan key, ByteSpan value);
  void commit(std::uint64_t ticket);
  void appendPut(ByteSpan key, ByteSpan value) { commit(append(kWalPut, key, value)); }
  void appendRemove(ByteSpan key) { commit(append(kWalRemove, key, {})); }

  /// Atomically (under the append mutex): syncs and closes the current
  /// segment, opens segment currentSeq()+1, then runs `atHandoff`.  Because
  /// no append can interleave, every record ever written to the closed
  /// segments precedes whatever `atHandoff` observes — the checkpointer
  /// opens its snapshot version here.  Returns the new segment's seq.
  std::uint64_t rotate(const std::function<void()>& atHandoff);

  /// Explicit fdatasync of everything appended so far.
  void sync();

  std::uint64_t currentSeq() const;
  /// Record bytes in the current segment (the auto-checkpoint trigger).
  std::uint64_t bytesSinceRotate() const;
  WalStats stats() const noexcept;

 private:
  /// Buffered bytes that trigger a batched write() under Never/Interval.
  static constexpr std::size_t kFlushBytes = 256u << 10;

  void openSegmentLocked(std::uint64_t seq) OAK_REQUIRES(mu_);
  void flushLocked() OAK_REQUIRES(mu_);
  void syncUpTo(std::uint64_t ticket);

  std::string dir_;
  Options opts_;

  mutable Mutex mu_;  ///< append mutex: serializes record writes + rotation
  int fd_ OAK_GUARDED_BY(mu_) = -1;
  std::uint64_t seq_ OAK_GUARDED_BY(mu_) = 0;
  /// Record bytes in the current segment.  Written under mu_, read
  /// lock-free by the per-op auto-checkpoint probe (bytesSinceRotate).
  std::atomic<std::uint64_t> segBytes_{0};
  ByteVec buf_ OAK_GUARDED_BY(mu_);  ///< group-commit batch (Never/Interval)
  std::uint64_t flushedTicket_ OAK_GUARDED_BY(mu_) = 0;

  /// Group-commit state.  Lock order: mu_ before syncMu_ (rotate holds
  /// both); appenders take syncMu_ only after releasing mu_.
  mutable Mutex syncMu_;
  std::uint64_t syncedTicket_ OAK_GUARDED_BY(syncMu_) = 0;
  /// Current segment's fd for syncers; swapped only under mu_ + syncMu_,
  /// read under syncMu_, so it is stable while a syncer holds syncMu_.
  std::atomic<int> syncFd_{-1};

  std::atomic<std::uint64_t> lastTicket_{0};   ///< tickets issued (== appends)
  std::atomic<std::int64_t> lastSyncMs_{0};    ///< Interval policy clock
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

// ---------------------------------------------------------------- replay

struct WalReplayStats {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  bool torn = false;  ///< stopped before EOF (torn tail or mid-file damage)
};

/// Replays one segment, invoking `apply(type, key, value)` per intact
/// record in file order; stops at the first bad record (see torn-tail rule
/// above).  Returns nullopt when the file is missing or its header is not a
/// WAL segment — callers treat that as "nothing to replay here".
std::optional<WalReplayStats> replayWalSegment(
    const std::string& path,
    const std::function<void(std::uint8_t type, ByteSpan key, ByteSpan value)>&
        apply);

/// Ascending list of WAL segment seqs present in `dir`.
std::vector<std::uint64_t> listWalSegments(const std::string& dir);

}  // namespace oak::dur
