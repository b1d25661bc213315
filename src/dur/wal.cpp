#include "dur/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "dur/crc32c.hpp"

namespace oak::dur {

namespace {

std::int64_t steadyMs() noexcept {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void writeAll(int fd, const std::byte* p, std::size_t n, const char* what) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw OakIoError(std::string(what) + ": write failed: " +
                       std::strerror(errno));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

std::optional<FsyncPolicy> parseFsyncPolicy(std::string_view s) noexcept {
  if (s == "never") return FsyncPolicy::Never;
  if (s == "interval") return FsyncPolicy::Interval;
  if (s == "every-commit" || s == "everycommit" || s == "commit") {
    return FsyncPolicy::EveryCommit;
  }
  return std::nullopt;
}

const char* fsyncPolicyName(FsyncPolicy p) noexcept {
  switch (p) {
    case FsyncPolicy::Never: return "never";
    case FsyncPolicy::Interval: return "interval";
    case FsyncPolicy::EveryCommit: return "every-commit";
  }
  return "?";
}

std::string walSegmentPath(const std::string& dir, std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.oaklog",
                static_cast<unsigned long long>(seq));
  return dir + "/" + buf;
}

Wal::Wal(std::string dir, std::uint64_t startSeq, Options opts)
    : dir_(std::move(dir)), opts_(opts) {
  MutexLock lk(mu_);
  openSegmentLocked(startSeq);
  lastSyncMs_.store(steadyMs(), std::memory_order_relaxed);
}

Wal::~Wal() {
  MutexLock lk(mu_);
  if (fd_ >= 0) {
    flushLocked();  // a clean close must not drop the group-commit batch
    if (opts_.policy != FsyncPolicy::Never) ::fdatasync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void Wal::flushLocked() {
  if (buf_.empty()) return;
  writeAll(fd_, buf_.data(), buf_.size(), "wal");
  buf_.clear();
  flushedTicket_ = lastTicket_.load(std::memory_order_relaxed);
}

void Wal::openSegmentLocked(std::uint64_t seq) {
  const std::string path = walSegmentPath(dir_, seq);
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    throw OakIoError("wal: cannot create " + path + ": " +
                     std::strerror(errno));
  }
  std::byte hdr[kWalHeaderBytes];
  std::memcpy(hdr, kWalMagic, 8);
  storeU64BE(hdr + 8, seq);
  writeAll(fd, hdr, sizeof(hdr), "wal");
  fd_ = fd;
  seq_ = seq;
  segBytes_.store(0, std::memory_order_relaxed);
  syncFd_.store(fd, std::memory_order_relaxed);
}

std::uint64_t Wal::append(std::uint8_t type, ByteSpan key, ByteSpan value) {
  const std::uint32_t klen = static_cast<std::uint32_t>(key.size());
  const std::uint32_t payloadLen =
      1 + 4 + klen + static_cast<std::uint32_t>(value.size());
  const std::size_t recBytes = 8 + payloadLen;

  // Format and checksum outside the append mutex — under contention the
  // critical section is one memcpy into the group-commit batch.
  // [crc][len][type][klen][key][value]; crc covers everything after itself.
  std::byte stack[4096];
  ByteVec big;
  std::byte* rec = stack;
  if (recBytes > sizeof(stack)) {
    big.resize(recBytes);
    rec = big.data();
  }
  storeU32BE(rec + 4, payloadLen);
  rec[8] = static_cast<std::byte>(type);
  storeU32BE(rec + 9, klen);
  copyBytes({rec + 13, key.size()}, key);
  copyBytes({rec + 13 + key.size(), value.size()}, value);
  storeU32BE(rec, crc32c(rec + 4, recBytes - 4));

  std::uint64_t ticket;
  {
    MutexLock lk(mu_);
    ticket = lastTicket_.load(std::memory_order_relaxed) + 1;
    lastTicket_.store(ticket, std::memory_order_release);
    buf_.insert(buf_.end(), rec, rec + recBytes);
    if (buf_.size() >= kFlushBytes) flushLocked();
    segBytes_.fetch_add(recBytes, std::memory_order_relaxed);
  }
  bytes_.fetch_add(recBytes, std::memory_order_relaxed);
  return ticket;
}

void Wal::commit(std::uint64_t ticket) {
  switch (opts_.policy) {
    case FsyncPolicy::Never:
      break;
    case FsyncPolicy::EveryCommit:
      syncUpTo(ticket);
      break;
    case FsyncPolicy::Interval: {
      const std::int64_t now = steadyMs();
      std::int64_t last = lastSyncMs_.load(std::memory_order_relaxed);
      if (now - last >= static_cast<std::int64_t>(opts_.intervalMs) &&
          // One thread wins the window; the rest skip — bounded, not exact.
          lastSyncMs_.compare_exchange_strong(last, now,
                                              std::memory_order_relaxed)) {
        syncUpTo(ticket);
      }
      break;
    }
  }
}

void Wal::syncUpTo(std::uint64_t ticket) {
  // Drain the group-commit batch first (lock order: mu_ strictly before
  // syncMu_; we release mu_ before taking syncMu_).
  std::uint64_t flushed;
  {
    MutexLock lk(mu_);
    flushLocked();
    flushed = flushedTicket_;
  }
  MutexLock slk(syncMu_);
  if (syncedTicket_ >= ticket) return;  // a peer's fsync covered us
  // All records up to `flushed` are written to segments ≤ the current one;
  // closed segments were synced at rotation, fdatasync covers the rest.
  const int fd = syncFd_.load(std::memory_order_relaxed);
  if (fd >= 0 && ::fdatasync(fd) != 0) {
    throw OakIoError(std::string("wal: fdatasync failed: ") +
                     std::strerror(errno));
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  if (flushed > syncedTicket_) syncedTicket_ = flushed;
}

void Wal::sync() {
  const std::uint64_t t = lastTicket_.load(std::memory_order_acquire);
  if (t > 0) syncUpTo(t);
}

std::uint64_t Wal::rotate(const std::function<void()>& atHandoff) {
  MutexLock lk(mu_);
  MutexLock slk(syncMu_);
  flushLocked();
  if (opts_.policy != FsyncPolicy::Never && ::fdatasync(fd_) != 0) {
    throw OakIoError(std::string("wal: fdatasync on rotate failed: ") +
                     std::strerror(errno));
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  ::close(fd_);
  fd_ = -1;
  const std::uint64_t next = seq_ + 1;
  openSegmentLocked(next);
  // Everything appended so far lives in now-closed, now-synced segments.
  syncedTicket_ = lastTicket_.load(std::memory_order_acquire);
  if (atHandoff) atHandoff();
  return next;
}

std::uint64_t Wal::currentSeq() const {
  MutexLock lk(mu_);
  return seq_;
}

std::uint64_t Wal::bytesSinceRotate() const {
  return segBytes_.load(std::memory_order_relaxed);
}

WalStats Wal::stats() const noexcept {
  WalStats s;
  s.appends = lastTicket_.load(std::memory_order_relaxed);
  s.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------- replay

std::optional<WalReplayStats> replayWalSegment(
    const std::string& path,
    const std::function<void(std::uint8_t type, ByteSpan key, ByteSpan value)>&
        apply) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  ByteVec buf;
  {
    std::fseek(f, 0, SEEK_END);
    const long sz = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (sz < 0) {
      std::fclose(f);
      return std::nullopt;
    }
    buf.resize(static_cast<std::size_t>(sz));
    if (!buf.empty() && std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
      std::fclose(f);
      return std::nullopt;
    }
  }
  std::fclose(f);

  if (buf.size() < kWalHeaderBytes ||
      std::memcmp(buf.data(), kWalMagic, 8) != 0) {
    return std::nullopt;
  }

  WalReplayStats stats;
  std::size_t off = kWalHeaderBytes;
  while (off + 8 <= buf.size()) {
    const std::uint32_t crc = loadU32BE(buf.data() + off);
    const std::uint32_t payloadLen = loadU32BE(buf.data() + off + 4);
    if (payloadLen < 5 || payloadLen > kWalMaxPayload ||
        off + 8 + payloadLen > buf.size()) {
      stats.torn = true;  // short or insane length: a torn final append
      break;
    }
    if (crc32c(buf.data() + off + 4, 4 + payloadLen) != crc) {
      stats.torn = true;  // bit damage: stop, everything before is intact
      break;
    }
    const std::byte* p = buf.data() + off + 8;
    const std::uint8_t type = static_cast<std::uint8_t>(p[0]);
    const std::uint32_t klen = loadU32BE(p + 1);
    if (5 + static_cast<std::uint64_t>(klen) > payloadLen) {
      stats.torn = true;
      break;
    }
    const ByteSpan key{p + 5, klen};
    const ByteSpan value{p + 5 + klen, payloadLen - 5 - klen};
    apply(type, key, value);
    ++stats.records;
    stats.bytes += 8 + payloadLen;
    off += 8 + payloadLen;
  }
  if (off < buf.size() && !stats.torn) stats.torn = true;  // trailing scrap
  return stats;
}

std::vector<std::uint64_t> listWalSegments(const std::string& dir) {
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    unsigned long long seq = 0;
    if (std::sscanf(name.c_str(), "wal-%llu.oaklog", &seq) == 1) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

}  // namespace oak::dur
