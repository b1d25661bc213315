// OakRBuffer / OakWBuffer — the zero-copy buffer facades (§2.1, §3.1).
//
// "These types are lightweight on-heap facades to off-heap storage, which
//  provide the application with managed object semantics."
//
// * OakRBuffer wraps either an immutable off-heap key (no locking needed —
//   keys never change) or a live value (every access takes the header's
//   read lock and throws ConcurrentModification if the mapping was deleted,
//   as the paper's get() contract specifies).  It needs no guard: headers
//   are immortal or type-stable and cores live as long as the map.  A view
//   whose entry a shard split/merge moved throws ConcurrentModification
//   once the old copy is trimmed (sharded_map.hpp, "Retirement").
// * OakWBuffer is handed to compute lambdas while the value's write lock is
//   held; it supports in-place reads, writes, and resize.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "oak/value.hpp"

namespace oak {

class OakRBuffer {
 public:
  /// Key view (immutable bytes; lock-free).
  static OakRBuffer forKey(ByteSpan key) noexcept {
    OakRBuffer b;
    b.keyData_ = key.data();
    b.keySize_ = key.size();
    return b;
  }

  /// Value view (reads go through the value's read lock).
  static OakRBuffer forValue(detail::ValueCell cell) noexcept {
    OakRBuffer b;
    b.cell_ = cell;
    return b;
  }

  /// Snapshot value view: every read resolves the payload visible at
  /// `version` in the cell's version chain, not the live head.  With
  /// version == 0 this is identical to forValue().
  static OakRBuffer forValueAt(detail::ValueCell cell,
                               std::uint64_t version) noexcept {
    OakRBuffer b;
    b.cell_ = cell;
    b.atVersion_ = version;
    return b;
  }

  bool isValueView() const noexcept { return cell_.has_value(); }

  /// Logical size in bytes.
  std::size_t size() const {
    if (!cell_) return keySize_;
    std::size_t n = 0;
    readOrThrow([&](ByteSpan s) { n = s.size(); });
    return n;
  }

  /// Copies the contents out.
  ByteVec toVecCopy() const {
    ByteVec out;
    if (!cell_) {
      out.assign(keyData_, keyData_ + keySize_);
    } else {
      readOrThrow([&](ByteSpan s) { out.assign(s.begin(), s.end()); });
    }
    return out;
  }

  /// Runs f(ByteSpan) under the read lock (single lock acquisition for bulk
  /// access).  For key views, f runs directly.
  template <class F>
  void read(F&& f) const {
    if (!cell_) {
      f(ByteSpan{keyData_, keySize_});
      return;
    }
    readOrThrow(std::forward<F>(f));
  }

  /// Point accessors, mirroring Java's ByteBuffer getters.  Each call is an
  /// independent atomic access (§2.2: concurrency control granularity is
  /// the individual method call).
  std::uint8_t getByte(std::size_t off) const {
    std::uint8_t v = 0;
    read([&](ByteSpan s) { v = static_cast<std::uint8_t>(s[off]); });
    return v;
  }
  std::uint32_t getU32(std::size_t off) const {
    std::uint32_t v = 0;
    read([&](ByteSpan s) { v = loadUnaligned<std::uint32_t>(s.data() + off); });
    return v;
  }
  std::uint64_t getU64(std::size_t off) const {
    std::uint64_t v = 0;
    read([&](ByteSpan s) { v = loadUnaligned<std::uint64_t>(s.data() + off); });
    return v;
  }
  std::int64_t getI64(std::size_t off) const {
    std::int64_t v = 0;
    read([&](ByteSpan s) { v = loadUnaligned<std::int64_t>(s.data() + off); });
    return v;
  }
  double getF64(std::size_t off) const {
    double v = 0;
    read([&](ByteSpan s) { v = loadUnaligned<double>(s.data() + off); });
    return v;
  }

  /// Deserializes through a serializer (one lock acquisition).
  template <class Ser, class T>
  T deserialize() const {
    std::optional<T> out;
    read([&](ByteSpan s) { out.emplace(Ser::deserialize(s)); });
    return std::move(*out);
  }

 private:
  OakRBuffer() = default;

  template <class F>
  void readOrThrow(F&& f) const {
    detail::ValueCell cell = *cell_;
    const bool ok = atVersion_ != 0 ? cell.readAt(atVersion_, std::forward<F>(f))
                                    : cell.read(std::forward<F>(f));
    if (!ok) throw ConcurrentModification();
  }

  // Key view state.
  const std::byte* keyData_ = nullptr;
  std::size_t keySize_ = 0;
  // Value view state.
  mutable std::optional<detail::ValueCell> cell_;
  std::uint64_t atVersion_ = 0;  ///< snapshot read version (0 = live head)
};

/// Writable view over a value; only constructed inside compute lambdas while
/// the write lock is held, so accesses need no further synchronization.
class OakWBuffer {
 public:
  explicit OakWBuffer(detail::ValueCell& cell) noexcept : cell_(&cell) {}

  std::size_t size() const noexcept { return cell_->payloadLocked().size(); }

  ByteSpan span() const noexcept { return cell_->payloadLocked(); }
  MutByteSpan mutableSpan() noexcept { return cell_->mutablePayloadLocked(); }

  /// Grows or shrinks the value in place; Oak "extends the value's memory
  /// allocation if its code so requires" (§2.2).
  void resize(std::size_t newSize) { cell_->resizeLocked(static_cast<std::uint32_t>(newSize)); }

  std::uint8_t getByte(std::size_t off) const {
    return static_cast<std::uint8_t>(cell_->payloadLocked()[off]);
  }
  std::uint32_t getU32(std::size_t off) const {
    return loadUnaligned<std::uint32_t>(cell_->payloadLocked().data() + off);
  }
  std::uint64_t getU64(std::size_t off) const {
    return loadUnaligned<std::uint64_t>(cell_->payloadLocked().data() + off);
  }
  std::int64_t getI64(std::size_t off) const {
    return loadUnaligned<std::int64_t>(cell_->payloadLocked().data() + off);
  }
  double getF64(std::size_t off) const {
    return loadUnaligned<double>(cell_->payloadLocked().data() + off);
  }

  void putByte(std::size_t off, std::uint8_t v) noexcept {
    cell_->mutablePayloadLocked()[off] = static_cast<std::byte>(v);
  }
  void putU32(std::size_t off, std::uint32_t v) noexcept {
    storeUnaligned(cell_->mutablePayloadLocked().data() + off, v);
  }
  void putU64(std::size_t off, std::uint64_t v) noexcept {
    storeUnaligned(cell_->mutablePayloadLocked().data() + off, v);
  }
  void putI64(std::size_t off, std::int64_t v) noexcept {
    storeUnaligned(cell_->mutablePayloadLocked().data() + off, v);
  }
  void putF64(std::size_t off, double v) noexcept {
    storeUnaligned(cell_->mutablePayloadLocked().data() + off, v);
  }
  void write(std::size_t off, ByteSpan bytes) noexcept {
    copyBytes(cell_->mutablePayloadLocked().subspan(off), bytes);
  }

 private:
  detail::ValueCell* cell_;
};

}  // namespace oak
