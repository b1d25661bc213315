// Byte-span primitives shared by every module.
//
// Oak stores keys and values in serialized (byte) form inside off-heap
// arenas (§2.1 of the paper).  All comparisons and copies in the hot path
// operate on these raw spans; std::byte keeps aliasing rules honest.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace oak {

using Byte = std::byte;
using ByteSpan = std::span<const std::byte>;
using MutByteSpan = std::span<std::byte>;
using ByteVec = std::vector<std::byte>;

/// Lexicographic comparison of two byte strings (memcmp order).
/// The empty span sorts before everything; Oak uses it as the -inf sentinel
/// minKey of the head chunk, so user keys must be non-empty.
inline int compareBytes(ByteSpan a, ByteSpan b) noexcept {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  if (n != 0) {
    const int c = std::memcmp(a.data(), b.data(), n);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// Word-at-a-time lexicographic comparison — the accelerated twin of
/// compareBytes for the intra-chunk binary-search hot path.  Compares 8-byte
/// chunks as big-endian integers (a byte swap on little-endian hosts makes
/// integer order coincide with memcmp order) and falls back to bytes for the
/// tail.  Sign-identical to compareBytes on every input, including the
/// empty-span -inf sentinel; oak_iterator_test cross-checks the two.
inline std::uint64_t byteSwap64(std::uint64_t v) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(v);
#else
  v = ((v & 0x00ff00ff00ff00ffull) << 8) | ((v >> 8) & 0x00ff00ff00ff00ffull);
  v = ((v & 0x0000ffff0000ffffull) << 16) | ((v >> 16) & 0x0000ffff0000ffffull);
  return (v << 32) | (v >> 32);
#endif
}

inline int compareBytesFast(ByteSpan a, ByteSpan b) noexcept {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  const std::byte* pa = a.data();
  const std::byte* pb = b.data();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, pa + i, 8);
    std::memcpy(&wb, pb + i, 8);
    if (wa != wb) {
      if constexpr (std::endian::native == std::endian::little) {
        wa = byteSwap64(wa);
        wb = byteSwap64(wb);
      }
      return wa < wb ? -1 : 1;
    }
  }
  for (; i < n; ++i) {
    const auto ca = static_cast<unsigned char>(pa[i]);
    const auto cb = static_cast<unsigned char>(pb[i]);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// The first 8 bytes of `k` as a big-endian integer, zero-padded when `k`
/// is shorter.  Order-preserving: keyPrefix(a) < keyPrefix(b) implies
/// compareBytes(a, b) < 0 (a zero pad only ever stands where the shorter
/// key has ended); equal prefixes decide nothing.
inline std::uint64_t keyPrefix(ByteSpan k) noexcept {
  std::uint64_t v = 0;
  if (k.size() >= 8) {
    std::memcpy(&v, k.data(), 8);
    if constexpr (std::endian::native == std::endian::little) v = byteSwap64(v);
    return v;
  }
  for (std::size_t i = 0; i < 8; ++i) {
    v = (v << 8) | (i < k.size() ? static_cast<std::uint64_t>(k[i]) : 0);
  }
  return v;
}

inline bool bytesEqual(ByteSpan a, ByteSpan b) noexcept {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

inline ByteSpan asBytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

inline ByteSpan asBytes(const ByteVec& v) noexcept { return {v.data(), v.size()}; }

inline std::string_view asString(ByteSpan s) noexcept {
  return {reinterpret_cast<const char*>(s.data()), s.size()};
}

inline ByteVec toVec(ByteSpan s) { return ByteVec(s.begin(), s.end()); }

inline void copyBytes(MutByteSpan dst, ByteSpan src) noexcept {
  if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
}

/// Store/load fixed-width integers in big-endian order so that the
/// lexicographic byte comparison above agrees with numeric order.
inline void storeU64BE(std::byte* p, std::uint64_t v) noexcept {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<std::byte>(v & 0xff);
    v >>= 8;
  }
}

inline std::uint64_t loadU64BE(const std::byte* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | static_cast<std::uint64_t>(p[i]);
  return v;
}

inline void storeU32BE(std::byte* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::byte>((v >> 24) & 0xff);
  p[1] = static_cast<std::byte>((v >> 16) & 0xff);
  p[2] = static_cast<std::byte>((v >> 8) & 0xff);
  p[3] = static_cast<std::byte>(v & 0xff);
}

inline std::uint32_t loadU32BE(const std::byte* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

/// Unaligned native-endian loads/stores used inside value payloads
/// (OakWBuffer::putX / OakRBuffer::getX).
template <class T>
inline T loadUnaligned(const std::byte* p) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <class T>
inline void storeUnaligned(std::byte* p, const T& v) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(p, &v, sizeof(T));
}

}  // namespace oak
