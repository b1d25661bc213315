// Ascending / descending scans, subMap ranges, stream variants (§4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/random.hpp"
#include "mem/block_pool.hpp"
#include "oak/chunk.hpp"
#include "oak/core_map.hpp"
#include "oak/map.hpp"
#include "oak/value.hpp"

namespace oak {
namespace {

using Map = OakMap<std::string, std::string, StringSerializer, StringSerializer>;

OakConfig smallChunks(std::int32_t cap = 64) {
  auto cfg = OakConfig{}.withChunkCapacity(cap);
  return cfg;
}

std::string key4(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "k%05d", i);
  return buf;
}

std::vector<std::string> collectAsc(Map& m) {
  std::vector<std::string> out;
  for (auto c = m.zc().entrySet(); c.valid(); c.next()) out.push_back(c.key());
  return out;
}

std::vector<std::string> collectDesc(Map& m, bool stream = false) {
  std::vector<std::string> out;
  auto c = stream ? m.zc().descendingEntryStreamSet() : m.zc().descendingEntrySet();
  for (; c.valid(); c.next()) out.push_back(c.key());
  return out;
}

TEST(OakIterator, AscendingSortedOrder) {
  Map m(smallChunks());
  XorShift rng(7);
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 1000; ++i) {
    const int k = static_cast<int>(rng.nextBounded(5000));
    m.zc().put(key4(k), "v");
    ref[key4(k)] = "v";
  }
  std::vector<std::string> expect;
  for (auto& [k, v] : ref) expect.push_back(k);
  EXPECT_EQ(collectAsc(m), expect);
}

TEST(OakIterator, DescendingIsReverseOfAscending) {
  Map m(smallChunks());
  XorShift rng(13);
  for (int i = 0; i < 1500; ++i) {
    m.zc().put(key4(static_cast<int>(rng.nextBounded(8000))), "v");
  }
  auto asc = collectAsc(m);
  auto desc = collectDesc(m);
  std::reverse(desc.begin(), desc.end());
  EXPECT_EQ(asc, desc);
}

TEST(OakIterator, DescendingStreamMatchesSet) {
  Map m(smallChunks());
  XorShift rng(17);
  for (int i = 0; i < 700; ++i) {
    m.zc().put(key4(static_cast<int>(rng.nextBounded(3000))), "v");
  }
  EXPECT_EQ(collectDesc(m, false), collectDesc(m, true));
}

TEST(OakIterator, DescendingExercisesBypasses) {
  // Insert strictly ascending first (creates sorted prefixes via rebalance),
  // then interleave keys that land in bypasses; the descending stack walk
  // (Figure 2) must interleave them correctly.
  Map m(smallChunks(32));
  for (int i = 0; i < 400; i += 2) m.zc().put(key4(i), "v");
  for (int i = 1; i < 400; i += 2) m.zc().put(key4(i), "v");
  auto desc = collectDesc(m);
  ASSERT_EQ(desc.size(), 400u);
  for (int i = 0; i < 400; ++i) EXPECT_EQ(desc[i], key4(399 - i));
}

TEST(OakIterator, SubMapAscending) {
  Map m(smallChunks());
  for (int i = 0; i < 300; ++i) m.zc().put(key4(i), "v");
  std::vector<std::string> got;
  for (auto c = m.zc().subMap(key4(100), key4(110)); c.valid(); c.next()) {
    got.push_back(c.key());
  }
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), key4(100));
  EXPECT_EQ(got.back(), key4(109));  // hi is exclusive
}

TEST(OakIterator, SubMapDescending) {
  Map m(smallChunks());
  for (int i = 0; i < 300; ++i) m.zc().put(key4(i), "v");
  std::vector<std::string> got;
  for (auto c = m.zc().subMap(key4(100), key4(110), ScanOptions::descending()); c.valid();
       c.next()) {
    got.push_back(c.key());
  }
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), key4(109));
  EXPECT_EQ(got.back(), key4(100));
}

TEST(OakIterator, TailAndHeadMap) {
  Map m(smallChunks());
  for (int i = 0; i < 100; ++i) m.zc().put(key4(i), "v");
  int n = 0;
  for (auto c = m.zc().tailMap(key4(90)); c.valid(); c.next()) ++n;
  EXPECT_EQ(n, 10);
  n = 0;
  for (auto c = m.zc().headMap(key4(10)); c.valid(); c.next()) ++n;
  EXPECT_EQ(n, 10);
}

TEST(OakIterator, SkipsRemovedKeys) {
  Map m(smallChunks());
  for (int i = 0; i < 200; ++i) m.zc().put(key4(i), "v");
  for (int i = 0; i < 200; i += 2) m.zc().remove(key4(i));
  auto asc = collectAsc(m);
  ASSERT_EQ(asc.size(), 100u);
  for (auto& k : asc) {
    const int i = std::stoi(k.substr(1));
    EXPECT_EQ(i % 2, 1) << k;
  }
  auto desc = collectDesc(m);
  std::reverse(desc.begin(), desc.end());
  EXPECT_EQ(asc, desc);
}

TEST(OakIterator, EmptyMapIterators) {
  Map m(smallChunks());
  EXPECT_FALSE(m.zc().entrySet().valid());
  EXPECT_FALSE(m.zc().descendingEntrySet().valid());
  EXPECT_FALSE(m.zc().subMap(key4(1), key4(2)).valid());
}

TEST(OakIterator, EmptyRange) {
  Map m(smallChunks());
  for (int i = 0; i < 50; ++i) m.zc().put(key4(i * 10), "v");
  EXPECT_FALSE(m.zc().subMap(key4(11), key4(19)).valid());
  EXPECT_FALSE(m.zc().subMap(key4(11), key4(19), ScanOptions::descending()).valid());
}

TEST(OakIterator, ValueBuffersReadable) {
  Map m(smallChunks());
  for (int i = 0; i < 64; ++i) m.zc().put(key4(i), "val" + std::to_string(i));
  int i = 0;
  for (auto c = m.zc().entrySet(); c.valid(); c.next(), ++i) {
    auto v = c.value();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, "val" + std::to_string(i));
    EXPECT_EQ(c.valueBuffer().size(), v->size());
    EXPECT_EQ((c.keyBuffer().deserialize<StringSerializer, std::string>()), key4(i));
  }
  EXPECT_EQ(i, 64);
}

// Parameterized sweep: scan correctness across chunk capacities (property:
// ascending == sorted reference; descending == reverse) with mixed
// insert/remove workloads.
class ScanSweep : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(ScanSweep, MatchesReferenceModel) {
  Map m(smallChunks(GetParam()));
  XorShift rng(GetParam() * 1000003ull + 17);
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 3000; ++i) {
    const auto k = key4(static_cast<int>(rng.nextBounded(2000)));
    if (rng.nextBounded(100) < 70) {
      const auto v = "v" + std::to_string(i);
      m.zc().put(k, v);
      ref[k] = v;
    } else {
      m.zc().remove(k);
      ref.erase(k);
    }
  }
  std::vector<std::string> expect;
  for (auto& [k, v] : ref) expect.push_back(k);
  EXPECT_EQ(collectAsc(m), expect);
  auto desc = collectDesc(m);
  std::reverse(desc.begin(), desc.end());
  EXPECT_EQ(desc, expect);
}

INSTANTIATE_TEST_SUITE_P(Capacities, ScanSweep,
                         ::testing::Values(16, 32, 64, 128, 512, 2048));

// ------------------------------------------------------ acceleration layers
// (ISSUE 8) The scan hot path leans on three accelerations — word-at-a-time
// key comparison, branchless prefix binary search with software prefetch,
// and warm-iterator seek shortcuts.  Each must be observationally identical
// to its scalar / cold twin; these suites are the cross-checks the headers
// (common/bytes.hpp, oak/chunk.hpp, oak/core_map.hpp) point at.

int sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

/// Key sizes straddling every compareBytesFast regime: empty (-inf
/// sentinel), sub-word, exactly one word, word+tail, multi-word.
class CompareSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompareSweep, FastCompareSignMatchesScalar) {
  const std::size_t len = GetParam();
  XorShift rng(0x5eed + len);
  auto randKey = [&](std::size_t n) {
    ByteVec v(n);
    for (auto& b : v) b = static_cast<std::byte>(rng.nextBounded(256));
    return v;
  };
  for (int round = 0; round < 400; ++round) {
    ByteVec a = randKey(len);
    ByteVec b;
    switch (round % 4) {
      case 0:  // independent random, random length
        b = randKey(rng.nextBounded(len + 9));
        break;
      case 1:  // equal
        b = a;
        break;
      case 2: {  // shared prefix, diverge at one byte
        b = a;
        if (!b.empty()) {
          const std::size_t at = rng.nextBounded(b.size());
          b[at] = static_cast<std::byte>(static_cast<unsigned>(b[at]) ^ 0x80u);
        }
        break;
      }
      default:  // proper prefix (tests the length tiebreak)
        b = a;
        b.resize(rng.nextBounded(b.size() + 1));
        break;
    }
    const ByteSpan sa = asBytes(a), sb = asBytes(b);
    EXPECT_EQ(sign(compareBytesFast(sa, sb)), sign(compareBytes(sa, sb)))
        << "len=" << len << " round=" << round;
    EXPECT_EQ(sign(compareBytesFast(sb, sa)), sign(compareBytes(sb, sa)));
    EXPECT_EQ(sign(compareBytesFast(sa, sa)), 0);
  }
  // The empty span is the head chunk's -inf minKey: it must sort first
  // through both paths.
  const ByteVec k = randKey(len);
  EXPECT_EQ(sign(compareBytesFast({}, asBytes(k))),
            sign(compareBytes({}, asBytes(k))));
}

INSTANTIATE_TEST_SUITE_P(KeySizes, CompareSweep,
                         ::testing::Values(0, 1, 3, 7, 8, 9, 15, 16, 17, 31,
                                           64, 200));

/// Builds a raw chunk with a chosen sorted prefix plus optional bypass
/// inserts, so the branchless prefixFloor can be checked against a branchy
/// reference over the public keyAt()/sortedCount() surface.
class ChunkSearchTest : public ::testing::Test {
 protected:
  using ChunkT = detail::Chunk<BytesComparator>;

  ChunkSearchTest() : pool_({.blockBytes = 1u << 20, .budgetBytes = SIZE_MAX}), mm_(pool_) {}
  ~ChunkSearchTest() override {
    if (chunk_ != nullptr) ChunkT::dispose(mheap::ManagedHeap::unlimited(), chunk_);
  }

  void build(const std::vector<std::string>& sortedKeys,
             const std::vector<std::string>& bypassKeys = {},
             std::int32_t capacity = 128) {
    chunk_ = ChunkT::make(mheap::ManagedHeap::unlimited(), mm_,
                          BytesComparator{}, ByteVec{}, capacity);
    std::vector<ChunkT::LiveEntry> live;
    for (const auto& k : sortedKeys) {
      const mem::Ref keyRef = mm_.allocateKey(asBytes(std::string_view(k)));
      const detail::VRef vref =
          detail::ValueCell::allocate(mm_, asBytes(std::string_view("v")));
      live.push_back({keyRef.bits(), vref.bits()});
    }
    chunk_->fillSorted(live.data(), static_cast<std::int32_t>(live.size()));
    for (const auto& k : bypassKeys) {
      const mem::Ref keyRef = mm_.allocateKey(asBytes(std::string_view(k)));
      const std::int32_t cell = chunk_->allocateEntry(keyRef);
      ASSERT_GE(cell, 0);
      const std::int32_t ei = chunk_->entriesLLPutIfAbsent(cell);
      ASSERT_GE(ei, 0);
      const detail::VRef vref =
          detail::ValueCell::allocate(mm_, asBytes(std::string_view("v")));
      chunk_->entry(ei).valRef.store(vref.bits(), std::memory_order_release);
    }
  }

  /// Classic branchy twin of prefixFloor: greatest sorted index <= probe.
  std::int32_t referenceFloor(ByteSpan probe) const {
    std::int32_t best = ChunkT::kNone;
    for (std::int32_t i = 0; i < chunk_->sortedCount(); ++i) {
      if (compareBytes(chunk_->keyAt(i), probe) <= 0) best = i;
    }
    return best;
  }

  mem::BlockPool pool_;
  mem::MemoryManager mm_;
  ChunkT* chunk_ = nullptr;
};

TEST_F(ChunkSearchTest, PrefixFloorMatchesBranchyReference) {
  std::vector<std::string> keys;
  for (int i = 0; i < 48; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "p%04d", i * 3 + 1);  // gaps between keys
    keys.push_back(buf);
  }
  build(keys);
  auto check = [&](const std::string& probe) {
    const ByteSpan p = asBytes(std::string_view(probe));
    EXPECT_EQ(chunk_->prefixFloor(p), referenceFloor(p)) << "probe=" << probe;
  };
  for (const auto& k : keys) {
    check(k);              // exact hit
    check(k + "\x01");     // just above (shared prefix, longer)
    check(k.substr(0, 3)); // truncated (shared prefix, shorter)
  }
  check("p0000");  // below the first key
  check("a");      // below via first byte
  check("zzzz");   // above the last key
  check("");       // -inf sentinel probe
  XorShift rng(99);
  for (int i = 0; i < 500; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "p%04d", static_cast<int>(rng.nextBounded(200)));
    check(buf);
  }
}

TEST_F(ChunkSearchTest, PrefixFloorEdgesAndPrefetchNoop) {
  build({});  // empty sorted prefix
  EXPECT_EQ(chunk_->prefixFloor(asBytes(std::string_view("x"))), ChunkT::kNone);
  // prefetchEntry is a pure hint: out-of-range indices must be no-ops.
  chunk_->prefetchEntry(-1);
  chunk_->prefetchEntry(0);
  chunk_->prefetchEntry(1 << 20);
  ChunkT::dispose(mheap::ManagedHeap::unlimited(), chunk_);
  chunk_ = nullptr;

  build({"only"});  // single-element prefix
  EXPECT_EQ(chunk_->prefixFloor(asBytes(std::string_view("a"))), ChunkT::kNone);
  EXPECT_EQ(chunk_->prefixFloor(asBytes(std::string_view("only"))), 0);
  EXPECT_EQ(chunk_->prefixFloor(asBytes(std::string_view("z"))), 0);
}

TEST_F(ChunkSearchTest, LookUpAndLowerBoundUnaffectedByBypasses) {
  // Sorted prefix of even keys, bypass inserts of odd keys: search must see
  // one coherent sorted world regardless of which region a key lives in.
  std::vector<std::string> sorted, bypass, all;
  for (int i = 0; i < 40; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "q%04d", i);
    (i % 2 == 0 ? sorted : bypass).push_back(buf);
    all.push_back(buf);
  }
  build(sorted, bypass);
  for (const auto& k : all) {
    const ByteSpan p = asBytes(std::string_view(k));
    const std::int32_t ei = chunk_->lookUp(p);
    ASSERT_NE(ei, ChunkT::kNone) << k;
    EXPECT_EQ(asString(chunk_->keyAt(ei)), k);
    EXPECT_EQ(chunk_->lowerBound(p), ei) << k;  // exact hit: same entry
  }
  EXPECT_EQ(chunk_->lookUp(asBytes(std::string_view("q0040"))), ChunkT::kNone);
  EXPECT_EQ(chunk_->lowerBound(asBytes(std::string_view("r"))), ChunkT::kNone);
  // lowerBound between keys lands on the successor.
  const std::int32_t ei = chunk_->lowerBound(asBytes(std::string_view("q0010x")));
  ASSERT_NE(ei, ChunkT::kNone);
  EXPECT_EQ(asString(chunk_->keyAt(ei)), "q0011");
}

// Order-preserving key prefixes (oak/chunk.hpp): under BytesComparator the
// search decides on each entry's cached 8-byte prefix and reads the key only
// on a tie.  These key sets live where a wrong prefix or a wrong tie rule
// would misorder: keys equal in their first 8 bytes, keys shorter than 8
// bytes (zero-padded), chains of trailing zero bytes (which pad identically)
// and bytes >= 0x80 (which must sort unsigned).
std::string raw(const char* s, std::size_t n) { return std::string(s, n); }

std::vector<std::vector<std::string>> prefixKeySets() {
  return {
      // Ties on the first 8 bytes, differing later.
      {"tenant01", raw("tenant01\0", 9), "tenant01a", "tenant01ab",
       "tenant01b", raw("tenant01\xff", 9), "tenant02", "tenant0"},
      // Shorter than 8 bytes, beside 8-byte keys they pad against.
      {"a", "ab", "abc", "abcdefg", "abcdefgh", "b", "ba", "z"},
      // Trailing-zero chains: every one pads to the same prefix as "ab".
      {"ab", raw("ab\0", 3), raw("ab\0\0\0\0\0\0", 8),
       raw("ab\0\0\0\0\0\0\0", 9), raw("ab\0\0\0\0\0\0\0\0", 10),
       raw("ab\0\0\0\0\0\0\0\x01", 10), raw("ab\x01", 3)},
      // High bytes: 0x80.. sort above 0x7f.. (unsigned).
      {"\x7f", "\x80", raw("\x80\0", 2), "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff",
       "\xff\xff\xff\xff\xff\xff\xff\xff\x80", "a\x7f", "a\x80", "a\xff"},
  };
}

TEST_F(ChunkSearchTest, PrefixTiesShortKeysZerosAndHighBytes) {
  for (const std::vector<std::string>& set : prefixKeySets()) {
    std::vector<std::string> keys = set;
    std::sort(keys.begin(), keys.end(), [](const std::string& a, const std::string& b) {
      return compareBytes(asBytes(std::string_view(a)), asBytes(std::string_view(b))) < 0;
    });
    // Probes: every key, one byte more or less, and the -inf sentinel.
    std::vector<std::string> probes{""};
    for (const auto& k : keys) {
      probes.push_back(k);
      probes.push_back(k + raw("\0", 1));
      probes.push_back(k + "\xff");
      probes.push_back(k.substr(0, k.size() - 1));
    }
    // Both splits: even keys sorted and odd ones bypass-inserted (in reverse,
    // so inserts land before linked keys), then the other way round.
    for (int split = 0; split < 2; ++split) {
      std::vector<std::string> sorted, bypass;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        (static_cast<int>(i % 2) == split ? sorted : bypass).push_back(keys[i]);
      }
      std::reverse(bypass.begin(), bypass.end());
      if (chunk_ != nullptr) ChunkT::dispose(mheap::ManagedHeap::unlimited(), chunk_);
      chunk_ = nullptr;
      build(sorted, bypass);
      for (const auto& probe : probes) {
        SCOPED_TRACE("split=" + std::to_string(split) + " probe=" +
                     ::testing::PrintToString(probe));
        const ByteSpan p = asBytes(std::string_view(probe));
        EXPECT_EQ(chunk_->prefixFloor(p), referenceFloor(p));
        // Reference lowerBound: the least key >= probe, over all keys.
        const auto lb = std::find_if(keys.begin(), keys.end(), [&](const std::string& k) {
          return compareBytes(asBytes(std::string_view(k)), p) >= 0;
        });
        const std::int32_t got = chunk_->lowerBound(p);
        if (lb == keys.end()) {
          EXPECT_EQ(got, ChunkT::kNone);
        } else {
          ASSERT_NE(got, ChunkT::kNone);
          EXPECT_EQ(std::string(asString(chunk_->keyAt(got))), *lb);
        }
        const bool present = lb != keys.end() && *lb == probe;
        const std::int32_t hit = chunk_->lookUp(p);
        EXPECT_EQ(hit, present ? got : ChunkT::kNone);
      }
      // A second cell carrying an existing key must dedupe onto the linked
      // entry, wherever ties put it.
      for (const auto& k : keys) {
        const mem::Ref keyRef = mm_.allocateKey(asBytes(std::string_view(k)));
        const std::int32_t cell = chunk_->allocateEntry(keyRef);
        ASSERT_GE(cell, 0);
        const std::int32_t ei = chunk_->entriesLLPutIfAbsent(cell);
        EXPECT_NE(ei, cell) << ::testing::PrintToString(k);
        EXPECT_EQ(ei, chunk_->lookUp(asBytes(std::string_view(k))));
      }
    }
  }
}

// Warm-iterator seek shortcuts: after any mix of forward/backward seeks on a
// reused iterator, the observable tail must equal a freshly constructed
// (cold) iterator at the same probe — including across removals and in
// snapshot mode (core_map.hpp seek() contract).
using CoreMap = OakCoreMap<>;

ByteVec bkey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "s%05d", i);
  return toVec(asBytes(std::string_view(buf)));
}

std::vector<std::string> tailKeys(CoreMap::AscendIter& it, int limit = 8) {
  std::vector<std::string> out;
  for (int n = 0; it.valid() && n < limit; it.next(), ++n) {
    out.emplace_back(asString(it.entry().key));
  }
  return out;
}

TEST(IteratorAccel, WarmSeekMatchesColdSeek) {
  auto cfg = OakConfig{}.withChunkCapacity(32);
  CoreMap map(cfg);
  XorShift rng(4242);
  for (int i = 0; i < 600; ++i) {
    map.put(asBytes(bkey(static_cast<int>(rng.nextBounded(2000)))),
            asBytes(std::string_view("v")));
  }
  for (int i = 0; i < 2000; i += 5) map.remove(asBytes(bkey(i)));

  auto warm = map.ascend();
  for (int round = 0; round < 300; ++round) {
    // Mix of localities: near-current forward probes (warm path), far
    // jumps and backward probes (cold fallback), exact, removed, and
    // past-the-end keys.
    const int target = static_cast<int>(rng.nextBounded(2200));
    const ByteVec probe = bkey(target);
    warm.seek(asBytes(probe));
    auto cold = map.ascend(probe);
    EXPECT_EQ(tailKeys(warm), tailKeys(cold)) << "round " << round
                                              << " probe s" << target;
    // tailKeys consumed the warm iterator past the probe — the next seek
    // starts from wherever that left it, exercising both shortcut arms.
  }
  // Seeking an exhausted iterator must come back cold, not crash.
  warm.seek(asBytes(bkey(3000)));
  EXPECT_FALSE(warm.valid());
  warm.seek(asBytes(bkey(0)));
  auto cold = map.ascend(bkey(0));
  EXPECT_EQ(tailKeys(warm), tailKeys(cold));
}

TEST(IteratorAccel, WarmSeekRespectsSnapshotPin) {
  auto cfg = OakConfig{}.withChunkCapacity(32);
  CoreMap map(cfg);
  for (int i = 0; i < 200; ++i) {
    map.put(asBytes(bkey(i)), asBytes(std::string_view("old")));
  }
  Snapshot snap = map.openSnapshot();
  // Mutate the live world after the pin: removals and inserts the pinned
  // iterator must not observe.
  for (int i = 0; i < 200; i += 2) map.remove(asBytes(bkey(i)));
  for (int i = 200; i < 260; ++i) {
    map.put(asBytes(bkey(i)), asBytes(std::string_view("new")));
  }

  const auto opts = ScanOptions::snapshotAt(snap.version());
  auto warm = map.ascend({}, {}, opts);
  XorShift rng(7);
  for (int round = 0; round < 120; ++round) {
    const ByteVec probe = bkey(static_cast<int>(rng.nextBounded(270)));
    warm.seek(asBytes(probe));
    auto cold = map.ascend(probe, {}, opts);
    EXPECT_EQ(tailKeys(warm), tailKeys(cold)) << "round " << round;
  }
  // The pinned world is the pre-mutation one: seek to a removed key still
  // finds it, seek past the old tail sees none of the new inserts.
  warm.seek(asBytes(bkey(100)));
  ASSERT_TRUE(warm.valid());
  EXPECT_EQ(asString(warm.entry().key), asString(asBytes(bkey(100))));
  warm.seek(asBytes(bkey(200)));
  EXPECT_FALSE(warm.valid());
}

}  // namespace
}  // namespace oak
