// Off-heap value cells and buffer facades (§3.3, §2.2): atomic put/compute/
// remove, resize-in-place, header non-reuse, concurrent semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "mem/block_pool.hpp"
#include "oak/buffer.hpp"
#include "oak/snapshot.hpp"
#include "oak/value.hpp"

namespace oak::detail {
namespace {

class ValueTest : public ::testing::Test {
 protected:
  ValueTest() : pool_({.blockBytes = 1u << 20, .budgetBytes = SIZE_MAX}), mm_(pool_) {}

  ValueCell make(const std::string& s) {
    return ValueCell(mm_, ValueCell::allocate(mm_, asBytes(std::string_view(s))));
  }

  std::string readAll(ValueCell& v) {
    std::string out;
    EXPECT_TRUE(v.read([&](ByteSpan s) { out = std::string(asString(s)); }));
    return out;
  }

  mem::BlockPool pool_;
  mem::MemoryManager mm_;
  // Writes are always versioned; with no snapshot open they overwrite in
  // place and removes are hard deletes.
  SnapshotDomain domain_;
  const SnapCtx sc_{&domain_};
};

// ---- version-GC floor and pending stamps (DESIGN.md §11a, §11c) ----

TEST_F(ValueTest, GcFloorTakenWithNoPinSparesAPinOpenedAfterIt) {
  // A GC pass reads its floor once.  Taken while no pin is open, the floor
  // must still be <= every pin that opens before the pass reaches a cell,
  // or the pass prunes the version that pin reads.
  ValueCell v = make("old");
  v.helpStamp(sc_);
  const std::uint64_t floor = domain_.minPinned();
  Snapshot snap(domain_);
  ASSERT_TRUE(v.put(asBytes(std::string_view("new")), sc_));  // chains "old"
  v.collect(floor, nullptr);
  std::string seen;
  EXPECT_TRUE(v.readAt(snap.version(),
                       [&](ByteSpan s) { seen = std::string(asString(s)); }));
  EXPECT_EQ(seen, "old");
  EXPECT_EQ(readAll(v), "new");
}

TEST_F(ValueTest, SnapshotReadsOfAPendingValueAgree) {
  // An insert publishes its value pending (stamp 0) and stamps it just
  // after.  A snapshot read at V that finds it pending stamps it (> V)
  // itself, so an inserter stalled between loading its stamp s <= V and
  // its CAS cannot make the key appear at V after a read at V missed it.
  ValueCell v = make("x");
  Snapshot snap(domain_);
  const std::uint64_t at = snap.version();
  const bool first = v.readAt(at, [](ByteSpan) {}, &sc_);
  SnapshotDomain stalled;  // its clock still reads the value before the pin
  v.helpStamp(SnapCtx{&stalled});  // the inserter's CAS(0 -> s <= V)
  const bool second = v.readAt(at, [](ByteSpan) {}, &sc_);
  EXPECT_FALSE(first);
  EXPECT_EQ(second, first);
}

TEST_F(ValueTest, AllocateAndRead) {
  ValueCell v = make("hello");
  EXPECT_FALSE(v.isDeleted());
  EXPECT_EQ(readAll(v), "hello");
}

TEST_F(ValueTest, PutOverwritesInPlace) {
  ValueCell v = make("aaaa");
  EXPECT_TRUE(v.put(asBytes(std::string_view("bbbb")), sc_));
  EXPECT_EQ(readAll(v), "bbbb");
}

TEST_F(ValueTest, PutGrowsBeyondCapacity) {
  ValueCell v = make("ab");
  const std::string big(5000, 'x');
  EXPECT_TRUE(v.put(asBytes(std::string_view(big)), sc_));
  EXPECT_EQ(readAll(v), big);
}

TEST_F(ValueTest, PutShrinks) {
  ValueCell v = make("a long initial value");
  EXPECT_TRUE(v.put(asBytes(std::string_view("s")), sc_));
  EXPECT_EQ(readAll(v), "s");
}

TEST_F(ValueTest, ExchangeReturnsOld) {
  ValueCell v = make("old");
  ByteVec old;
  EXPECT_TRUE(v.exchange(asBytes(std::string_view("new")), &old, sc_));
  EXPECT_EQ(asString(asBytes(old)), "old");
  EXPECT_EQ(readAll(v), "new");
}

TEST_F(ValueTest, RemoveMarksDeletedAndFailsFurtherOps) {
  ValueCell v = make("gone");
  ByteVec old;
  EXPECT_EQ(v.removeAt(sc_, &old), RemoveOutcome::Removed);
  EXPECT_EQ(asString(asBytes(old)), "gone");
  EXPECT_TRUE(v.isDeleted());
  EXPECT_EQ(v.removeAt(sc_), RemoveOutcome::Absent);
  EXPECT_FALSE(v.put(asBytes(std::string_view("x")), sc_));
  EXPECT_FALSE(v.compute([](ValueCell&) { FAIL(); }, sc_));
  EXPECT_FALSE(v.read([](ByteSpan) { FAIL(); }));
}

TEST_F(ValueTest, RemoveFreesPayloadBytes) {
  const auto before = mm_.allocatedBytes();
  ValueCell v = make(std::string(10000, 'p'));
  EXPECT_GE(mm_.allocatedBytes(), before + 10000);
  v.removeAt(sc_);
  // Payload returned; only the 16-byte header stays (never reclaimed).
  EXPECT_LT(mm_.allocatedBytes(), before + 64);
}

TEST_F(ValueTest, ComputeResizeViaWBuffer) {
  ValueCell v = make("12345678");
  EXPECT_TRUE(v.compute([](ValueCell& vc) {
    OakWBuffer w(vc);
    EXPECT_EQ(w.size(), 8u);
    w.resize(16);
    w.putU64(8, 0xdeadbeefull);
  }, sc_));
  std::string s = readAll(v);
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(s.substr(0, 8), "12345678");  // preserved across the move
}

TEST_F(ValueTest, WBufferAccessors) {
  ValueCell v = make(std::string(32, '\0'));
  v.compute([](ValueCell& vc) {
    OakWBuffer w(vc);
    w.putByte(0, 0x7f);
    w.putU32(4, 0xa1b2c3d4u);
    w.putU64(8, 123456789ull);
    w.putI64(16, -42);
    w.putF64(24, 2.75);
    EXPECT_EQ(w.getByte(0), 0x7f);
    EXPECT_EQ(w.getU32(4), 0xa1b2c3d4u);
    EXPECT_EQ(w.getU64(8), 123456789ull);
    EXPECT_EQ(w.getI64(16), -42);
    EXPECT_EQ(w.getF64(24), 2.75);
  }, sc_);
}

TEST_F(ValueTest, RBufferValueViewThrowsAfterDelete) {
  ValueCell v = make("abcd");
  OakRBuffer buf = OakRBuffer::forValue(v);
  EXPECT_EQ(buf.getByte(0), 'a');
  EXPECT_EQ(buf.size(), 4u);
  v.removeAt(sc_);
  EXPECT_THROW(buf.getByte(0), ConcurrentModification);
  EXPECT_THROW(buf.size(), ConcurrentModification);
  EXPECT_THROW(buf.toVecCopy(), ConcurrentModification);
}

TEST_F(ValueTest, RBufferKeyViewIsLockFree) {
  const std::string k = "an immutable key";
  OakRBuffer buf = OakRBuffer::forKey(asBytes(std::string_view(k)));
  EXPECT_FALSE(buf.isValueView());
  EXPECT_EQ(buf.size(), k.size());
  EXPECT_EQ(asString(asBytes(buf.toVecCopy())), k);
}

TEST_F(ValueTest, ExactlyOneRemoveWins) {
  ValueCell v = make("contested");
  std::atomic<int> wins{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&] {
      ValueCell mine = v;  // handles are cheap copies
      if (mine.removeAt(sc_) == RemoveOutcome::Removed) wins.fetch_add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(wins.load(), 1);
}

TEST_F(ValueTest, ConcurrentComputesAreSerialized) {
  ValueCell v = make(std::string(8, '\0'));
  constexpr int kThreads = 8, kIncr = 4000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      ValueCell mine = v;
      for (int i = 0; i < kIncr; ++i) {
        ASSERT_TRUE(mine.compute([](ValueCell& vc) {
          OakWBuffer w(vc);
          w.putU64(0, w.getU64(0) + 1);
        }, sc_));
      }
    });
  }
  for (auto& t : ts) t.join();
  std::uint64_t total = 0;
  v.read([&](ByteSpan s) { total = loadUnaligned<std::uint64_t>(s.data()); });
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIncr);
}

TEST_F(ValueTest, ReadersNeverSeeTornResize) {
  // Writers alternate the value between two self-consistent contents of
  // different sizes; readers must always see one of them, never a mix.
  ValueCell v = make(std::string(8, 'A'));
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread writer([&] {
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      const std::string content(i % 2 == 0 ? 8 : 64, i % 2 == 0 ? 'A' : 'B');
      v.put(asBytes(std::string_view(content)), sc_);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      ValueCell mine = v;
      for (int i = 0; i < 20000; ++i) {
        mine.read([&](ByteSpan s) {
          if (s.empty()) return;
          const char c = static_cast<char>(s[0]);
          for (std::byte b : s) {
            if (static_cast<char>(b) != c) torn.store(true);
          }
          if ((c == 'A' && s.size() != 8) || (c == 'B' && s.size() != 64)) {
            torn.store(true);
          }
        });
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_FALSE(torn.load());
}

}  // namespace
}  // namespace oak::detail
