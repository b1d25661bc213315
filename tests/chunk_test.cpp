// Chunk-object unit tests (§4.1): lookUp over sorted prefix + bypasses,
// allocateEntry / entriesLLPutIfAbsent, publish/freeze, collectLive.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "mem/block_pool.hpp"
#include "oak/chunk.hpp"
#include "oak/serializer.hpp"
#include "oak/snapshot.hpp"
#include "oak/value.hpp"

namespace oak::detail {
namespace {

using ChunkT = Chunk<BytesComparator>;

class ChunkTest : public ::testing::Test {
 protected:
  ChunkTest() : pool_(poolCfg()), mm_(pool_) {
    chunk_ = ChunkT::make(mheap::ManagedHeap::unlimited(), mm_, BytesComparator{},
                          ByteVec{}, 64);
  }
  ~ChunkTest() override { ChunkT::dispose(mheap::ManagedHeap::unlimited(), chunk_); }

  static mem::BlockPool::Config poolCfg() {
    return {.blockBytes = 1u << 20, .budgetBytes = SIZE_MAX};
  }

  /// Inserts a (key, value) like doPut's case-2 fast path.
  std::int32_t insert(const std::string& k, std::uint64_t v) {
    const mem::Ref keyRef = mm_.allocateKey(asBytes(std::string_view(k)));
    const std::int32_t cell = chunk_->allocateEntry(keyRef);
    if (cell < 0) return cell;
    const std::int32_t ei = chunk_->entriesLLPutIfAbsent(cell);
    if (ei < 0) return ei;
    ByteVec val(8);
    storeUnaligned(val.data(), v);
    const VRef vref = ValueCell::allocate(mm_, asBytes(val));
    chunk_->entry(ei).valRef.store(vref.bits(), std::memory_order_release);
    return ei;
  }

  std::string keyOf(std::int32_t ei) { return std::string(asString(chunk_->keyAt(ei))); }

  mem::BlockPool pool_;
  mem::MemoryManager mm_;
  ChunkT* chunk_;
};

TEST_F(ChunkTest, LookUpOnEmptyChunk) {
  EXPECT_EQ(chunk_->lookUp(asBytes(std::string_view("x"))), ChunkT::kNone);
  EXPECT_EQ(chunk_->headEntry(), ChunkT::kNone);
}

TEST_F(ChunkTest, InsertAndLookUp) {
  insert("banana", 1);
  insert("apple", 2);
  insert("cherry", 3);
  const auto ei = chunk_->lookUp(asBytes(std::string_view("banana")));
  ASSERT_NE(ei, ChunkT::kNone);
  EXPECT_EQ(keyOf(ei), "banana");
  EXPECT_EQ(chunk_->lookUp(asBytes(std::string_view("durian"))), ChunkT::kNone);
}

TEST_F(ChunkTest, LinkedListStaysSorted) {
  const char* keys[] = {"m", "c", "x", "a", "t", "e", "q"};
  for (auto* k : keys) insert(k, 1);
  std::vector<std::string> order;
  for (std::int32_t cur = chunk_->headEntry(); cur != ChunkT::kNone;
       cur = chunk_->entry(cur).next.load()) {
    order.push_back(keyOf(cur));
  }
  std::vector<std::string> sorted(order);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(order, sorted);
  EXPECT_EQ(order.size(), 7u);
}

TEST_F(ChunkTest, DuplicateKeyReturnsExistingEntry) {
  const std::int32_t first = insert("same", 1);
  const mem::Ref keyRef = mm_.allocateKey(asBytes(std::string_view("same")));
  const std::int32_t cell = chunk_->allocateEntry(keyRef);
  const std::int32_t ei = chunk_->entriesLLPutIfAbsent(cell);
  EXPECT_EQ(ei, first);  // the existing entry, not the new cell
}

TEST_F(ChunkTest, FullChunkReturnsKFull) {
  for (int i = 0; i < 64; ++i) insert("k" + std::to_string(1000 + i), i);
  const mem::Ref keyRef = mm_.allocateKey(asBytes(std::string_view("overflow")));
  EXPECT_EQ(chunk_->allocateEntry(keyRef), ChunkT::kFull);
  mm_.free(keyRef);
}

TEST_F(ChunkTest, PublishFailsAfterFreeze) {
  EXPECT_TRUE(chunk_->publish());
  chunk_->unpublish();
  // A legitimately allocated (but not yet linked) entry...
  const mem::Ref keyRef = mm_.allocateKey(asBytes(std::string_view("late")));
  const std::int32_t cell = chunk_->allocateEntry(keyRef);
  ASSERT_GE(cell, 0);
  chunk_->freeze();
  EXPECT_TRUE(chunk_->isFrozen());
  EXPECT_FALSE(chunk_->publish());
  // ...must be rejected by the linked-list insert once frozen.
  EXPECT_EQ(chunk_->entriesLLPutIfAbsent(cell), ChunkT::kFrozen);
}

TEST_F(ChunkTest, FreezeWaitsForPublishedOps) {
  ASSERT_TRUE(chunk_->publish());
  std::atomic<bool> frozen{false};
  std::thread freezer([&] {
    chunk_->freeze();
    frozen.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(frozen.load(std::memory_order_acquire)) << "freeze must drain";
  chunk_->unpublish();
  freezer.join();
  EXPECT_TRUE(frozen.load());
}

TEST_F(ChunkTest, CollectLiveSkipsDeletedAndEmpty) {
  insert("a", 1);
  const std::int32_t b = insert("b", 2);
  insert("c", 3);
  // Delete b's value; also add an entry with no value at all.
  SnapshotDomain domain;
  ValueCell cell(mm_, VRef{chunk_->entry(b).valRef.load()});
  cell.removeAt(SnapCtx{&domain});
  const mem::Ref keyRef = mm_.allocateKey(asBytes(std::string_view("d")));
  const std::int32_t d = chunk_->allocateEntry(keyRef);
  chunk_->entriesLLPutIfAbsent(d);

  chunk_->freeze();
  std::vector<ChunkT::LiveEntry> live;
  chunk_->collectLive(mm_, live);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(asString(mm_.keyBytes(mem::Ref{live[0].keyRefBits})), "a");
  EXPECT_EQ(asString(mm_.keyBytes(mem::Ref{live[1].keyRefBits})), "c");
}

TEST_F(ChunkTest, FillSortedBuildsSearchablePrefix) {
  std::vector<ChunkT::LiveEntry> entries;
  for (int i = 0; i < 20; ++i) {
    const std::string k = "key" + std::to_string(100 + i);
    const mem::Ref kr = mm_.allocateKey(asBytes(std::string_view(k)));
    ByteVec v(8);
    storeUnaligned<std::uint64_t>(v.data(), i);
    entries.push_back({kr.bits(), ValueCell::allocate(mm_, asBytes(v)).bits()});
  }
  ChunkT* fresh = ChunkT::make(mheap::ManagedHeap::unlimited(), mm_,
                               BytesComparator{}, toVec(asBytes(std::string_view("key100"))), 64);
  fresh->fillSorted(entries.data(), static_cast<std::int32_t>(entries.size()));
  EXPECT_EQ(fresh->sortedCount(), 20);
  for (int i = 0; i < 20; ++i) {
    const std::string k = "key" + std::to_string(100 + i);
    const auto ei = fresh->lookUp(asBytes(std::string_view(k)));
    ASSERT_NE(ei, ChunkT::kNone) << k;
  }
  // Bypass insertion into a sorted chunk still lands in order.
  const mem::Ref kr = mm_.allocateKey(asBytes(std::string_view("key1005")));
  const std::int32_t cell = fresh->allocateEntry(kr);
  ASSERT_GE(fresh->entriesLLPutIfAbsent(cell), 0);
  ASSERT_NE(fresh->lookUp(asBytes(std::string_view("key1005"))), ChunkT::kNone);
  EXPECT_EQ(fresh->unsortedCount(), 1);
  ChunkT::dispose(mheap::ManagedHeap::unlimited(), fresh);
}

TEST_F(ChunkTest, LowerBoundSemantics) {
  insert("b", 1);
  insert("d", 2);
  insert("f", 3);
  auto lb = [&](const char* probe) {
    const auto ei = chunk_->lowerBound(asBytes(std::string_view(probe)));
    return ei == ChunkT::kNone ? std::string("-") : keyOf(ei);
  };
  EXPECT_EQ(lb("a"), "b");
  EXPECT_EQ(lb("b"), "b");
  EXPECT_EQ(lb("c"), "d");
  EXPECT_EQ(lb("f"), "f");
  EXPECT_EQ(lb("g"), "-");
}

TEST_F(ChunkTest, ConcurrentLLInsertsKeepUniqueSortedList) {
  ChunkT* big = ChunkT::make(mheap::ManagedHeap::unlimited(), mm_, BytesComparator{},
                             ByteVec{}, 2048);
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        // Overlapping key sets across threads: duplicates must collapse.
        const std::string k = "k" + std::to_string(1000 + (i * 7 + t * 3) % 500);
        const mem::Ref kr = mm_.allocateKey(asBytes(std::string_view(k)));
        const std::int32_t cell = big->allocateEntry(kr);
        ASSERT_GE(cell, 0);
        const std::int32_t ei = big->entriesLLPutIfAbsent(cell);
        ASSERT_GE(ei, 0);
      }
    });
  }
  for (auto& t : ts) t.join();
  std::vector<std::string> order;
  for (std::int32_t cur = big->headEntry(); cur != ChunkT::kNone;
       cur = big->entry(cur).next.load()) {
    order.push_back(std::string(asString(big->keyAt(cur))));
  }
  std::vector<std::string> dedup(order);
  std::sort(dedup.begin(), dedup.end());
  dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
  EXPECT_EQ(order.size(), dedup.size()) << "duplicate keys in the linked list";
  std::vector<std::string> sorted(order);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(order, sorted);
  ChunkT::dispose(mheap::ManagedHeap::unlimited(), big);
}

}  // namespace
}  // namespace oak::detail
