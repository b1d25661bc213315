// Generational value reclamation (the §3.3 extension the paper scopes out):
// headers are recycled through a versioned, type-stable pool; stale
// references behave like deleted values; the full map works identically
// under churn while actually reclaiming header space.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "oak/core_map.hpp"

namespace oak {
namespace {

ByteVec keyOf(std::uint64_t i) {
  ByteVec k(8);
  storeU64BE(k.data(), i);
  return k;
}
ByteVec valOf(std::uint64_t x) {
  ByteVec v(8);
  storeUnaligned(v.data(), x);
  return v;
}

OakConfig genConfig() {
  auto cfg = OakConfig{}
                 .withChunkCapacity(64)
                 .withMem(MemConfig{}.withReclaim(ValueReclaim::Generational));
  return cfg;
}

TEST(Generational, VRefPackingRoundTrip) {
  const auto r = detail::VRef::make(100, 123448, 0x1abcdef);
  EXPECT_EQ(r.block(), 100u);
  EXPECT_EQ(r.byteOffset(), 123448u);
  EXPECT_EQ(r.version(), 0x1abcdefu);
  EXPECT_FALSE(r.isNull());
  EXPECT_TRUE(detail::VRef{}.isNull());
}

TEST(Generational, GenerationsAreFresh) {
  const auto a = detail::nextGeneration();
  const auto b = detail::nextGeneration();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(Generational, HeaderPoolRecycles) {
  mem::BlockPool pool({.blockBytes = 1u << 20, .budgetBytes = SIZE_MAX});
  mem::MemoryManager mm(pool);
  detail::HeaderPool hp(mm);
  std::uint32_t v1 = 0, v2 = 0;
  const mem::Ref h1 = hp.acquire(&v1);
  hp.release(h1);
  EXPECT_EQ(hp.freeCount(), 1u);
  const mem::Ref h2 = hp.acquire(&v2);
  EXPECT_EQ(h2.offset(), h1.offset());  // same storage...
  EXPECT_NE(v2, v1);                    // ...fresh generation
}

TEST(Generational, StaleReferenceBehavesDeleted) {
  mem::BlockPool pool({.blockBytes = 1u << 20, .budgetBytes = SIZE_MAX});
  mem::MemoryManager mm(pool);
  detail::HeaderPool hp(mm);
  SnapshotDomain domain;  // no snapshot open: removes are hard deletes
  const detail::SnapCtx sc{&domain};
  const detail::VRef oldRef =
      detail::ValueCell::allocate(mm, asBytes(std::string_view("old")), &hp);
  detail::ValueCell oldCell(mm, oldRef);
  ASSERT_EQ(oldCell.removeAt(sc, nullptr, &hp), detail::RemoveOutcome::Removed);
  // The header is recycled into a brand-new value...
  const detail::VRef newRef =
      detail::ValueCell::allocate(mm, asBytes(std::string_view("new!")), &hp);
  ASSERT_EQ(newRef.byteOffset(), oldRef.byteOffset());
  ASSERT_NE(newRef.version(), oldRef.version());
  // ...and the stale handle must keep failing everywhere.
  EXPECT_TRUE(oldCell.isDeleted());
  EXPECT_FALSE(oldCell.put(asBytes(std::string_view("X")), sc));
  EXPECT_FALSE(oldCell.read([](ByteSpan) { FAIL(); }));
  EXPECT_EQ(oldCell.removeAt(sc, nullptr, &hp), detail::RemoveOutcome::Absent);
  // While the new value works.
  detail::ValueCell newCell(mm, newRef);
  std::string out;
  EXPECT_TRUE(newCell.read([&](ByteSpan s) { out = std::string(asString(s)); }));
  EXPECT_EQ(out, "new!");
}

TEST(Generational, MapSemanticsUnchanged) {
  OakCoreMap<> m(genConfig());
  m.put(asBytes(keyOf(1)), asBytes(valOf(10)));
  EXPECT_TRUE(m.remove(asBytes(keyOf(1))));
  EXPECT_FALSE(m.containsKey(asBytes(keyOf(1))));
  m.put(asBytes(keyOf(1)), asBytes(valOf(11)));
  EXPECT_EQ(loadUnaligned<std::uint64_t>(m.getCopy(asBytes(keyOf(1)))->data()), 11u);
}

TEST(Generational, ViewsThrowAfterRemoveAndReuse) {
  OakCoreMap<> m(genConfig());
  m.put(asBytes(keyOf(7)), asBytes(valOf(70)));
  auto view = m.get(asBytes(keyOf(7)));
  ASSERT_TRUE(view.has_value());
  m.remove(asBytes(keyOf(7)));
  m.put(asBytes(keyOf(7)), asBytes(valOf(71)));  // likely reuses the header
  // The old view must never observe the new value.
  EXPECT_THROW(view->getU64(0), ConcurrentModification);
}

TEST(Generational, ChurnActuallyReclaimsSpace) {
  // KeepHeaders leaks one header per remove; Generational must stay flat.
  auto keepCfg = OakConfig{}.withChunkCapacity(256);
  auto genCfg = genConfig().withChunkCapacity(256);
  mem::BlockPool keepPool({.blockBytes = 1u << 20, .budgetBytes = SIZE_MAX});
  mem::BlockPool genPool({.blockBytes = 1u << 20, .budgetBytes = SIZE_MAX});
  keepCfg.mem.withPool(&keepPool);
  genCfg.mem.withPool(&genPool);
  OakCoreMap<> keep(keepCfg);
  OakCoreMap<> gen(genCfg);
  constexpr int kChurn = 30000;
  for (int i = 0; i < kChurn; ++i) {
    const auto k = keyOf(i % 8);
    keep.put(asBytes(k), asBytes(valOf(i)));
    keep.remove(asBytes(k));
    gen.put(asBytes(k), asBytes(valOf(i)));
    gen.remove(asBytes(k));
  }
  // KeepHeaders: >= 24B * kChurn of immortal headers; Generational: tiny.
  EXPECT_GT(keep.offHeapAllocatedBytes(), static_cast<std::size_t>(kChurn) * 24);
  EXPECT_LT(gen.offHeapAllocatedBytes(), 64u * 1024u);
}

TEST(Generational, ConcurrentChurnIsLinearizable) {
  OakCoreMap<> m(genConfig());
  constexpr int kKeys = 8;
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&, t] {
      XorShift rng(t * 97 + 3);
      for (int i = 0; i < 15000; ++i) {
        const auto k = keyOf(rng.nextBounded(kKeys));
        switch (rng.nextBounded(4)) {
          case 0:
            m.put(asBytes(k), asBytes(valOf(i)));
            break;
          case 1:
            m.remove(asBytes(k));
            break;
          case 2:
            m.computeIfPresent(asBytes(k), [](OakWBuffer& w) {
              w.putU64(0, w.getU64(0) + 1);
            });
            break;
          default: {
            auto v = m.getCopy(asBytes(k));
            if (v) {
              ASSERT_EQ(v->size(), 8u);  // never torn / mixed values
            }
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  for (int k = 0; k < kKeys; ++k) {
    m.put(asBytes(keyOf(k)), asBytes(valOf(5)));
    EXPECT_EQ(loadUnaligned<std::uint64_t>(m.getCopy(asBytes(keyOf(k)))->data()), 5u);
  }
}

TEST(Generational, PutIfAbsentComputeUpsertUnderChurn) {
  OakCoreMap<> m(genConfig());
  constexpr int kThreads = 6, kOps = 8000, kKeys = 16;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      XorShift rng(t + 11);
      for (int i = 0; i < kOps; ++i) {
        const auto k = keyOf(rng.nextBounded(kKeys));
        m.putIfAbsentComputeIfPresent(asBytes(k), asBytes(valOf(1)),
                                      [](OakWBuffer& w) {
                                        w.putU64(0, w.getU64(0) + 1);
                                      });
      }
    });
  }
  for (auto& t : ts) t.join();
  std::uint64_t total = 0;
  for (int k = 0; k < kKeys; ++k) {
    auto v = m.getCopy(asBytes(keyOf(k)));
    if (v) total += loadUnaligned<std::uint64_t>(v->data());
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kOps);
}

}  // namespace
}  // namespace oak
