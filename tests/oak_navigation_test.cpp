// ConcurrentNavigableMap-style navigation queries and atomic replace on the
// map front end, checked against a reference std::map across random
// datasets, at 1 and 4 shards (OAK_SHARDS=n runs one shard count only).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/random.hpp"
#include "oak/sharded_map.hpp"

namespace oak {
namespace {

using Map = ShardedOakCoreMap<>;

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

std::vector<std::size_t> shardCounts() {
  if (env::raw("OAK_SHARDS") != nullptr) {
    return {static_cast<std::size_t>(env::u64("OAK_SHARDS", 1))};
  }
  return {1, 4};
}

/// Shard boundaries spread evenly over key ids [0, range).
std::unique_ptr<Map> makeMap(std::size_t shards, std::uint64_t range) {
  return std::make_unique<Map>(ShardedOakConfig{}
                                   .withShards(shards)
                                   .withLayout(ShardLayout::uniformRange(shards, range))
                                   .withShard(OakConfig{}.withChunkCapacity(64)));
}

std::optional<std::uint64_t> keyNum(std::optional<Map::KeyedEntry> e) {
  if (!e) return std::nullopt;
  return loadU64BE(e->key.data());
}

class NavTest : public ::testing::Test {
 protected:
  NavTest() {
    for (std::size_t n : shardCounts()) {
      // Range 60 puts 4-shard boundaries at 15, 30 and 45: keys 10 | 20 |
      // 30 40 | 50, one of them exactly on a boundary.
      maps_.push_back(makeMap(n, 60));
      for (std::uint64_t k : {10u, 20u, 30u, 40u, 50u}) {
        maps_.back()->put(asBytes(keyOf(k)), asBytes(valOf(k * 10)));
      }
    }
  }

  /// Runs `check` on the map of every shard count.
  template <class F>
  void forEachMap(F&& check) {
    for (auto& m : maps_) {
      SCOPED_TRACE("shards=" + std::to_string(m->shardCount()));
      check(*m);
    }
  }

  std::vector<std::unique_ptr<Map>> maps_;
};

TEST_F(NavTest, FirstLast) {
  forEachMap([](Map& m) {
    EXPECT_EQ(keyNum(m.firstEntry()), 10u);
    EXPECT_EQ(keyNum(m.lastEntry()), 50u);
  });
}

TEST_F(NavTest, CeilingHigher) {
  forEachMap([](Map& m) {
    EXPECT_EQ(keyNum(m.ceilingEntry(asBytes(keyOf(25)))), 30u);
    EXPECT_EQ(keyNum(m.ceilingEntry(asBytes(keyOf(30)))), 30u);
    EXPECT_EQ(keyNum(m.higherEntry(asBytes(keyOf(30)))), 40u);
    EXPECT_EQ(keyNum(m.higherEntry(asBytes(keyOf(50)))), std::nullopt);
    EXPECT_EQ(keyNum(m.ceilingEntry(asBytes(keyOf(51)))), std::nullopt);
  });
}

TEST_F(NavTest, FloorLower) {
  forEachMap([](Map& m) {
    EXPECT_EQ(keyNum(m.floorEntry(asBytes(keyOf(25)))), 20u);
    EXPECT_EQ(keyNum(m.floorEntry(asBytes(keyOf(20)))), 20u);
    EXPECT_EQ(keyNum(m.lowerEntry(asBytes(keyOf(20)))), 10u);
    EXPECT_EQ(keyNum(m.lowerEntry(asBytes(keyOf(10)))), std::nullopt);
    EXPECT_EQ(keyNum(m.floorEntry(asBytes(keyOf(9)))), std::nullopt);
  });
}

TEST_F(NavTest, NavigationValueViewsWork) {
  forEachMap([](Map& m) {
    auto e = m.ceilingEntry(asBytes(keyOf(30)));
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->value.getU64(0), 300u);
  });
}

TEST_F(NavTest, EmptyMap) {
  for (std::size_t n : shardCounts()) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    auto empty = makeMap(n, 60);
    EXPECT_FALSE(empty->firstEntry().has_value());
    EXPECT_FALSE(empty->lastEntry().has_value());
    EXPECT_FALSE(empty->floorEntry(asBytes(keyOf(1))).has_value());
    EXPECT_FALSE(empty->ceilingEntry(asBytes(keyOf(1))).has_value());
  }
}

TEST_F(NavTest, Replace) {
  forEachMap([](Map& m) {
    EXPECT_TRUE(m.replace(asBytes(keyOf(10)), asBytes(valOf(111))));
    EXPECT_EQ(loadUnaligned<std::uint64_t>(m.getCopy(asBytes(keyOf(10)))->data()), 111u);
    EXPECT_FALSE(m.replace(asBytes(keyOf(99)), asBytes(valOf(1))));
    EXPECT_FALSE(m.containsKey(asBytes(keyOf(99))));
  });
}

TEST_F(NavTest, ReplaceIf) {
  forEachMap([](Map& m) {
    EXPECT_FALSE(m.replaceIf(asBytes(keyOf(10)), asBytes(valOf(42)), asBytes(valOf(1))));
    EXPECT_TRUE(m.replaceIf(asBytes(keyOf(10)), asBytes(valOf(100)), asBytes(valOf(1))));
    EXPECT_EQ(loadUnaligned<std::uint64_t>(m.getCopy(asBytes(keyOf(10)))->data()), 1u);
  });
}

TEST_F(NavTest, ReplaceCanResize) {
  forEachMap([](Map& m) {
    ByteVec big(256, std::byte{0x42});
    EXPECT_TRUE(m.replace(asBytes(keyOf(20)), asBytes(big)));
    auto v = m.getCopy(asBytes(keyOf(20)));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->size(), 256u);
    EXPECT_EQ((*v)[100], std::byte{0x42});
  });
}

// Property sweep: navigation queries agree with std::map on random data.
class NavSweep : public ::testing::TestWithParam<int> {};

TEST_P(NavSweep, MatchesReference) {
  for (std::size_t shards : shardCounts()) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto mp = makeMap(shards, 5000);
    Map& m = *mp;
    std::map<std::uint64_t, int> ref;
    XorShift rng(GetParam() * 999331);
    for (int i = 0; i < 600; ++i) {
      const std::uint64_t k = rng.nextBounded(5000);
      if (rng.nextBounded(10) < 8) {
        m.put(asBytes(keyOf(k)), asBytes(valOf(k)));
        ref[k] = 1;
      } else {
        m.remove(asBytes(keyOf(k)));
        ref.erase(k);
      }
    }
    for (std::uint64_t probe = 0; probe < 5200; probe += 37) {
      const auto k = keyOf(probe);
      // floor
      auto fit = ref.upper_bound(probe);
      std::optional<std::uint64_t> expFloor;
      if (fit != ref.begin()) expFloor = std::prev(fit)->first;
      EXPECT_EQ(keyNum(m.floorEntry(asBytes(k))), expFloor) << probe;
      // ceiling
      auto cit = ref.lower_bound(probe);
      std::optional<std::uint64_t> expCeil;
      if (cit != ref.end()) expCeil = cit->first;
      EXPECT_EQ(keyNum(m.ceilingEntry(asBytes(k))), expCeil) << probe;
      // lower / higher
      auto lit = ref.lower_bound(probe);
      std::optional<std::uint64_t> expLower;
      if (lit != ref.begin()) expLower = std::prev(lit)->first;
      EXPECT_EQ(keyNum(m.lowerEntry(asBytes(k))), expLower) << probe;
      auto hit = ref.upper_bound(probe);
      std::optional<std::uint64_t> expHigher;
      if (hit != ref.end()) expHigher = hit->first;
      EXPECT_EQ(keyNum(m.higherEntry(asBytes(k))), expHigher) << probe;
    }
    if (!ref.empty()) {
      EXPECT_EQ(keyNum(m.firstEntry()), ref.begin()->first);
      EXPECT_EQ(keyNum(m.lastEntry()), ref.rbegin()->first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NavSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace oak
