// Integrated durability coverage (DESIGN.md §12) of the one durable map,
// ShardedOakCoreMap: recovery round-trips on a 1-shard map (an OakConfig)
// and on N shards, checkpoint + WAL-tail interaction, torn-tail and
// bit-flip corruption degrades, and the kill -9 drills.
//
// The drills follow the acknowledged-writes oracle: a child process opens a
// durable map with FsyncPolicy::EveryCommit, streams puts, and reports each
// key id on a pipe ONLY AFTER the put returned — i.e. after its WAL record
// hit disk.  The parent SIGKILLs the child at a seeded acknowledgment count,
// reopens the directory, and proves every acknowledged write survived
// (unacknowledged trailing writes may or may not: both are legal).  A
// ChunkWalker pass then vouches for the recovered structure.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/env.hpp"
#include "common/random.hpp"
#include "dur/checkpoint.hpp"
#include "dur/wal.hpp"
#include "oak/chunk_walker.hpp"
#include "oak/core_map.hpp"
#include "oak/map.hpp"
#include "oak/sharded_map.hpp"

namespace oak {
namespace {

namespace fs = std::filesystem;

ByteSpan bytes(const std::string& s) { return asBytes(std::string_view(s)); }

std::string padKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key-%06d", i);
  return buf;
}

std::string valueFor(int i, char tag) {
  return std::string("value-") + tag + "-" + std::to_string(i);
}

std::uint64_t chaosSeed() {
  const std::uint64_t s = oak::env::u64("OAK_CHAOS_SEED", 7);
  return s != 0 ? s : 7;
}

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("oak_durability_test." + std::to_string(::getpid()) + "." +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

/// Durable config helper: explicit directory, no background threads (tests
/// drive checkpoints synchronously), fsync policy under test control.
OakConfig durableCfg(const std::string& dir,
                     dur::FsyncPolicy policy = dur::FsyncPolicy::Never) {
  return OakConfig{}
      .withChunkCapacity(64)
      .withStorageDir(dir)
      .withDur(DurConfig{}.withFsyncPolicy(policy));
}

// ========================================================== 1-shard map

TEST(CoreRecovery, PutsSurviveReopen) {
  TempDir dir;
  {
    ShardedOakCoreMap<> map(durableCfg(dir.str()));
    ASSERT_TRUE(map.durable());
    for (int i = 0; i < 500; ++i) {
      map.put(bytes(padKey(i)), bytes(valueFor(i, 'a')));
    }
    map.syncWal();
  }
  ShardedOakCoreMap<> map(durableCfg(dir.str()));
  EXPECT_EQ(map.recoveryReplayedRecords(), 500u);
  EXPECT_EQ(map.sizeSlow(), 500u);
  for (int i = 0; i < 500; ++i) {
    auto v = map.getCopy(bytes(padKey(i)));
    ASSERT_TRUE(v.has_value()) << padKey(i);
    EXPECT_EQ(*v, toVec(bytes(valueFor(i, 'a'))));
  }
  EXPECT_TRUE(ChunkWalker<BytesComparator>::validate(map).ok);
}

TEST(CoreRecovery, RemovesOverwritesAndComputesSurviveReopen) {
  TempDir dir;
  std::map<std::string, std::string> oracle;
  {
    ShardedOakCoreMap<> map(durableCfg(dir.str()));
    XorShift rng(chaosSeed());
    for (int op = 0; op < 2000; ++op) {
      const int i = static_cast<int>(rng.next() % 200);
      const std::string k = padKey(i);
      switch (rng.next() % 4) {
        case 0: {
          const std::string v = valueFor(op, 'p');
          map.put(bytes(k), bytes(v));
          oracle[k] = v;
          break;
        }
        case 1:
          map.remove(bytes(k));
          oracle.erase(k);
          break;
        case 2: {
          const std::string v = valueFor(op, 'c');
          const bool ok = map.computeIfPresent(bytes(k), [&](OakWBuffer& w) {
            w.resize(v.size());
            w.write(0, bytes(v));
          });
          if (ok) oracle[k] = v;
          break;
        }
        default: {
          const std::string v = valueFor(op, 'q');
          if (map.putIfAbsent(bytes(k), bytes(v))) oracle[k] = v;
          break;
        }
      }
    }
    map.syncWal();
  }
  ShardedOakCoreMap<> map(durableCfg(dir.str()));
  EXPECT_EQ(map.sizeSlow(), oracle.size());
  for (const auto& [k, v] : oracle) {
    auto got = map.getCopy(bytes(k));
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(*got, toVec(bytes(v))) << k;
  }
  EXPECT_TRUE(ChunkWalker<BytesComparator>::validate(map).ok);
}

TEST(CoreRecovery, ComputeWalReadBackIsNotAUserGet) {
  // The WAL logs a compute's post-image by reading it back; that read is
  // part of the compute and must not show up as a user GetCopy.
  TempDir dir;
  constexpr int kN = 10;
  {
    ShardedOakCoreMap<> map(durableCfg(dir.str()));
    for (int i = 0; i < kN; ++i) {
      map.put(bytes(padKey(i)), bytes(valueFor(i, 'a')));
    }
    for (int i = 0; i < kN; ++i) {
      const std::string v = valueFor(i, 'c');
      ASSERT_TRUE(map.computeIfPresent(bytes(padKey(i)), [&](OakWBuffer& w) {
        w.resize(v.size());
        w.write(0, bytes(v));
      }));
    }
    if (obs::StatsRegistry::compiled()) {
      const obs::Metrics m = map.stats();
      EXPECT_EQ(m.registry.op(obs::Op::Compute).count, static_cast<std::uint64_t>(kN));
      EXPECT_EQ(m.registry.op(obs::Op::GetCopy).count, 0u);
    }
    map.syncWal();
  }
  ShardedOakCoreMap<> map(durableCfg(dir.str()));
  for (int i = 0; i < kN; ++i) {
    auto v = map.getCopy(bytes(padKey(i)));
    ASSERT_TRUE(v.has_value()) << padKey(i);
    EXPECT_EQ(*v, toVec(bytes(valueFor(i, 'c'))));
  }
}

TEST(CoreRecovery, CheckpointTruncatesWalSoReplayCoversOnlyTheTail) {
  TempDir dir;
  {
    ShardedOakCoreMap<> map(durableCfg(dir.str()));
    for (int i = 0; i < 400; ++i) {
      map.put(bytes(padKey(i)), bytes(valueFor(i, 'a')));
    }
    EXPECT_EQ(map.checkpointNow(), 400u);
    for (int i = 400; i < 450; ++i) {
      map.put(bytes(padKey(i)), bytes(valueFor(i, 'a')));
    }
    map.syncWal();
  }
  ShardedOakCoreMap<> map(durableCfg(dir.str()));
  // The checkpoint absorbed the first 400; only the tail replays.
  EXPECT_EQ(map.recoveryReplayedRecords(), 50u);
  EXPECT_EQ(map.sizeSlow(), 450u);
  for (int i = 0; i < 450; ++i) {
    EXPECT_TRUE(map.containsKey(bytes(padKey(i)))) << padKey(i);
  }
  const Metrics m = map.stats();
  EXPECT_TRUE(m.durable);
  EXPECT_EQ(m.recoveryReplayed, 50u);
}

TEST(CoreRecovery, RepeatedCheckpointsKeepTwoGenerationsAndRecover) {
  TempDir dir;
  {
    ShardedOakCoreMap<> map(durableCfg(dir.str()));
    for (int round = 0; round < 3; ++round) {
      for (int i = round * 100; i < (round + 1) * 100; ++i) {
        map.put(bytes(padKey(i)), bytes(valueFor(i, 'r')));
      }
      map.checkpointNow();
    }
    EXPECT_EQ(map.stats().checkpoints, 3u);
  }
  ShardedOakCoreMap<> map(durableCfg(dir.str()));
  EXPECT_EQ(map.recoveryReplayedRecords(), 0u);
  EXPECT_EQ(map.sizeSlow(), 300u);
  EXPECT_TRUE(ChunkWalker<BytesComparator>::validate(map).ok);
}

TEST(CoreRecovery, ScansAndSnapshotsWorkOnRecoveredMap) {
  TempDir dir;
  {
    ShardedOakCoreMap<> map(durableCfg(dir.str()));
    for (int i = 0; i < 300; ++i) {
      map.put(bytes(padKey(i)), bytes(valueFor(i, 'a')));
    }
    map.checkpointNow();
  }
  ShardedOakCoreMap<> map(durableCfg(dir.str()));
  // Bulk-loaded values must be visible to snapshot scans (stamped at load).
  int n = 0;
  std::string prev;
  for (auto it = map.ascend(std::nullopt, std::nullopt, ScanOptions::snapshot());
       it.valid(); it.next()) {
    const auto e = it.entry();
    std::string k(reinterpret_cast<const char*>(e.key.data()), e.key.size());
    EXPECT_LT(prev, k);
    prev = std::move(k);
    ++n;
  }
  EXPECT_EQ(n, 300);
  // And the recovered map keeps accepting + logging new traffic.
  map.put(bytes(padKey(1000)), bytes(valueFor(1000, 'z')));
  EXPECT_GE(map.stats().walAppends, 1u);
}

TEST(CoreRecovery, ExplicitEmptyStorageDirDisablesDurability) {
  ShardedOakCoreMap<> map(OakConfig{}.withStorageDir(std::string{}));
  EXPECT_FALSE(map.durable());
  EXPECT_EQ(map.checkpointNow(), 0u);
  map.syncWal();  // no-op, must not crash
}

TEST(TypedFacade, OpenRecoversAndExposesDurability) {
  TempDir dir;
  {
    auto map = OakStringMap::open(dir.str());
    ASSERT_TRUE(map.durable());
    for (int i = 0; i < 100; ++i) {
      map.put(padKey(i), toVec(bytes(valueFor(i, 't'))));
    }
    EXPECT_EQ(map.checkpointNow(), 100u);
  }
  auto map = OakStringMap::open(dir.str());
  EXPECT_EQ(map.recoveryReplayedRecords(), 0u);
  EXPECT_EQ(map.size(), 100u);
  auto v = map.get(padKey(42));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, toVec(bytes(valueFor(42, 't'))));
}

// ============================================================ sharded map

ShardedOakConfig shardedDurableCfg(const std::string& dir, std::size_t shards) {
  return ShardedOakConfig{}
      .withShards(shards)
      .withShard(OakConfig{}.withChunkCapacity(64))
      .withStorageDir(dir);
}

TEST(ShardedRecovery, PutsSurviveReopenAcrossShards) {
  TempDir dir;
  std::map<std::string, std::string> oracle;
  {
    ShardedOakCoreMap<> map(shardedDurableCfg(dir.str(), 4));
    ASSERT_TRUE(map.durable());
    XorShift rng(chaosSeed());
    for (int op = 0; op < 1500; ++op) {
      const std::string k = padKey(static_cast<int>(rng.next() % 400));
      if (rng.next() % 5 == 0) {
        map.remove(bytes(k));
        oracle.erase(k);
      } else {
        const std::string v = valueFor(op, 's');
        map.put(bytes(k), bytes(v));
        oracle[k] = v;
      }
    }
    map.checkpointNow();
    for (int op = 0; op < 200; ++op) {  // tail past the checkpoint
      const std::string k = padKey(static_cast<int>(rng.next() % 400));
      const std::string v = valueFor(op, 't');
      map.put(bytes(k), bytes(v));
      oracle[k] = v;
    }
    map.syncWal();
  }
  ShardedOakCoreMap<> map(shardedDurableCfg(dir.str(), 4));
  EXPECT_EQ(map.shardCount(), 4u);
  EXPECT_EQ(map.recoveryReplayedRecords(), 200u);
  EXPECT_EQ(map.sizeSlow(), oracle.size());
  for (const auto& [k, v] : oracle) {
    auto got = map.getCopy(bytes(k));
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(*got, toVec(bytes(v))) << k;
  }
  for (const auto& rep : ChunkWalker<BytesComparator>::validateShards(map)) {
    EXPECT_TRUE(rep.ok);
  }
}

TEST(ShardedRecovery, LayoutSurvivesOnlineSplit) {
  TempDir dir;
  {
    ShardedOakCoreMap<> map(shardedDurableCfg(dir.str(), 2));
    for (int i = 0; i < 600; ++i) {
      map.put(bytes(padKey(i)), bytes(valueFor(i, 'l')));
    }
    ASSERT_TRUE(map.splitShard(0));
    EXPECT_EQ(map.shardCount(), 3u);
    map.checkpointNow();  // manifest records the post-split boundaries
  }
  ShardedOakCoreMap<> map(shardedDurableCfg(dir.str(), 2));
  EXPECT_EQ(map.shardCount(), 3u) << "manifest layout must win over config";
  EXPECT_EQ(map.sizeSlow(), 600u);
  for (int i = 0; i < 600; ++i) {
    EXPECT_TRUE(map.containsKey(bytes(padKey(i)))) << padKey(i);
  }
}

// ============================================================= corruption

TEST(Corruption, TornWalTailRecoversAcknowledgedPrefix) {
  TempDir dir;
  {
    ShardedOakCoreMap<> map(durableCfg(dir.str()));
    for (int i = 0; i < 100; ++i) {
      map.put(bytes(padKey(i)), bytes(valueFor(i, 'w')));
    }
    map.syncWal();
  }
  // Tear the live segment mid-record: the last record loses its tail.
  const auto segs = dur::listWalSegments(dir.str());
  ASSERT_FALSE(segs.empty());
  const std::string seg = dur::walSegmentPath(dir.str(), segs.back());
  const auto size = fs::file_size(seg);
  fs::resize_file(seg, size - 5);

  ShardedOakCoreMap<> map(durableCfg(dir.str()));
  EXPECT_EQ(map.recoveryReplayedRecords(), 99u);
  EXPECT_EQ(map.sizeSlow(), 99u);
  EXPECT_TRUE(map.containsKey(bytes(padKey(98))));
  EXPECT_FALSE(map.containsKey(bytes(padKey(99))));
  EXPECT_TRUE(ChunkWalker<BytesComparator>::validate(map).ok);
}

TEST(Corruption, BitFlippedCheckpointDegradesToPreviousGeneration) {
  TempDir dir;
  std::uint64_t liveCp = 0;
  {
    ShardedOakCoreMap<> map(durableCfg(dir.str()));
    for (int i = 0; i < 100; ++i) {
      map.put(bytes(padKey(i)), bytes(valueFor(i, 'g')));
    }
    map.checkpointNow();  // generation 1: 100 pairs
    for (int i = 100; i < 120; ++i) {
      map.put(bytes(padKey(i)), bytes(valueFor(i, 'g')));
    }
    map.checkpointNow();  // generation 2: 120 pairs
    const auto man = dur::Manifest::load(dir.str());
    ASSERT_TRUE(man.has_value());
    liveCp = man->cpSeq;
  }
  // Flip one byte in the live checkpoint's payload: its CRC must reject it
  // and recovery must fall back to generation 1 plus that generation's WAL
  // (retained by the two-generation purge policy), replaying forward.
  {
    std::fstream f(dur::checkpointPath(dir.str(), liveCp),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(64);
    char b = 0;
    f.seekg(64);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(64);
    f.write(&b, 1);
  }
  ShardedOakCoreMap<> map(durableCfg(dir.str()));
  EXPECT_EQ(map.sizeSlow(), 120u) << "prev checkpoint + WAL replay must "
                                     "reconstruct every acknowledged write";
  EXPECT_GE(map.recoveryReplayedRecords(), 20u);
  for (int i = 0; i < 120; ++i) {
    EXPECT_TRUE(map.containsKey(bytes(padKey(i)))) << padKey(i);
  }
  EXPECT_TRUE(ChunkWalker<BytesComparator>::validate(map).ok);
}

// ============================================================ kill drills
//
// Child protocol: open a durable map with EveryCommit, put key i, then write
// the 4-byte little-endian id to the pipe.  The parent kills the child after
// a seeded number of acknowledgments and recovers in-process.

constexpr char kDrillValueTag = 'k';

[[noreturn]] void drillChild(const std::string& dir, int pipeFd,
                             bool checkpointEvery256) {
  ShardedOakCoreMap<> map(durableCfg(dir, dur::FsyncPolicy::EveryCommit));
  for (int i = 0;; ++i) {
    map.put(bytes(padKey(i)), bytes(valueFor(i, kDrillValueTag)));
    const std::uint32_t id = static_cast<std::uint32_t>(i);
    if (::write(pipeFd, &id, sizeof id) != static_cast<ssize_t>(sizeof id)) {
      _exit(3);  // parent went away: this drill is over
    }
    if (checkpointEvery256 && i > 0 && i % 256 == 0) map.checkpointNow();
  }
}

/// Runs one drill: returns the highest acknowledged key id (inclusive).
int runKillDrill(const std::string& dir, int killAfterAcks,
                 bool checkpointEvery256) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    drillChild(dir, fds[1], checkpointEvery256);
  }
  ::close(fds[1]);
  int lastAck = -1;
  std::uint32_t id = 0;
  while (lastAck + 1 < killAfterAcks &&
         ::read(fds[0], &id, sizeof id) == static_cast<ssize_t>(sizeof id)) {
    lastAck = static_cast<int>(id);
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ::close(fds[0]);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  return lastAck;
}

void expectAckedWritesRecovered(const std::string& dir, int lastAck) {
  ShardedOakCoreMap<> map(durableCfg(dir));
  for (int i = 0; i <= lastAck; ++i) {
    auto v = map.getCopy(bytes(padKey(i)));
    ASSERT_TRUE(v.has_value()) << "acknowledged write lost: " << padKey(i);
    EXPECT_EQ(*v, toVec(bytes(valueFor(i, kDrillValueTag))));
  }
  // Unacknowledged trailing puts may or may not have landed; anything
  // recovered beyond the ack horizon must still be a value the child wrote.
  const std::size_t n = map.sizeSlow();
  EXPECT_GE(n, static_cast<std::size_t>(lastAck + 1));
  EXPECT_TRUE(ChunkWalker<BytesComparator>::validate(map).ok);
  // Liveness: the recovered map takes new traffic.
  map.put(bytes(std::string("post-recovery")), bytes(std::string("ok")));
  EXPECT_TRUE(map.containsKey(bytes(std::string("post-recovery"))));
}

TEST(KillDrill, SigkillMidPutLosesNoAcknowledgedWrite) {
  TempDir dir;
  XorShift rng(chaosSeed());
  const int killAfter = 200 + static_cast<int>(rng.next() % 400);
  const int lastAck = runKillDrill(dir.str(), killAfter, false);
  ASSERT_GE(lastAck, 0);
  expectAckedWritesRecovered(dir.str(), lastAck);
}

TEST(KillDrill, SigkillMidCheckpointLosesNoAcknowledgedWrite) {
  TempDir dir;
  XorShift rng(chaosSeed() ^ 0x9e3779b97f4a7c15ull);
  // Land the kill window around the child's periodic checkpoints so some
  // runs die inside CheckpointWriter/manifest commit.
  const int killAfter = 256 + static_cast<int>(rng.next() % 512);
  const int lastAck = runKillDrill(dir.str(), killAfter, true);
  ASSERT_GE(lastAck, 0);
  expectAckedWritesRecovered(dir.str(), lastAck);
}

// ================================================ kill-mid-compaction drill
//
// Same acknowledged-writes oracle, but the child interleaves its acked
// stream with churn waves that force real evacuations: each wave bulk-loads
// 300 ~700-byte churn values, removes 4/5 of them (carving whole arenas far
// below the occupancy threshold — steady-state removal alone never gets
// there, first-fit refills the holes), then runs compactNow() with slices
// actually moving.  The parent's kill lands at an arbitrary protocol depth —
// the pipe buffers acks, so the child routinely dies inside a later wave's
// compaction or checkpoint.  Relocations are never WAL-logged (DESIGN.md
// §13): recovery replays checkpoint + WAL only, so it must see each value at
// its pre- or post-move location, never a torn mix.
constexpr std::uint32_t kCompactedSentinel = 0xFFFFFFFFu;
constexpr int kStreamPerWave = 50;
constexpr int kChurnPerWave = 300;

std::string streamValue(int i) {
  return valueFor(i, 'm') + std::string(700, static_cast<char>('a' + i % 26));
}
std::string churnKey(int w, int j) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "c%03d-%04d", w, j);
  return buf;
}
std::string churnValue(int w, int j) {
  return valueFor(w * kChurnPerWave + j, 'n') +
         std::string(700, static_cast<char>('a' + (w + j) % 26));
}

[[noreturn]] void compactionDrillChild(const std::string& dir, int pipeFd) {
  mem::BlockPool pool({.blockBytes = 64u << 10, .budgetBytes = SIZE_MAX});
  // withMem() replaces the whole mem block, so it must come BEFORE
  // withStorageDir() (which records the directory inside MemConfig).
  auto cfg = OakConfig{}
                 .withChunkCapacity(64)
                 .withMem(MemConfig{}.withPool(&pool).withCompactionOccupancy(0.6))
                 .withStorageDir(dir)
                 .withDur(DurConfig{}.withFsyncPolicy(dur::FsyncPolicy::EveryCommit));
  ShardedOakCoreMap<> map(cfg);
  int stream = 0;
  for (int w = 0;; ++w) {
    for (int j = 0; j < kChurnPerWave; ++j) {
      map.put(bytes(churnKey(w, j)), bytes(churnValue(w, j)));
    }
    for (int j = 0; j < kChurnPerWave; ++j) {
      if (j % 5 != 0) map.remove(bytes(churnKey(w, j)));
    }
    // Drain dead versions so the removed values' slices hit the free list
    // and their arenas drop below the occupancy threshold.
    map.collectVersionsNow();
    map.quiesce();
    if (map.compactNow() > 0) {
      const std::uint32_t s = kCompactedSentinel;
      if (::write(pipeFd, &s, sizeof s) != static_cast<ssize_t>(sizeof s)) {
        _exit(3);
      }
    }
    if (w > 0 && w % 2 == 0) map.checkpointNow();
    for (int k = 0; k < kStreamPerWave; ++k, ++stream) {
      map.put(bytes(padKey(stream)), bytes(streamValue(stream)));
      const std::uint32_t id = static_cast<std::uint32_t>(stream);
      if (::write(pipeFd, &id, sizeof id) != static_cast<ssize_t>(sizeof id)) {
        _exit(3);
      }
    }
  }
}

TEST(KillDrill, SigkillMidCompactionRecoversPreOrPostMoveNeverTorn) {
  TempDir dir;
  XorShift rng(chaosSeed() ^ 0x5bf03635ull);
  // 3-8 churn waves (each one a full evacuation) before the kill lands.
  const int killAfter =
      3 * kStreamPerWave + static_cast<int>(rng.next() % (5 * kStreamPerWave));
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    compactionDrillChild(dir.str(), fds[1]);
  }
  ::close(fds[1]);
  int lastAck = -1;
  int compactions = 0;
  std::uint32_t id = 0;
  while (lastAck + 1 < killAfter &&
         ::read(fds[0], &id, sizeof id) == static_cast<ssize_t>(sizeof id)) {
    if (id == kCompactedSentinel) {
      ++compactions;
    } else {
      lastAck = static_cast<int>(id);
    }
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ::close(fds[0]);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  ASSERT_GE(lastAck, 0);
  EXPECT_GT(compactions, 0) << "no evacuation retired an arena before the "
                               "kill — the drill proved nothing";

  ShardedOakCoreMap<> map(durableCfg(dir.str()));
  // Acknowledged stream keys are never removed: each must survive bit-exact,
  // whichever arena its slice sat in when checkpoint or replay saw it.
  for (int i = 0; i <= lastAck; ++i) {
    auto v = map.getCopy(bytes(padKey(i)));
    ASSERT_TRUE(v.has_value()) << "acknowledged write lost: " << padKey(i);
    EXPECT_EQ(*v, toVec(bytes(streamValue(i)))) << padKey(i);
  }
  // Wave w's churn (and removes) are fully on disk before stream key
  // 50*w is put, so an ack at or past that id confirms the whole wave.
  const int confirmedWaves = lastAck / kStreamPerWave + 1;
  for (int w = 0; w < confirmedWaves + 2; ++w) {
    const bool confirmed = w < confirmedWaves;
    for (int j = 0; j < kChurnPerWave; ++j) {
      auto v = map.getCopy(bytes(churnKey(w, j)));
      if (confirmed && j % 5 == 0) {
        ASSERT_TRUE(v.has_value()) << "churn survivor lost: " << churnKey(w, j);
        EXPECT_EQ(*v, toVec(bytes(churnValue(w, j)))) << churnKey(w, j);
      } else if (confirmed) {
        EXPECT_FALSE(v.has_value()) << "removed key resurrected: " << churnKey(w, j);
      } else if (v.has_value()) {
        // Unconfirmed trailing wave: presence is seed-dependent, but any
        // recovered value must be exactly what the child wrote — never torn.
        EXPECT_EQ(*v, toVec(bytes(churnValue(w, j)))) << churnKey(w, j);
      }
    }
  }
  EXPECT_TRUE(ChunkWalker<BytesComparator>::validate(map).ok);
  map.put(bytes(std::string("post-recovery")), bytes(std::string("ok")));
  EXPECT_TRUE(map.containsKey(bytes(std::string("post-recovery"))));
}

}  // namespace
}  // namespace oak
