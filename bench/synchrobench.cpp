// synchrobench — a CLI reproducing the paper's artifact runner (Appendix A).
//
// The original artifact drives all experiments through a synchrobench fork:
// scenarios like `-a 0 -u 100` (put-only) or `--buffer -c -a 100`
// (zero-copy descending scans), competitors OakMap / JavaSkipListMap /
// OffHeapList, and a summary.csv with the columns
//
//   Scenario | Bench | Heap size | Direct Mem | #Threads | Final Size | Throughput
//
// This binary accepts the same vocabulary (plus explicit memory knobs) and
// prints that table; `--csv FILE` also appends machine-readable rows.
//
//   ./synchrobench -b OakMap -t "1 4 8" -u 5 --buffer -d 2000 -i 100000
//   ./synchrobench --scenario 4f   # canned paper scenarios: 4a..4f
//
// With no arguments it runs a quick sweep of all canned scenarios over all
// competitors.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchcore/adapters.hpp"
#include "benchcore/driver.hpp"

using namespace oak::bench;

namespace {

struct Options {
  std::vector<std::string> benches{"OakMap", "JavaSkipListMap", "OffHeapList"};
  std::vector<unsigned> threads{1, 2, 4, 8};
  std::size_t size = 100'000;
  std::size_t keySize = 100;
  std::size_t valueSize = 1024;
  unsigned updatePct = 0;    // -u : put percentage
  unsigned removePct = 0;    // -r : remove percentage
  unsigned computePct = 0;   // -c with -s: in-place updates
  unsigned scanPct = 0;      // -s : scan percentage
  bool valueJitter = false;  // --churn: puts draw jittered value sizes
  double zipfTheta = 0;      // --zipf: skewed key choice (0 = uniform)
  bool snapshotScans = false;  // snapshot-churn: scans pin an MVCC version
  unsigned maintThreads = 0;  // --maint-threads: background rebalance workers
  unsigned offHeapSlackPct = 6;  // arena headroom over raw data
  bool generationalValues = false;  // recycle value headers (churn preset)
  bool descending = false;   // -a 100 with scans
  bool zeroCopy = false;     // --buffer
  bool stream = false;       // --stream-iteration
  std::uint32_t durationMs = 300;  // -d
  std::size_t scanLength = 1000;
  std::size_t ramMb = 0;     // 0 = auto (3x raw)
  std::vector<std::size_t> shards{1};  // --shards: Oak range-partition sweep
  std::string scenario = "custom";
  std::string csvPath;
  std::string storageDir;    // --storage-dir: Oak runs durable (WAL + mmap)
  std::string fsyncPolicy = "never";  // --fsync: never | interval | every-commit
};

void usage() {
  std::puts(
      "synchrobench (Oak-C++ artifact runner)\n"
      "  -b  <list>   benches: OakMap JavaSkipListMap OffHeapList (quoted list)\n"
      "  -t  <list>   thread counts, e.g. \"1 4 8\"\n"
      "  -i  <n>      key range (warm-up fills 50%)\n"
      "  -k/-v <n>    key/value size in bytes (default 100/1024)\n"
      "  -u  <pct>    put percentage (rest are gets)\n"
      "  -r  <pct>    remove percentage\n"
      "  -s  <pct>    scan percentage\n"
      "  -c           make -s scans in-place computes instead\n"
      "  -a  <pct>    with -s: percentage of scans that run descending\n"
      "  -d  <ms>     duration per point\n"
      "  -L  <n>      scan length (default 1000)\n"
      "  -m  <MiB>    total RAM budget (default 3x raw data)\n"
      "  --shards <list>      Oak shard counts to sweep, e.g. \"1 4 8\" (default 1)\n"
      "  --buffer             use the zero-copy API\n"
      "  --stream-iteration   use the Stream scan API\n"
      "  --churn              delete/resize churn preset (50%% put w/ jittered\n"
      "                       values, 30%% remove, 20%% get) — the magazine\n"
      "                       allocator's target workload\n"
      "  --no-magazines       pre-PR first-fit slow path (A/B baseline)\n"
      "  --zipf <theta>       zipfian key skew (YCSB formula; 0.99 typical)\n"
      "  --maint-threads <n>  background maintenance workers for Oak\n"
      "                       (0 = inline rebalance on mutators, the default)\n"
      "  --scenario <4a..4f|churn|zipf|snapshot-churn|recovery|compaction>\n"
      "                       canned scenario\n"
      "  --no-snapshot-scans  snapshot-churn baseline: same mix, scans\n"
      "                       don't pin a version (A/B for the p99 gate)\n"
      "  --storage-dir <dir>  Oak runs durable: mmap arenas + WAL + checkpoints\n"
      "                       under <dir> (wiped per point; sweeps reuse it)\n"
      "  --fsync <policy>     WAL sync for durable runs: never (default),\n"
      "                       interval, every-commit\n"
      "  --csv <file>         append rows as CSV\n"
      "\n"
      "  --scenario recovery runs the durability A/B instead of a mix sweep:\n"
      "  in-memory vs WAL-on put latency, then checkpoint + tail + in-process\n"
      "  reopen, emitting one machine-readable RECOVERY line (bench_smoke's\n"
      "  cold-restart and put-p99 gates read it).\n"
      "\n"
      "  --scenario compaction runs the relocation A/B: wave-shaped churn\n"
      "  carves sparse arenas, then the same timed put stage runs with and\n"
      "  without a continuous relocator, emitting one COMPACTION line\n"
      "  (bench_smoke gates the put p99 ratio and the arena reclaim).\n");
}

void applyScenario(Options& o) {
  // The artifact's scenario strings (Appendix A.7).
  if (o.scenario == "4a") {            // "-a 0 -u 100"
    o.updatePct = 100;
  } else if (o.scenario == "4b") {     // "--buffer -u 0 -s 100 -c"
    o.zeroCopy = true;
    o.scanPct = 100;
    o.computePct = 100;
  } else if (o.scenario == "4c") {     // "--buffer" (gets) — zc vs copy is -b
    o.zeroCopy = true;
  } else if (o.scenario == "4c-copy") {
    o.zeroCopy = false;
  } else if (o.scenario == "4d") {     // "--buffer -a 0 -u 5"
    o.zeroCopy = true;
    o.updatePct = 5;
  } else if (o.scenario == "4e") {     // "--buffer -c" (ascending entry scan)
    o.zeroCopy = true;
    o.scanPct = 100;
  } else if (o.scenario == "4e-stream") {
    o.zeroCopy = true;
    o.scanPct = 100;
    o.stream = true;
  } else if (o.scenario == "4f") {     // "--buffer -c -a 100" (descending)
    o.zeroCopy = true;
    o.scanPct = 100;
    o.descending = true;
  } else if (o.scenario == "4f-stream") {
    o.zeroCopy = true;
    o.scanPct = 100;
    o.descending = true;
    o.stream = true;
  } else if (o.scenario == "churn") {
    // Delete/resize churn: every put overwrites with a jittered value size
    // (resize -> free + alloc) and removes keep the free path hot.  This is
    // the workload whose recycled-slice traffic the size-class magazines
    // absorb; compare with --no-magazines for the first-fit baseline.
    o.zeroCopy = true;
    o.updatePct = 50;
    o.removePct = 30;
    o.valueJitter = true;
    // Deletes and resizes fragment the first-fit arenas; give the off-heap
    // pool real headroom so the gate measures recycling, not OOM churn.
    o.offHeapSlackPct = 50;
    // Removes dominate this mix; immortal headers (the paper's evaluated
    // default) would leak one slice per remove and drown the measurement.
    o.generationalValues = true;
  } else if (o.scenario == "zipf") {
    // Skewed put-heavy mix for the maintenance A/B: zipfian key choice
    // concentrates writes on the low end of the range, so rebalance (and,
    // when sharded, split/merge) pressure lands on a few hot chunks.  The
    // remove leg matters — pure overwrites reuse the sorted prefix and
    // stop triggering rebalances once the range is populated; remove +
    // reinsert keeps every hot chunk accumulating unsorted entries, which
    // is exactly the work the background pool exists to absorb.  Compare
    // --maint-threads 0 (inline, the seed's behavior) against N > 0 and
    // watch the put p99 in the METRICS line.
    o.zeroCopy = true;
    o.updatePct = 40;
    o.removePct = 20;
    o.zipfTheta = 0.99;
    o.offHeapSlackPct = 50;
    o.generationalValues = true;
  } else if (o.scenario == "snapshot-churn") {
    // Long snapshot scans racing zipfian writers (ISSUE 8).  Each scan pins
    // an MVCC read version for its whole walk, so every overwrite of a
    // scanned key chains the superseded value until version GC catches up —
    // the worst case for both the write path (chain pushes) and the arena
    // (retained versions).  The METRICS line carries the writer's put p99
    // and the whole-scan p50/p99; bench_smoke gates the put p99 against a
    // --no-snapshot-scans baseline of the same mix.
    o.zeroCopy = true;
    o.updatePct = 40;
    o.removePct = 10;
    o.scanPct = 10;
    o.zipfTheta = 0.99;
    o.snapshotScans = true;
    // Retained version chains live in the same arena as the data; give
    // them real headroom on top of the churn slack.
    o.offHeapSlackPct = 75;
    o.generationalValues = true;
  }
}

Mix mixFor(const Options& o) {
  Mix m;
  m.putPct = o.updatePct;
  m.removePct = o.removePct;
  if (o.scanPct > 0 && o.computePct > 0) {
    m.computePct = o.computePct;  // "-s 100 -c": in-place updates
  } else if (o.scanPct > 0) {
    (o.descending ? m.scanDescPct : m.scanAscPct) = o.scanPct;
  }
  m.streamScans = o.stream;
  m.valueJitter = o.valueJitter;
  m.zipfTheta = o.zipfTheta;
  m.snapshotScans = o.snapshotScans;
  return m;
}

template <class Adapter, class... Args>
void runBench(const Options& o, const std::string& bench,
              const std::vector<std::size_t>& shards, Args&&... args) {
  std::ofstream csv;
  if (!o.csvPath.empty()) csv.open(o.csvPath, std::ios::app);
  for (std::size_t sh : shards) {
    for (unsigned t : o.threads) {
      BenchConfig cfg;
      cfg.keyRange = o.size;
      cfg.keyBytes = o.keySize;
      cfg.valueBytes = o.valueSize;
      cfg.threads = t;
      cfg.durationMs = o.durationMs;
      cfg.scanLength = o.scanLength;
      cfg.shards = sh;
      cfg.offHeapSlackPct = o.offHeapSlackPct;
      cfg.generationalValues = o.generationalValues;
      cfg.maintThreads = o.maintThreads;
      cfg.totalRamBytes = o.ramMb != 0 ? (o.ramMb << 20) : cfg.rawDataBytes() * 3;
      if (!o.storageDir.empty() && bench == "OakMap") {
        // Each point gets a fresh subtree so a sweep never recovers the
        // previous point's data (repeats inside one point still share it —
        // use repeats 1 for clean durable numbers).
        cfg.storageDir = o.storageDir + "/" + bench + "-x" + std::to_string(sh) +
                         "-t" + std::to_string(t);
        std::error_code ec;
        std::filesystem::remove_all(cfg.storageDir, ec);
        cfg.fsyncPolicy = o.fsyncPolicy;
      }
      const RamSplit split = splitRam(cfg, bench != "JavaSkipListMap");
      std::string label = bench;
      if (sh > 1) label += "-x" + std::to_string(sh);
      const PointResult r =
          runPoint<Adapter>(cfg, mixFor(o), std::forward<Args>(args)...);
      // The artifact's summary.csv layout.
      std::printf("%-14s %-18s %8zum %8zum %9u %12zu %14.6f\n", o.scenario.c_str(),
                  label.c_str(), split.heapBytes >> 20, split.offHeapBytes >> 20, t,
                  r.finalSize, r.kops / 1e3 /* Mops, like the artifact */);
      printMetricsLine(label.c_str(), static_cast<double>(t), r);
      std::fflush(stdout);
      if (csv.is_open()) {
        csv << o.scenario << ',' << label << ',' << (split.heapBytes >> 20)
            << "m," << (split.offHeapBytes >> 20) << "m," << t << ','
            << r.finalSize << ',' << r.kops / 1e3 << '\n';
      }
    }
  }
}

void runAll(const Options& o) {
  std::printf("%-14s %-18s %9s %9s %9s %12s %14s\n", "Scenario", "Bench",
              "Heap", "DirectMem", "#Threads", "Final Size", "Mops/sec");
  const std::vector<std::size_t> one{1};
  for (const std::string& b : o.benches) {
    if (b == "OakMap") {
      // Only Oak understands sharding; the baselines run once.
      runBench<OakAdapter>(o, b, o.shards, /*copyApi=*/!o.zeroCopy);
    } else if (b == "JavaSkipListMap") {
      runBench<OnHeapAdapter>(o, b, one);
    } else if (b == "OffHeapList") {
      runBench<OffHeapAdapter>(o, b, one);
    } else {
      std::fprintf(stderr, "unknown bench: %s\n", b.c_str());
    }
  }
}

// ------------------------------------------------- recovery scenario
// Durability A/B + cold-restart measurement (ISSUE 9).  Not a mix sweep:
// one in-memory leg for the baseline put latency, then a durable leg that
// ingests the full range, checkpoints, writes a WAL tail (the same timed
// put stage that yields the with-WAL latency), closes the map, and times
// an in-process reopen.  Emits one RECOVERY line; bench_smoke gates
// put-p99-with-WAL against the baseline and the reopen against re-ingest.

struct PutLat {
  double p50Ns = 0;
  double p99Ns = 0;
  std::uint64_t ops = 0;
};

/// cfg.threads workers, `total` overwrite puts of random in-range keys,
/// every op latency sampled (these are exact percentiles, unlike the
/// bucketed histogram in the METRICS line — the A/B gate wants the two
/// legs measured identically and precisely).
PutLat timedPutStage(OakAdapter& a, const BenchConfig& cfg, std::size_t total) {
  const unsigned nThreads = cfg.threads == 0 ? 1 : cfg.threads;
  const std::size_t perThread = (total + nThreads - 1) / nThreads;
  std::vector<std::vector<double>> ns(nThreads);
  std::atomic<bool> start{false};
  auto worker = [&](unsigned t) {
    oak::XorShift rng(cfg.seed * 31337 + t * 7919 + 13);
    std::vector<std::byte> key(cfg.keyBytes);
    std::vector<std::byte> value(cfg.valueBytes < 8 ? 8 : cfg.valueBytes,
                                 std::byte{0x33});
    ns[t].reserve(perThread);
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::size_t i = 0; i < perThread; ++i) {
      const std::uint64_t id = rng.nextBounded(cfg.keyRange);
      makeKey({key.data(), key.size()}, id);
      oak::storeUnaligned<std::uint64_t>(value.data(), id);
      const auto t0 = std::chrono::steady_clock::now();
      a.put({key.data(), key.size()}, {value.data(), value.size()});
      ns[t].push_back(std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(nThreads);
  for (unsigned t = 0; t < nThreads; ++t) threads.emplace_back(worker, t);
  start.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  std::vector<double> all;
  for (auto& v : ns) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  PutLat r;
  r.ops = all.size();
  if (!all.empty()) {
    r.p50Ns = all[all.size() / 2];
    r.p99Ns = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return r;
}

int runRecovery(const Options& o) {
  namespace fs = std::filesystem;
  using Clock = std::chrono::steady_clock;
  auto msSince = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };

  BenchConfig cfg;
  cfg.keyRange = o.size;
  cfg.keyBytes = o.keySize;
  cfg.valueBytes = o.valueSize;
  cfg.threads = o.threads.empty() ? 1 : o.threads.front();
  cfg.shards = o.shards.empty() ? 1 : o.shards.front();
  // Checkpoints retain a pinned snapshot while overwrites keep landing, so
  // the arena briefly holds both versions of the hottest values.
  cfg.offHeapSlackPct = o.offHeapSlackPct < 50 ? 50 : o.offHeapSlackPct;
  cfg.generationalValues = true;
  cfg.maintThreads = o.maintThreads;
  // Auto budget: 3x raw, floored so the heap share (splitRam keeps >= 1/8
  // for metadata) still fits the GC's committed headroom at small -i.
  cfg.totalRamBytes = o.ramMb != 0
                          ? (o.ramMb << 20)
                          : std::max(cfg.rawDataBytes() * 3,
                                     std::size_t{256} << 20);

  const std::size_t pairs = cfg.keyRange;
  // The WAL tail doubles as the timed put stage; keep it a strict subset of
  // the range so recovery provably replays less than it bulk-loads.
  std::size_t tail = envSize("OAK_BENCH_RECOVERY_TAIL", pairs / 20);
  if (tail < 1000) tail = 1000;
  if (tail >= pairs) tail = pairs / 2 + 1;

  std::string dir = o.storageDir;
  if (dir.empty()) {
    dir = (fs::temp_directory_path() / "oak-synchrobench-recovery").string();
  }
  std::error_code ec;
  fs::remove_all(dir, ec);

  std::printf("recovery bench: %zu pairs (%zuB keys, %zuB values), "
              "%u threads, %zu shard(s), fsync=%s, dir=%s\n",
              pairs, cfg.keyBytes, cfg.valueBytes, cfg.threads, cfg.shards,
              o.fsyncPolicy.c_str(), dir.c_str());

  // ---- leg 1: in-memory baseline put latency
  PutLat base;
  double memIngestKops = 0;
  {
    OakAdapter a(cfg);
    OomKind kind = OomKind::None;
    if (!ingestStage(a, cfg, pairs, &memIngestKops, &kind)) {
      std::fprintf(stderr, "recovery bench: baseline ingest OOM (%s)\n",
                   oomKindName(kind));
      return 1;
    }
    base = timedPutStage(a, cfg, tail);
  }
  std::printf("recovery bench: baseline ingest %.1f Kops, put p50 %.0fns p99 %.0fns\n",
              memIngestKops, base.p50Ns, base.p99Ns);

  // ---- leg 2: durable — ingest, checkpoint, WAL tail, close
  BenchConfig dcfg = cfg;
  dcfg.storageDir = dir;
  dcfg.fsyncPolicy = o.fsyncPolicy;
  double ingestKops = 0, ingestMs = 0, checkpointMs = 0, closeMs = 0;
  std::uint64_t cpPairs = 0, walAppends = 0, walBytes = 0, checkpoints = 0;
  PutLat wal;
  std::size_t verrors = 0;
  {
    auto a = std::make_unique<OakAdapter>(dcfg);
    auto t0 = Clock::now();
    OomKind kind = OomKind::None;
    if (!ingestStage(*a, dcfg, pairs, &ingestKops, &kind)) {
      std::fprintf(stderr, "recovery bench: durable ingest OOM (%s)\n",
                   oomKindName(kind));
      return 1;
    }
    ingestMs = msSince(t0);
    t0 = Clock::now();
    cpPairs = a->checkpointNow();
    checkpointMs = msSince(t0);
    wal = timedPutStage(*a, dcfg, tail);
    a->syncWal();
    const oak::obs::Metrics m = a->metrics();
    walAppends = m.walAppends;
    walBytes = m.walBytes;
    checkpoints = m.checkpoints;
    if (validationEnabled()) verrors += a->validateStructure();
    t0 = Clock::now();
    a.reset();  // destructor unmaps the arenas and closes the WAL fd
    closeMs = msSince(t0);
  }
  std::printf("recovery bench: durable ingest %.1f Kops (%.0fms), checkpoint "
              "%llu pairs in %.0fms, tail %llu puts p50 %.0fns p99 %.0fns\n",
              ingestKops, ingestMs,
              static_cast<unsigned long long>(cpPairs), checkpointMs,
              static_cast<unsigned long long>(wal.ops), wal.p50Ns, wal.p99Ns);

  // ---- leg 3: cold restart — reopen the same directory in-process
  double reopenMs = 0;
  std::uint64_t replayed = 0, recoveryMs = 0;
  std::size_t finalSize = 0;
  {
    const auto t0 = Clock::now();
    OakAdapter a(dcfg);
    reopenMs = msSince(t0);
    replayed = a.recoveryReplayedRecords();
    recoveryMs = a.recoveryMillis();
    finalSize = a.finalSize();
    if (validationEnabled()) verrors += a.validateStructure();
  }
  const double ratio = base.p99Ns > 0 ? wal.p99Ns / base.p99Ns : 0;
  std::printf("recovery bench: reopen %.0fms (recovery %llums, %llu WAL "
              "records replayed), final size %zu, p99 ratio %.3f\n",
              reopenMs, static_cast<unsigned long long>(recoveryMs),
              static_cast<unsigned long long>(replayed), finalSize, ratio);

  std::printf(
      "RECOVERY {\"pairs\":%zu,\"tail_puts\":%llu,\"threads\":%u,"
      "\"shards\":%zu,\"value_bytes\":%zu,\"fsync\":\"%s\","
      "\"base_ingest_kops\":%.1f,\"base_put_p50_ns\":%.0f,"
      "\"base_put_p99_ns\":%.0f,"
      "\"wal_ingest_kops\":%.1f,\"wal_ingest_ms\":%.0f,"
      "\"wal_put_p50_ns\":%.0f,\"wal_put_p99_ns\":%.0f,"
      "\"put_p99_ratio\":%.4f,"
      "\"checkpoint_pairs\":%llu,\"checkpoint_ms\":%.0f,"
      "\"checkpoints\":%llu,\"wal_appends\":%llu,\"wal_bytes\":%llu,"
      "\"close_ms\":%.0f,\"reopen_ms\":%.0f,\"recovery_ms\":%llu,"
      "\"replayed_records\":%llu,\"final_size\":%zu,"
      "\"validation_errors\":%zu}\n",
      pairs, static_cast<unsigned long long>(wal.ops), cfg.threads, cfg.shards,
      cfg.valueBytes, o.fsyncPolicy.c_str(), memIngestKops, base.p50Ns,
      base.p99Ns, ingestKops, ingestMs, wal.p50Ns, wal.p99Ns, ratio,
      static_cast<unsigned long long>(cpPairs), checkpointMs,
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(walAppends),
      static_cast<unsigned long long>(walBytes), closeMs, reopenMs,
      static_cast<unsigned long long>(recoveryMs),
      static_cast<unsigned long long>(replayed), finalSize, verrors);
  std::fflush(stdout);
  return verrors == 0 ? 0 : 1;
}

// ------------------------------------------------- compaction scenario
// Relocation A/B (DESIGN.md §13).  Not a mix sweep: both legs run the same
// wave-shaped churn — bulk put the whole range with jittered sizes, bulk
// remove 4/5.  That is the shape that actually carves arenas below the
// occupancy threshold; steady interleaved churn never does, because
// first-fit refills the holes as fast as removes open them.  The final
// wave's puts are latency-sampled (exact percentiles, like the recovery
// A/B).  Leg A runs with relocation off — the put baseline and the
// no-evacuation arena high-water mark.  Leg B runs the identical workload
// with background compaction enabled, so the sampled puts race the
// evacuation passes the earlier waves' garbage triggers; afterwards it
// settles with explicit compactNow() rounds and reports the reclaimed
// arena count.  Emits one COMPACTION line; bench_smoke gates the put p99
// ratio and that evacuation really moved slices and retired arenas.

struct CompactionLeg {
  PutLat put;                           ///< sampled steady-state churn
  std::uint64_t arenaBlocksAfter = 0;   ///< after settling
  std::uint64_t footprintAfter = 0;
  std::size_t retired = 0;              ///< arenas retired by compactNow
  std::uint64_t evacRuns = 0;
  std::uint64_t arenasEvacuated = 0;
  std::uint64_t slicesRelocated = 0;
  std::uint64_t bytesRelocated = 0;
  std::size_t verrors = 0;
};

// One leg's full lifecycle: ingest, churn waves, sampled stage reps,
// settle.  Both legs are constructed up-front and their sampled reps
// interleave A/B/A/B so host-load drift lands on both alike — the
// sequential design (all of A, then all of B, seconds apart) showed 2x
// ratio swings that were nothing but the box changing gear between legs.
class CompactionRun {
 public:
  CompactionRun(const BenchConfig& cfg, int waves)
      : cfg_(cfg),
        waves_(waves),
        a_(cfg),
        key_(cfg.keyBytes),
        jitterStep_(cfg.valueBytes / 8 < 8 ? 8 : cfg.valueBytes / 8),
        value_(cfg.valueBytes / 2 + 8 * jitterStep_, std::byte{0x44}),
        rng_(cfg.seed * 104729 + 17) {}

  CompactionLeg leg;

  // Ingest + churn waves: every id gets a fresh jittered-size value
  // (resize = free + alloc), then 4/5 of the range is bulk-removed.  The
  // version-GC drain matters: removed values stay live in their chains
  // until collected, and slices the collector hasn't freed don't count
  // against occupancy.
  bool prepare() {
    double ingestKops = 0;
    OomKind kind = OomKind::None;
    if (!ingestStage(a_, cfg_, cfg_.keyRange / 2, &ingestKops, &kind)) {
      std::fprintf(stderr, "compaction bench: ingest OOM (%s)\n",
                   oomKindName(kind));
      leg.verrors = 1;
      return false;
    }
    for (int w = 0; w < waves_; ++w) {
      for (std::uint64_t id = 0; id < cfg_.keyRange; ++id) {
        makeKey({key_.data(), key_.size()}, id);
        std::size_t vlen =
            cfg_.valueBytes / 2 + jitterStep_ * rng_.nextBounded(9);
        if (vlen < 8) vlen = 8;
        oak::storeUnaligned<std::uint64_t>(value_.data(), id);
        a_.put({key_.data(), key_.size()}, {value_.data(), vlen});
      }
      for (std::uint64_t id = 0; id < cfg_.keyRange; ++id) {
        if ((id + static_cast<std::uint64_t>(w)) % 5 == 0) continue;
        makeKey({key_.data(), key_.size()}, id);
        a_.remove({key_.data(), key_.size()});
      }
      drain(true);
    }
    return true;
  }

  // Sampled stage: steady-state churn (put/remove/get, jittered sizes) on
  // cfg.threads mutators with the relocator still armed.  Steady churn
  // keeps arenas dense — first-fit refills holes as fast as removes open
  // them — so the armed trigger mostly declines after its occupancy probe
  // and only occasionally finds a real victim; the sampled puts measure
  // that product steady state, against leg A's identical mix on a
  // fragmented, never-compacted map.  The first quarter of each worker's
  // ops is warm-up: evacuation flushed the size-class magazines, and the
  // refill transient is not the cost the gate is after.
  PutLat stageRep(int rep) {
    PutLat put;
    const unsigned nThreads = cfg_.threads == 0 ? 1 : cfg_.threads;
    const std::uint64_t opsPerThread = 4 * cfg_.keyRange / nThreads;
    std::vector<std::vector<double>> ns(nThreads);
    std::atomic<bool> start{false};
    auto mutator = [&](unsigned t) {
      oak::XorShift trng(cfg_.seed * 7919 + t * 104729 +
                         static_cast<std::uint64_t>(rep) * 15485863 + 31);
      std::vector<std::byte> tkey(cfg_.keyBytes);
      std::vector<std::byte> tvalue(value_.size(), std::byte{0x44});
      ns[t].reserve(opsPerThread / 2);
      const std::uint64_t warm = opsPerThread / 4;
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < opsPerThread; ++i) {
        const std::uint64_t id = trng.nextBounded(cfg_.keyRange);
        makeKey({tkey.data(), tkey.size()}, id);
        const oak::ByteSpan k{tkey.data(), tkey.size()};
        const auto pct = trng.nextBounded(100);
        if (pct < 50) {
          std::size_t vlen =
              cfg_.valueBytes / 2 + jitterStep_ * trng.nextBounded(9);
          if (vlen < 8) vlen = 8;
          oak::storeUnaligned<std::uint64_t>(tvalue.data(), id);
          if (i >= warm) {
            const auto t0 = std::chrono::steady_clock::now();
            a_.put(k, {tvalue.data(), vlen});
            ns[t].push_back(std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
          } else {
            a_.put(k, {tvalue.data(), vlen});
          }
        } else if (pct < 80) {
          a_.remove(k);
        } else {
          Blackhole bh;
          a_.get(k, bh);
        }
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(nThreads);
    for (unsigned t = 0; t < nThreads; ++t) threads.emplace_back(mutator, t);
    start.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    std::vector<double> sampleNs;
    for (auto& v : ns) sampleNs.insert(sampleNs.end(), v.begin(), v.end());
    std::sort(sampleNs.begin(), sampleNs.end());
    put.ops = sampleNs.size();
    if (!sampleNs.empty()) {
      put.p50Ns = sampleNs[sampleNs.size() / 2];
      put.p99Ns =
          sampleNs[std::min(sampleNs.size() - 1, sampleNs.size() * 99 / 100)];
    }
    drain(true);
    return put;
  }

  // Leg B catches up at quiescent points — the off-hot-path slot the
  // background service targets.  The bulk of the relocation work happens
  // here, between waves and stage reps, exactly as deployed: evacuation
  // fires when occupancy probes find whole arenas of slack, not raced
  // head-to-head against every put.
  void drain(bool catchUp) {
    a_.collectVersionsNow();
    a_.quiesce();
    if (catchUp && cfg_.compaction) {
      for (int r = 0; r < 2; ++r) leg.retired += a_.compactNow();
    }
  }

  void settleAndSnapshot() {
    if (cfg_.compaction) {
      // Settle: quiescent relocation passes so the final footprint is
      // deterministic (the background trigger is amortized and may not
      // have caught the last rep's garbage yet).
      for (int r = 0; r < 4; ++r) leg.retired += a_.compactNow();
    }
    a_.quiesce();
    const oak::obs::Metrics m = a_.metrics();
    leg.arenaBlocksAfter = m.alloc.arenaBlocks;
    leg.footprintAfter = m.alloc.footprintBytes;
    leg.evacRuns = m.registry.counter(oak::obs::Counter::EvacuationRuns);
    leg.arenasEvacuated =
        m.registry.counter(oak::obs::Counter::ArenasEvacuated);
    leg.slicesRelocated =
        m.registry.counter(oak::obs::Counter::SlicesRelocated);
    leg.bytesRelocated = m.registry.counter(oak::obs::Counter::BytesRelocated);
    if (validationEnabled()) leg.verrors += a_.validateStructure();
  }

 private:
  BenchConfig cfg_;
  int waves_;
  OakAdapter a_;
  std::vector<std::byte> key_;
  std::size_t jitterStep_;
  std::vector<std::byte> value_;
  oak::XorShift rng_;
};

/// Median-p99 rep of a leg's stage measurements.
PutLat medianByP99(std::vector<PutLat> lats) {
  std::sort(lats.begin(), lats.end(),
            [](const PutLat& x, const PutLat& y) { return x.p99Ns < y.p99Ns; });
  return lats[lats.size() / 2];
}

int runCompaction(const Options& o) {
  BenchConfig cfg;
  cfg.keyRange = o.size;
  cfg.keyBytes = o.keySize;
  cfg.valueBytes = o.valueSize;
  cfg.threads = o.threads.empty() ? 2 : o.threads.front();
  cfg.shards = o.shards.empty() ? 1 : o.shards.front();
  cfg.maintThreads = o.maintThreads;
  cfg.generationalValues = true;
  // Pace background evacuation through the maintenance rate limiter (each
  // queued evacuation run declares 1 MiB): the gate certifies the armed,
  // paced relocator the product ships, not an unthrottled storm racing the
  // sampled wave.  Catch-up and settle passes call compactNow() directly
  // and stay unthrottled.
  cfg.maintRateLimitBytesPerSec = envSize("OAK_BENCH_COMPACTION_RATE", 1u << 20);
  // Evacuation scores whole blocks; 1 MiB arenas give it real granularity
  // at smoke scale (an 8 MiB block hosts the entire surviving live set and
  // never drops below the threshold).
  cfg.blockBytes = 1u << 20;
  cfg.compactionOccupancy = 0.6;
  // The wave high-water mark holds the full range live at once plus the
  // pre-remove copies; budget the pool for that, not the surviving 1/5.
  cfg.offHeapSlackPct = 150;
  cfg.totalRamBytes = std::max(cfg.rawDataBytes() * 4, std::size_t{256} << 20);

  const int waves = static_cast<int>(envSize("OAK_BENCH_COMPACTION_WAVES", 3));

  std::printf("compaction bench: %zu keys (%zuB keys, %zuB values), %d waves "
              "(last one latency-sampled), %zu shard(s), %zuKiB blocks\n",
              cfg.keyRange, cfg.keyBytes, cfg.valueBytes, waves, cfg.shards,
              cfg.blockBytes >> 10);

  // Leg A: relocation off — the put-latency baseline and the
  // no-evacuation arena high-water mark.  Leg B: identical churn with
  // background compaction on.  Both maps are prepared first, then the
  // sampled reps alternate A/B so a host-load shift hits both legs.
  BenchConfig base = cfg;
  base.compaction = false;
  BenchConfig on = cfg;
  on.compaction = true;
  CompactionRun runA(base, waves);
  CompactionRun runB(on, waves);
  double pairedRatio = 0;
  if (runA.prepare() && runB.prepare()) {
    const int reps =
        static_cast<int>(envSize("OAK_BENCH_COMPACTION_REPS", 5));
    std::vector<PutLat> latsA, latsB;
    std::vector<double> repRatios;
    for (int rep = 0; rep < reps; ++rep) {
      latsA.push_back(runA.stageRep(rep));
      latsB.push_back(runB.stageRep(rep));
      if (latsA.back().p99Ns > 0) {
        repRatios.push_back(latsB.back().p99Ns / latsA.back().p99Ns);
      }
    }
    runA.leg.put = medianByP99(std::move(latsA));
    runB.leg.put = medianByP99(std::move(latsB));
    if (!repRatios.empty()) {
      // Gate on the median of the per-rep ratios: each rep's A and B
      // stages run back-to-back, so a host-load shift cancels within the
      // pair instead of skewing one leg's whole median.
      std::sort(repRatios.begin(), repRatios.end());
      pairedRatio = repRatios[repRatios.size() / 2];
    }
    runA.settleAndSnapshot();
    runB.settleAndSnapshot();
  }
  const CompactionLeg& a = runA.leg;
  const CompactionLeg& b = runB.leg;
  std::printf("compaction bench: baseline put p50 %.0fns p99 %.0fns, "
              "%llu arena blocks after churn\n",
              a.put.p50Ns, a.put.p99Ns,
              static_cast<unsigned long long>(a.arenaBlocksAfter));
  const double ratio = pairedRatio;
  std::printf("compaction bench: relocating put p50 %.0fns p99 %.0fns "
              "(ratio %.3f), arenas %llu -> %llu, %zu retired in settle, "
              "%llu slices / %llu bytes moved\n",
              b.put.p50Ns, b.put.p99Ns, ratio,
              static_cast<unsigned long long>(a.arenaBlocksAfter),
              static_cast<unsigned long long>(b.arenaBlocksAfter), b.retired,
              static_cast<unsigned long long>(b.slicesRelocated),
              static_cast<unsigned long long>(b.bytesRelocated));

  std::printf(
      "COMPACTION {\"pairs\":%zu,\"waves\":%d,\"sampled_puts\":%llu,"
      "\"threads\":%u,\"shards\":%zu,\"value_bytes\":%zu,\"block_bytes\":%zu,"
      "\"base_put_p50_ns\":%.0f,\"base_put_p99_ns\":%.0f,"
      "\"base_arena_blocks\":%llu,\"base_footprint_bytes\":%llu,"
      "\"compact_put_p50_ns\":%.0f,\"compact_put_p99_ns\":%.0f,"
      "\"put_p99_ratio\":%.4f,"
      "\"arena_blocks_after\":%llu,\"footprint_after\":%llu,"
      "\"arenas_retired\":%zu,\"evacuation_runs\":%llu,"
      "\"arenas_evacuated\":%llu,\"slices_relocated\":%llu,"
      "\"bytes_relocated\":%llu,\"validation_errors\":%zu}\n",
      cfg.keyRange, waves, static_cast<unsigned long long>(b.put.ops),
      cfg.threads, cfg.shards, cfg.valueBytes, cfg.blockBytes,
      a.put.p50Ns, a.put.p99Ns,
      static_cast<unsigned long long>(a.arenaBlocksAfter),
      static_cast<unsigned long long>(a.footprintAfter),
      b.put.p50Ns, b.put.p99Ns, ratio,
      static_cast<unsigned long long>(b.arenaBlocksAfter),
      static_cast<unsigned long long>(b.footprintAfter),
      b.retired, static_cast<unsigned long long>(b.evacRuns),
      static_cast<unsigned long long>(b.arenasEvacuated),
      static_cast<unsigned long long>(b.slicesRelocated),
      static_cast<unsigned long long>(b.bytesRelocated),
      a.verrors + b.verrors);
  std::fflush(stdout);
  return a.verrors + b.verrors == 0 ? 0 : 1;
}

std::vector<std::string> splitList(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s;; ++p) {
    if (*p == ' ' || *p == '\0') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur += *p;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.size = envSize("OAK_BENCH_SIZE", o.size);
  o.durationMs = static_cast<std::uint32_t>(
      envSize("OAK_BENCH_DURATION_MS", o.durationMs));

  bool anyArg = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    anyArg = true;
    if (a == "-b") {
      o.benches = splitList(next());
    } else if (a == "-t") {
      o.threads.clear();
      for (auto& s : splitList(next())) {
        o.threads.push_back(static_cast<unsigned>(std::stoul(s)));
      }
    } else if (a == "-i") {
      o.size = std::stoull(next());
    } else if (a == "-k") {
      o.keySize = std::stoull(next());
    } else if (a == "-v") {
      o.valueSize = std::stoull(next());
    } else if (a == "-u") {
      o.updatePct = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "-r") {
      o.removePct = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "-s") {
      o.scanPct = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "-c") {
      o.computePct = 100;
    } else if (a == "-a") {
      o.descending = std::stoul(next()) >= 50;
    } else if (a == "-d") {
      o.durationMs = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (a == "-L") {
      o.scanLength = std::stoull(next());
    } else if (a == "-m") {
      o.ramMb = std::stoull(next());
    } else if (a == "--shards") {
      o.shards.clear();
      for (auto& s : splitList(next())) o.shards.push_back(std::stoull(s));
      if (o.shards.empty()) o.shards.push_back(1);
    } else if (a == "--buffer") {
      o.zeroCopy = true;
    } else if (a == "--stream-iteration") {
      o.stream = true;
    } else if (a == "--churn") {
      o.scenario = "churn";
      applyScenario(o);
    } else if (a == "--no-magazines") {
      oak::mem::FirstFitAllocator::setMagazinesDefaultEnabled(false);
    } else if (a == "--no-snapshot-scans") {
      o.snapshotScans = false;  // after --scenario snapshot-churn
    } else if (a == "--zipf") {
      o.zipfTheta = std::stod(next());
    } else if (a == "--maint-threads") {
      o.maintThreads = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "--scenario") {
      o.scenario = next();
      applyScenario(o);
    } else if (a == "--storage-dir") {
      o.storageDir = next();
    } else if (a == "--fsync") {
      o.fsyncPolicy = next();
    } else if (a == "--csv") {
      o.csvPath = next();
    } else if (a == "-h" || a == "--help") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage();
      return 2;
    }
  }

  if (o.scenario == "recovery") return runRecovery(o);
  if (o.scenario == "compaction") return runCompaction(o);

  if (!anyArg) {
    // Quick sweep of all canned scenarios (CI-friendly defaults).
    Options quick = o;
    quick.size = envSize("OAK_BENCH_SIZE", 20'000);
    quick.durationMs = static_cast<std::uint32_t>(
        envSize("OAK_BENCH_DURATION_MS", 120));
    quick.threads = envThreadList("OAK_BENCH_THREADS", {1, 4});
    for (const char* sc : {"4a", "4c", "4c-copy", "4d", "4e", "4e-stream",
                           "4f", "4f-stream"}) {
      Options run = quick;
      run.scenario = sc;
      applyScenario(run);
      runAll(run);
    }
    return 0;
  }
  runAll(o);
  return 0;
}
