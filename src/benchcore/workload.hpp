// Benchmark configuration — the synchrobench-style methodology of §5.1.
//
// "The exercised key and value sizes are 100B and 1KB ... Every experiment
//  starts with an ingestion stage, which runs in a single thread and
//  populates the KV-map with 50% of the unique keys in the range using
//  putIfAbsent operations.  It is followed by the sustained-rate stage,
//  which runs the target workload for 30 seconds through one or more
//  symmetric worker threads."
//
// All sizes are scaled ~1000x down by default (this is a 1-core container;
// see EXPERIMENTS.md) and overridable through OAK_BENCH_* environment
// variables for a real multicore run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/env.hpp"
#include "common/random.hpp"

namespace oak::bench {

struct BenchConfig {
  std::size_t keyRange = 100'000;     ///< unique keys in the accessed range
  std::size_t keyBytes = 100;         ///< paper: 100 B
  std::size_t valueBytes = 1024;      ///< paper: 1 KB
  unsigned threads = 1;
  std::uint32_t durationMs = 300;     ///< paper: 30 s per point
  std::size_t scanLength = 1000;      ///< paper: 10 K pairs per scan
  std::uint32_t repeats = 1;          ///< medians over repeats (paper: 3)
  std::uint64_t seed = 42;
  std::size_t shards = 1;             ///< Oak range-partition count (--shards)

  /// Total RAM budget for the run; split between the managed heap and the
  /// off-heap pool per §5.1 ("allocating the former with just enough
  /// resources to host the raw data").
  std::size_t totalRamBytes = std::size_t{1} << 30;
  /// Off-heap arena headroom over raw data, in percent (see splitRam).
  /// Read-mostly workloads live fine on the default ~6%; delete/resize
  /// churn fragments the first-fit arenas and needs real slack.
  unsigned offHeapSlackPct = 6;
  /// Run Oak with ValueReclaim::Generational (recycled value headers).
  /// The paper's evaluated default keeps headers immortal, which is right
  /// for the ingest/read figures but leaks one header per remove — a
  /// delete-heavy mix must recycle them or the bench measures the leak.
  bool generationalValues = false;

  /// Background maintenance workers for the Oak adapter (0 runs rebalance
  /// inline on the mutators — the seed's behavior).
  unsigned maintThreads = 0;
  /// Maintenance rate limit in bytes/sec (0 = unthrottled) and queue depth.
  std::size_t maintRateLimitBytesPerSec = 0;
  std::size_t maintQueueDepth = 256;

  /// Arena block size for the off-heap pools.  The compaction scenario
  /// shrinks this: evacuation scores whole blocks, and at smoke scale an
  /// 8 MiB block never drops below the occupancy threshold.
  std::size_t blockBytes = 8u << 20;
  /// Run the Oak adapter with background arena evacuation enabled
  /// (MemConfig compaction knobs); the A leg of --scenario compaction
  /// leaves it off for the put-p99 baseline.
  bool compaction = false;
  double compactionOccupancy = 0.25;

  /// Non-empty → the Oak adapter runs durable: mmap-backed arenas under
  /// <storageDir>/arenas plus a WAL + checkpoints in <storageDir> (--storage-dir).
  std::string storageDir;
  /// WAL sync policy for durable runs: "never" | "interval" | "every-commit".
  std::string fsyncPolicy = "never";

  std::size_t rawDataBytes() const {
    return keyRange * (keyBytes + valueBytes);
  }
};

/// Operation mix of the sustained-rate stage (percentages sum to <= 100;
/// the remainder is gets).
struct Mix {
  unsigned putPct = 0;
  unsigned removePct = 0;
  unsigned computePct = 0;
  unsigned scanAscPct = 0;
  unsigned scanDescPct = 0;
  bool streamScans = false;
  /// Puts draw value sizes from [valueBytes/2, valueBytes*3/2] instead of a
  /// fixed size, so overwrites resize across size-class boundaries — the
  /// allocator-churn workload the magazine layer exists for.
  bool valueJitter = false;
  /// Zipfian skew for key selection (0 = uniform).  theta ~0.99 is the YCSB
  /// default; ranks map to ids identically, so the heat concentrates at the
  /// low end of the key range (one hot shard under range partitioning).
  double zipfTheta = 0;
  /// Ascending scans pin an MVCC snapshot and walk the frozen world
  /// (ScanOptions::snapshot()); the driver times each such scan and reports
  /// p50/p99 in the METRICS line.  The snapshot-churn scenario's knob.
  bool snapshotScans = false;
};

/// YCSB-style Zipfian id generator over [0, n).  Rank r is drawn with
/// probability proportional to 1/(r+1)^theta and mapped to id r directly —
/// the skew therefore lands on the numerically smallest keys, which under
/// range sharding makes shard 0 hot (exactly the case online split exists
/// for).  The zeta sum is precomputed once per generator; construction is
/// O(n) and done per worker before the timed stage starts.
class ZipfGenerator {
 public:
  // The Gray et al. rejection-free formulation below needs 0 <= theta < 1
  // (alpha = 1/(1-theta)); --zipf-theta is user input, so clamp instead of
  // dividing by zero and casting inf to uint64_t (UB) in next().
  ZipfGenerator(std::size_t n, double theta)
      : n_(n), theta_(std::clamp(theta, 0.0, kMaxTheta)) {
    double zetan = 0, zeta2 = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      const double z = 1.0 / std::pow(static_cast<double>(i + 1), theta_);
      zetan += z;
      if (i < 2) zeta2 += z;
    }
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  std::uint64_t next(XorShift& rng) const {
    const double u = rng.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r >= n_ ? n_ - 1 : r;
  }

 private:
  static constexpr double kMaxTheta = 0.9999;

  std::size_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

// ---------------------------------------------------------- env knobs
// Thin wrappers over oak::env (the single getenv gateway) with the
// bench-friendly signatures the figure runners use.
inline std::size_t envSize(const char* name, std::size_t def) {
  return static_cast<std::size_t>(env::u64(name, def));
}

inline std::vector<unsigned> envThreadList(const char* name,
                                           std::vector<unsigned> def) {
  const char* v = env::raw(name);
  if (v == nullptr) return def;
  std::vector<unsigned> out;
  std::string s(v);
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t sp = s.find(' ', pos);
    const std::string tok = s.substr(pos, sp == std::string::npos ? sp : sp - pos);
    if (!tok.empty()) out.push_back(static_cast<unsigned>(std::stoul(tok)));
    if (sp == std::string::npos) break;
    pos = sp + 1;
  }
  return out.empty() ? def : out;
}

/// Standard scaled defaults shared by the Figure-4 benches.
inline BenchConfig standardConfig() {
  BenchConfig cfg;
  cfg.keyRange = envSize("OAK_BENCH_SIZE", 100'000);
  cfg.durationMs = static_cast<std::uint32_t>(envSize("OAK_BENCH_DURATION_MS", 300));
  cfg.scanLength = envSize("OAK_BENCH_SCAN_LEN", 1000);
  cfg.repeats = static_cast<std::uint32_t>(envSize("OAK_BENCH_REPEATS", 1));
  cfg.shards = envSize("OAK_BENCH_SHARDS", 1);
  // Paper Fig.4: 32 GB RAM for 11 GB raw data (~3x) — same ratio here.
  cfg.totalRamBytes = cfg.rawDataBytes() * 3;
  return cfg;
}

inline std::vector<unsigned> standardThreads() {
  return envThreadList("OAK_BENCH_THREADS", {1, 2, 4, 8});
}

/// Deterministic 100-byte key: big-endian id (sortable) + fixed padding.
inline void makeKey(MutByteSpan out, std::uint64_t id) {
  storeU64BE(out.data(), id);
  for (std::size_t i = 8; i < out.size(); ++i) out[i] = std::byte{0x2e};
}

}  // namespace oak::bench
