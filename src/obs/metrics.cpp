#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace oak::obs {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

std::string Metrics::toJson() const {
  std::string j;
  j.reserve(1024);
  j += '{';
  appendf(j, "\"stats_compiled\":%s,", statsCompiled ? "true" : "false");

  j += "\"ops\":{";
  bool first = true;
  for (std::size_t o = 0; o < kOpCount; ++o) {
    const OpSnapshot& s = registry.ops[o];
    if (s.count == 0) continue;  // keep the line compact for unused ops
    if (!first) j += ',';
    first = false;
    appendf(j,
            "\"%s\":{\"count\":%" PRIu64 ",\"sampled\":%" PRIu64
            ",\"p50_ns\":%.0f,\"p90_ns\":%.0f,\"p99_ns\":%.0f,\"max_ns\":%.0f}",
            opName(static_cast<Op>(o)), s.count, s.sampled,
            s.percentileNanos(0.50), s.percentileNanos(0.90),
            s.percentileNanos(0.99), s.maxNanos());
  }
  j += "},";

  appendf(j,
          "\"counters\":{\"rebalance\":%" PRIu64 ",\"chunk_split\":%" PRIu64
          ",\"chunk_merge\":%" PRIu64 ",\"op_retries\":%" PRIu64
          ",\"resource_exhausted\":%" PRIu64 ",\"fault_injected\":%" PRIu64
          ",\"shard_split\":%" PRIu64 ",\"shard_merge\":%" PRIu64
          ",\"shard_mgmt_failed\":%" PRIu64
          "},\"chunks\":%" PRIu64 ",\"shards\":%" PRIu64 ",",
          rebalances, registry.counter(Counter::ChunkSplit),
          registry.counter(Counter::ChunkMerge),
          registry.counter(Counter::OpRetries),
          registry.counter(Counter::ResourceExhausted), faultInjected,
          registry.counter(Counter::ShardSplit),
          registry.counter(Counter::ShardMerge),
          registry.counter(Counter::ShardMgmtFailed), chunkCount, shards);

  appendf(j,
          "\"maint\":{\"queued\":%" PRIu64 ",\"executed\":%" PRIu64
          ",\"inline_fallback\":%" PRIu64 ",\"pending\":%" PRIu64
          ",\"in_flight\":%" PRIu64 ",\"throttled_ms\":%" PRIu64
          ",\"threads\":%" PRIu64 "},",
          registry.counter(Counter::MaintQueued),
          registry.counter(Counter::MaintExecuted),
          registry.counter(Counter::MaintInlineFallback), maintPending,
          maintInFlight, maintThrottledMs, maintThreads);

  appendf(j,
          "\"alloc\":{\"footprint_bytes\":%zu,\"allocated_bytes\":%zu,"
          "\"fragmented_bytes\":%zu,\"alloc_count\":%" PRIu64
          ",\"free_count\":%" PRIu64 ",\"freed_bytes\":%" PRIu64
          ",\"free_list_len\":%" PRIu64 ",\"arena_blocks\":%" PRIu64
          ",\"pinned_blocks\":%" PRIu64 ",\"evacuating_blocks\":%" PRIu64 ",",
          alloc.footprintBytes, alloc.allocatedBytes, alloc.fragmentedBytes,
          alloc.allocCount, alloc.freeCount, alloc.freedBytes,
          alloc.freeListLength, alloc.arenaBlocks, alloc.pinnedBlocks,
          alloc.evacuatingBlocks);
  appendf(j,
          "\"mag\":{\"hits\":%" PRIu64 ",\"global_hits\":%" PRIu64
          ",\"misses\":%" PRIu64 ",\"hit_rate\":%.4f,\"flushes\":%" PRIu64
          ",\"drains\":%" PRIu64 ",\"cached_slices\":%" PRIu64
          ",\"cached_bytes\":%zu,\"classes\":[",
          alloc.magHits, alloc.magGlobalHits, alloc.magMisses,
          alloc.magHitRate(), alloc.magFlushes, alloc.magDrains,
          alloc.magCachedSlices, alloc.magCachedBytes);
  for (std::size_t i = 0; i < alloc.magClasses.size(); ++i) {
    if (i != 0) j += ',';
    appendf(j, "{\"class_bytes\":%u,\"cached\":%" PRIu64 "}",
            alloc.magClasses[i].classBytes, alloc.magClasses[i].cachedSlices);
  }
  j += "]}},";

  j += "\"arenas\":[";
  for (std::size_t i = 0; i < arenas.size(); ++i) {
    const AllocStats& a = arenas[i];
    if (i != 0) j += ',';
    appendf(j,
            "{\"footprint_bytes\":%zu,\"allocated_bytes\":%zu,"
            "\"fragmented_bytes\":%zu,\"alloc_count\":%" PRIu64
            ",\"free_count\":%" PRIu64 "}",
            a.footprintBytes, a.allocatedBytes, a.fragmentedBytes,
            a.allocCount, a.freeCount);
  }
  j += "],";

  appendf(j, "\"ebr\":{\"epoch_lag\":%" PRIu64 ",\"retired\":%" PRIu64 "},",
          ebr.epochLag, ebr.retired);

  appendf(j,
          "\"hdr_pool\":{\"free\":%" PRIu64 ",\"created\":%" PRIu64 "},",
          hdrPoolFree, hdrCreated);

  appendf(j,
          "\"snapshot\":{\"opened\":%" PRIu64 ",\"active\":%" PRIu64
          ",\"snapshot_pin_ms\":%" PRIu64 ",\"versions_retired\":%" PRIu64
          ",\"feed_depth\":%" PRIu64 "},",
          registry.counter(Counter::SnapshotOpened), snapshotsActive,
          snapshotPinMs, registry.counter(Counter::VersionsRetired),
          versionFeedDepth);

  appendf(j,
          "\"wal\":{\"durable\":%s,\"appends\":%" PRIu64 ",\"fsyncs\":%" PRIu64
          ",\"bytes\":%" PRIu64 ",\"checkpoints\":%" PRIu64
          "},\"recovery\":{\"replayed_records\":%" PRIu64
          ",\"recovery_ms\":%" PRIu64 "},",
          durable ? "true" : "false", walAppends, walFsyncs, walBytes,
          checkpoints, recoveryReplayed, recoveryMs);

  appendf(j,
          "\"gc\":{\"full_cycles\":%" PRIu64 ",\"young_cycles\":%" PRIu64
          ",\"pause_ns_total\":%" PRIu64 ",\"allocations\":%" PRIu64
          ",\"oom_throws\":%" PRIu64 ",\"gc_last_ditch\":%" PRIu64
          ",\"live_bytes\":%zu,\"committed_bytes\":%zu,\"live_objects\":%zu}",
          gc.fullGcCycles, gc.youngGcCycles, gc.gcNanos, gc.allocations,
          gc.oomThrows, gc.gcLastDitch, gc.liveBytes, gc.committedBytes,
          gc.liveObjects);
  j += '}';
  return j;
}

std::string Metrics::toText() const {
  std::string t;
  t.reserve(1024);
  appendf(t, "oak metrics (instrumentation %s)\n",
          statsCompiled ? "on" : "compiled out");
  appendf(t, "  %-22s %12s %10s %10s %10s\n", "op", "count", "p50_us", "p99_us",
          "max_us");
  for (std::size_t o = 0; o < kOpCount; ++o) {
    const OpSnapshot& s = registry.ops[o];
    if (s.count == 0) continue;
    appendf(t, "  %-22s %12" PRIu64 " %10.2f %10.2f %10.2f\n",
            opName(static_cast<Op>(o)), s.count, s.percentileNanos(0.50) / 1e3,
            s.percentileNanos(0.99) / 1e3, s.maxNanos() / 1e3);
  }
  appendf(t,
          "  structure: shards=%" PRIu64 " chunks=%" PRIu64
          " rebalances=%" PRIu64 " splits=%" PRIu64 " merges=%" PRIu64 "\n",
          shards, chunkCount, rebalances, registry.counter(Counter::ChunkSplit),
          registry.counter(Counter::ChunkMerge));
  appendf(t,
          "  pressure: retries=%" PRIu64 " exhausted=%" PRIu64
          " faults-injected=%" PRIu64 "\n",
          registry.counter(Counter::OpRetries),
          registry.counter(Counter::ResourceExhausted), faultInjected);
  if (maintThreads != 0 || registry.counter(Counter::MaintQueued) != 0) {
    appendf(t,
            "  maintenance: threads=%" PRIu64 " queued=%" PRIu64
            " executed=%" PRIu64 " inline-fallback=%" PRIu64
            " pending=%" PRIu64 " throttled=%" PRIu64 "ms shard-splits=%" PRIu64
            " shard-merges=%" PRIu64 " shard-mgmt-failed=%" PRIu64 "\n",
            maintThreads, registry.counter(Counter::MaintQueued),
            registry.counter(Counter::MaintExecuted),
            registry.counter(Counter::MaintInlineFallback), maintPending,
            maintThrottledMs, registry.counter(Counter::ShardSplit),
            registry.counter(Counter::ShardMerge),
            registry.counter(Counter::ShardMgmtFailed));
  }
  appendf(t,
          "  off-heap: footprint=%zuB in-use=%zuB fragmented=%zuB "
          "allocs=%" PRIu64 " frees=%" PRIu64 " free-list=%" PRIu64
          " arenas=%" PRIu64 " (pinned=%" PRIu64 " evacuating=%" PRIu64 ")\n",
          alloc.footprintBytes, alloc.allocatedBytes, alloc.fragmentedBytes,
          alloc.allocCount, alloc.freeCount, alloc.freeListLength,
          alloc.arenaBlocks, alloc.pinnedBlocks, alloc.evacuatingBlocks);
  if (alloc.magHits + alloc.magGlobalHits + alloc.magMisses != 0) {
    appendf(t,
            "  magazines: hit-rate=%.1f%% (local=%" PRIu64 " global=%" PRIu64
            " miss=%" PRIu64 ") flushes=%" PRIu64 " drains=%" PRIu64
            " cached=%" PRIu64 " (%zuB over %zu classes)\n",
            100.0 * alloc.magHitRate(), alloc.magHits, alloc.magGlobalHits,
            alloc.magMisses, alloc.magFlushes, alloc.magDrains,
            alloc.magCachedSlices, alloc.magCachedBytes,
            alloc.magClasses.size());
  }
  if (arenas.size() > 1) {
    for (std::size_t i = 0; i < arenas.size(); ++i) {
      appendf(t,
              "    arena[%zu]: footprint=%zuB in-use=%zuB fragmented=%zuB "
              "allocs=%" PRIu64 " frees=%" PRIu64 "\n",
              i, arenas[i].footprintBytes, arenas[i].allocatedBytes,
              arenas[i].fragmentedBytes, arenas[i].allocCount,
              arenas[i].freeCount);
    }
  }
  if (registry.counter(Counter::SnapshotOpened) != 0 || snapshotsActive != 0 ||
      versionFeedDepth != 0) {
    appendf(t,
            "  snapshot: opened=%" PRIu64 " active=%" PRIu64
            " pinned=%" PRIu64 "ms versions-retired=%" PRIu64
            " feed-depth=%" PRIu64 "\n",
            registry.counter(Counter::SnapshotOpened), snapshotsActive,
            snapshotPinMs, registry.counter(Counter::VersionsRetired),
            versionFeedDepth);
  }
  if (durable || recoveryReplayed != 0) {
    appendf(t,
            "  wal: appends=%" PRIu64 " fsyncs=%" PRIu64 " bytes=%" PRIu64
            " checkpoints=%" PRIu64 "\n",
            walAppends, walFsyncs, walBytes, checkpoints);
    appendf(t, "  recovery: replayed=%" PRIu64 " records in %" PRIu64 "ms\n",
            recoveryReplayed, recoveryMs);
  }
  appendf(t, "  ebr: epoch-lag=%" PRIu64 " retired=%" PRIu64 "\n", ebr.epochLag,
          ebr.retired);
  appendf(t,
          "  gc: full=%" PRIu64 " young=%" PRIu64 " last-ditch=%" PRIu64
          " pause-total=%.2fms live=%zuB committed=%zuB\n",
          gc.fullGcCycles, gc.youngGcCycles, gc.gcLastDitch,
          static_cast<double>(gc.gcNanos) / 1e6, gc.liveBytes,
          gc.committedBytes);
  return t;
}

}  // namespace oak::obs
