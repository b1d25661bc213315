// oak::env — the one place runtime environment variables are read.
//
// Map knobs never come from here: every OakConfig field resolves as
// explicit config > compiled default (oaklint R8 keeps library code under
// src/ from reading the environment, except this gateway, the fault
// schedule in common/fault.cpp and the bench harness in benchcore/).  The
// variables below steer tests, benchmarks and checked-build fault
// injection.  Ad-hoc getenv calls elsewhere in the tree are a bug — route
// them here so the variable names stay documented in one place.
//
// Recognized variables (see README):
//   OAK_FAULT_SPEC     str    chaos schedules, checked builds only
//   OAK_BENCH_VALIDATE flag   post-stage structural validation (default off)
//   OAK_BENCH_METRICS  flag   METRICS line emission (default on)
//   OAK_CHAOS_SEED     u64    chaos suite schedule seed
//   OAK_SHARDS         u64    shard counts exercised by the sharded suites
//   OAK_MODEL_SEED     u64    model-checking test seed
//   OAK_SNAPSHOT_OPS   u64    snapshot-fuzz op budget (full tier raises it)
//   OAK_BENCH_SIZE / _DURATION_MS / _SCAN_LEN / _REPEATS / _SHARDS   u64
//   OAK_BENCH_THREADS / OAK_BENCH_FIG3_SIZES   space-separated lists
//   OAK_BENCH_FIG3_RAM_MB   u64
// (OAK_STATS is a *compile-time* CMake option, not an environment gate.)
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace oak::env {

/// Raw variable text, or nullptr when unset.  Prefer the typed readers.
inline const char* raw(const char* name) noexcept {
  return std::getenv(name);  // NOLINT(concurrency-mt-unsafe) — the gateway
}

/// Boolean gate.  Unset or empty → `def`; a value whose first character is
/// '0' → false; anything else → true.  ("OAK_X=0" is the documented way to
/// turn a default-on gate off.)
inline bool flag(const char* name, bool def) noexcept {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe) — the gateway
  if (v == nullptr || v[0] == '\0') return def;
  return v[0] != '0';
}

/// Unsigned integer knob.  Unset, empty, or unparsable → `def`.
inline std::uint64_t u64(const char* name, std::uint64_t def) noexcept {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe) — the gateway
  if (v == nullptr || v[0] == '\0') return def;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v) return def;
  return static_cast<std::uint64_t>(parsed);
}

/// String knob.  Unset → nullopt (empty string is a real, set value).
inline std::optional<std::string> str(const char* name) {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe) — the gateway
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

}  // namespace oak::env
