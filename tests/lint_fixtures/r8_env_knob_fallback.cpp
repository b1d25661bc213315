// oaklint fixture — R8: map library code takes every knob from its config.
// An environment fallback, even one routed through the oak::env gateway
// (so R2 stays quiet), gives the knob a hidden second source: a variable
// set for one process silently reconfigures every map that left the field
// at its default.  Only src/common/env.hpp, src/common/fault.cpp
// (OAK_FAULT_SPEC) and src/benchcore/ may read the environment.
//
// oaklint-expect: R8
#include <cstdint>

namespace oak::env {
std::uint64_t u64(const char* name, std::uint64_t def) noexcept;
}  // namespace oak::env

namespace oak {

unsigned maintenanceThreads(int configured) {
  if (configured >= 0) return static_cast<unsigned>(configured);
  return static_cast<unsigned>(env::u64("OAK_MAINT_THREADS", 0));  // BAD: env fallback
}

}  // namespace oak
