// oaklint fixture — R2, durability flavor: the durability knobs (storage
// directory, fsync policy, WAL checkpoint trigger) come from MemConfig and
// DurConfig alone; no environment variable feeds them.  Reading one with
// raw std::getenv — the obvious shortcut when wiring a WAL or recovery
// path — bypasses the oak::env gateway and its single audit point.
//
// oaklint-expect: R2
#include <cstdlib>
#include <string>

std::string walDirFromEnv() {
  const char* dir = std::getenv("OAK_STORAGE_DIR");  // BAD: bypasses oak::env
  return dir != nullptr ? std::string(dir) : std::string{};
}
