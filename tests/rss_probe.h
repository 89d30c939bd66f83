// Resident-set probe for the commit-on-first-touch regression tests.

#ifndef TDFS_TESTS_RSS_PROBE_H_
#define TDFS_TESTS_RSS_PROBE_H_

#include <unistd.h>

#include <cstdint>
#include <fstream>

namespace tdfs::testing {

/// Resident bytes of this process (Linux /proc/self/statm), or -1 where
/// the file is unavailable.
inline int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) {
    return -1;
  }
  return resident_pages * sysconf(_SC_PAGESIZE);
}

/// False under ASan/TSan: their shadow memory grows with every touched
/// application byte, so RSS no longer measures what the program commits.
inline bool RssTracksCommits() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return false;
#else
  return ResidentBytes() >= 0;
#endif
#else
  return ResidentBytes() >= 0;
#endif
}

}  // namespace tdfs::testing

#endif  // TDFS_TESTS_RSS_PROBE_H_
