#include "util/numa.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#if defined(__linux__)
#include <unistd.h>
#endif

namespace pushpull::numa {

namespace {

// Reads a small sysfs file into a string; empty on any failure.
std::string read_sysfs(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return {};
  char buf[4096];
  const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[got] = '\0';
  return std::string(buf);
}

// Parses a sysfs cache size string ("32768K", "8M") into bytes; 0 on failure.
std::size_t parse_cache_size(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str()) return 0;
  std::size_t mult = 1;
  if (*end == 'K') mult = 1024;
  if (*end == 'M') mult = 1024 * 1024;
  if (*end == 'G') mult = 1024ull * 1024 * 1024;
  return static_cast<std::size_t>(v) * mult;
}

Topology probe() {
  Topology t;
#if defined(__linux__)
  const long cpus = sysconf(_SC_NPROCESSORS_CONF);
  t.cpus = cpus > 0 ? static_cast<int>(cpus) : 1;
#endif

  // Node structure: one /sys/devices/system/node/node<i> directory per node.
  int nodes = 0;
  while (!read_sysfs("/sys/devices/system/node/node" + std::to_string(nodes) +
                     "/cpulist")
              .empty()) {
    ++nodes;
  }
  if (nodes > 0) {
    t.nodes = nodes;
    t.from_sysfs = true;
  }

  // Last-level cache: the largest cache reported for cpu0.
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string size = read_sysfs(base + "size");
    if (size.empty()) break;
    const std::size_t bytes = parse_cache_size(size);
    if (bytes > t.llc_bytes) t.llc_bytes = bytes;
  }

  // Transparent hugepages: enabled unless the policy is pinned to [never].
  const std::string thp =
      read_sysfs("/sys/kernel/mm/transparent_hugepage/enabled");
  t.transparent_hugepages =
      !thp.empty() && thp.find("[never]") == std::string::npos;
  return t;
}

}  // namespace

const Topology& topology() {
  static const Topology t = probe();
  return t;
}

}  // namespace pushpull::numa
