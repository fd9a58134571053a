// Machine topology probe.
//
// Bench artifacts stamp the machine they were measured on (NUMA node count,
// cpu count, last-level-cache size and transparent-hugepage status) next to
// every timing, because locality and scaling numbers mean little without it.
// Topology is parsed from sysfs (pure file reads, no library). When sysfs is
// absent (non-Linux, sandboxes) everything degrades to one node / one cpu.
#pragma once

#include <cstddef>

namespace pushpull::numa {

struct Topology {
  int nodes = 1;              // NUMA domains ("sockets" at this granularity)
  int cpus = 1;               // configured logical cpus
  std::size_t llc_bytes = 0;  // largest cache level found; 0 = unknown
  bool transparent_hugepages = false;  // THP not set to [never]
  bool from_sysfs = false;    // false: the single-node fallback defaults
};

// The machine topology, probed once on first use and cached for the process.
const Topology& topology();

}  // namespace pushpull::numa
