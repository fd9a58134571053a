// Synthetic analogs of the paper's real-world graphs (Table 2).
//
// The original evaluation uses SNAP graphs: orkut (orc), pokec (pok),
// LiveJournal (ljn), amazon (am) and roadNet-CA (rca). This environment has
// no network access, so each graph is replaced by a seeded generator output
// from the same *structural class* at laptop scale (DESIGN.md §3):
//
//   name | paper (n, m, d̄, D)             | analog
//   -----+---------------------------------+---------------------------------
//   orc  | 3.07M, 117M, 39, 9   (social)   | R-MAT, skewed, d̄≈30, low D
//   pok  | 1.63M, 22.3M, 18.75, 11 (social)| R-MAT, skewed, d̄≈18, low D
//   ljn  | 3.99M, 34.6M, 8.67, 17 (social) | R-MAT, skewed, d̄≈9,  low D
//   am   | 262k, 900k, 3.43, 32 (purchase) | Barabási–Albert, d̄≈4, mid D
//   rca  | 1.96M, 2.76M, 1.4, 849 (road)   | thinned 2D grid, d̄≈2.8, huge D
//
// The push/pull performance differences the paper reports are driven by
// average degree, diameter and degree skew; the analogs span the same three
// regimes. `scale_num/scale_den` uniformly shrinks or grows the vertex counts
// so benchmarks can trade fidelity for runtime (the default targets tens of
// thousands of vertices — minutes of total bench time on a 4-vCPU box).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace pushpull {

struct AnalogSpec {
  std::string name;     // paper's graph id with a '*' suffix, e.g. "orc*"
  std::string family;   // "social", "purchase", "road"
};

// Individual analogs. `scale` halves (negative) or doubles (positive) the
// vertex count per step relative to the default size; weighted variants draw
// uniform weights in [1, 64). `seed` = 0 keeps each analog's builtin seed
// (the published defaults stay bit-identical); any other value re-seeds the
// generator so benches can draw reproducible alternate instances (--seed).
Csr orc_analog(int scale = 0, bool weighted = false, std::uint64_t seed = 0);
Csr pok_analog(int scale = 0, bool weighted = false, std::uint64_t seed = 0);
Csr ljn_analog(int scale = 0, bool weighted = false, std::uint64_t seed = 0);
Csr am_analog(int scale = 0, bool weighted = false, std::uint64_t seed = 0);
Csr rca_analog(int scale = 0, bool weighted = false, std::uint64_t seed = 0);

// Returns the analog by paper name ("orc", "pok", "ljn", "am", "rca").
Csr analog_by_name(const std::string& name, int scale = 0, bool weighted = false,
                   std::uint64_t seed = 0);

// All five names in the paper's order.
const std::vector<std::string>& analog_names();

}  // namespace pushpull
