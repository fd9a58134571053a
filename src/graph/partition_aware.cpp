#include "graph/partition_aware.hpp"

#include "util/check.hpp"

namespace pushpull {

PartitionAwareCsr::PartitionAwareCsr(const Csr& g, const Partition1D& part)
    : part_(part) {
  const vid_t n = g.n();
  PP_CHECK(part.n() == n);
  local_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  remote_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t v = 0; v < n; ++v) {
    const int owner = part.owner(v);
    for (vid_t u : g.neighbors(v)) {
      if (part.owner(u) == owner) {
        ++local_offsets_[static_cast<std::size_t>(v) + 1];
      } else {
        ++remote_offsets_[static_cast<std::size_t>(v) + 1];
      }
    }
  }
  for (vid_t v = 0; v < n; ++v) {
    local_offsets_[v + 1] += local_offsets_[v];
    remote_offsets_[v + 1] += remote_offsets_[v];
  }
  local_adj_.resize(static_cast<std::size_t>(local_offsets_.back()));
  remote_adj_.resize(static_cast<std::size_t>(remote_offsets_.back()));
  std::vector<eid_t> lcur(local_offsets_.begin(), local_offsets_.end() - 1);
  std::vector<eid_t> rcur(remote_offsets_.begin(), remote_offsets_.end() - 1);
  for (vid_t v = 0; v < n; ++v) {
    const int owner = part.owner(v);
    for (vid_t u : g.neighbors(v)) {
      if (part.owner(u) == owner) {
        local_adj_[static_cast<std::size_t>(lcur[v]++)] = u;
      } else {
        remote_adj_[static_cast<std::size_t>(rcur[v]++)] = u;
      }
    }
  }
}

}  // namespace pushpull
