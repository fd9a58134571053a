// Partition-Aware graph representation (§5, strategy PA).
//
// The adjacency array of each vertex v is split into a *local* part (neighbors
// owned by t[v]) and a *remote* part (neighbors owned by other threads). All
// local parts and all remote parts each form one contiguous array with their
// own offsets, growing the representation from n + 2m to 2n + 2m cells. The
// split lets push-based kernels update local neighbors with plain stores and
// reserve atomics for remote neighbors only (Algorithm 8).
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"

namespace pushpull {

class PartitionAwareCsr {
 public:
  PartitionAwareCsr() = default;

  // Splits `g` according to `part`. The partition is stored by value; PA
  // kernels must use the same partition for thread-ownership decisions.
  PartitionAwareCsr(const Csr& g, const Partition1D& part);

  vid_t n() const noexcept { return static_cast<vid_t>(local_offsets_.size()) - 1; }
  const Partition1D& partition() const noexcept { return part_; }

  std::span<const vid_t> local_neighbors(vid_t v) const noexcept {
    return {local_adj_.data() + local_offsets_[v],
            static_cast<std::size_t>(local_offsets_[v + 1] - local_offsets_[v])};
  }

  std::span<const vid_t> remote_neighbors(vid_t v) const noexcept {
    return {remote_adj_.data() + remote_offsets_[v],
            static_cast<std::size_t>(remote_offsets_[v + 1] - remote_offsets_[v])};
  }

  vid_t degree(vid_t v) const noexcept {
    return static_cast<vid_t>(local_offsets_[v + 1] - local_offsets_[v] +
                              remote_offsets_[v + 1] - remote_offsets_[v]);
  }

  // Total representation cells: 2n + 2m (two offset arrays + split adjacency).
  std::size_t representation_cells() const noexcept {
    return local_offsets_.size() + remote_offsets_.size() + local_adj_.size() +
           remote_adj_.size();
  }

  eid_t num_local_arcs() const noexcept { return static_cast<eid_t>(local_adj_.size()); }
  eid_t num_remote_arcs() const noexcept { return static_cast<eid_t>(remote_adj_.size()); }

 private:
  Partition1D part_;
  std::vector<eid_t> local_offsets_{0};
  std::vector<vid_t> local_adj_;
  std::vector<eid_t> remote_offsets_{0};
  std::vector<vid_t> remote_adj_;
};

}  // namespace pushpull
