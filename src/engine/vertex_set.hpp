// VertexSet: the engine's frontier currency.
//
// One set, two representations — a sparse id list (what sparse push/pull
// iterate) and a dense byte-per-vertex bitmap (what dense modes and
// membership tests use) — converted lazily and cached. Mirrors the paper's
// frontier duality: the k-filter produces sparse lists, bottom-up steps
// consume dense maps, and the Generic-Switch flips between them.
//
// BucketedVertexSet below is the priority flavor (Julienne-style): an
// integer-keyed bucket structure for kernels that process vertices in key
// order — SSSP-Δ's distance buckets and k-core's peel-by-residual-degree both
// ride it instead of hand-rolling their own bucket arrays.
#pragma once

#include <omp.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/frontier.hpp"
#include "graph/csr.hpp"
#include "util/check.hpp"

namespace pushpull::engine {

class VertexSet {
 public:
  explicit VertexSet(vid_t n = 0) : n_(n) {}

  // Wraps an existing id list (no copy on rvalue).
  VertexSet(vid_t n, std::vector<vid_t> ids)
      : n_(n), sparse_(std::move(ids)) {}

  static VertexSet single(vid_t n, vid_t v) {
    PP_CHECK(v >= 0 && v < n);
    return VertexSet(n, std::vector<vid_t>{v});
  }

  static VertexSet all(vid_t n) {
    std::vector<vid_t> ids(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v) ids[static_cast<std::size_t>(v)] = v;
    return VertexSet(n, std::move(ids));
  }

  vid_t universe() const noexcept { return n_; }
  std::size_t size() const noexcept { return sparse_.size(); }
  bool empty() const noexcept { return sparse_.empty(); }

  std::span<const vid_t> ids() const noexcept { return sparse_; }
  std::vector<vid_t>& mutable_ids() noexcept {
    dense_valid_ = false;
    return sparse_;
  }

  // Dense membership view, built on first use after any mutation.
  const DenseFrontier& dense() const {
    if (!dense_valid_) {
      if (!dense_) dense_ = std::make_unique<DenseFrontier>(n_);
      dense_->build_from(sparse_);
      dense_valid_ = true;
    }
    return *dense_;
  }

  bool test(vid_t v) const { return dense().test(v); }

  // Σ out-degrees of members — the GS work estimate for the next superstep.
  template <CsrLike G>
  double out_degree_sum(const G& g) const {
    double sum = 0.0;
#pragma omp parallel for reduction(+ : sum) schedule(static)
    for (std::size_t i = 0; i < sparse_.size(); ++i) {
      sum += static_cast<double>(g.degree(sparse_[i]));
    }
    return sum;
  }

  // View-aware work estimate: push cost on a digraph is the members'
  // *out*-degree mass, regardless of which CSR pull would scan.
  template <class View>
    requires requires(const View& v, vid_t x) { v.out_degree(x); }
  double out_degree_sum(const View& view) const {
    double sum = 0.0;
#pragma omp parallel for reduction(+ : sum) schedule(static)
    for (std::size_t i = 0; i < sparse_.size(); ++i) {
      sum += static_cast<double>(view.out_degree(sparse_[i]));
    }
    return sum;
  }

  void clear() {
    sparse_.clear();
    dense_valid_ = false;
  }

 private:
  vid_t n_ = 0;
  std::vector<vid_t> sparse_;
  mutable std::unique_ptr<DenseFrontier> dense_;
  mutable bool dense_valid_ = false;
};

// Julienne-style bucketed priority frontier.
//
// Vertices carry an integer key (a Δ-bucket index, a residual degree) and are
// processed in key order. Three properties make it cheap under churn:
//
//   lazy insertion — insert() appends blindly; duplicate and *stale* entries
//     (the vertex's key moved after it was enqueued) are allowed and filtered
//     only when their bucket is popped, against the caller's key function.
//   open window + overflow — only `open` consecutive buckets materialize as
//     append vectors; keys past the window land in one overflow bucket that
//     is re-bucketed (spill/refill) when the window is exhausted. Bounded
//     memory regardless of key range.
//   epoch-stamp dedup — pop_bucket() emits each vertex at most once per pop
//     by stamping it with the pop's epoch; no O(n) clears between pops.
//
// The caller supplies current keys as key_of(v, b) -> key_t, where b is the
// bucket being popped (or the window base during a refill): SSSP-Δ ignores b
// and returns bucket_of(dist[v]); k-core returns max(residual[v], b) so
// cascade-decremented vertices clamp into the bucket being peeled instead of
// falling behind it. kInfKey means "never schedule" (settled / peeled).
//
// Single-threaded by design: inserts and pops happen between parallel
// edge_map rounds, exactly where frontiers are materialized anyway.
class BucketedVertexSet {
 public:
  using key_t = std::int64_t;
  static constexpr key_t kInfKey = std::numeric_limits<key_t>::max();

  explicit BucketedVertexSet(vid_t n, int open_buckets = 64)
      : open_(static_cast<std::size_t>(open_buckets)),
        buckets_(static_cast<std::size_t>(open_buckets)),
        stamp_(static_cast<std::size_t>(n), 0) {
    PP_CHECK(open_buckets > 0);
  }

  // Lazy insert: appends v to the bucket for key k, or to the overflow bucket
  // when k falls past the open window. Keys below the window base belong to
  // already-processed buckets — the entry would be dropped as stale at pop
  // time anyway, so it is dropped here.
  void insert(vid_t v, key_t k) {
    if (k == kInfKey || k < base_) return;
    if (k < base_ + static_cast<key_t>(open_)) {
      buckets_[slot(k)].push_back(v);
    } else {
      overflow_.push_back(v);
    }
  }

  // Pops the smallest non-empty bucket: validates entries against key_of,
  // re-inserts entries whose key moved forward, dedups via epoch stamps, and
  // fills `out` with the unique members whose current key equals the popped
  // bucket. Returns that bucket's key, or kInfKey when the set is exhausted.
  // Subsequent insert()s may re-target the returned bucket (SSSP-Δ's inner
  // iterations); the next pop re-examines it first.
  template <class KeyFn>
  key_t pop_bucket(std::vector<vid_t>& out, KeyFn&& key_of) {
    out.clear();
    for (;;) {
      // Advance base_ over empty open buckets (the empty-bucket skip); when
      // the whole window is empty, refill it from the overflow bucket.
      std::size_t scanned = 0;
      while (scanned < open_ && buckets_[slot(base_)].empty()) {
        ++base_;
        ++scanned;
      }
      if (scanned == open_) {
        if (overflow_.empty()) return kInfKey;
        refill(key_of);
        continue;
      }
      const key_t b = base_;
      std::vector<vid_t>& bucket = buckets_[slot(b)];
      ++epoch_;
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const vid_t v = bucket[i];
        if (stamp_[static_cast<std::size_t>(v)] == epoch_) continue;  // dup
        stamp_[static_cast<std::size_t>(v)] = epoch_;
        const key_t k = key_of(v, b);
        if (k == b) {
          out.push_back(v);
        } else if (k > b && k != kInfKey) {
          // Stale-high entry: its key moved forward since insertion —
          // re-enqueue at the true key (cannot land back in bucket b: the
          // stamp guard above runs once per vertex per pop, and insert below
          // targets a later bucket).
          ++stale_requeues_;
          if (k < base_ + static_cast<key_t>(open_)) {
            buckets_[slot(k)].push_back(v);
          } else {
            overflow_.push_back(v);
          }
        }
        // k < b or kInfKey: settled/peeled — dropped.
      }
      bucket.clear();
      if (!out.empty()) return b;
      // Every entry was stale: keep scanning from the same base.
    }
  }

  // Whether any entry (live or stale) is enqueued. Stale entries make this an
  // over-approximation of "work remains"; pop_bucket is the precise check.
  bool has_entries() const {
    if (!overflow_.empty()) return true;
    for (const auto& bkt : buckets_) {
      if (!bkt.empty()) return true;
    }
    return false;
  }

  // Introspection for tests and traces.
  key_t window_base() const noexcept { return base_; }
  std::size_t open_buckets() const noexcept { return open_; }
  std::size_t overflow_size() const noexcept { return overflow_.size(); }
  std::int64_t refills() const noexcept { return refills_; }
  std::int64_t stale_requeues() const noexcept { return stale_requeues_; }

 private:
  std::size_t slot(key_t k) const noexcept {
    return static_cast<std::size_t>(k % static_cast<key_t>(open_));
  }

  // Spill/refill: the open window is exhausted — find the smallest live key
  // in the overflow bucket, move the window there, and redistribute. Entries
  // still past the new window stay in overflow; settled entries are dropped.
  template <class KeyFn>
  void refill(KeyFn&& key_of) {
    ++refills_;
    key_t min_key = kInfKey;
    for (const vid_t v : overflow_) {
      const key_t k = key_of(v, base_);
      if (k >= base_ && k < min_key) min_key = k;
    }
    if (min_key == kInfKey) {
      overflow_.clear();
      return;
    }
    base_ = min_key;
    std::vector<vid_t> keep;
    for (const vid_t v : overflow_) {
      const key_t k = key_of(v, base_);
      if (k == kInfKey || k < base_) continue;
      if (k < base_ + static_cast<key_t>(open_)) {
        buckets_[slot(k)].push_back(v);
      } else {
        keep.push_back(v);
      }
    }
    overflow_ = std::move(keep);
  }

  std::size_t open_;
  std::vector<std::vector<vid_t>> buckets_;  // ring keyed by key % open_
  std::vector<vid_t> overflow_;
  std::vector<std::uint32_t> stamp_;
  key_t base_ = 0;
  std::uint32_t epoch_ = 0;
  std::int64_t refills_ = 0;
  std::int64_t stale_requeues_ = 0;
};

}  // namespace pushpull::engine
