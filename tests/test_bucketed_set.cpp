// BucketedVertexSet (engine/vertex_set.hpp): unit coverage of the Julienne
// mechanics — empty-bucket skip, overflow spill/refill, lazy duplicate and
// stale entries, the kInfKey drop — plus differential validation of the two
// kernels built on it: SSSP-Δ must reproduce Dijkstra and k-core the
// sequential peel (core/baselines/baselines.hpp) exactly, across the zoo at 1
// and 4 threads.
#include <gtest/gtest.h>
#include <omp.h>

#include <vector>

#include "core/baselines/baselines.hpp"
#include "core/kcore.hpp"
#include "core/sssp_delta.hpp"
#include "engine/vertex_set.hpp"
#include "graph_zoo.hpp"

namespace pushpull {
namespace {

using engine::BucketedVertexSet;
using key_t = BucketedVertexSet::key_t;
constexpr key_t kInf = BucketedVertexSet::kInfKey;

// key_of that reads a caller-owned key array and ignores the popped bucket —
// the SSSP-Δ shape.
struct KeyArray {
  std::vector<key_t> keys;
  key_t operator()(vid_t v, key_t) const {
    return keys[static_cast<std::size_t>(v)];
  }
};

TEST(BucketedVertexSet, PopsInKeyOrderSkippingEmptyBuckets) {
  BucketedVertexSet b(/*n=*/16);
  KeyArray keys{{3, 40, 3, 7, kInf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}};
  b.insert(0, 3);
  b.insert(1, 40);
  b.insert(2, 3);
  b.insert(3, 7);

  std::vector<vid_t> out;
  EXPECT_EQ(b.pop_bucket(out, keys), 3);
  EXPECT_EQ(out, (std::vector<vid_t>{0, 2}));
  EXPECT_EQ(b.pop_bucket(out, keys), 7);
  EXPECT_EQ(out, (std::vector<vid_t>{3}));
  // Buckets 8..39 are empty and never materialize work.
  EXPECT_EQ(b.pop_bucket(out, keys), 40);
  EXPECT_EQ(out, (std::vector<vid_t>{1}));
  EXPECT_EQ(b.pop_bucket(out, keys), kInf);
  EXPECT_FALSE(b.has_entries());
}

TEST(BucketedVertexSet, DuplicateInsertsEmitOnce) {
  BucketedVertexSet b(/*n=*/4);
  KeyArray keys{{5, 5, 0, 0}};
  b.insert(0, 5);
  b.insert(0, 5);
  b.insert(0, 5);
  b.insert(1, 5);
  std::vector<vid_t> out;
  EXPECT_EQ(b.pop_bucket(out, keys), 5);
  EXPECT_EQ(out, (std::vector<vid_t>{0, 1}));  // the epoch stamp dedups
  EXPECT_EQ(b.pop_bucket(out, keys), kInf);
}

TEST(BucketedVertexSet, StaleEntriesRequeueAtTheirTrueKey) {
  BucketedVertexSet b(/*n=*/4);
  // Enqueued at 2, but the key has since moved to 7 (a later relaxation).
  KeyArray keys{{7, 0, 0, 0}};
  b.insert(0, 2);
  std::vector<vid_t> out;
  EXPECT_EQ(b.pop_bucket(out, keys), 7);
  EXPECT_EQ(out, (std::vector<vid_t>{0}));
  EXPECT_EQ(b.stale_requeues(), 1);
  EXPECT_EQ(b.pop_bucket(out, keys), kInf);
}

TEST(BucketedVertexSet, SettledEntriesAreDropped) {
  BucketedVertexSet b(/*n=*/4);
  KeyArray keys{{kInf, kInf, 0, 0}};
  b.insert(0, 2);
  b.insert(1, kInf);  // never enqueued at all
  std::vector<vid_t> out;
  EXPECT_EQ(b.pop_bucket(out, keys), kInf);
  EXPECT_TRUE(out.empty());
}

TEST(BucketedVertexSet, InsertsBelowTheWindowBaseAreDropped) {
  BucketedVertexSet b(/*n=*/4);
  KeyArray keys{{3, 1, 0, 0}};
  b.insert(0, 3);
  std::vector<vid_t> out;
  EXPECT_EQ(b.pop_bucket(out, keys), 3);
  b.insert(1, 1);  // behind the window: already-processed key space
  EXPECT_EQ(b.pop_bucket(out, keys), kInf);
}

TEST(BucketedVertexSet, OverflowSpillsAndRefills) {
  BucketedVertexSet b(/*n=*/8, /*open_buckets=*/4);
  KeyArray keys{{0, 2, 9, 10, 999, 0, 0, 0}};
  b.insert(0, 0);
  b.insert(1, 2);
  b.insert(2, 9);    // past the [0, 4) window -> overflow
  b.insert(3, 10);   // overflow
  b.insert(4, 999);  // overflow
  EXPECT_EQ(b.overflow_size(), 3u);

  std::vector<vid_t> out;
  EXPECT_EQ(b.pop_bucket(out, keys), 0);
  EXPECT_EQ(out, (std::vector<vid_t>{0}));
  EXPECT_EQ(b.pop_bucket(out, keys), 2);
  // Window exhausted: refill finds min live overflow key 9, moves the base.
  EXPECT_EQ(b.pop_bucket(out, keys), 9);
  EXPECT_EQ(out, (std::vector<vid_t>{2}));
  EXPECT_EQ(b.window_base(), 9);
  EXPECT_EQ(b.refills(), 1);
  EXPECT_EQ(b.pop_bucket(out, keys), 10);
  // 999 is past [9, 13) too: second refill.
  EXPECT_EQ(b.pop_bucket(out, keys), 999);
  EXPECT_EQ(out, (std::vector<vid_t>{4}));
  EXPECT_EQ(b.refills(), 2);
  EXPECT_EQ(b.pop_bucket(out, keys), kInf);
}

TEST(BucketedVertexSet, RefillDropsSettledOverflowEntries) {
  BucketedVertexSet b(/*n=*/4, /*open_buckets=*/2);
  KeyArray keys{{kInf, 50, 0, 0}};
  b.insert(0, 40);  // will be settled by the time the window reaches it
  b.insert(1, 50);
  std::vector<vid_t> out;
  EXPECT_EQ(b.pop_bucket(out, keys), 50);
  EXPECT_EQ(out, (std::vector<vid_t>{1}));
  EXPECT_EQ(b.pop_bucket(out, keys), kInf);
}

// --- differential: the bucketed kernels vs the sequential references ---------

class BucketedKernels : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { omp_set_num_threads(GetParam()); }
};

TEST_P(BucketedKernels, SsspDeltaPushMatchesDijkstraOnZoo) {
  for (const auto& [name, g] : testing::weighted_zoo()) {
    const std::vector<weight_t> ref = baseline::dijkstra(g, 0);
    for (weight_t delta : {0.5f, 4.0f, 1e6f}) {
      const DeltaSteppingResult got = sssp_delta_push(g, 0, delta);
      ASSERT_EQ(got.dist.size(), ref.size()) << name;
      for (std::size_t v = 0; v < ref.size(); ++v) {
        // Unique minimum float path sum: exact equality.
        ASSERT_EQ(got.dist[v], ref[v])
            << name << " d=" << delta << " v" << v;
      }
      EXPECT_GT(got.epochs, 0) << name;
    }
  }
}

TEST_P(BucketedKernels, SsspDeltaPullMatchesDijkstraOnZoo) {
  for (const auto& [name, g] : testing::weighted_zoo()) {
    const std::vector<weight_t> ref = baseline::dijkstra(g, 0);
    for (weight_t delta : {0.5f, 4.0f}) {
      const DeltaSteppingResult got = sssp_delta_pull(g, 0, delta);
      ASSERT_EQ(got.dist.size(), ref.size()) << name;
      for (std::size_t v = 0; v < ref.size(); ++v) {
        ASSERT_EQ(got.dist[v], ref[v])
            << name << " d=" << delta << " v" << v;
      }
    }
  }
}

TEST_P(BucketedKernels, KcoreMatchesSequentialPeelOnZoo) {
  for (const auto& [name, g] : testing::unweighted_zoo()) {
    const std::vector<vid_t> ref = baseline::kcore(g);
    const KcoreResult got = kcore_decomposition(g);
    ASSERT_EQ(got.core, ref) << name;
    vid_t max_core = 0;
    for (vid_t c : ref) max_core = std::max(max_core, c);
    EXPECT_EQ(got.max_core, max_core) << name;
    EXPECT_GT(got.rounds, 0) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BucketedKernels, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           // operator+ on the literal trips GCC-12's
                           // -Wrestrict false positive; append instead.
                           std::string name("t");
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace pushpull
