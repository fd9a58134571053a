// Unit tests of the benchmark's own helpers: percentiles and the
// ten-samples-beyond rule, steal-aware windows, due-time lag accounting,
// seeded stream digests and the peak-RSS reader.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "graph/analogs.hpp"
#include "graph/builder.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  std::vector<double> v = one_to(100);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 90), 90.0);
  EXPECT_EQ(percentile(v, 99), 99.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
  EXPECT_EQ(percentile(v, 0), 1.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile({7.5}, 99), 7.5);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_TRUE(percentile_supported(100, 90));
  EXPECT_FALSE(percentile_supported(99, 90));
  EXPECT_FALSE(percentile_supported(999, 99));
  EXPECT_TRUE(percentile_supported(1000, 99));
  EXPECT_TRUE(percentile_supported(20, 50));
  EXPECT_FALSE(percentile_supported(19, 50));
  EXPECT_EQ(samples_beyond(0, 50), 0u);
}

// Steal share 0.5 inside [noisy_from, noisy_to), 0 elsewhere.
struct FakeHost {
  std::uint64_t noisy_from = 0;
  std::uint64_t noisy_to = 0;
  double share(std::uint64_t a, std::uint64_t b) const {
    return a < noisy_to && b > noisy_from ? 0.5 : 0.0;
  }
};

std::vector<Sample> ramp(int windows, int per_window, std::uint64_t window_ns) {
  // Window w holds values w*1000 + 1 .. w*1000 + per_window.
  std::vector<Sample> s;
  for (int w = 0; w < windows; ++w) {
    for (int i = 1; i <= per_window; ++i) {
      s.push_back({static_cast<std::uint64_t>(w) * window_ns + static_cast<std::uint64_t>(i),
                   w * 1000.0 + i});
    }
  }
  return s;
}

TEST(Windows, MedianOverWindowsOfTheirPercentile) {
  const Windows w(ramp(5, 100, 1000), 0, 1000, FakeHost{});
  EXPECT_EQ(w.total, 5u);
  EXPECT_EQ(w.noisy, 0u);
  EXPECT_EQ(w.percentile_of(50.0), 2050.0);  // window 2's p50
  EXPECT_EQ(w.percentile_of(90.0), 2090.0);
  EXPECT_EQ(w.pooled().size(), 500u);
}

TEST(Windows, NoisyWindowsAreLeftOut) {
  // Windows 3 and 4 had host steal: the median moves to window 1 of 0..2.
  const Windows w(ramp(5, 100, 1000), 0, 1000, FakeHost{3000, 5000});
  EXPECT_EQ(w.noisy, 2u);
  EXPECT_EQ(w.kept.size(), 3u);
  EXPECT_EQ(w.percentile_of(50.0), 1050.0);
  // Every window noisy: all are kept rather than none.
  const Windows all(ramp(4, 100, 1000), 0, 1000, FakeHost{0, 1u << 30});
  EXPECT_EQ(all.noisy, 4u);
  EXPECT_EQ(all.kept.size(), 4u);
}

TEST(Windows, FallsBackToPooledWhenWindowsAreSmall) {
  // 99 samples per window support no p90; the pooled p90 is used instead.
  const Windows w(ramp(2, 99, 1000), 0, 1000, FakeHost{});
  EXPECT_EQ(w.percentile_of(90.0), percentile(w.pooled(), 90.0));
  EXPECT_EQ(Windows({}, 0, 1000, FakeHost{}).percentile_of(50.0), 0.0);
}

TEST(LagTracker, LateCountsEarlyClampsToZero) {
  LagTracker lag;
  lag.note(1'000'000, 1'000'000);  // on time
  lag.note(2'000'000, 1'500'000);  // early
  lag.note(3'000'000, 5'000'000);  // 2 ms late
  EXPECT_EQ(lag.count(), 3u);
  EXPECT_DOUBLE_EQ(lag.max_ms(), 2.0);
  EXPECT_DOUBLE_EQ(lag.p99_ms(), 2.0);

  LagTracker other;
  other.note(0, 7'000'000);
  lag.merge(other);
  EXPECT_EQ(lag.count(), 4u);
  EXPECT_DOUBLE_EQ(lag.max_ms(), 7.0);
}

TEST(LagTracker, EmptyReadsZero) {
  const LagTracker lag;
  EXPECT_EQ(lag.p99_ms(), 0.0);
  EXPECT_EQ(lag.max_ms(), 0.0);
}

TEST(Digest, SameSeedSameStreams) {
  const ServeInputs a = make_serve_inputs(kDevSeed, 20, 100.0, 0.5, 0, 3, 10);
  const ServeInputs b = make_serve_inputs(kDevSeed, 20, 100.0, 0.5, 0, 3, 10);
  const ServeInputs c = make_serve_inputs(kConfirmSeed, 20, 100.0, 0.5, 0, 3, 10);
  EXPECT_EQ(digest(a.edges), digest(b.edges));
  EXPECT_EQ(digest(a.writer_batches), digest(b.writer_batches));
  EXPECT_EQ(digest(a.open), digest(b.open));
  EXPECT_EQ(digest(a.closed[2]), digest(b.closed[2]));
  EXPECT_EQ(digest(a.edges), digest(c.edges));  // one fixed graph
  EXPECT_NE(digest(a.writer_batches), digest(c.writer_batches));
  EXPECT_NE(digest(a.open), digest(c.open));

  const IngestInputs i1 = make_ingest_inputs(kDevSeed, 8);
  const IngestInputs i2 = make_ingest_inputs(kDevSeed, 8);
  EXPECT_EQ(digest(i1.edges), digest(i2.edges));
  EXPECT_EQ(digest(i1.batches), digest(i2.batches));
  EXPECT_EQ(i1.root, i2.root);
  EXPECT_NE(digest(i1.batches), digest(make_ingest_inputs(kConfirmSeed, 8).batches));

  const AnalyticsInputs s1 = make_analytics_inputs(kDevSeed);
  const AnalyticsInputs s2 = make_analytics_inputs(kDevSeed);
  EXPECT_EQ(digest(s1.bfs_sources), digest(s2.bfs_sources));
  EXPECT_EQ(digest(s1.sssp_sources), digest(s2.sssp_sources));
}

// The benchmark builds the repository's analogs itself (so that set-up times
// only build_csr); the edge lists must give exactly the analog CSRs.
void expect_same_csr(const pushpull::Csr& a, const pushpull::Csr& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (vid_t v = 0; v < a.n(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end())) << v;
    const auto wa = a.weights(v);
    const auto wb = b.weights(v);
    ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end())) << v;
  }
}

TEST(Inputs, GraphsAreTheAnalogs) {
  pushpull::BuildOptions bo;
  bo.keep_weights = true;
  const ServeInputs s = make_serve_inputs(kDevSeed, 1, 1.0, 1.0, 0, 1, 1);
  expect_same_csr(pushpull::build_csr(s.n, s.edges, bo), pushpull::pok_analog(-2, true));
  const AnalyticsInputs a = make_analytics_inputs(kDevSeed);
  expect_same_csr(pushpull::build_csr(a.n, a.edges, bo), pushpull::orc_analog(1, true));
}

TEST(Inputs, OpenLoopDueTimesFollowTheRate) {
  const ServeInputs s = make_serve_inputs(kDevSeed, 1, 100.0, 6.0, 1'000'000, 1, 1);
  ASSERT_EQ(s.open.size(), 600u);
  EXPECT_EQ(s.open[0].due_ns, 1'000'000u);
  EXPECT_EQ(s.open[1].due_ns, 11'000'000u);
  EXPECT_EQ(s.open[599].due_ns, 5'991'000'000u);
}

TEST(Inputs, IngestBatchesAreThreeToOneAndConsistent) {
  const IngestInputs in = make_ingest_inputs(kDevSeed, 32);
  std::set<std::uint64_t> arcs;
  auto key = [](vid_t u, vid_t v) {
    return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint32_t>(v);
  };
  for (const auto& e : in.edges) EXPECT_TRUE(arcs.insert(key(e.u, e.v)).second);
  for (const auto& batch : in.batches) {
    int inserts = 0;
    for (const EdgeUpdate& u : batch) {
      // Every delete names a live arc, every insert an absent one.
      if (u.insert) {
        ++inserts;
        EXPECT_TRUE(arcs.insert(key(u.u, u.v)).second);
      } else {
        EXPECT_EQ(arcs.erase(key(u.u, u.v)), 1u);
      }
    }
    EXPECT_EQ(inserts * 4, static_cast<int>(batch.size()) * 3);
  }
}

TEST(Digest, PayloadDigestIsBitwise) {
  const std::vector<float> a = {1.0f, 2.0f, INFINITY};
  std::vector<float> b = a;
  EXPECT_EQ(digest_of(a), digest_of(b));
  b[1] = std::nextafter(2.0f, 3.0f);
  EXPECT_NE(digest_of(a), digest_of(b));
  EXPECT_NE(digest_of(std::vector<int>{}), digest_of(std::vector<int>{0}));
}

TEST(PeakRss, ParsesVmHwm) {
  const char* status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   4321 kB\n";
  EXPECT_EQ(parse_status_kb(status, "VmHWM:"), 4321);
  EXPECT_EQ(parse_status_kb(status, "VmPeak:"), 9000);
  EXPECT_EQ(parse_status_kb("VmRSS:\t 12 kB\n", "VmHWM:"), -1);
  EXPECT_EQ(parse_status_kb("VmHWM:\t kB\n", "VmHWM:"), -1);
}

TEST(PeakRss, CoversTouchedMemory) {
  const double before = status_mb("VmRSS:");
  ASSERT_GT(before, 0.0);
  std::vector<char> block(64u << 20, 1);  // 64 MB, written so it is resident
  const double rss = status_mb("VmRSS:");
  EXPECT_GE(rss, before + 32.0);
  EXPECT_GE(peak_rss_mb(), rss);  // the high-water mark covers the current set
  EXPECT_EQ(block[block.size() / 2], 1);
}

}  // namespace
}  // namespace perfbench
