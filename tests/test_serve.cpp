// Serving layer (src/serve/) differential + concurrency tests.
//
// Pillars:
//  - multi_source_bfs / multi_source_sssp: every lane of one batched pass is
//    bit-identical to the standalone single-source kernel on the zoo graphs,
//    at 1..64 lanes and 1/4 OpenMP threads.
//  - Snapshot pinning under a live writer (the PR's headline contract): k
//    reader queries pinned to distinct epochs while a writer thread commits
//    throughout; every payload matches a standalone run on the PINNED
//    snapshot, never a later one.
//  - Cache, admission, batching, staleness accounting semantics.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <future>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "core/sssp_delta.hpp"
#include "graph/delta_graph.hpp"
#include "graph_zoo.hpp"
#include "serve/executor.hpp"
#include "serve/service.hpp"

namespace pushpull {
namespace {

using serve::Algo;
using serve::GraphService;
using serve::QueryRequest;
using serve::QueryResult;
using serve::Reject;

std::vector<vid_t> pick_sources(std::mt19937_64& rng, vid_t n, int k) {
  std::vector<vid_t> s;
  s.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    s.push_back(static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n)));
  }
  return s;
}

// --- Multi-source kernels vs standalone single-source ------------------------

TEST(MultiSourceBfs, LanesMatchSingleSourceOnZoo) {
  std::mt19937_64 rng(42);
  for (int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (const auto& entry : testing::unweighted_zoo()) {
      engine::SymmetricView view(entry.graph);
      const vid_t n = view.n();
      for (int k : {1, 2, 17, 64}) {
        const std::vector<vid_t> sources = pick_sources(rng, n, k);
        const MultiSourceBfsResult ms = multi_source_bfs(
            view, std::span<const vid_t>(sources));
        ASSERT_EQ(ms.lanes, k);
        for (int l = 0; l < k; ++l) {
          EXPECT_EQ(ms.lane(l, n), bfs_levels(view, sources[l]))
              << entry.name << " lane " << l << " of " << k << " src "
              << sources[l] << " threads " << threads;
        }
      }
    }
  }
  omp_set_num_threads(4);
}

TEST(MultiSourceBfs, DuplicateSourcesShareLevels) {
  const auto& entry = testing::unweighted_zoo().front();
  engine::SymmetricView view(entry.graph);
  const vid_t n = view.n();
  const std::vector<vid_t> sources{3, 3, 3};
  const MultiSourceBfsResult ms =
      multi_source_bfs(view, std::span<const vid_t>(sources));
  const std::vector<vid_t> want = bfs_levels(view, vid_t{3});
  for (int l = 0; l < 3; ++l) EXPECT_EQ(ms.lane(l, n), want);
}

TEST(MultiSourceBfs, StaticDirectionsAgree) {
  std::mt19937_64 rng(7);
  const auto& entry = testing::unweighted_zoo()[8];  // er200
  engine::SymmetricView view(entry.graph);
  const vid_t n = view.n();
  const std::vector<vid_t> sources = pick_sources(rng, n, 9);
  MultiSourceBfsOptions push_opt, pull_opt;
  push_opt.strategy = engine::StrategyKind::StaticPush;
  pull_opt.strategy = engine::StrategyKind::StaticPull;
  const auto a =
      multi_source_bfs(view, std::span<const vid_t>(sources), push_opt);
  const auto b =
      multi_source_bfs(view, std::span<const vid_t>(sources), pull_opt);
  EXPECT_EQ(a.levels, b.levels);
}

TEST(MultiSourceSssp, LanesMatchDeltaSteppingOnZoo) {
  std::mt19937_64 rng(1234);
  for (int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (const auto& entry : testing::weighted_zoo()) {
      const Csr& g = entry.graph;
      const vid_t n = g.n();
      for (int k : {1, 2, 17}) {
        const std::vector<vid_t> sources = pick_sources(rng, n, k);
        const MultiSourceSsspResult ms =
            multi_source_sssp(g, std::span<const vid_t>(sources));
        ASSERT_EQ(ms.lanes, k);
        for (int l = 0; l < k; ++l) {
          const std::vector<weight_t> want =
              sssp_delta_push(g, sources[l], weight_t{2.0f}).dist;
          const std::vector<weight_t> got = ms.lane(l, n);
          ASSERT_EQ(got.size(), want.size());
          for (vid_t v = 0; v < n; ++v) {
            EXPECT_EQ(got[static_cast<std::size_t>(v)],
                      want[static_cast<std::size_t>(v)])
                << entry.name << " lane " << l << " src " << sources[l]
                << " v " << v << " threads " << threads;
          }
        }
      }
    }
  }
  omp_set_num_threads(4);
}

// --- DeltaGraph staleness exposure -------------------------------------------

TEST(DeltaGraphServe, NumBatchesSinceCountsCommits) {
  DeltaGraph dg(testing::unweighted_zoo().front().graph);
  const epoch_t e0 = dg.epoch();
  EXPECT_EQ(dg.num_batches_since(e0), 0u);
  for (int i = 0; i < 3; ++i) {
    dg.add_edge(0, static_cast<vid_t>(10 + i));
    dg.commit();
  }
  EXPECT_EQ(dg.num_batches_since(e0), 3u);
  EXPECT_EQ(dg.num_batches_since(dg.epoch()), 0u);
  EXPECT_EQ(dg.num_batches_since(e0 + 1), 2u);

  // Compaction folds the overlay, not the history: counts are unchanged and
  // keep following commits.
  dg.compact();
  EXPECT_EQ(dg.oldest_epoch(), dg.epoch());
  EXPECT_EQ(dg.num_batches_since(e0), 3u);
  EXPECT_EQ(dg.num_batches_since(dg.oldest_epoch()), 0u);
  dg.add_edge(0, 20);
  dg.commit();
  EXPECT_EQ(dg.num_batches_since(e0), 4u);
  EXPECT_EQ(dg.num_batches_since(dg.oldest_epoch()), 1u);
  EXPECT_EQ(dg.num_batches_since(dg.epoch() + 5), 0u);
  EXPECT_EQ(dg.batches_since(e0 + 1).size(), 3u);
}

// --- Service: snapshot pinning under a concurrent writer ---------------------

// Writer commits batches while k readers hold queries pinned to distinct
// epochs. Each payload must equal the standalone kernel on the PINNED
// snapshot — proving later commits never leak into a pinned answer.
TEST(GraphServicePinning, ReadersSeePinnedEpochUnderConcurrentCommits) {
  Csr base = testing::weighted_zoo().front().graph;
  DeltaGraph dg(std::move(base));
  const vid_t n = dg.n();

  // Lay down a few epochs to pin before the service starts.
  std::vector<epoch_t> epochs{dg.epoch()};
  std::mt19937_64 rng(99);
  for (int b = 0; b < 4; ++b) {
    for (int i = 0; i < 8; ++i) {
      const vid_t u = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      const vid_t v = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      if (u != v) dg.add_edge(u, v, 1.0f + 0.25f * static_cast<float>(b));
    }
    dg.commit();
    epochs.push_back(dg.epoch());
  }

  // Expected payloads from the pinned snapshots, computed BEFORE the writer
  // starts mutating — the pin contract says later commits cannot change them.
  std::vector<std::vector<vid_t>> want_levels;
  std::vector<std::vector<weight_t>> want_dist;
  for (const epoch_t e : epochs) {
    const SnapshotView snap = dg.snapshot(e);
    want_levels.push_back(
        serve::run_bfs(snap, 0, engine::StrategyKind::GenericSwitch));
    want_dist.push_back(serve::run_sssp(
        snap, 0, 2.0f, engine::StrategyKind::GenericSwitch));
  }

  serve::ServiceOptions opt;
  opt.workers = 3;
  opt.batch_window_us = 100;
  GraphService svc(dg, opt);

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    std::mt19937_64 wrng(7);
    while (!stop_writer.load()) {
      for (int i = 0; i < 8; ++i) {
        const vid_t u =
            static_cast<vid_t>(wrng() % static_cast<std::uint64_t>(n));
        const vid_t v =
            static_cast<vid_t>(wrng() % static_cast<std::uint64_t>(n));
        if (u != v) dg.add_edge(u, v, 0.5f);
      }
      dg.commit();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<QueryResult>> futs;
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      QueryRequest req;
      req.algo = (round % 2 == 0) ? Algo::Bfs : Algo::Sssp;
      req.source = 0;
      req.pin_epoch = epochs[i];
      futs.push_back(svc.submit(req));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const QueryResult r = futs[i].get();
      ASSERT_TRUE(r.ok) << r.reject_detail;
      EXPECT_EQ(r.epoch, epochs[i]);
      if (r.algo == Algo::Bfs) {
        EXPECT_EQ(r.levels, want_levels[i]) << "epoch " << epochs[i];
      } else {
        EXPECT_EQ(r.dist, want_dist[i]) << "epoch " << epochs[i];
      }
    }
  }

  stop_writer.store(true);
  writer.join();
  svc.stop();
}

// The writer compacts while queries are queued. Each query took its view at
// submit, so every one completes ok and equals a standalone run on the view
// the test captured at that epoch: compaction never pulls an epoch out from
// under an admitted query.
TEST(GraphServicePinning, CompactWhileQueriesQueuedServesPinnedViews) {
  DeltaGraph dg(testing::weighted_zoo()[3].graph);  // w_er200
  const vid_t n = dg.n();
  serve::ServiceOptions opt;
  opt.workers = 1;
  opt.batch_window_us = 2000;  // each head holds its worker: queries queue up
  opt.cache_entries = 0;       // every query executes
  GraphService svc(dg, opt);

  std::map<epoch_t, SnapshotView> views{{dg.epoch(), dg.snapshot()}};
  std::vector<QueryRequest> reqs;
  std::vector<std::future<QueryResult>> futs;
  std::mt19937_64 rng(11);
  std::size_t queued_at_compaction = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 6; ++i) {
      const vid_t u = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      const vid_t v = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      if (u == v) continue;
      if ((rng() & 3u) != 0) {
        dg.add_edge(u, v, 0.5f + static_cast<float>(rng() % 8));
      } else {
        dg.remove_edge(u, v);
      }
    }
    dg.commit();
    views.emplace(dg.epoch(), dg.snapshot());
    for (int q = 0; q < 4; ++q) {
      QueryRequest req;
      req.algo = q % 2 == 0 ? Algo::Bfs : Algo::Sssp;
      req.source = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      reqs.push_back(req);
      futs.push_back(svc.submit(req));
    }
    if (round % 5 == 4) {
      queued_at_compaction += svc.stats().queue_depth;
      dg.compact();
    }
  }
  EXPECT_GT(queued_at_compaction, 0u);  // compactions really raced the queue

  epoch_t oldest_answered = dg.epoch();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const QueryResult r = futs[i].get();
    ASSERT_TRUE(r.ok) << r.reject_detail;
    const auto it = views.find(r.epoch);
    ASSERT_NE(it, views.end());
    oldest_answered = std::min(oldest_answered, r.epoch);
    if (r.algo == Algo::Bfs) {
      EXPECT_EQ(r.levels, serve::run_bfs(it->second, reqs[i].source,
                                         engine::StrategyKind::GenericSwitch))
          << "query " << i << " epoch " << r.epoch;
    } else {
      EXPECT_EQ(r.dist, serve::run_sssp(it->second, reqs[i].source,
                                        opt.sssp_delta,
                                        engine::StrategyKind::GenericSwitch))
          << "query " << i << " epoch " << r.epoch;
    }
  }
  EXPECT_LT(oldest_answered, dg.oldest_epoch());

  // A fresh pin below the floor is refused with a reason, never an abort.
  QueryRequest stale;
  stale.algo = Algo::Bfs;
  stale.pin_epoch = oldest_answered;
  const QueryResult r = svc.submit(stale).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reject, Reject::BadRequest);
  svc.stop();
}

// Unpinned queries resolve to the latest epoch at submit time and report how
// many commits they are behind by completion.
TEST(GraphServicePinning, UnpinnedQueriesResolveLatestAndReportStaleness) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  GraphService svc(dg);
  QueryRequest req;
  req.algo = Algo::Bfs;
  req.source = 1;
  const QueryResult r = svc.submit(req).get();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.epoch, dg.epoch());
  EXPECT_EQ(r.behind_batches, 0u);

  dg.add_edge(0, 5, 1.0f);
  dg.commit();
  // A result pinned to the old epoch is now one batch behind.
  QueryRequest old_req;
  old_req.algo = Algo::Bfs;
  old_req.source = 1;
  old_req.pin_epoch = r.epoch;
  const QueryResult r2 = svc.submit(old_req).get();
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.epoch, r.epoch);
  EXPECT_EQ(r2.behind_batches, 1u);
  EXPECT_EQ(r2.levels, r.levels);
}

// --- Service: cache semantics ------------------------------------------------

TEST(GraphServiceCache, HitsOnlyWithinOneEpoch) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  GraphService svc(dg);
  QueryRequest req;
  req.algo = Algo::Bfs;
  req.source = 2;

  const QueryResult r1 = svc.submit(req).get();
  ASSERT_TRUE(r1.ok);
  EXPECT_FALSE(r1.from_cache);

  const QueryResult r2 = svc.submit(req).get();
  ASSERT_TRUE(r2.ok);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(r2.levels, r1.levels);
  EXPECT_EQ(r2.epoch, r1.epoch);

  dg.add_edge(2, 7, 1.0f);
  dg.commit();
  const QueryResult r3 = svc.submit(req).get();
  ASSERT_TRUE(r3.ok);
  EXPECT_FALSE(r3.from_cache);  // new epoch, new key
  EXPECT_EQ(r3.epoch, dg.epoch());

  const serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_misses, 2u);
}

TEST(GraphServiceCache, WholeGraphAlgorithmsShareOneKeyPerEpoch) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  GraphService svc(dg);
  QueryRequest a, b;
  a.algo = b.algo = Algo::Cc;
  a.source = 3;  // source is normalized out of whole-graph cache keys
  b.source = 9;
  const QueryResult r1 = svc.submit(a).get();
  const QueryResult r2 = svc.submit(b).get();
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_FALSE(r1.from_cache);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(r1.comp, r2.comp);
}

// --- Service: admission ------------------------------------------------------

TEST(GraphServiceAdmission, RejectsWithReason) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  GraphService svc(dg);

  QueryRequest bad_source;
  bad_source.algo = Algo::Bfs;
  bad_source.source = dg.n() + 100;
  const QueryResult r1 = svc.submit(bad_source).get();
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.reject, Reject::BadRequest);

  QueryRequest bad_epoch;
  bad_epoch.algo = Algo::Bfs;
  bad_epoch.pin_epoch = dg.epoch() + 50;
  const QueryResult r2 = svc.submit(bad_epoch).get();
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.reject, Reject::BadRequest);

  QueryRequest tiny_ops;
  tiny_ops.algo = Algo::Bfs;
  tiny_ops.op_budget = 1;
  const QueryResult r3 = svc.submit(tiny_ops).get();
  EXPECT_FALSE(r3.ok);
  EXPECT_EQ(r3.reject, Reject::OverOpBudget);
  EXPECT_FALSE(r3.reject_detail.empty());

  QueryRequest rushed;
  rushed.algo = Algo::PageRank;
  rushed.time_budget_s = 1e-9;
  const QueryResult r4 = svc.submit(rushed).get();
  EXPECT_FALSE(r4.ok);
  EXPECT_EQ(r4.reject, Reject::OverTimeBudget);

  const serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.rejected, 4u);
  EXPECT_EQ(st.completed, 0u);
}

TEST(GraphServiceAdmission, CapacityGatesInflightOps) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  serve::ServiceOptions opt;
  opt.admission.capacity_ops = 1;  // everything is over capacity
  GraphService svc(dg, opt);
  QueryRequest req;
  req.algo = Algo::Bfs;
  const QueryResult r = svc.submit(req).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reject, Reject::OverCapacity);
}

TEST(AdmissionController, QueueLimitAndLedger) {
  serve::AdmissionOptions opt;
  opt.max_queue = 2;
  opt.capacity_ops = 1000000;
  serve::AdmissionController ac(opt);
  QueryRequest req;
  req.algo = Algo::Bfs;

  const auto d1 = ac.admit(req, 100, 1000, /*queued=*/0);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(d1.priced_ops, serve::AdmissionController::price(Algo::Bfs, 100, 1000));
  EXPECT_EQ(ac.inflight_ops(), d1.priced_ops);

  const auto d2 = ac.admit(req, 100, 1000, /*queued=*/2);
  EXPECT_EQ(d2.reject, Reject::QueueFull);
  EXPECT_EQ(ac.inflight_ops(), d1.priced_ops);  // rejects charge nothing

  ac.release(d1.priced_ops);
  EXPECT_EQ(ac.inflight_ops(), 0u);
}

// --- Service: batching -------------------------------------------------------

// With a wide window and one worker, concurrently submitted same-policy BFS
// queries merge into one multi-source pass; each lane still equals the
// standalone run.
TEST(GraphServiceBatching, MergesCompatibleQueriesAndStaysExact) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  const SnapshotView snap = dg.snapshot();
  serve::ServiceOptions opt;
  opt.workers = 1;
  opt.batch_window_us = 100000;  // 100 ms: everything below lands in one pass
  opt.cache_entries = 0;         // force execution for every query
  GraphService svc(dg, opt);

  constexpr int kQueries = 6;
  std::vector<std::future<QueryResult>> futs;
  std::vector<vid_t> sources;
  for (int i = 0; i < kQueries; ++i) {
    QueryRequest req;
    req.algo = Algo::Bfs;
    req.source = static_cast<vid_t>(3 * i + 1);
    sources.push_back(req.source);
    futs.push_back(svc.submit(req));
  }
  int max_lanes = 0;
  for (int i = 0; i < kQueries; ++i) {
    const QueryResult r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok) << r.reject_detail;
    max_lanes = std::max(max_lanes, r.batch_lanes);
    EXPECT_EQ(r.levels, serve::run_bfs(snap, sources[static_cast<std::size_t>(i)],
                                       engine::StrategyKind::GenericSwitch));
  }
  EXPECT_GE(max_lanes, 2);  // the window did merge
  const serve::ServiceStats st = svc.stats();
  EXPECT_GT(st.batched_queries, 0u);
  EXPECT_LT(st.batches, static_cast<std::uint64_t>(kQueries));
}

// --- Service: lifecycle ------------------------------------------------------

TEST(GraphServiceLifecycle, StopIsIdempotentAndDtorSafe) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  GraphService svc(dg);
  QueryRequest req;
  req.algo = Algo::Cc;
  EXPECT_TRUE(svc.submit(req).get().ok);
  svc.stop();
  svc.stop();
  QueryRequest fresh;  // uncached: a repeat CC would legitimately hit the cache
  fresh.algo = Algo::Bfs;
  fresh.source = 4;
  const QueryResult r = svc.submit(fresh).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reject, Reject::Shutdown);
}

}  // namespace
}  // namespace pushpull
