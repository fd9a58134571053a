// Serving layer (src/serve/) differential + concurrency tests.
//
// Pillars:
//  - multi_source_bfs / multi_source_sssp: every lane of one batched pass is
//    bit-identical to the standalone single-source kernel on the zoo graphs,
//    at 1..64 lanes and 1/4 OpenMP threads.
//  - Snapshot pinning under a live writer: BFS, SSSP, PageRank and CC
//    queries, pinned to distinct epochs or unpinned, while a writer thread
//    commits throughout; every payload matches a standalone run on the
//    snapshot of the epoch it names, never a later one.
//  - Admission, merging of queued queries, staleness accounting, lifecycle.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "core/sssp_delta.hpp"
#include "graph/delta_graph.hpp"
#include "graph/generators.hpp"
#include "graph_zoo.hpp"
#include "obs/trace.hpp"
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

// A standalone run of `req` on `snap` through the executor functions the
// service dispatches to; the payload lands in the field `req.algo` names.
QueryResult standalone(const SnapshotView& snap, const QueryRequest& req,
                       weight_t sssp_delta) {
  QueryResult r;
  switch (req.algo) {
    case Algo::Bfs:
      r.levels = serve::run_bfs(snap, req.source, req.policy);
      break;
    case Algo::Sssp:
      r.dist = serve::run_sssp(snap, req.source, sssp_delta, req.policy);
      break;
    case Algo::PageRank:
      r.ranks = serve::run_pagerank(snap);
      break;
    case Algo::Cc:
      r.comp = serve::run_cc(snap);
      break;
  }
  return r;
}

// Bitwise payload equality: exactly one payload is filled on each side.
void expect_same_payload(const QueryResult& got, const QueryResult& want,
                         const std::string& what) {
  EXPECT_EQ(got.levels, want.levels) << what;
  EXPECT_EQ(got.dist, want.dist) << what;
  EXPECT_EQ(got.ranks, want.ranks) << what;
  EXPECT_EQ(got.comp, want.comp) << what;
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

constexpr Algo kAlgos[] = {Algo::Bfs, Algo::Sssp, Algo::PageRank, Algo::Cc};

// The graph the writer below mutates: a weighted R-MAT on 1,024 vertices
// plus 256 vertices with no edges, so vertices are isolated across the whole
// id range. An isolated vertex is a singleton component and dangling
// PageRank mass, so a commit that links one changes the CC labels and the
// dangling sum; n > 1024 spreads that sum over two of pr_dangling_mass's
// blocks.
const Csr& writer_graph() {
  static const Csr g =
      make_undirected_weighted(1280, rmat_edges(10, 2, 71), 1.0f, 10.0f, 73);
  return g;
}

// One run of the test below with the writer committing every `period`.
void serve_under_writer(std::chrono::microseconds period) {
  DeltaGraph dg(writer_graph());
  const vid_t n = dg.n();

  // Isolated vertices in every quarter of the id range: the dangling mass
  // is summed across every thread's static range of a 4-wide team.
  {
    const SnapshotView base = dg.snapshot();
    for (vid_t q = 0; q < 4; ++q) {
      bool isolated = false;
      for (vid_t v = q * n / 4; v < (q + 1) * n / 4; ++v) {
        isolated = isolated || base.out().degree(v) == 0;
      }
      ASSERT_TRUE(isolated) << "no isolated vertex in quarter " << q;
    }
  }

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

  // Expected payloads per (pinned epoch, algorithm), computed BEFORE the
  // writer starts mutating — the pin contract says later commits cannot
  // change them. They and the replays below run on one OpenMP thread while
  // the workers run full teams, so a served answer that depends on team
  // width fails too.
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  serve::ServiceOptions opt;
  std::vector<std::vector<QueryResult>> want(epochs.size());
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const SnapshotView snap = dg.snapshot(epochs[i]);
    for (const Algo a : kAlgos) {
      QueryRequest req;
      req.algo = a;
      want[i].push_back(standalone(snap, req, opt.sssp_delta));
    }
  }
  // Serving a pinned query on the wrong epoch must be visible: every
  // algorithm's answer differs between the first and last laid-down epochs.
  for (std::size_t a = 0; a < std::size(kAlgos); ++a) {
    const QueryResult& first = want.front()[a];
    const QueryResult& last = want.back()[a];
    ASSERT_FALSE(first.levels == last.levels && first.dist == last.dist &&
                 first.ranks == last.ranks && first.comp == last.comp)
        << to_string(kAlgos[a]) << " is the same at the first and last epoch";
  }

  obs::Tracer tracer;
  opt.workers = 3;
  opt.tracer = &tracer;
  GraphService svc(dg, opt);

  // The writer alternates a commit of 8 random edges with a commit that
  // removes them again, so the graph changes at every commit but does not
  // grow with the commit count.
  std::atomic<int> commits{0};
  std::jthread writer([&](std::stop_token stop) {
    std::mt19937_64 wrng(7);
    std::vector<std::pair<vid_t, vid_t>> added;
    while (!stop.stop_requested()) {
      if (added.empty()) {
        for (int i = 0; i < 8; ++i) {
          const vid_t u =
              static_cast<vid_t>(wrng() % static_cast<std::uint64_t>(n));
          const vid_t v =
              static_cast<vid_t>(wrng() % static_cast<std::uint64_t>(n));
          if (u == v) continue;
          dg.add_edge(u, v, 0.5f);
          added.emplace_back(u, v);
        }
      } else {
        for (const auto& [u, v] : added) dg.remove_edge(u, v);
        added.clear();
      }
      dg.commit();
      commits.fetch_add(1);
      std::this_thread::sleep_for(period);
    }
  });

  // Each round submits one algorithm: a query pinned to every laid-down
  // epoch, then a burst of unpinned ones (which share the latest epoch
  // unless a commit lands between them, and then merge). Rounds go on until
  // the writer has committed kMinCommits times, so both rates serve across
  // many commits.
  constexpr int kRounds = 8;
  constexpr int kMinCommits = 10;
  constexpr int kUnpinned = 4;
  std::vector<std::pair<QueryRequest, QueryResult>> unpinned;
  for (int round = 0; round < kRounds || commits.load() < kMinCommits;
       ++round) {
    const std::size_t a = static_cast<std::size_t>(round) % std::size(kAlgos);
    std::vector<std::future<QueryResult>> pinned_futs;
    for (const epoch_t e : epochs) {
      QueryRequest req;
      req.algo = kAlgos[a];
      req.pin_epoch = e;
      pinned_futs.push_back(svc.submit(req));
    }
    std::vector<QueryRequest> reqs;
    std::vector<std::future<QueryResult>> futs;
    for (int i = 0; i < kUnpinned; ++i) {
      QueryRequest req;
      req.algo = kAlgos[a];
      req.source = static_cast<vid_t>((round + 5 * i) % n);
      reqs.push_back(req);
      futs.push_back(svc.submit(req));
    }
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      const QueryResult r = pinned_futs[i].get();
      EXPECT_TRUE(r.ok) << r.reject_detail;
      EXPECT_EQ(r.epoch, epochs[i]);
      expect_same_payload(r, want[i][a],
                          std::string(to_string(r.algo)) + " pinned epoch " +
                              std::to_string(epochs[i]));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      QueryResult r = futs[i].get();
      EXPECT_TRUE(r.ok) << r.reject_detail;
      unpinned.emplace_back(reqs[i], std::move(r));
    }
  }
  writer.request_stop();
  writer.join();
  svc.stop();

  // Replay every unpinned answer on the epoch it resolved to at submit.
  for (const auto& [req, r] : unpinned) {
    expect_same_payload(
        r, standalone(dg.snapshot(r.epoch), req, opt.sssp_delta),
        std::string(to_string(r.algo)) + " unpinned source " +
            std::to_string(req.source) + " epoch " + std::to_string(r.epoch));
  }
  omp_set_num_threads(threads);

  // One serve/query span per completed query, one serve/execute span per
  // executed pass.
  const serve::ServiceStats st = svc.stats();
  std::uint64_t query_spans = 0;
  std::uint64_t execute_spans = 0;
  for (const auto& [tid, ev] : tracer.sorted_events()) {
    query_spans += std::strcmp(ev.name, "serve/query") == 0 ? 1 : 0;
    execute_spans += std::strcmp(ev.name, "serve/execute") == 0 ? 1 : 0;
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(query_spans, st.completed);
  EXPECT_EQ(execute_spans, st.batches);
}

// Readers submit BFS, SSSP, PageRank and CC queries while a writer commits.
// A query pinned to an epoch laid down before the service started must equal
// the standalone run on that PINNED snapshot, computed before the writer
// started — later commits never leak into a pinned answer. An unpinned query
// must equal the standalone run on snapshot(r.epoch), replayed after the
// writer stops. The writer commits every 200 µs, then every 10 ms.
TEST(GraphServicePinning, ReadersSeePinnedEpochUnderConcurrentCommits) {
  for (const auto period :
       {std::chrono::microseconds(200), std::chrono::microseconds(10000)}) {
    SCOPED_TRACE("writer period " + std::to_string(period.count()) + " us");
    serve_under_writer(period);
  }
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
    // In a compaction round a PageRank query goes first and holds the single
    // worker, so the queries behind it are still queued when compact() runs.
    const bool compacting = round % 5 == 4;
    for (int q = compacting ? -1 : 0; q < 4; ++q) {
      QueryRequest req;
      req.algo = q < 0 ? Algo::PageRank : q % 2 == 0 ? Algo::Bfs : Algo::Sssp;
      req.source = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      reqs.push_back(req);
      futs.push_back(svc.submit(req));
    }
    if (compacting) {
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
    expect_same_payload(r, standalone(it->second, reqs[i], opt.sssp_delta),
                        "query " + std::to_string(i) + " epoch " +
                            std::to_string(r.epoch));
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

// --- Service: merging queued queries ----------------------------------------

// PageRank queries hold the single worker while six BFS queries queue behind
// them; the worker then runs all six as one multi-source pass. Each lane
// still equals the standalone run, and so do the PageRank payloads.
TEST(GraphServiceBatching, MergesCompatibleQueriesAndStaysExact) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  const SnapshotView snap = dg.snapshot();
  serve::ServiceOptions opt;
  opt.workers = 1;
  GraphService svc(dg, opt);
  QueryRequest pr;
  pr.algo = Algo::PageRank;
  const QueryResult pr_want = standalone(snap, pr, opt.sssp_delta);

  constexpr int kHolders = 3;
  constexpr int kQueries = 6;
  bool all_queued = false;
  for (int attempt = 0; attempt < 5 && !all_queued; ++attempt) {
    const serve::ServiceStats before = svc.stats();
    std::vector<std::future<QueryResult>> pr_futs;
    for (int h = 0; h < kHolders; ++h) pr_futs.push_back(svc.submit(pr));
    std::vector<std::future<QueryResult>> futs;
    std::vector<QueryRequest> reqs;
    for (int i = 0; i < kQueries; ++i) {
      QueryRequest req;
      req.algo = Algo::Bfs;
      req.source = static_cast<vid_t>(3 * i + 1);
      reqs.push_back(req);
      futs.push_back(svc.submit(req));
    }
    // The worker pops in submit order. If all six BFS queries are still
    // queued once the last is submitted, it reaches them together and must
    // merge all six. If it outran the submissions, the attempt says nothing
    // about merging (its answers are still checked) and is repeated.
    all_queued = svc.stats().queue_depth >= static_cast<std::size_t>(kQueries);
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const QueryResult r = futs[i].get();
      ASSERT_TRUE(r.ok) << r.reject_detail;
      if (all_queued) {
        EXPECT_EQ(r.batch_lanes, kQueries);
      }
      expect_same_payload(r, standalone(snap, reqs[i], opt.sssp_delta),
                          "lane " + std::to_string(i));
    }
    for (std::future<QueryResult>& f : pr_futs) {
      const QueryResult r = f.get();
      ASSERT_TRUE(r.ok) << r.reject_detail;
      EXPECT_EQ(r.batch_lanes, 1);
      expect_same_payload(r, pr_want, "pagerank");
    }
    if (all_queued) {
      const serve::ServiceStats st = svc.stats();
      EXPECT_EQ(st.batches - before.batches,
                static_cast<std::uint64_t>(kHolders + 1));
      EXPECT_EQ(st.batched_queries - before.batched_queries,
                static_cast<std::uint64_t>(kQueries));
    }
  }
  EXPECT_TRUE(all_queued) << "the worker reached the BFS queries before the "
                             "last was submitted in every attempt";
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
  const QueryResult r = svc.submit(req).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reject, Reject::Shutdown);
}

}  // namespace
}  // namespace pushpull
