// DeltaGraph: the versioned mutable store behind SnapshotView. Covers the
// writer API edge cases (duplicates, absent deletes, self-loops), epoch
// history and its compaction floor, snapshot equivalence against statically
// built CSRs across the zoos, the published (derived-at-commit) path under
// long churn with arena restarts and compactions, the page table's sharing
// and edge cases, kernel bit-identity on SnapshotView vs the static views,
// compaction under live snapshots, and a concurrent writer/reader pass that
// the TSan CI job runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/incremental.hpp"
#include "core/pagerank.hpp"
#include "digraph_zoo.hpp"
#include "engine/graph_view.hpp"
#include "graph/builder.hpp"
#include "graph/delta_graph.hpp"
#include "graph_zoo.hpp"

namespace pushpull {
namespace {

static_assert(engine::GraphView<SnapshotView>);
static_assert(CsrLike<SnapshotCsr>);

// A small symmetric base: path 0-1-2-3-4 plus chord 1-3.
Csr small_base() {
  return make_undirected(
      5, EdgeList{{0, 1, 1.0f}, {1, 2, 1.0f}, {2, 3, 1.0f}, {3, 4, 1.0f},
                  {1, 3, 1.0f}});
}

std::vector<vid_t> sorted_neighbors(const SnapshotCsr& g, vid_t v) {
  auto nb = g.neighbors(v);
  return std::vector<vid_t>(nb.begin(), nb.end());
}

TEST(DeltaGraph, DuplicateInsertsAndAbsentDeletesAreRejected) {
  DeltaGraph dg(small_base());
  EXPECT_FALSE(dg.add_edge(0, 1));  // already in the base
  EXPECT_FALSE(dg.add_edge(1, 0));  // symmetric alias of a base edge
  EXPECT_TRUE(dg.add_edge(0, 2));
  EXPECT_FALSE(dg.add_edge(2, 0));  // already staged
  EXPECT_FALSE(dg.remove_edge(0, 4));  // never existed
  EXPECT_TRUE(dg.remove_edge(4, 3));   // base edge, either orientation
  EXPECT_FALSE(dg.remove_edge(3, 4));  // already gone from staged state
  EXPECT_EQ(dg.pending_updates(), 2u);

  // Staged ops are invisible until commit.
  EXPECT_EQ(dg.snapshot().out().degree(0), 1);
  const epoch_t e = dg.commit();
  EXPECT_EQ(dg.pending_updates(), 0u);
  const SnapshotView snap = dg.snapshot(e);
  EXPECT_EQ(sorted_neighbors(snap.out(), 0), (std::vector<vid_t>{1, 2}));
  EXPECT_EQ(sorted_neighbors(snap.out(), 4), std::vector<vid_t>{});
}

TEST(DeltaGraph, SelfLoopsRoundTrip) {
  DeltaGraph dg(small_base());
  EXPECT_TRUE(dg.add_edge(2, 2));
  EXPECT_FALSE(dg.add_edge(2, 2));
  dg.commit();
  EXPECT_EQ(sorted_neighbors(dg.snapshot().out(), 2),
            (std::vector<vid_t>{1, 2, 3}));
  EXPECT_TRUE(dg.remove_edge(2, 2));
  dg.commit();
  EXPECT_EQ(sorted_neighbors(dg.snapshot().out(), 2),
            (std::vector<vid_t>{1, 3}));
}

TEST(DeltaGraph, ReinsertAfterDeleteWithinOneBatch) {
  DeltaGraph dg(small_base());
  EXPECT_TRUE(dg.remove_edge(1, 2));
  EXPECT_TRUE(dg.add_edge(1, 2));
  dg.commit();
  EXPECT_TRUE(dg.snapshot().out().has_edge(1, 2));
}

TEST(DeltaGraph, EpochHistoryAndBatchesSince) {
  DeltaGraph dg(small_base());
  const epoch_t e0 = dg.epoch();
  EXPECT_EQ(dg.commit(), e0);  // empty commit is a no-op

  dg.add_edge(0, 3);
  const epoch_t e1 = dg.commit();
  EXPECT_EQ(e1, e0 + 1);
  dg.remove_edge(0, 1);
  dg.add_edge(2, 4);
  const epoch_t e2 = dg.commit();
  EXPECT_EQ(e2, e1 + 1);

  const auto batches = dg.batches_since(e0);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].epoch, e1);
  ASSERT_EQ(batches[0].updates.size(), 1u);
  EXPECT_TRUE(batches[0].updates[0].insert);
  EXPECT_EQ(batches[1].epoch, e2);
  EXPECT_EQ(batches[1].updates.size(), 2u);
  EXPECT_TRUE(dg.batches_since(e2).empty());

  // Per-epoch snapshots observe exactly their batch prefix.
  EXPECT_FALSE(dg.snapshot(e0).out().has_edge(0, 3));
  EXPECT_TRUE(dg.snapshot(e1).out().has_edge(0, 3));
  EXPECT_TRUE(dg.snapshot(e1).out().has_edge(0, 1));
  EXPECT_FALSE(dg.snapshot(e2).out().has_edge(0, 1));
}

// compact() releases the batches at or below its floor: batches_since
// serves exactly the later ones and aborts below the floor, while the counts
// stay epoch arithmetic.
TEST(DeltaGraph, CompactionReleasesHistoryBelowTheFloor) {
  DeltaGraph dg(small_base());
  dg.add_edge(0, 2);
  dg.commit();
  dg.add_edge(0, 3);
  dg.commit();
  dg.compact();
  const epoch_t floor = dg.oldest_epoch();
  EXPECT_EQ(floor, dg.epoch());
  EXPECT_TRUE(dg.batches_since(floor).empty());

  dg.add_edge(0, 4);
  const epoch_t e3 = dg.commit();
  dg.remove_edge(0, 2);
  dg.add_edge(2, 4);
  const epoch_t e4 = dg.commit();
  const auto batches = dg.batches_since(floor);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].epoch, e3);
  ASSERT_EQ(batches[0].updates.size(), 1u);
  EXPECT_EQ(batches[0].updates[0].v, 4);
  EXPECT_EQ(batches[1].epoch, e4);
  EXPECT_EQ(batches[1].updates.size(), 2u);
  EXPECT_EQ(dg.batches_since(e3).size(), 1u);
  EXPECT_EQ(dg.num_batches_since(floor - 1), 3u);
  EXPECT_DEATH(dg.batches_since(floor - 1), "compaction floor");
}

TEST(DeltaGraph, CompactKeepsLiveSnapshotsValid) {
  DeltaGraph dg(small_base());
  dg.add_edge(0, 4);
  const epoch_t e1 = dg.commit();
  const SnapshotView before = dg.snapshot(e1);

  dg.remove_edge(0, 4);
  const epoch_t e2 = dg.commit();
  const SnapshotView at_e2 = dg.snapshot(e2);
  dg.compact();

  // The pre-compaction snapshots still read their epochs' adjacency.
  EXPECT_TRUE(before.out().has_edge(0, 4));
  EXPECT_FALSE(at_e2.out().has_edge(0, 4));
  // The compacted store answers identically to the last committed epoch and
  // has folded the whole overlay away.
  EXPECT_EQ(dg.oldest_epoch(), e2);
  EXPECT_EQ(dg.overlay_entries(), 0u);
  const SnapshotView after = dg.snapshot();
  EXPECT_EQ(after.epoch(), e2);
  for (vid_t v = 0; v < dg.n(); ++v) {
    EXPECT_EQ(sorted_neighbors(after.out(), v),
              sorted_neighbors(at_e2.out(), v));
  }
  // Staged-but-uncommitted work survives compaction.
  dg.add_edge(0, 2);
  dg.compact();
  EXPECT_EQ(dg.pending_updates(), 1u);
  dg.commit();
  EXPECT_TRUE(dg.snapshot().out().has_edge(0, 2));
}

// Applies a reproducible random batch to both a DeltaGraph and a std::set
// model of the edge set; returns false if they ever disagree on accept.
template <class ApplyStatic>
void random_churn_equivalence(const Csr& base, bool symmetric,
                              std::uint64_t seed, ApplyStatic rebuild) {
  const vid_t n = base.n();
  std::set<std::pair<vid_t, vid_t>> model;  // canonical arcs
  const auto canon = [&](vid_t u, vid_t v) {
    if (symmetric && u > v) std::swap(u, v);
    return std::make_pair(u, v);
  };
  for (vid_t v = 0; v < n; ++v) {
    for (vid_t u : base.neighbors(v)) model.insert(canon(v, u));
  }

  DeltaGraph dg{Csr(base)};
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) {
      const vid_t u = static_cast<vid_t>(rng() % n);
      const vid_t v = static_cast<vid_t>(rng() % n);
      if ((rng() & 1u) != 0) {
        EXPECT_EQ(dg.add_edge(u, v), model.insert(canon(u, v)).second);
      } else {
        EXPECT_EQ(dg.remove_edge(u, v), model.erase(canon(u, v)) > 0);
      }
    }
    dg.commit();
    if (round == 1) dg.compact();  // interleave compaction mid-churn

    // The snapshot must agree arc-for-arc with a statically rebuilt CSR.
    const SnapshotView snap = dg.snapshot();
    const Csr fresh = rebuild(n, model);
    ASSERT_EQ(snap.num_arcs(), fresh.num_arcs());
    for (vid_t v = 0; v < n; ++v) {
      ASSERT_EQ(sorted_neighbors(snap.out(), v),
                std::vector<vid_t>(fresh.neighbors(v).begin(),
                                   fresh.neighbors(v).end()))
          << "vertex " << v << " round " << round;
    }
  }
}

TEST(DeltaGraph, SnapshotMatchesStaticRebuildAcrossZoo) {
  std::uint64_t seed = 7;
  for (const auto& entry : pushpull::testing::unweighted_zoo()) {
    random_churn_equivalence(
        entry.graph, /*symmetric=*/true, seed++,
        [](vid_t n, const std::set<std::pair<vid_t, vid_t>>& model) {
          EdgeList edges;
          for (const auto& [u, v] : model) edges.push_back(Edge{u, v, 1.0f});
          // The churn legitimately adds self-loops; the rebuild must keep
          // them (make_undirected's builder default would drop them).
          BuildOptions opts;
          opts.remove_self_loops = false;
          return build_csr(n, std::move(edges), opts);
        });
  }
}

TEST(DeltaGraph, DigraphSnapshotKeepsTransposeConsistent) {
  std::uint64_t seed = 1234;
  for (const auto& entry : pushpull::testing::digraph_zoo()) {
    const Digraph& base = entry.graph;
    const vid_t n = base.out.n();
    std::set<std::pair<vid_t, vid_t>> model;
    for (vid_t v = 0; v < n; ++v) {
      for (vid_t u : base.out.neighbors(v)) model.emplace(v, u);
    }
    DeltaGraph dg(Digraph{Csr(base.out), Csr(base.in)});
    std::mt19937_64 rng(seed++);
    for (int i = 0; i < 60; ++i) {
      const vid_t u = static_cast<vid_t>(rng() % n);
      const vid_t v = static_cast<vid_t>(rng() % n);
      if ((rng() & 1u) != 0) {
        EXPECT_EQ(dg.add_edge(u, v), model.emplace(u, v).second);
      } else {
        EXPECT_EQ(dg.remove_edge(u, v), model.erase({u, v}) > 0);
      }
    }
    dg.commit();
    const SnapshotView snap = dg.snapshot();
    EXPECT_FALSE(snap.is_symmetric());
    // in() must be exactly the transpose of out().
    std::set<std::pair<vid_t, vid_t>> fwd, bwd;
    for (vid_t v = 0; v < n; ++v) {
      for (vid_t u : snap.out().neighbors(v)) fwd.emplace(v, u);
      for (vid_t u : snap.in().neighbors(v)) bwd.emplace(u, v);
    }
    EXPECT_EQ(fwd, model) << entry.name;
    EXPECT_EQ(bwd, model) << entry.name;
    // reversed() swaps the roles.
    EXPECT_EQ(&snap.reversed().out(), &snap.in());
  }
}

// --- The published path under long churn -------------------------------------

// Every stored arc (both directions on a symmetric store) with its weight.
using ArcModel = std::map<std::pair<vid_t, vid_t>, weight_t>;

// The CSR a static build of `model` produces: rows in (source, target) order.
Csr static_rebuild(vid_t n, const ArcModel& model, bool weighted) {
  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<vid_t> adj;
  std::vector<weight_t> weights;
  for (const auto& [arc, w] : model) {
    ++offsets[static_cast<std::size_t>(arc.first) + 1];
    adj.push_back(arc.second);
    if (weighted) weights.push_back(w);
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
    offsets[v + 1] += offsets[v];
  }
  return Csr(std::move(offsets), std::move(adj), std::move(weights));
}

ArcModel transposed(const ArcModel& model) {
  ArcModel t;
  for (const auto& [arc, w] : model) t.emplace(std::make_pair(arc.second, arc.first), w);
  return t;
}

// Arc for arc and weight for weight.
void expect_same_csr(const SnapshotCsr& got, const Csr& want,
                     const std::string& where) {
  ASSERT_EQ(got.num_arcs(), want.num_arcs()) << where;
  ASSERT_EQ(got.has_weights(), want.has_weights()) << where;
  for (vid_t v = 0; v < want.n(); ++v) {
    const auto a = got.neighbors(v);
    const auto b = want.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << where << " vertex " << v;
    if (want.has_weights()) {
      const auto wa = got.weights(v);
      const auto wb = want.weights(v);
      ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()))
          << where << " weights of vertex " << v;
    }
    // Edge ids form one contiguous range per row and address the same arcs.
    ASSERT_EQ(got.edge_end(v) - got.edge_begin(v), got.degree(v)) << where;
    for (eid_t e = got.edge_begin(v); e < got.edge_end(v); ++e) {
      const auto k = static_cast<std::size_t>(e - got.edge_begin(v));
      ASSERT_EQ(got.edge_target(e), a[k]) << where;
      if (want.has_weights()) {
        ASSERT_EQ(got.edge_weight(e), got.weights(v)[k]) << where;
      }
    }
  }
}

// 600 commits of inserts and deletes with a compact() every 100. After every
// commit the published snapshot must equal a static rebuild of the model on
// both sides (the in-side is the transpose); views captured along the way
// must still read their own epoch after arena restarts and compactions, and
// so must snapshot(e) for every epoch since the last compaction.
void long_churn(DeltaGraph& dg, ArcModel model, bool weighted,
                std::uint64_t seed, const std::string& name) {
  const vid_t n = dg.n();
  const bool symmetric = dg.is_symmetric();
  std::mt19937_64 rng(seed);
  struct Captured {
    SnapshotView view;
    Csr out;
    Csr in;
  };
  std::vector<Captured> captured;
  // A new arena is allocated while the published view still holds the old
  // one, so a changed address between consecutive commits is a restart.
  const PatchArena* arena = nullptr;
  int restarts = 0;
  constexpr int kCommits = 600;
  constexpr int kCompactEvery = 100;
  for (int c = 1; c <= kCommits; ++c) {
    for (int i = 0; i < 8; ++i) {
      const vid_t u = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      const vid_t v = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      if ((rng() & 1u) != 0) {
        const weight_t w = 0.5f * static_cast<weight_t>(1 + rng() % 16);
        const bool fresh = !model.contains({u, v});
        ASSERT_EQ(dg.add_edge(u, v, w), fresh) << name;
        if (fresh) {
          model[{u, v}] = w;
          if (symmetric) model[{v, u}] = w;
        }
      } else {
        // Delete an existing arc out of u (the next one at or after v).
        const auto it = model.lower_bound({u, v});
        if (it == model.end() || it->first.first != u) continue;
        const vid_t t = it->first.second;
        ASSERT_TRUE(dg.remove_edge(u, t)) << name;
        model.erase({u, t});
        if (symmetric) model.erase({t, u});
      }
    }
    const epoch_t e = dg.commit();
    const SnapshotView snap = dg.snapshot();
    ASSERT_EQ(snap.epoch(), e);
    const Csr out = static_rebuild(n, model, weighted);
    const Csr in = static_rebuild(n, transposed(model), weighted);
    const std::string where = name + " commit " + std::to_string(c);
    expect_same_csr(snap.out(), out, where);
    expect_same_csr(snap.in(), in, where + " (in-side)");
    ASSERT_EQ(dg.num_arcs(), out.num_arcs()) << where;
    if (snap.out().arena() != arena) {
      ++restarts;
      arena = snap.out().arena();
    }
    if (c % 25 == 0) captured.push_back(Captured{snap, out, in});
    if (c % kCompactEvery == 0) {
      dg.compact();
      ASSERT_EQ(dg.oldest_epoch(), e);
      ASSERT_EQ(dg.num_batches_since(e - kCompactEvery),
                static_cast<std::size_t>(kCompactEvery));
      const SnapshotView after = dg.snapshot();
      expect_same_csr(after.out(), out, where + " after compact");
      expect_same_csr(after.in(), in, where + " after compact (in-side)");
    }
  }
  // Each arena holds at most twice its starting rows, so the churn must have
  // restarted it several times between compactions.
  EXPECT_GE(restarts, 2 * kCommits / kCompactEvery) << name;

  for (const Captured& cap : captured) {
    const std::string where =
        name + " captured epoch " + std::to_string(cap.view.epoch());
    expect_same_csr(cap.view.out(), cap.out, where);
    expect_same_csr(cap.view.in(), cap.in, where + " (in-side)");
    if (cap.view.epoch() >= dg.oldest_epoch()) {
      const SnapshotView historic = dg.snapshot(cap.view.epoch());
      expect_same_csr(historic.out(), cap.out, where + " historic");
      expect_same_csr(historic.in(), cap.in, where + " historic (in-side)");
    }
  }
}

TEST(DeltaGraph, PublishedSnapshotsTrackLongChurnSymmetricWeighted) {
  const auto& entry = pushpull::testing::weighted_zoo()[5];  // w_ba300
  ASSERT_TRUE(entry.graph.has_weights());
  ArcModel model;
  for (vid_t v = 0; v < entry.graph.n(); ++v) {
    const auto nb = entry.graph.neighbors(v);
    const auto w = entry.graph.weights(v);
    for (std::size_t k = 0; k < nb.size(); ++k) model[{v, nb[k]}] = w[k];
  }
  DeltaGraph dg{Csr(entry.graph)};
  long_churn(dg, std::move(model), /*weighted=*/true, 21, entry.name);
}

TEST(DeltaGraph, PublishedSnapshotsTrackLongChurnDigraph) {
  // The digraph zoo's R-MAT arcs, weighted so both sides carry weights.
  const auto& zoo = pushpull::testing::digraph_zoo();
  const auto it = std::find_if(zoo.begin(), zoo.end(),
                               [](const auto& z) { return z.name == "rmat9"; });
  ASSERT_NE(it, zoo.end());
  const Csr& out = it->graph.out;
  EdgeList edges;
  ArcModel model;
  for (vid_t v = 0; v < out.n(); ++v) {
    for (const vid_t u : out.neighbors(v)) {
      const weight_t w = static_cast<weight_t>(1 + (v * 31 + u) % 7);
      edges.push_back(Edge{v, u, w});
      model[{v, u}] = w;
    }
  }
  DeltaGraph dg(build_digraph(out.n(), std::move(edges), /*keep_weights=*/true));
  ASSERT_FALSE(dg.is_symmetric());
  long_churn(dg, std::move(model), /*weighted=*/true, 22, it->name);
}

// --- The page table ------------------------------------------------------------

// A weighted symmetric base of `n` vertices and about 4n random edges.
Csr paged_base(vid_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  EdgeList edges;
  for (vid_t i = 0; i < 4 * n; ++i) {
    edges.push_back(Edge{static_cast<vid_t>(rng() % n),
                         static_cast<vid_t>(rng() % n),
                         static_cast<weight_t>(1 + rng() % 9)});
  }
  BuildOptions opts;
  opts.keep_weights = true;
  return build_csr(n, std::move(edges), opts);
}

ArcModel arcs_of(const Csr& g) {
  ArcModel model;
  for (vid_t v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    const auto w = g.weights(v);
    for (std::size_t k = 0; k < nb.size(); ++k) model[{v, nb[k]}] = w[k];
  }
  return model;
}

// Stages the symmetric insertion of {u, t} for the first t >= v it can take,
// on both the store and the model, and returns t.
vid_t insert_from(DeltaGraph& dg, ArcModel& model, vid_t u, vid_t v,
                  weight_t w) {
  for (vid_t t = v; t < dg.n(); ++t) {
    if (model.contains({u, t})) continue;
    EXPECT_TRUE(dg.add_edge(u, t, w));
    model[{u, t}] = w;
    model[{t, u}] = w;
    return t;
  }
  ADD_FAILURE() << "vertex " << u << " has no free neighbor from " << v;
  return u;
}

// Pages are shared between epochs and never written in place: a view held
// across a commit that rewrites another vertex of its page, and across an
// arena restart, still reads its own epoch row for row.
TEST(DeltaGraphPages, HeldViewSurvivesSamePageRewriteAndArenaRestart) {
  constexpr vid_t kPage = SnapshotCsr::kPageSize;
  const vid_t n = 3 * kPage;
  const Csr base = paged_base(n, 41);
  ArcModel model = arcs_of(base);
  DeltaGraph dg{Csr(base)};

  insert_from(dg, model, 1, 2 * kPage, 2.5f);
  dg.commit();
  const SnapshotView held = dg.snapshot();
  const Csr held_csr = static_rebuild(n, model, /*weighted=*/true);

  // Vertex 2 shares vertex 1's page.
  insert_from(dg, model, 2, 2 * kPage, 3.5f);
  dg.commit();
  expect_same_csr(held.out(), held_csr, "held view after a same-page commit");
  expect_same_csr(dg.snapshot().out(), static_rebuild(n, model, true),
                  "latest after a same-page commit");

  std::mt19937_64 rng(43);
  const PatchArena* arena = dg.snapshot().out().arena();
  for (int c = 0; dg.snapshot().out().arena() == arena; ++c) {
    ASSERT_LT(c, 1000) << "the arena never restarted";
    for (int i = 0; i < 4; ++i) {
      insert_from(dg, model, static_cast<vid_t>(rng() % n),
                  static_cast<vid_t>(rng() % n), 1.0f);
    }
    dg.commit();
  }
  expect_same_csr(held.out(), held_csr, "held view after an arena restart");
  expect_same_csr(dg.snapshot().out(), static_rebuild(n, model, true),
                  "latest after an arena restart");
}

// The last page is partial: commits that touch vertex 0 and vertex n − 1
// read back exactly, on the published path and on the historic one.
TEST(DeltaGraphPages, PartialLastPageAndEndVertices) {
  constexpr vid_t kPage = SnapshotCsr::kPageSize;
  const vid_t n = 2 * kPage + kPage / 2 + 1;
  ASSERT_NE(n % kPage, 0);
  const Csr base = paged_base(n, 47);
  ArcModel model = arcs_of(base);
  DeltaGraph dg{Csr(base)};
  const vid_t last = n - 1;
  std::vector<Csr> at_epoch;
  at_epoch.push_back(static_rebuild(n, model, true));

  const auto remove = [&](vid_t u, vid_t v) {
    ASSERT_TRUE(dg.remove_edge(u, v));
    model.erase({u, v});
    model.erase({v, u});
  };
  for (int c = 0; c < 5; ++c) {
    switch (c) {
      case 0: insert_from(dg, model, 0, last, 4.0f); break;
      case 1: insert_from(dg, model, last, last, 5.0f); break;  // self-loop
      case 2: remove(0, last); break;
      case 3:  // empty vertex 0's row
        while (!model.empty() && model.begin()->first.first == 0) {
          remove(0, model.begin()->first.second);
        }
        break;
      case 4: insert_from(dg, model, 0, 0, 6.0f); break;
    }
    const epoch_t e = dg.commit();
    ASSERT_EQ(e, static_cast<epoch_t>(at_epoch.size()));
    at_epoch.push_back(static_rebuild(n, model, true));
    for (epoch_t h = 0; h <= e; ++h) {
      const std::string where =
          "commit " + std::to_string(c) + " epoch " + std::to_string(h);
      expect_same_csr(dg.snapshot(h).out(), at_epoch[h], where);
    }
  }
}

// A row whose overlay no longer changes it reads the base again, with the
// base's edge ids.
TEST(DeltaGraphPages, RowReturnsToTheBase) {
  constexpr vid_t kPage = SnapshotCsr::kPageSize;
  const vid_t n = 2 * kPage;
  const Csr base = paged_base(n, 53);
  ArcModel model = arcs_of(base);
  DeltaGraph dg{Csr(base)};
  const vid_t u = 5;
  const vid_t v = insert_from(dg, model, u, kPage, 2.0f);
  dg.commit();
  EXPECT_GE(dg.snapshot().out().edge_begin(u), base.num_arcs());

  ASSERT_TRUE(dg.remove_edge(u, v));
  const epoch_t e = dg.commit();
  for (const SnapshotView& back : {dg.snapshot(), dg.snapshot(e)}) {
    expect_same_csr(back.out(), base, "after the row returned");
    for (vid_t w = 0; w < n; ++w) {
      ASSERT_EQ(back.out().edge_begin(w), base.edge_begin(w)) << w;
      ASSERT_EQ(back.out().edge_end(w), base.edge_end(w)) << w;
    }
  }
}

// Kernels must not be able to tell a SnapshotView from a statically built
// view of the same graph: identical traversal order → bit-identical results.
TEST(DeltaGraph, KernelsBitIdenticalToStaticViews) {
  for (const auto& entry : pushpull::testing::unweighted_zoo()) {
    const vid_t n = entry.graph.n();
    DeltaGraph dg{Csr(entry.graph)};
    std::mt19937_64 rng(n);
    for (int i = 0; i < 30; ++i) {
      const vid_t u = static_cast<vid_t>(rng() % n);
      const vid_t v = static_cast<vid_t>(rng() % n);
      if ((rng() & 1u) != 0) {
        dg.add_edge(u, v);
      } else {
        dg.remove_edge(u, v);
      }
    }
    dg.commit();
    const SnapshotView snap = dg.snapshot();
    const Csr static_g = snap.out().materialize();
    const engine::SymmetricView flat(static_g);

    EXPECT_EQ(bfs_levels(snap, 0), bfs_levels(flat, 0)) << entry.name;
    EXPECT_EQ(cc_labels(snap), cc_labels(flat)) << entry.name;
    const PrFixpoint a = pagerank_converged(snap);
    const PrFixpoint b = pagerank_converged(flat);
    EXPECT_EQ(a.iterations, b.iterations) << entry.name;
    EXPECT_EQ(a.ranks, b.ranks) << entry.name;  // bit-identical, not approx
  }
}

// A frozen view's content, to re-check later that it never changed.
std::uint64_t fingerprint(const SnapshotView& s) {
  std::uint64_t h = static_cast<std::uint64_t>(s.num_arcs());
  for (vid_t v = 0; v < s.n(); ++v) {
    for (const vid_t u : s.out().neighbors(v)) {
      h = h * 1000003u + static_cast<std::uint64_t>(u) * 7919u +
          static_cast<std::uint64_t>(v);
    }
  }
  return h;
}

// Writer staging/committing/compacting while reader threads snapshot,
// traverse, and hold views across arena restarts and compactions — the TSan
// job runs this binary to certify the claimed thread model (published
// snapshots are immutable, arena rows are never rewritten, writer state is
// mutex-guarded).
TEST(DeltaGraph, ConcurrentWriterAndSnapshotReaders) {
  DeltaGraph dg(make_undirected(256, rmat_edges(8, 4, 99)));
  const vid_t n = dg.n();
  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};

  std::thread writer([&] {
    std::mt19937_64 rng(5);
    for (int round = 0; round < 160; ++round) {
      // Interleave with the readers, so held views span arena restarts.
      while (reads.load(std::memory_order_relaxed) < round / 2) {
        std::this_thread::yield();
      }
      for (int i = 0; i < 16; ++i) {
        const vid_t u = static_cast<vid_t>(rng() % n);
        const vid_t v = static_cast<vid_t>(rng() % n);
        if ((rng() & 3u) != 0) {
          dg.add_edge(u, v);
        } else {
          dg.remove_edge(u, v);
        }
      }
      dg.commit();
      if (round % 32 == 31) dg.compact();
    }
    stop.store(true, std::memory_order_release);
  });

  auto reader = [&] {
    // A reader that leaves early (a failed ASSERT) must not stall the writer.
    struct Release {
      std::atomic<int>& reads;
      ~Release() { reads.store(1 << 30); }
    } release{reads};
    // Views held across many commits: the oldest stays for the whole run.
    std::deque<std::pair<SnapshotView, std::uint64_t>> held;
    // do/while: at least one traversal runs even when the writer wins the
    // scheduling race and finishes before the first stop check.
    do {
      const SnapshotView snap = dg.snapshot();
      // A snapshot is frozen: within it, arc counts and adjacency agree no
      // matter how far the writer has advanced in the meantime.
      eid_t arcs = 0;
      for (vid_t v = 0; v < n; ++v) {
        arcs += snap.out().degree(v);
        for (vid_t u : snap.out().neighbors(v)) {
          ASSERT_TRUE(u >= 0 && u < n);
        }
      }
      ASSERT_EQ(arcs, snap.num_arcs());
      // The historic path races compaction; try_snapshot never aborts.
      if (const auto prev = dg.try_snapshot(snap.epoch() - 1)) {
        ASSERT_EQ(prev->epoch(), snap.epoch() - 1);
      }
      held.emplace_back(snap, fingerprint(snap));
      if (held.size() > 8) held.erase(held.begin() + 1);
      for (const auto& [view, fp] : held) ASSERT_EQ(fingerprint(view), fp);
      reads.fetch_add(1, std::memory_order_relaxed);
    } while (!stop.load(std::memory_order_acquire));
  };
  std::thread r1(reader);
  std::thread r2(reader);
  writer.join();
  r1.join();
  r2.join();
}

}  // namespace
}  // namespace pushpull
