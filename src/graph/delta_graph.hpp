// Versioned mutable graph storage (ROADMAP: "Mutable graph storage +
// incremental recomputation").
//
// Every kernel in this repo traverses a frozen CSR; real serving workloads
// mutate the graph while queries run. DeltaGraph closes that gap with an
// LSM-flavored base/overlay split (cf. LSMGraph / LiveGraph):
//
//            writer ──► per-vertex overlay buffers (epoch-tagged)
//                         │ add_edge / remove_edge stage at epoch E+1
//                         │ commit()  ──► derives and publishes epoch E+1
//                         ▼
//            sealed base CSR  +  patch arena  ──snapshot()──►  SnapshotCsr
//                         ▲
//                         └── compact() merges overlay into a fresh base
//                             (live snapshots keep the old base alive)
//
// Epoch semantics: the base carries epoch `oldest_epoch()`; every commit()
// bumps the committed epoch by one and records its batch. A staged (not yet
// committed) operation is tagged epoch E+1 and is invisible to every
// snapshot until commit. snapshot(e) is valid for any epoch in
// [oldest_epoch(), epoch()] — compact() advances the floor.
//
// Publish on commit: commit() derives epoch E+1's SnapshotCsr of each side
// from epoch E's, re-merging only the rows of the vertices its batch names
// and appending them to an append-only PatchArena shared by every snapshot
// derived since the arena was started (SumInc's IncFragmentBuilder builds
// the next fragment from the deltas the same way). A per-vertex row table
// in copy-on-write pages finds each row in two loads; the new epoch copies
// the page directory and only the pages its batch names, so a commit costs
// O(batch) rows and pages, not O(touched). snapshot() and snapshot(epoch())
// are pointer copies of that published view; an older epoch is materialized
// from the overlay on demand (the historic path).
//
// SnapshotCsr is a point-in-time view of one direction: vertices untouched
// by the overlay read straight from the sealed base (same spans, same edge
// ids — bit-for-bit the static layout); touched vertices read their merged
// row from the arena, addressed by edge ids offset past the base arc range.
// SnapshotCsr models the CsrLike concept (graph/csr.hpp), and SnapshotView
// pairs two of them (out + in; aliased for symmetric graphs) to model the
// engine's GraphView concept — every edge_map loop shape and every core
// kernel runs on a snapshot unmodified.
//
// Thread model: one writer thread owns add_edge/remove_edge/commit/compact;
// snapshot() and the read-only queries may be called from any thread
// concurrently with the writer. The writer is the only thread that mutates
// the overlay, so it derives snapshots (commit) and expands them into a new
// base (compact) outside the mutex; the mutex guards the published pointers,
// the epoch counters, the history and the overlay's mutation, so readers
// wait at most for a pointer swap — or, on the historic path, for their own
// O(overlay) materialization. A published snapshot is immutable: readers
// never observe writer progress.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace pushpull {

using epoch_t = std::int64_t;

// One logical update as the writer issued it (for a symmetric DeltaGraph the
// reverse arc is implied). Committed batches hand these to the incremental
// kernels (core/incremental.hpp) so they can re-propagate from the touched
// frontier instead of recomputing from scratch.
struct EdgeUpdate {
  vid_t u = 0;
  vid_t v = 0;
  weight_t w = 1.0f;
  bool insert = true;
};

// The updates one commit() published, tagged with the epoch it created.
struct UpdateBatch {
  epoch_t epoch = 0;
  std::vector<EdgeUpdate> updates;
};

// --- PatchArena --------------------------------------------------------------

// Append-only storage for the patched rows of snapshots. A row is written
// once and never rewritten, so one arena is shared by every SnapshotCsr
// derived since it was started: a snapshot reads only rows that were complete
// before it was published, and the writer only ever writes past them.
// Storage is allocated uninitialized, so capacity not yet written costs no
// resident memory.
class PatchArena {
 public:
  // One row's arc range [begin, end) in the arena. Trivial, so a PagePool's
  // unwritten capacity is left uninitialized too.
  struct Row {
    eid_t begin;
    eid_t end;
  };

  PatchArena(std::size_t capacity, bool weighted)
      : adj_(new vid_t[capacity]),
        w_(weighted ? new weight_t[capacity] : nullptr),
        capacity_(capacity) {}

  PatchArena(const PatchArena&) = delete;
  PatchArena& operator=(const PatchArena&) = delete;

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  const vid_t* adj() const noexcept { return adj_.get(); }
  const weight_t* weights() const noexcept { return w_.get(); }  // null: unweighted

  // Appends one row: fill(push) calls push(to, w) once per arc, in order.
  template <class Fill>
  Row append(Fill&& fill) {
    const std::size_t begin = size_;
    fill([this](vid_t to, weight_t w) {
      PP_CHECK(size_ < capacity_ && "patch arena overflow");
      adj_[size_] = to;
      if (w_) w_[size_] = w;
      ++size_;
    });
    return Row{static_cast<eid_t>(begin), static_cast<eid_t>(size_)};
  }

 private:
  std::unique_ptr<vid_t[]> adj_;
  std::unique_ptr<weight_t[]> w_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

// --- PagePool ----------------------------------------------------------------

// Append-only storage for the row pages of snapshots, PatchArena's
// counterpart for the page table: a page is written once, before the first
// snapshot that references it is published, and never rewritten, so one
// pool is shared by every SnapshotCsr derived since it was started. A page
// holds kPageSize consecutive vertices' edge-id ranges.
class PagePool {
 public:
  // Vertices per page, picked by measurement (DESIGN.md §5).
  static constexpr int kPageBits = 6;
  static constexpr vid_t kPageSize = vid_t{1} << kPageBits;
  using Page = std::array<PatchArena::Row, kPageSize>;

  explicit PagePool(std::size_t capacity)
      : pages_(new Page[capacity]), capacity_(capacity) {}

  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }

  // The next unwritten page.
  Page& add() {
    PP_CHECK(size_ < capacity_ && "page pool overflow");
    return pages_[size_++];
  }

 private:
  std::unique_ptr<Page[]> pages_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

// --- SnapshotCsr -------------------------------------------------------------

// One direction of a point-in-time snapshot: a sealed base CSR plus, for
// every vertex the overlay touched at this epoch, one row in a PatchArena
// holding its merged (base ∖ deletions ∪ insertions) adjacency. Edge ids
// < base.num_arcs() index the base arrays; ids ≥ base.num_arcs() index the
// arena, one contiguous range per row. Adjacency lists stay sorted
// ascending, so has_edge keeps its O(log d̂) bound and kernels that exploit
// sorted neighbors (triangle counting) work unchanged.
//
// Rows are found through a page table: a directory of kPageSize-vertex
// pages, each page holding every one of its vertices' edge-id range. A null
// page reads the whole page from the base, so a lookup is two loads (the
// page pointer, then the row). Pages live in a PagePool and are shared
// between epochs: a commit copies the directory and only the pages its
// batch names.
class SnapshotCsr {
 public:
  // A vertex's arcs as an edge-id range [begin, end).
  using Row = PatchArena::Row;
  using Page = PagePool::Page;
  static constexpr int kPageBits = PagePool::kPageBits;
  static constexpr vid_t kPageSize = PagePool::kPageSize;

  // The unpatched view of `base`.
  explicit SnapshotCsr(std::shared_ptr<const Csr> base);

  vid_t n() const noexcept { return base_->n(); }
  eid_t num_arcs() const noexcept { return arcs_; }
  eid_t m_undirected() const noexcept { return arcs_ / 2; }

  vid_t degree(vid_t v) const noexcept {
    const Row* r = row(v);
    return r == nullptr ? base_->degree(v) : static_cast<vid_t>(r->end - r->begin);
  }

  std::span<const vid_t> neighbors(vid_t v) const noexcept {
    const Row* r = row(v);
    if (r == nullptr) return base_->neighbors(v);
    const vid_t* adj = r->begin < base_arcs_
                           ? base_->adj().data() + r->begin
                           : adj_ + (r->begin - base_arcs_);
    return {adj, static_cast<std::size_t>(r->end - r->begin)};
  }

  bool has_weights() const noexcept { return base_->has_weights(); }

  std::span<const weight_t> weights(vid_t v) const noexcept {
    PP_DCHECK(has_weights());
    const Row* r = row(v);
    if (r == nullptr) return base_->weights(v);
    const weight_t* w = r->begin < base_arcs_
                            ? base_->weight_array().data() + r->begin
                            : w_ + (r->begin - base_arcs_);
    return {w, static_cast<std::size_t>(r->end - r->begin)};
  }

  eid_t edge_begin(vid_t v) const noexcept {
    const Row* r = row(v);
    return r == nullptr ? base_->edge_begin(v) : r->begin;
  }

  eid_t edge_end(vid_t v) const noexcept {
    const Row* r = row(v);
    return r == nullptr ? base_->edge_end(v) : r->end;
  }

  vid_t edge_target(eid_t e) const noexcept {
    return e < base_arcs_ ? base_->edge_target(e) : adj_[e - base_arcs_];
  }

  weight_t edge_weight(eid_t e) const noexcept {
    if (e < base_arcs_) return base_->edge_weight(e);
    return w_ == nullptr ? 1.0f : w_[e - base_arcs_];
  }

  // Offset array of the *base* — kernels pass these addresses to the
  // instrumentation model (e.g. PageRank charges one read for the neighbor's
  // degree lookup); the modeled working set is the base layout.
  const std::vector<eid_t>& offsets() const noexcept { return base_->offsets(); }

  bool has_edge(vid_t u, vid_t v) const noexcept;
  double avg_degree() const noexcept {
    return n() == 0 ? 0.0 : static_cast<double>(arcs_) / n();
  }

  // The arena holding the patched rows (null when nothing is patched).
  const PatchArena* arena() const noexcept { return arena_.get(); }

  // Expands the patched view into a standalone CSR (compaction, checkpoints).
  Csr materialize() const;

 private:
  friend class DeltaGraph;  // derives the next epoch's pages from these

  // v's row, or null when v's page reads from the base.
  const Row* row(vid_t v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    const Page* page = pages_[i >> kPageBits];
    return page == nullptr ? nullptr : &(*page)[i & (kPageSize - 1)];
  }

  void set_storage(std::shared_ptr<const PatchArena> arena,
                   std::shared_ptr<const PagePool> pool);

  std::shared_ptr<const Csr> base_;
  std::shared_ptr<const PatchArena> arena_;
  const vid_t* adj_ = nullptr;     // arena_->adj()
  const weight_t* w_ = nullptr;    // arena_->weights(); null when unweighted
  eid_t base_arcs_ = 0;
  eid_t arcs_ = 0;
  eid_t patched_arcs_ = 0;  // arcs held in the arena rows
  std::shared_ptr<const PagePool> pool_;  // holds every non-null page
  std::vector<const Page*> pages_;        // ceil(n / kPageSize)
};

static_assert(CsrLike<SnapshotCsr>);

// --- SnapshotView ------------------------------------------------------------

// A point-in-time GraphView over a DeltaGraph: push walks out(), pull walks
// in(); for a symmetric graph both alias one SnapshotCsr. Immutable after
// construction and safe to share across threads; holds shared ownership of
// its base CSR(s), patch arena(s) and page pool(s), so later commits, arena
// restarts and compactions never invalidate it.
class SnapshotView {
 public:
  SnapshotView(std::shared_ptr<const SnapshotCsr> out,
               std::shared_ptr<const SnapshotCsr> in, epoch_t epoch)
      : out_(std::move(out)), in_(std::move(in)), epoch_(epoch) {
    PP_CHECK(out_ != nullptr && in_ != nullptr);
    PP_CHECK(out_->n() == in_->n());
    PP_CHECK(out_->num_arcs() == in_->num_arcs());
  }

  const SnapshotCsr& out() const noexcept { return *out_; }
  const SnapshotCsr& in() const noexcept { return *in_; }
  vid_t n() const noexcept { return out_->n(); }
  eid_t num_arcs() const noexcept { return out_->num_arcs(); }
  vid_t out_degree(vid_t v) const noexcept { return out_->degree(v); }
  vid_t in_degree(vid_t v) const noexcept { return in_->degree(v); }
  bool is_symmetric() const noexcept { return out_ == in_; }

  // The committed epoch this snapshot observes.
  epoch_t epoch() const noexcept { return epoch_; }

  // Arc-reversed view: forward functors traverse backward, as with
  // DigraphView::reversed().
  SnapshotView reversed() const noexcept { return SnapshotView(in_, out_, epoch_); }

 private:
  std::shared_ptr<const SnapshotCsr> out_;
  std::shared_ptr<const SnapshotCsr> in_;
  epoch_t epoch_ = 0;
};

// --- DeltaGraph --------------------------------------------------------------

class DeltaGraph {
 public:
  // Symmetric store: add_edge(u, v) stages both arcs; out and in alias.
  // The base must have sorted, duplicate-free adjacency (the builder's
  // contract) — checked on construction.
  explicit DeltaGraph(Csr base);

  // Directed store: add_edge(u, v) stages arc u→v (and its transpose in the
  // in-side). Both CSRs checked as for the symmetric case.
  explicit DeltaGraph(Digraph base);

  DeltaGraph(const DeltaGraph&) = delete;
  DeltaGraph& operator=(const DeltaGraph&) = delete;

  vid_t n() const noexcept { return n_; }
  bool is_symmetric() const noexcept { return symmetric_; }

  // Latest committed epoch; the sealed base is oldest_epoch().
  epoch_t epoch() const;
  epoch_t oldest_epoch() const;

  // Stage an edge insertion at epoch()+1. Returns false (and stages nothing)
  // when the arc is already present in the staged state — duplicate arcs are
  // never stored. Self-loops are allowed. Endpoints must be < n(): the vertex
  // set is fixed at construction.
  bool add_edge(vid_t u, vid_t v, weight_t w = 1.0f);

  // Stage an edge removal at epoch()+1. Returns false when the arc is absent
  // from the staged state.
  bool remove_edge(vid_t u, vid_t v);

  // Number of staged (uncommitted) updates.
  std::size_t pending_updates() const;

  // Publish the staged updates as one batch, returning the new epoch. A
  // commit with nothing staged is a no-op returning the current epoch.
  // Derives the new epoch's snapshot from the previous one outside the lock
  // (a copy of the page directory, plus the pages and re-merged rows of the
  // vertices the batch names); the lock covers only the publish.
  epoch_t commit();

  // Point-in-time view at the latest committed epoch / at `e`. The latest
  // epoch's view is the one commit() published (a pointer copy); an older
  // epoch is materialized from the overlay under the lock (O(overlay)).
  // snapshot(e) aborts when `e` predates the compaction floor or exceeds the
  // committed epoch; try_snapshot(e) returns nullopt instead, checking the
  // window and taking the view atomically.
  SnapshotView snapshot() const;
  SnapshotView snapshot(epoch_t e) const;
  std::optional<SnapshotView> try_snapshot(epoch_t e) const;

  // Merge the committed overlay into a fresh sealed base at the current
  // committed epoch and republish the latest snapshot on it. Live
  // SnapshotViews keep the old base and arena alive; staged (uncommitted)
  // updates survive and re-anchor onto the new base. After compaction,
  // snapshots older than the compaction epoch can no longer be taken. The
  // O(n + m) expansion of the published snapshot and the overlay rebase run
  // outside the lock; only the swap blocks readers.
  void compact();

  // Committed batches with epoch > `since`, oldest first. `since` at or
  // beyond epoch() yields an empty vector. compact() releases the batches at
  // or below the new floor, so, like snapshot(e), this aborts when `since`
  // predates oldest_epoch().
  std::vector<UpdateBatch> batches_since(epoch_t since) const;

  // How many commits landed after `since` — the serving layer's staleness
  // gauge: a query pinned to epoch e reports num_batches_since(e) as how far
  // behind the live graph its answer is. O(1), and valid below the
  // compaction floor.
  std::size_t num_batches_since(epoch_t since) const;

  // Visible arc count at the latest committed epoch (symmetric graphs count
  // each edge twice, as Csr does). O(1): read off the published snapshot.
  eid_t num_arcs() const;

  // Diagnostics: live overlay entries not yet folded into the base.
  std::size_t overlay_entries() const;

  // Attach a live tracer (nullptr detaches): commit() and compact() record
  // "storage" spans tagged with update and overlay-entry counts. DeltaGraph
  // is a concrete class, so unlike the templated kernels this hook is a
  // runtime pointer — the un-attached cost is one predictable branch per
  // commit/compact, nowhere near a hot path. The tracer must outlive the
  // attachment; calls follow the writer-thread discipline commit/compact
  // already require.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  static constexpr epoch_t kNever = std::numeric_limits<epoch_t>::max();

  // An arc the overlay inserted, alive in [born, died).
  struct OverlayArc {
    vid_t to;
    weight_t w;
    epoch_t born;
    epoch_t died;
  };

  // A base arc the overlay deleted, dead from `died` on.
  struct Tombstone {
    vid_t to;
    epoch_t died;
  };

  struct VertexOverlay {
    std::vector<OverlayArc> inserts;  // sorted by (to, born)
    std::vector<Tombstone> removals;  // sorted by to; at most one per target
  };

  struct Side {
    std::shared_ptr<const Csr> base;
    std::unordered_map<vid_t, VertexOverlay> delta;
    // The latest committed epoch's view of this side (swapped under the lock).
    std::shared_ptr<const SnapshotCsr> published;
    // Where commit() appends re-merged rows and their pages; writer-owned.
    // Null until the first commit after construction or compaction.
    std::shared_ptr<PatchArena> arena;
    std::shared_ptr<PagePool> pool;
  };

  // Is arc (u, v) of `side` visible at epoch e? (lock held)
  bool arc_visible(const Side& side, vid_t u, vid_t v, epoch_t e) const;
  // Stage arc (u, v) insertion/removal on one side at epoch e. (lock held)
  void stage_insert(Side& side, vid_t u, vid_t v, weight_t w, epoch_t e);
  void stage_remove(Side& side, vid_t u, vid_t v, epoch_t e);

  // Does the overlay make a vertex's adjacency at epoch e differ from the base?
  static bool differs(const VertexOverlay& ov, epoch_t e);
  // Length of a vertex's merged row at epoch e.
  static std::size_t merged_degree(const Csr& base, vid_t v,
                                   const VertexOverlay& ov, epoch_t e);
  // Appends v's merged row at epoch e to `arena` and returns its range — the
  // one merge routine behind both derivation and the historic path.
  static PatchArena::Row append_merged(PatchArena& arena, const Csr& base,
                                       vid_t v, const VertexOverlay& ov,
                                       epoch_t e);

  // Writes the rows of `changed` (sorted, unique) into `snap`'s page table:
  // a null ovs[j] puts changed[j] back on its base row, otherwise its merged
  // row at epoch e is appended to `arena`. Each page written is a fresh copy
  // in `pool`; the others stay shared. When `pool` is new, every non-null
  // page is copied into it, and with `move_from` (an arena restart) every
  // other patched row is copied from that view into `arena` as well.
  static void write_rows(SnapshotCsr& snap, const Csr& base,
                         std::span<const vid_t> changed,
                         std::span<const VertexOverlay* const> ovs,
                         PatchArena& arena, PagePool& pool, bool new_pool,
                         epoch_t e, const SnapshotCsr* move_from);

  // Derive one side's view at epoch e from its published view at e − 1:
  // copy its page directory, then re-merge the rows of `changed` (sorted,
  // unique) into copies of the pages they sit in. When the re-merged rows do
  // not fit the arena, a new one of twice the live patched arcs is started
  // and the live rows are copied into it; the page pool restarts the same
  // way, at twice the live pages. (writer thread; no lock needed)
  std::shared_ptr<const SnapshotCsr> derive_side(Side& side,
                                                 std::span<const vid_t> changed,
                                                 epoch_t e);
  // Materialize one side at a historic epoch e into its own exactly-sized
  // arena. (lock held)
  std::shared_ptr<const SnapshotCsr> materialize_side(const Side& side,
                                                      epoch_t e) const;
  // Validated by the caller: e in [oldest_epoch_, epoch_]. (lock held)
  SnapshotView snapshot_locked(epoch_t e) const;

  // One side's overlay re-anchored onto a base sealed at epoch `at`.
  // (writer thread; reads only)
  static std::unordered_map<vid_t, VertexOverlay> rebased_overlay(
      const Side& side, epoch_t at);

  mutable std::mutex mu_;
  obs::Tracer* tracer_ = nullptr;
  vid_t n_ = 0;
  bool symmetric_ = true;
  epoch_t epoch_ = 0;         // latest committed
  epoch_t oldest_epoch_ = 0;  // the sealed base's epoch (compaction floor)
  Side out_;
  Side in_;  // symmetric: in_ aliases out_'s base and published view, and
             // in_.delta stays empty
  std::vector<EdgeUpdate> pending_;
  // history_[i] is epoch oldest_epoch_ + i + 1's batch; compact() drops the
  // batches at or below the new floor.
  std::vector<UpdateBatch> history_;
  std::size_t overlay_entries_ = 0;   // inserts + removals on both sides
};

// Flattens committed batches into one update list (the shape the incremental
// kernels consume).
std::vector<EdgeUpdate> flatten(const std::vector<UpdateBatch>& batches);

}  // namespace pushpull
