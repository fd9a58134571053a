#include "graph/delta_graph.hpp"

#include <algorithm>

namespace pushpull {

// --- SnapshotCsr -------------------------------------------------------------

SnapshotCsr::SnapshotCsr(std::shared_ptr<const Csr> base)
    : base_(std::move(base)) {
  PP_CHECK(base_ != nullptr);
  base_arcs_ = base_->num_arcs();
  arcs_ = base_arcs_;
  pages_.resize((static_cast<std::size_t>(base_->n()) + kPageSize - 1) >>
                kPageBits);
}

void SnapshotCsr::set_storage(std::shared_ptr<const PatchArena> arena,
                              std::shared_ptr<const PagePool> pool) {
  PP_CHECK((arena->weights() != nullptr) == base_->has_weights());
  arena_ = std::move(arena);
  pool_ = std::move(pool);
  adj_ = arena_->adj();
  w_ = arena_->weights();
}

bool SnapshotCsr::has_edge(vid_t u, vid_t v) const noexcept {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

Csr SnapshotCsr::materialize() const {
  const vid_t nn = n();
  std::vector<eid_t> offsets(static_cast<std::size_t>(nn) + 1, 0);
  for (vid_t v = 0; v < nn; ++v) {
    offsets[static_cast<std::size_t>(v) + 1] =
        offsets[static_cast<std::size_t>(v)] + degree(v);
  }
  std::vector<vid_t> adj(static_cast<std::size_t>(offsets.back()));
  std::vector<weight_t> weights;
  if (has_weights()) weights.resize(adj.size());
  for (vid_t v = 0; v < nn; ++v) {
    const auto nb = neighbors(v);
    std::copy(nb.begin(), nb.end(),
              adj.begin() + static_cast<std::size_t>(offsets[v]));
    if (has_weights()) {
      const auto wv = this->weights(v);
      std::copy(wv.begin(), wv.end(),
                weights.begin() + static_cast<std::size_t>(offsets[v]));
    }
  }
  return Csr(std::move(offsets), std::move(adj), std::move(weights));
}

// --- DeltaGraph --------------------------------------------------------------

namespace {

// The builder's contract, verified once at the seam: sorted, duplicate-free
// adjacency (overlay merging and duplicate detection rely on it).
void check_base(const Csr& g) {
  for (vid_t v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 1; i < nb.size(); ++i) {
      PP_CHECK(nb[i - 1] < nb[i] &&
               "DeltaGraph base must have sorted, duplicate-free adjacency");
    }
  }
}

}  // namespace

DeltaGraph::DeltaGraph(Csr base) : symmetric_(true) {
  check_base(base);
  n_ = base.n();
  out_.base = std::make_shared<const Csr>(std::move(base));
  out_.published = std::make_shared<const SnapshotCsr>(out_.base);
  in_.base = out_.base;
  in_.published = out_.published;
}

DeltaGraph::DeltaGraph(Digraph base) : symmetric_(false) {
  check_base(base.out);
  check_base(base.in);
  PP_CHECK(base.out.n() == base.in.n());
  PP_CHECK(base.out.num_arcs() == base.in.num_arcs());
  n_ = base.out.n();
  out_.base = std::make_shared<const Csr>(std::move(base.out));
  out_.published = std::make_shared<const SnapshotCsr>(out_.base);
  in_.base = std::make_shared<const Csr>(std::move(base.in));
  in_.published = std::make_shared<const SnapshotCsr>(in_.base);
}

epoch_t DeltaGraph::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

epoch_t DeltaGraph::oldest_epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return oldest_epoch_;
}

bool DeltaGraph::arc_visible(const Side& side, vid_t u, vid_t v,
                             epoch_t e) const {
  const auto it = side.delta.find(u);
  if (it != side.delta.end()) {
    for (const OverlayArc& a : it->second.inserts) {
      if (a.to == v && a.born <= e && e < a.died) return true;
    }
    for (const Tombstone& t : it->second.removals) {
      if (t.to == v && t.died <= e) return false;
    }
  }
  const auto nb = side.base->neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

void DeltaGraph::stage_insert(Side& side, vid_t u, vid_t v, weight_t w,
                              epoch_t e) {
  auto& ov = side.delta[u];
  const OverlayArc arc{v, w, e, kNever};
  const auto pos = std::upper_bound(
      ov.inserts.begin(), ov.inserts.end(), arc,
      [](const OverlayArc& a, const OverlayArc& b) {
        return a.to != b.to ? a.to < b.to : a.born < b.born;
      });
  ov.inserts.insert(pos, arc);
  ++overlay_entries_;
}

void DeltaGraph::stage_remove(Side& side, vid_t u, vid_t v, epoch_t e) {
  auto& ov = side.delta[u];
  // A live overlay insert dies; otherwise the arc lives in the base and gets
  // a tombstone. (arc_visible guaranteed one of the two holds.)
  for (OverlayArc& a : ov.inserts) {
    if (a.to == v && a.born <= e && e < a.died) {
      a.died = e;
      return;
    }
  }
  const Tombstone tomb{v, e};
  const auto pos = std::upper_bound(
      ov.removals.begin(), ov.removals.end(), tomb,
      [](const Tombstone& a, const Tombstone& b) { return a.to < b.to; });
  ov.removals.insert(pos, tomb);
  ++overlay_entries_;
}

bool DeltaGraph::add_edge(vid_t u, vid_t v, weight_t w) {
  PP_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  std::lock_guard<std::mutex> lk(mu_);
  const epoch_t staged = epoch_ + 1;
  if (arc_visible(out_, u, v, staged)) return false;
  stage_insert(out_, u, v, w, staged);
  if (symmetric_) {
    if (u != v) stage_insert(out_, v, u, w, staged);
  } else {
    stage_insert(in_, v, u, w, staged);
  }
  pending_.push_back(EdgeUpdate{u, v, w, /*insert=*/true});
  return true;
}

bool DeltaGraph::remove_edge(vid_t u, vid_t v) {
  PP_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  std::lock_guard<std::mutex> lk(mu_);
  const epoch_t staged = epoch_ + 1;
  if (!arc_visible(out_, u, v, staged)) return false;
  stage_remove(out_, u, v, staged);
  if (symmetric_) {
    if (u != v) stage_remove(out_, v, u, staged);
  } else {
    stage_remove(in_, v, u, staged);
  }
  pending_.push_back(EdgeUpdate{u, v, 1.0f, /*insert=*/false});
  return true;
}

std::size_t DeltaGraph::pending_updates() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_.size();
}

epoch_t DeltaGraph::commit() {
  // Writer thread: pending_, epoch_, the overlay and the arenas change only
  // on this thread, so everything up to the publish reads them unlocked.
  if (pending_.empty()) return epoch_;
  obs::ScopedSpan<obs::Tracer> span(tracer_, "commit", "storage");
  span.arg("updates", static_cast<double>(pending_.size()));
  const epoch_t next = epoch_ + 1;

  // The rows this batch changes: both endpoints on a symmetric store; the
  // source's out-row and the target's in-row on a directed one.
  std::vector<vid_t> out_rows;
  std::vector<vid_t> in_rows;
  for (const EdgeUpdate& u : pending_) {
    out_rows.push_back(u.u);
    (symmetric_ ? out_rows : in_rows).push_back(u.v);
  }
  for (std::vector<vid_t>* rows : {&out_rows, &in_rows}) {
    std::sort(rows->begin(), rows->end());
    rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
  }
  auto out = derive_side(out_, out_rows, next);
  auto in = symmetric_ ? out : derive_side(in_, in_rows, next);

  {
    std::lock_guard<std::mutex> lk(mu_);
    out_.published = std::move(out);
    in_.published = std::move(in);
    epoch_ = next;
    history_.push_back(UpdateBatch{next, std::move(pending_)});
    pending_.clear();
  }
  span.arg("epoch", static_cast<double>(next));
  span.arg("overlay_entries", static_cast<double>(overlay_entries_));
  return next;
}

bool DeltaGraph::differs(const VertexOverlay& ov, epoch_t e) {
  for (const OverlayArc& a : ov.inserts) {
    if (a.born <= e && e < a.died) return true;
  }
  for (const Tombstone& t : ov.removals) {
    if (t.died <= e) return true;
  }
  return false;
}

std::size_t DeltaGraph::merged_degree(const Csr& base, vid_t v,
                                      const VertexOverlay& ov, epoch_t e) {
  // Every tombstone names a distinct base arc, and a live insert never
  // shadows a live base arc, so the merge's length is plain counting.
  std::size_t d = static_cast<std::size_t>(base.degree(v));
  for (const Tombstone& t : ov.removals) {
    if (t.died <= e) --d;
  }
  for (const OverlayArc& a : ov.inserts) {
    if (a.born <= e && e < a.died) ++d;
  }
  return d;
}

PatchArena::Row DeltaGraph::append_merged(PatchArena& arena, const Csr& base,
                                          vid_t v, const VertexOverlay& ov,
                                          epoch_t e) {
  return arena.append([&](auto push) {
    // Merge the sorted base adjacency with the live overlay inserts, dropping
    // tombstoned base arcs. Both inputs are sorted by target; at any epoch at
    // most one of {base arc, overlay arc} per target is live, so the merged
    // list stays sorted and duplicate-free.
    const auto nb = base.neighbors(v);
    const bool weighted = base.has_weights();
    const auto wb = weighted ? base.weights(v) : std::span<const weight_t>{};
    std::size_t bi = 0;
    std::size_t oi = 0;
    auto dead = [&](vid_t to) {
      for (const Tombstone& t : ov.removals) {
        if (t.to == to) return t.died <= e;
        if (t.to > to) break;
      }
      return false;
    };
    auto next_live_insert = [&]() {
      while (oi < ov.inserts.size()) {
        const OverlayArc& a = ov.inserts[oi];
        if (a.born <= e && e < a.died) return true;
        ++oi;
      }
      return false;
    };
    for (;;) {
      // Advance past non-live inserts *before* comparing targets — a dead
      // insert must never win the merge and leak into the row.
      const bool has_ins = next_live_insert();
      const bool has_base = bi < nb.size();
      if (!has_base && !has_ins) break;
      if (has_base && (!has_ins || nb[bi] <= ov.inserts[oi].to)) {
        if (!dead(nb[bi])) push(nb[bi], weighted ? wb[bi] : 1.0f);
        ++bi;
      } else {
        push(ov.inserts[oi].to, ov.inserts[oi].w);
        ++oi;
      }
    }
  });
}

void DeltaGraph::write_rows(SnapshotCsr& snap, const Csr& base,
                            std::span<const vid_t> changed,
                            std::span<const VertexOverlay* const> ovs,
                            PatchArena& arena, PagePool& pool, bool new_pool,
                            epoch_t e, const SnapshotCsr* move_from) {
  using Row = SnapshotCsr::Row;
  const eid_t base_arcs = base.num_arcs();
  const auto ids = [base_arcs](PatchArena::Row r) {
    return Row{base_arcs + r.begin, base_arcs + r.end};
  };
  std::size_t j = 0;  // into changed
  for (std::size_t pg = 0; pg < snap.pages_.size(); ++pg) {
    // Into the same pool, only the pages the batch names are written.
    if (!new_pool) {
      if (j == changed.size()) break;
      pg = static_cast<std::size_t>(changed[j]) >> SnapshotCsr::kPageBits;
    }
    const SnapshotCsr::Page* old = snap.pages_[pg];
    const auto first = static_cast<vid_t>(pg << SnapshotCsr::kPageBits);
    const vid_t last = std::min(base.n(), first + SnapshotCsr::kPageSize);
    const bool named = j < changed.size() && changed[j] < last;
    if (!named && old == nullptr) continue;

    SnapshotCsr::Page& page = pool.add();
    if (old != nullptr) {
      page = *old;
    } else {
      for (vid_t v = first; v < last; ++v) {
        page[v - first] = Row{base.edge_begin(v), base.edge_end(v)};
      }
      // Past n on the last page: never read, but copied with the page.
      for (vid_t v = last; v < first + SnapshotCsr::kPageSize; ++v) {
        page[v - first] = Row{0, 0};
      }
    }
    if (move_from != nullptr && old != nullptr) {
      // Arena restart: carry every patched row the batch does not rewrite.
      std::size_t k = j;
      for (vid_t v = first; v < last; ++v) {
        if (k < changed.size() && changed[k] == v) {
          ++k;
          continue;
        }
        Row& r = page[v - first];
        if (r.begin < base_arcs) continue;  // reads the base
        const Row src = r;
        r = ids(arena.append([&](auto push) {
          for (eid_t a = src.begin; a < src.end; ++a) {
            push(move_from->edge_target(a), move_from->edge_weight(a));
          }
        }));
      }
    }
    for (; j < changed.size() && changed[j] < last; ++j) {
      const vid_t v = changed[j];
      page[v - first] =
          ovs[j] == nullptr ? Row{base.edge_begin(v), base.edge_end(v)}
                            : ids(append_merged(arena, base, v, *ovs[j], e));
    }
    snap.pages_[pg] = &page;
  }
}

std::shared_ptr<const SnapshotCsr> DeltaGraph::derive_side(
    Side& side, std::span<const vid_t> changed, epoch_t e) {
  const SnapshotCsr& prev = *side.published;
  const Csr& base = *side.base;
  const eid_t base_arcs = base.num_arcs();
  PP_DCHECK(prev.arena_ == side.arena);

  // Each changed vertex's overlay, or null when its row now equals the base;
  // the arcs its re-merged row holds, and how far it moves the arc counts.
  std::vector<const VertexOverlay*> ovs(changed.size(), nullptr);
  std::size_t fresh = 0;
  eid_t replaced = 0;  // prev's patched arcs in the rows being rewritten
  eid_t arcs = prev.arcs_;
  for (std::size_t j = 0; j < changed.size(); ++j) {
    const vid_t v = changed[j];
    auto len = static_cast<eid_t>(base.degree(v));
    const auto it = side.delta.find(v);
    if (it != side.delta.end() && differs(it->second, e)) {
      ovs[j] = &it->second;
      len = static_cast<eid_t>(merged_degree(base, v, it->second, e));
      fresh += static_cast<std::size_t>(len);
    }
    const eid_t begin = prev.edge_begin(v);
    const eid_t old = prev.edge_end(v) - begin;
    if (begin >= base_arcs) replaced += old;
    arcs += len - old;
  }
  const auto carried = static_cast<std::size_t>(prev.patched_arcs_ - replaced);

  // Rows are never rewritten: when the re-merged rows do not fit, start an
  // arena twice the live patched arcs and copy the carried rows into it.
  // Amortized, each commit pays O(its rows) and an arena never exceeds twice
  // the rows live when it was started.
  const bool restart =
      side.arena == nullptr ||
      side.arena->size() + fresh > side.arena->capacity();
  if (restart) {
    side.arena = std::make_shared<PatchArena>(2 * (carried + fresh),
                                              base.has_weights());
  }
  // The page pool follows the same rule, counting pages: a commit writes at
  // most one page per named row, and a restart rewrites every live page.
  const bool new_pool =
      restart || side.pool->size() + changed.size() > side.pool->capacity();
  if (new_pool) {
    const auto live = static_cast<std::size_t>(
        std::count_if(prev.pages_.begin(), prev.pages_.end(),
                      [](const SnapshotCsr::Page* p) { return p != nullptr; }));
    side.pool = std::make_shared<PagePool>(2 * (live + changed.size()));
  }
  auto next = std::make_shared<SnapshotCsr>(prev);  // shares every page
  next->set_storage(side.arena, side.pool);
  next->arcs_ = arcs;
  next->patched_arcs_ = static_cast<eid_t>(carried + fresh);
  write_rows(*next, base, changed, ovs, *side.arena, *side.pool, new_pool, e,
             restart ? &prev : nullptr);
  return next;
}

std::shared_ptr<const SnapshotCsr> DeltaGraph::materialize_side(
    const Side& side, epoch_t e) const {
  const Csr& base = *side.base;
  std::vector<vid_t> touched;
  touched.reserve(side.delta.size());
  for (const auto& [v, ov] : side.delta) {
    if (differs(ov, e)) touched.push_back(v);
  }
  std::sort(touched.begin(), touched.end());
  std::vector<const VertexOverlay*> ovs;
  ovs.reserve(touched.size());
  std::size_t arcs = 0;
  eid_t replaced = 0;
  for (const vid_t v : touched) {
    ovs.push_back(&side.delta.at(v));
    arcs += merged_degree(base, v, *ovs.back(), e);
    replaced += base.degree(v);
  }

  auto arena = std::make_shared<PatchArena>(arcs, base.has_weights());
  auto pool = std::make_shared<PagePool>(touched.size());
  auto snap = std::make_shared<SnapshotCsr>(side.base);
  snap->set_storage(arena, pool);
  snap->arcs_ = base.num_arcs() - replaced + static_cast<eid_t>(arcs);
  snap->patched_arcs_ = static_cast<eid_t>(arcs);
  write_rows(*snap, base, touched, ovs, *arena, *pool, /*new_pool=*/false, e,
             nullptr);
  return snap;
}

SnapshotView DeltaGraph::snapshot_locked(epoch_t e) const {
  if (e == epoch_) return SnapshotView(out_.published, in_.published, e);
  auto out = materialize_side(out_, e);
  auto in = symmetric_ ? out : materialize_side(in_, e);
  return SnapshotView(std::move(out), std::move(in), e);
}

SnapshotView DeltaGraph::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return snapshot_locked(epoch_);
}

SnapshotView DeltaGraph::snapshot(epoch_t e) const {
  std::lock_guard<std::mutex> lk(mu_);
  PP_CHECK(e >= oldest_epoch_ &&
           "snapshot epoch predates the compaction floor");
  PP_CHECK(e <= epoch_ && "snapshot epoch not committed yet");
  return snapshot_locked(e);
}

std::optional<SnapshotView> DeltaGraph::try_snapshot(epoch_t e) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (e < oldest_epoch_ || e > epoch_) return std::nullopt;
  return snapshot_locked(e);
}

std::unordered_map<vid_t, DeltaGraph::VertexOverlay>
DeltaGraph::rebased_overlay(const Side& side, epoch_t at) {
  std::unordered_map<vid_t, VertexOverlay> rebased;
  for (const auto& [v, ov] : side.delta) {
    VertexOverlay keep;
    for (const OverlayArc& a : ov.inserts) {
      if (a.born > at) {
        // Staged after the compaction point: carries over unchanged.
        keep.inserts.push_back(a);
      } else if (a.died > at) {
        // Folded into the new base; a pending death becomes a tombstone.
        if (a.died != kNever) keep.removals.push_back(Tombstone{a.to, a.died});
      }
      // born <= at && died <= at: lived and died before the new base — gone.
    }
    for (const Tombstone& t : ov.removals) {
      // Deaths at or before the compaction point are baked into the new
      // base (the arc is simply absent); later ones still apply.
      if (t.died > at) keep.removals.push_back(t);
    }
    if (!keep.inserts.empty() || !keep.removals.empty()) {
      std::sort(keep.inserts.begin(), keep.inserts.end(),
                [](const OverlayArc& a, const OverlayArc& b) {
                  return a.to != b.to ? a.to < b.to : a.born < b.born;
                });
      std::sort(keep.removals.begin(), keep.removals.end(),
                [](const Tombstone& a, const Tombstone& b) {
                  return a.to < b.to;
                });
      rebased.emplace(v, std::move(keep));
    }
  }
  return rebased;
}

void DeltaGraph::compact() {
  // Writer thread. The published snapshot already holds the overlay merged
  // at epoch(), so expanding it into a fresh CSR (O(n + m)) and rebasing the
  // overlay read only writer-owned state and run unlocked; the lock covers
  // the swap. At the compaction epoch nothing in the rebased overlay is live,
  // so the republished snapshots are the bare new bases, and the next commit
  // starts a new arena. Live views keep the old bases and arenas.
  obs::ScopedSpan<obs::Tracer> span(tracer_, "compact", "storage");
  const epoch_t at = epoch_;
  if (oldest_epoch_ == at && out_.delta.empty() && in_.delta.empty()) return;
  span.arg("overlay_entries_before", static_cast<double>(overlay_entries_));
  auto new_out = std::make_shared<const Csr>(out_.published->materialize());
  auto new_in = symmetric_ ? new_out
                           : std::make_shared<const Csr>(
                                 in_.published->materialize());
  auto out_delta = rebased_overlay(out_, at);
  auto in_delta = rebased_overlay(in_, at);
  std::size_t entries = 0;
  for (const auto* delta : {&out_delta, &in_delta}) {
    for (const auto& [v, ov] : *delta) {
      entries += ov.inserts.size() + ov.removals.size();
    }
  }
  auto pub_out = std::make_shared<const SnapshotCsr>(new_out);
  auto pub_in =
      symmetric_ ? pub_out : std::make_shared<const SnapshotCsr>(new_in);
  {
    std::lock_guard<std::mutex> lk(mu_);
    out_.base = std::move(new_out);
    in_.base = std::move(new_in);
    out_.delta.swap(out_delta);
    in_.delta.swap(in_delta);
    out_.published = std::move(pub_out);
    in_.published = std::move(pub_in);
    overlay_entries_ = entries;
    oldest_epoch_ = at;
    history_.clear();  // every batch is at or below the new floor
  }
  for (Side* side : {&out_, &in_}) {
    side->arena.reset();
    side->pool.reset();
  }
  span.arg("epoch", static_cast<double>(at));
  span.arg("overlay_entries_after", static_cast<double>(entries));
}

std::vector<UpdateBatch> DeltaGraph::batches_since(epoch_t since) const {
  std::lock_guard<std::mutex> lk(mu_);
  PP_CHECK(since >= oldest_epoch_ &&
           "batches_since predates the compaction floor");
  return {history_.begin() + (std::min(since, epoch_) - oldest_epoch_),
          history_.end()};
}

std::size_t DeltaGraph::num_batches_since(epoch_t since) const {
  // One commit per epoch, so the count is epoch arithmetic; it holds below
  // the compaction floor too, where the batches themselves are gone.
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::size_t>(epoch_ -
                                  std::clamp<epoch_t>(since, 0, epoch_));
}

eid_t DeltaGraph::num_arcs() const {
  std::lock_guard<std::mutex> lk(mu_);
  return out_.published->num_arcs();
}

std::size_t DeltaGraph::overlay_entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return overlay_entries_;
}

std::vector<EdgeUpdate> flatten(const std::vector<UpdateBatch>& batches) {
  std::vector<EdgeUpdate> out;
  for (const UpdateBatch& b : batches) {
    out.insert(out.end(), b.updates.begin(), b.updates.end());
  }
  return out;
}

}  // namespace pushpull
