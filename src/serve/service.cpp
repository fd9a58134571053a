#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "serve/executor.hpp"
#include "util/check.hpp"

namespace pushpull::serve {

namespace {

std::string metric_name(Algo a, const char* suffix) {
  return std::string("serve.") + to_string(a) + "." + suffix;
}

}  // namespace

GraphService::GraphService(DeltaGraph& graph, ServiceOptions opt)
    : graph_(&graph), opt_(opt), admission_(opt.admission),
      cache_(opt.cache_entries) {
  opt_.workers = std::max(1, opt_.workers);
  opt_.max_lanes = std::clamp(opt_.max_lanes, 1, 64);
  weighted_ = graph_->snapshot().out().has_weights();
  workers_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

GraphService::~GraphService() { stop(); }

std::future<QueryResult> GraphService::submit(QueryRequest req) {
  auto& m = obs::MetricsRegistry::global();
  Pending p;
  p.id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  p.req = req;
  p.t_submit_ns = obs::now_ns();
  std::future<QueryResult> fut = p.promise.get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  m.counter("serve.submitted").inc();

  // Validate against the live graph before pricing anything.
  const vid_t n = graph_->n();
  const bool single_source = req.algo == Algo::Bfs || req.algo == Algo::Sssp;
  if (single_source && (req.source < 0 || req.source >= n)) {
    reject_now(p, Reject::BadRequest,
               "source " + std::to_string(req.source) + " outside [0, " +
                   std::to_string(n) + ")");
    return fut;
  }
  if (req.algo == Algo::Sssp && !weighted_) {
    reject_now(p, Reject::BadRequest, "sssp on an unweighted graph");
    return fut;
  }

  // Pin the view: the latest published snapshot, or the explicitly pinned
  // epoch's, checked and taken in one step so a concurrent compact() cannot
  // slip between them. Everything downstream — execution, caching,
  // verification — reads this view, so later commits cannot leak into the
  // answer.
  p.view = req.pin_epoch < 0 ? graph_->snapshot()
                             : graph_->try_snapshot(req.pin_epoch);
  if (!p.view) {
    reject_now(p, Reject::BadRequest,
               "epoch " + std::to_string(req.pin_epoch) +
                   " outside snapshottable [" +
                   std::to_string(graph_->oldest_epoch()) + ", " +
                   std::to_string(graph_->epoch()) + "]");
    return fut;
  }

  // Cache: a hit is complete right here — same epoch means the cached
  // payload is bit-identical to recomputing it.
  if (auto hit = cache_.find(make_cache_key(req, p.epoch()))) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    m.counter("serve.cache.hits").inc();
    QueryResult r = *hit;  // payload copy; per-query fields refreshed below
    complete(p, std::move(r), 0, /*from_cache=*/true);
    return fut;
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  m.counter("serve.cache.misses").inc();

  // Price and admit on the pinned view's exact size.
  std::size_t queued;
  {
    std::lock_guard<std::mutex> lk(mu_);
    queued = queue_.size();
  }
  AdmissionDecision d =
      admission_.admit(p.req, n, p.view->num_arcs(), queued);
  p.priced = d.priced_ops;
  if (!d.ok()) {
    reject_now(p, d.reject, std::move(d.detail));
    return fut;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  m.counter("serve.admitted").inc();
  if (obs::tracing(opt_.tracer)) {
    obs::TraceEvent ev;
    ev.name = "serve/admit";
    ev.cat = "serve";
    ev.ph = 'i';
    ev.ts_ns = obs::now_ns();
    ev.mode = to_string(p.req.algo);
    ev.arg("qid", static_cast<double>(p.id))
        .arg("epoch", static_cast<double>(p.epoch()))
        .arg("priced_ops", static_cast<double>(p.priced));
    opt_.tracer->record(ev);
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      admission_.release(p.priced);
      reject_now(p, Reject::Shutdown, "service stopping");
      return fut;
    }
    queue_.push_back(std::move(p));
    m.gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return fut;
}

void GraphService::worker_loop() {
  using clock = std::chrono::steady_clock;
  auto& m = obs::MetricsRegistry::global();
  for (;;) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;  // stop() fails whatever is still queued

    std::vector<Pending> batch;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    // The batch key, held by value: harvesting grows `batch`, and a
    // reallocation would leave a reference to its head dangling.
    const Algo algo = batch.front().req.algo;
    const epoch_t epoch = batch.front().epoch();
    const engine::StrategyKind policy = batch.front().req.policy;
    const auto lanes = static_cast<std::size_t>(opt_.max_lanes);
    // Move every queued query with the same key into the batch.
    auto harvest = [&] {
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < lanes;) {
        if (it->req.algo == algo && it->epoch() == epoch &&
            it->req.policy == policy) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    };

    // Batching window: hold a single-source query open and merge compatible
    // arrivals (same algorithm, epoch, policy) into its pass, up to
    // max_lanes or until the window closes.
    const bool batchable = (algo == Algo::Bfs || algo == Algo::Sssp) &&
                           opt_.batch_window_us > 0 && lanes > 1;
    if (batchable) {
      const auto deadline =
          clock::now() + std::chrono::microseconds(opt_.batch_window_us);
      for (;;) {
        harvest();
        if (stopping_ || batch.size() >= lanes ||
            cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
          break;
        }
      }
      // Window closed: one last harvest of anything that raced the timeout.
      harvest();
    }
    m.gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
    if (!queue_.empty()) cv_.notify_one();
    lk.unlock();
    execute_batch(std::move(batch));
  }
}

void GraphService::execute_batch(std::vector<Pending> batch) {
  auto& m = obs::MetricsRegistry::global();
  // Every query in the batch pinned the same epoch; the head's view serves
  // them all.
  const SnapshotView& view = *batch.front().view;
  const epoch_t e = view.epoch();

  const int k = static_cast<int>(batch.size());
  const Algo algo = batch.front().req.algo;
  obs::ScopedSpan<obs::Tracer> span(opt_.tracer, "serve/execute", "serve");
  span.set_mode(to_string(algo));
  span.arg("epoch", static_cast<double>(e));
  span.arg("lanes", static_cast<double>(k));
  batches_.fetch_add(1, std::memory_order_relaxed);
  m.counter("serve.batches").inc();
  m.histogram("serve.batch_lanes").record(static_cast<std::uint64_t>(k));
  if (k > 1) {
    batched_queries_.fetch_add(static_cast<std::uint64_t>(k),
                               std::memory_order_relaxed);
    m.counter("serve.batched_queries").inc(k);
  }

  const vid_t n = view.n();
  switch (algo) {
    case Algo::Bfs: {
      if (k == 1) {
        QueryResult r;
        r.levels = run_bfs(view, batch[0].req.source, batch[0].req.policy);
        complete(batch[0], std::move(r), 1, false);
      } else {
        std::vector<vid_t> sources;
        sources.reserve(batch.size());
        for (const Pending& p : batch) sources.push_back(p.req.source);
        const MultiSourceBfsResult ms =
            run_ms_bfs(view, sources, batch.front().req.policy);
        for (int l = 0; l < k; ++l) {
          QueryResult r;
          r.levels = ms.lane(l, n);
          complete(batch[static_cast<std::size_t>(l)], std::move(r), k, false);
        }
      }
      break;
    }
    case Algo::Sssp: {
      if (k == 1) {
        QueryResult r;
        r.dist = run_sssp(view, batch[0].req.source, opt_.sssp_delta,
                          batch[0].req.policy);
        complete(batch[0], std::move(r), 1, false);
      } else {
        std::vector<vid_t> sources;
        sources.reserve(batch.size());
        for (const Pending& p : batch) sources.push_back(p.req.source);
        const MultiSourceSsspResult ms = run_ms_sssp(view, sources);
        for (int l = 0; l < k; ++l) {
          QueryResult r;
          r.dist = ms.lane(l, n);
          complete(batch[static_cast<std::size_t>(l)], std::move(r), k, false);
        }
      }
      break;
    }
    case Algo::PageRank: {
      QueryResult r;
      r.ranks = run_pagerank(view);
      complete(batch[0], std::move(r), 1, false);
      break;
    }
    case Algo::Cc: {
      QueryResult r;
      r.comp = run_cc(view);
      complete(batch[0], std::move(r), 1, false);
      break;
    }
  }
}

void GraphService::complete(Pending& p, QueryResult&& r, int lanes,
                            bool from_cache) {
  auto& m = obs::MetricsRegistry::global();
  const std::uint64_t t_end = obs::now_ns();
  const std::uint64_t lat_ns = t_end - p.t_submit_ns;
  r.ok = true;
  r.reject = Reject::None;
  r.algo = p.req.algo;
  r.epoch = p.epoch();
  r.batch_lanes = lanes;
  r.from_cache = from_cache;
  r.priced_ops = p.priced;
  r.behind_batches = graph_->num_batches_since(r.epoch);
  r.latency_s = static_cast<double>(lat_ns) * 1e-9;

  m.histogram(metric_name(p.req.algo, "latency")).record(lat_ns);
  m.counter("serve.completed").inc();
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (!from_cache) {
    admission_.release(p.priced);
    admission_.observe(p.priced, r.latency_s);
    cache_.insert(make_cache_key(p.req, r.epoch),
                  std::make_shared<const QueryResult>(r));
  }
  if (obs::tracing(opt_.tracer)) {
    obs::TraceEvent ev;
    ev.name = "serve/query";
    ev.cat = "serve";
    ev.ph = 'X';
    ev.ts_ns = p.t_submit_ns;
    ev.dur_ns = lat_ns;
    ev.mode = to_string(p.req.algo);
    ev.arg("qid", static_cast<double>(p.id))
        .arg("epoch", static_cast<double>(r.epoch))
        .arg("lanes", static_cast<double>(lanes))
        .arg("cached", from_cache ? 1.0 : 0.0)
        .arg("behind_batches", static_cast<double>(r.behind_batches));
    opt_.tracer->record(ev);
  }
  p.promise.set_value(std::move(r));
}

void GraphService::reject_now(Pending& p, Reject why, std::string detail) {
  auto& m = obs::MetricsRegistry::global();
  QueryResult r;
  r.ok = false;
  r.reject = why;
  r.reject_detail = std::move(detail);
  r.algo = p.req.algo;
  r.epoch = p.epoch();
  r.latency_s = static_cast<double>(obs::now_ns() - p.t_submit_ns) * 1e-9;
  rejected_.fetch_add(1, std::memory_order_relaxed);
  m.counter("serve.rejected").inc();
  m.counter(metric_name(p.req.algo, "degraded")).inc();
  if (obs::tracing(opt_.tracer)) {
    obs::TraceEvent ev;
    ev.name = "serve/reject";
    ev.cat = "serve";
    ev.ph = 'i';
    ev.ts_ns = obs::now_ns();
    ev.mode = to_string(why);
    ev.arg("qid", static_cast<double>(p.id));
    opt_.tracer->record(ev);
  }
  p.promise.set_value(std::move(r));
}

void GraphService::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  std::deque<Pending> orphans;
  {
    std::lock_guard<std::mutex> lk(mu_);
    orphans.swap(queue_);
  }
  for (Pending& p : orphans) {
    admission_.release(p.priced);
    reject_now(p, Reject::Shutdown, "service stopped before execution");
  }
}

ServiceStats GraphService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_queries = batched_queries_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.queue_depth = queue_.size();
  }
  return s;
}

}  // namespace pushpull::serve
