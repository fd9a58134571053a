// serve_live — ROADMAP's headline: GraphService answering exact-latest BFS and
// SSSP point queries while a writer commits, first open-loop at a fixed rate
// (latency), then saturated by a closed loop (throughput).
//
// Every query pins its own latest epoch, so the batcher and the result cache
// are almost always bypassed; the blocking path is snapshot(e) over an
// overlay that grows with every commit, the queue and batch-window hold, and
// two workers each opening a full-width OpenMP team. The run never compacts:
// the service contract forbids compacting past an in-flight pinned epoch.
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "graph/builder.hpp"
#include "graph/delta_graph.hpp"
#include "inputs.hpp"
#include "serve/executor.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

using pushpull::DeltaGraph;
using pushpull::Edge;
using pushpull::epoch_t;
using pushpull::serve::Algo;
using pushpull::serve::GraphService;
using pushpull::serve::QueryRequest;
using pushpull::serve::QueryResult;
using pushpull::serve::ServiceOptions;

namespace {

constexpr std::uint64_t kWriterPeriodNs = 2'000'000;  // 500 commits/s
// About half the saturated throughput the closed loop measured on the parent
// commit; fixed so every later commit is offered the same load.
constexpr double kOpenRateQps = 100.0;
constexpr double kOpenShare = 0.6;  // of --seconds; the closed loop gets the rest
constexpr double kSloMs = 25.0;     // fixed latency limit for the miss share
constexpr int kSetupReps = 15;  // set-up takes ~15 ms: the median of many
constexpr long long kClosedIdBase = 1'000'000'000;
// Latency and throughput are medians over these windows of the timed phase.
constexpr std::uint64_t kOpenWindowNs = 1'000'000'000;  // 100 queries each
constexpr std::uint64_t kClosedWindowNs = 500'000'000;

int closed_clients() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
}

struct Outcome {
  long long id = 0;
  Query q;
  bool ok = false;
  epoch_t epoch = -1;
  std::uint64_t digest = 0;
  std::size_t behind = 0;
  std::uint64_t start_ns = 0;  // due time (open loop) or submit time (closed)
  std::uint64_t done_ns = 0;
  double latency_ms = 0.0;
};

QueryRequest request(const Query& q) {
  QueryRequest req;
  req.algo = q.algo;
  req.source = q.source;
  return req;
}

Outcome settle(long long id, const Query& q, const QueryResult& r,
               std::uint64_t start_ns, std::uint64_t done_ns) {
  Outcome o;
  o.id = id;
  o.q = q;
  o.ok = r.ok;
  o.epoch = r.epoch;
  o.digest = q.algo == Algo::Bfs ? digest_of(r.levels) : digest_of(r.dist);
  o.behind = r.behind_batches;
  o.start_ns = start_ns;
  o.done_ns = done_ns;
  o.latency_ms = static_cast<double>(done_ns - start_ns) * 1e-6;
  return o;
}

Clock::time_point at(std::uint64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

// One set-up instance. The service is declared after the graph it serves so
// it is destroyed first.
struct Live {
  std::unique_ptr<DeltaGraph> dg;
  std::unique_ptr<GraphService> svc;

  void reset() {
    svc.reset();
    dg.reset();
  }
};

}  // namespace

int serve_live_harness_threads() { return closed_clients() + 1; }

RunResult run_serve_live(const RunConfig& cfg) {
  RunResult res;
  const Spans spans{cfg.tracer};
  const double open_s = cfg.seconds * kOpenShare;
  const int clients = closed_clients();
  const ServeInputs in = make_serve_inputs(
      cfg.seed, static_cast<std::size_t>(cfg.seconds * 1e9 / kWriterPeriodNs) + 1,
      kOpenRateQps, open_s, kWriterPeriodNs / 2, clients,
      static_cast<std::size_t>(cfg.seconds * 2000) + 16);
  const std::size_t n_open = in.open.size();
  Digest closed_digest;
  for (const std::vector<Query>& c : in.closed) closed_digest.value(digest(c));
  std::printf("  inputs: edges %016llx  writer %016llx  warm-up %016llx  open %016llx  "
              "closed %016llx\n",
              static_cast<unsigned long long>(digest(in.edges)),
              static_cast<unsigned long long>(digest(in.writer_batches)),
              static_cast<unsigned long long>(digest(in.warmup)),
              static_cast<unsigned long long>(digest(in.open)),
              static_cast<unsigned long long>(closed_digest.get()));

  // --- set-up: build_csr, DeltaGraph, GraphService, warm-up queries --------
  auto spin = std::make_unique<IdleSpinners>(kWarmUpS, kCalmWaitS);
  std::printf("  host: waited %.1f s for a calm second before set-up\n", spin->waited_s());
  Live live;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    live.reset();
    pushpull::EdgeList edges = in.edges;
    pushpull::BuildOptions bo;
    bo.keep_weights = true;
    const std::uint64_t t0 = now_ns();
    live.dg = std::make_unique<DeltaGraph>(
        pushpull::build_csr(in.n, std::move(edges), bo));
    ServiceOptions so{};
    so.tracer = cfg.tracer;
    live.svc = std::make_unique<GraphService>(*live.dg, so);
    std::vector<std::future<QueryResult>> warm;
    for (const Query& q : in.warmup) warm.push_back(live.svc->submit(request(q)));
    for (auto& f : warm) {
      if (!f.get().ok) res.correct = false;
    }
    setup_s.push_back(seconds_since(t0));
  }
  res.set("setup_s", median(setup_s));
  DeltaGraph& dg = *live.dg;
  GraphService& svc = *live.svc;
  dg.set_tracer(cfg.tracer);

  // --- timed phase ----------------------------------------------------------
  const std::uint64_t t0 = now_ns();
  const std::uint64_t t_end = t0 + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  LagTracker writer_lag;
  StealMonitor host;
  std::size_t commits = 0;
  std::jthread writer([&] {
    for (std::size_t i = 0; i < in.writer_batches.size(); ++i) {
      const std::uint64_t due = t0 + i * kWriterPeriodNs;
      if (due >= t_end) break;
      sleep_until_ns(due);
      const std::uint64_t s0 = now_ns();
      writer_lag.note(due, s0);
      for (const Edge& e : in.writer_batches[i]) dg.add_edge(e.u, e.v, e.w);
      const std::uint64_t s1 = now_ns();
      dg.commit();
      const std::uint64_t s2 = now_ns();
      spans.span("bench.graph", "stage", s0, s1, static_cast<double>(i));
      spans.span("bench.graph", "commit", s1, s2, static_cast<double>(i));
      ++commits;
    }
  });

  // Open loop: one dispatcher sends query i at t0 + its due time and times it
  // from that due time. Between sends it waits on the oldest in-flight query.
  struct InFlight {
    std::size_t i;
    std::uint64_t due;
    std::future<QueryResult> fut;
  };
  std::vector<Outcome> open;
  open.reserve(n_open);
  LagTracker dispatch_lag;
  std::deque<InFlight> inflight;
  auto settle_front = [&] {
    InFlight& f = inflight.front();
    const QueryResult r = f.fut.get();
    const std::uint64_t done = now_ns();
    open.push_back(settle(static_cast<long long>(f.i), in.open[f.i], r, f.due, done));
    spans.span("bench.e2e", "query", f.due, done, static_cast<double>(f.i));
    inflight.pop_front();
  };
  for (std::size_t i = 0; i < n_open; ++i) {
    const std::uint64_t due = t0 + in.open[i].due_ns;
    while (!inflight.empty() &&
           inflight.front().fut.wait_until(at(due)) == std::future_status::ready) {
      settle_front();
    }
    sleep_until_ns(due);
    const std::uint64_t s0 = now_ns();
    dispatch_lag.note(due, s0);
    std::future<QueryResult> fut = svc.submit(request(in.open[i]));
    spans.span("bench.serve", "submit", s0, now_ns(), static_cast<double>(i));
    inflight.push_back({i, due, std::move(fut)});
  }
  while (!inflight.empty()) settle_front();

  // Closed loop: nproc − 1 clients saturate the service until t_end.
  const std::uint64_t t_closed = now_ns();
  std::vector<std::vector<Outcome>> closed(static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> last_done(static_cast<std::size_t>(clients), t_closed);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const auto cu = static_cast<std::size_t>(c);
        const std::vector<Query>& stream = in.closed[cu];
        for (std::size_t k = 0; k < stream.size(); ++k) {
          const std::uint64_t s0 = now_ns();
          if (s0 >= t_end) break;
          const long long id = kClosedIdBase * (c + 1) + static_cast<long long>(k);
          std::future<QueryResult> fut = svc.submit(request(stream[k]));
          const std::uint64_t s1 = now_ns();
          const QueryResult r = fut.get();
          const std::uint64_t done = now_ns();
          closed[cu].push_back(settle(id, stream[k], r, s0, done));
          spans.span("bench.serve", "submit", s0, s1, static_cast<double>(id));
          spans.span("bench.e2e", "query", s0, done, static_cast<double>(id));
          last_done[cu] = done;
        }
      });
    }
    for (std::jthread& t : threads) t.join();
  }
  writer.join();
  host.stop();
  spin.reset();
  res.set("peak_rss_mb", peak_rss_mb());
  const pushpull::serve::ServiceStats st = svc.stats();
  svc.stop();

  std::vector<double> lat_ms;
  std::vector<Sample> lat;
  std::size_t slo_miss = 0;
  for (const Outcome& o : open) {
    lat_ms.push_back(o.latency_ms);
    lat.push_back({o.start_ns, o.latency_ms});
    if (!o.ok || o.latency_ms > kSloMs) ++slo_miss;
  }
  // Completions per second in each whole window of the closed phase.
  const std::uint64_t closed_end = *std::max_element(last_done.begin(), last_done.end());
  const double closed_s = static_cast<double>(closed_end - t_closed) * 1e-9;
  const std::uint64_t whole_end =
      t_closed + (t_end - std::min(t_end, t_closed)) / kClosedWindowNs * kClosedWindowNs;
  std::size_t closed_done = 0;
  std::vector<Sample> completions;
  for (const auto& v : closed) {
    closed_done += v.size();
    for (const Outcome& o : v) {
      if (o.done_ns < whole_end) completions.push_back({o.done_ns, 1.0});
    }
  }
  const double window_s = static_cast<double>(kClosedWindowNs) * 1e-9;
  const Windows lat_w(lat, t0, kOpenWindowNs, host);
  const Windows done_w(completions, t_closed, kClosedWindowNs, host);
  res.set("latency_p50_ms", lat_w.percentile_of(50.0));
  res.set("latency_p90_ms", lat_w.percentile_of(90.0));
  res.set("throughput_per_s", done_w.median_of(1, [&](const std::vector<double>& v) {
            return static_cast<double>(v.size()) / window_s;
          }));

  // --- answer checks: replay every served query on snapshot(epoch) ---------
  std::vector<const Outcome*> all;
  for (const Outcome& o : open) all.push_back(&o);
  for (const auto& v : closed) {
    for (const Outcome& o : v) all.push_back(&o);
  }
  std::vector<double> behind;
  const ServiceOptions defaults{};
  for (const Outcome* o : all) {
    ++res.attempted;
    if (!o->ok) {
      ++res.failed;
      continue;
    }
    behind.push_back(static_cast<double>(o->behind));
    const auto id = static_cast<double>(o->id);
    const std::uint64_t s0 = now_ns();
    const pushpull::SnapshotView snap = dg.snapshot(o->epoch);
    const std::uint64_t s1 = now_ns();
    std::uint64_t want = 0;
    if (o->q.algo == Algo::Bfs) {
      const std::vector<pushpull::vid_t> levels =
          pushpull::serve::run_bfs(snap, o->q.source, QueryRequest{}.policy);
      spans.span("bench.core", "bfs_snap", s1, now_ns(), id);
      want = digest_of(levels);
    } else {
      const std::vector<pushpull::weight_t> dist = pushpull::serve::run_sssp(
          snap, o->q.source, defaults.sssp_delta, QueryRequest{}.policy);
      spans.span("bench.core", "sssp_snap", s1, now_ns(), id);
      want = digest_of(dist);
    }
    spans.span("bench.graph", "snapshot", s0, s1, id);
    if (want != o->digest) {
      ++res.failed;
      res.correct = false;
    }
  }

  const double merge_ratio =
      st.batches > 0 ? static_cast<double>(st.completed - st.cache_hits) /
                           static_cast<double>(st.batches)
                     : 0.0;
  const std::uint64_t lookups = st.cache_hits + st.cache_misses;
  const double hit_ratio =
      lookups > 0 ? static_cast<double>(st.cache_hits) / static_cast<double>(lookups)
                  : 0.0;
  LagTracker gen_lag = dispatch_lag;
  gen_lag.merge(writer_lag);
  std::printf("  open loop: %zu queries at %.0f q/s over %.1f s; closed loop: "
              "%d clients, %zu queries over %.2f s (%.1f q/s pooled, median "
              "window %.1f q/s); writer: %zu commits of 16 edges every %.1f ms\n",
              open.size(), kOpenRateQps, open_s, clients, closed_done, closed_s,
              closed_s > 0.0 ? static_cast<double>(closed_done) / closed_s : 0.0,
              res.get("throughput_per_s"),
              commits, static_cast<double>(kWriterPeriodNs) * 1e-6);
  std::printf("  latency p50 %.3f ms  p90 %.3f ms  (medians over %.0f s windows of "
              "100 samples; all-sample p50 %.3f ms  p90 %.3f ms over %zu samples, %zu "
              "beyond p90)  p99 %.3f ms (%zu beyond p99%s)\n",
              res.get("latency_p50_ms"), res.get("latency_p90_ms"),
              static_cast<double>(kOpenWindowNs) * 1e-9,
              percentile(lat_ms, 50.0), percentile(lat_ms, 90.0), lat_ms.size(),
              samples_beyond(lat_ms.size(), 90.0), percentile(lat_ms, 99.0),
              samples_beyond(lat_ms.size(), 99.0),
              percentile_supported(lat_ms.size(), 99.0) ? "" : ", below the ten-sample rule");
  std::printf("  slo: %zu of %zu sent queries missed %.0f ms (%.4f; failures count as misses)\n",
              slo_miss, open.size(), kSloMs,
              open.empty() ? 0.0 : static_cast<double>(slo_miss) / static_cast<double>(open.size()));
  std::printf("  lag: dispatcher p99 %.3f ms max %.3f ms (%zu); writer p99 %.3f ms "
              "max %.3f ms (%zu)\n",
              dispatch_lag.p99_ms(), dispatch_lag.max_ms(), dispatch_lag.count(),
              writer_lag.p99_ms(), writer_lag.max_ms(), writer_lag.count());
  std::printf("  service: merge ratio %.3f  cache hit ratio %.3f  rejected %llu  "
              "overlay entries %zu\n",
              merge_ratio, hit_ratio, static_cast<unsigned long long>(st.rejected),
              dg.overlay_entries());
  std::printf("  host: steal %.1f%% of CPU time during the timed phase; left out "
              "%zu of %zu latency and %zu of %zu throughput windows above %.0f%%\n",
              host.share(t0, t_end) * 100.0, lat_w.noisy, lat_w.total, done_w.noisy,
              done_w.total, kMaxStealShare * 100.0);
  std::printf("  checks: %llu of %llu answers failed\n",
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));

  if (cfg.tracer == nullptr) return res;

  // --- per-layer metrics from the benchmark's spans -------------------------
  const SpanTable sp = SpanTable::from(*cfg.tracer);
  std::vector<double> overhead;
  for (const Outcome& o : open) {
    if (!o.ok) continue;
    const char* kernel = o.q.algo == Algo::Bfs ? "bfs_snap" : "sssp_snap";
    overhead.push_back(o.latency_ms - sp.at("snapshot", o.id) - sp.at(kernel, o.id));
  }
  res.set("graph.snapshot_ms.p50", sp.p("snapshot", 50));
  res.set("graph.snapshot_ms.p99", sp.p("snapshot", 99));
  res.set("graph.commit_us.p50", sp.p("commit", 50) * 1e3);
  res.set("graph.commit_us.p99", sp.p("commit", 99) * 1e3);
  res.set("graph.writer_lag_ms.p99", writer_lag.p99_ms());
  res.set("graph.stage_us.p50", sp.p("stage", 50) * 1e3);
  res.set("graph.overlay_entries", static_cast<double>(dg.overlay_entries()));
  res.set("serve.submit_us.p50", sp.p("submit", 50) * 1e3);
  res.set("serve.submit_us.p99", sp.p("submit", 99) * 1e3);
  res.set("serve.overhead_ms.p50", percentile(overhead, 50));
  res.set("serve.overhead_ms.p99", percentile(overhead, 99));
  res.set("serve.batch_merge_ratio", merge_ratio);
  res.set("serve.cache_hit_ratio", hit_ratio);
  res.set("serve.rejected", static_cast<double>(st.rejected));
  res.set("serve.behind_batches.p50", percentile(behind, 50));
  res.set("core.bfs_snap_ms.p50", sp.p("bfs_snap", 50));
  res.set("core.sssp_snap_ms.p50", sp.p("sssp_snap", 50));
  res.set("bench.gen_lag_ms.p99", gen_lag.p99_ms());
  res.set("bench.latency_p99_ms", percentile(lat_ms, 99.0));
  res.set("bench.samples", static_cast<double>(lat_ms.size()));
  std::printf("  layers at p50: submit %.3f ms + overhead %.3f ms + snapshot %.3f ms"
              " + kernel (bfs %.3f / sssp %.3f) ms  vs latency %.3f ms\n",
              sp.p("submit", 50), percentile(overhead, 50), sp.p("snapshot", 50),
              sp.p("bfs_snap", 50), sp.p("sssp_snap", 50), percentile(lat_ms, 50.0));

  // Operation counts: both kernel classes on the seeded base snapshot.
  const pushpull::SnapshotView base = dg.snapshot(dg.oldest_epoch());
  const pushpull::vid_t src = in.warmup.front().source;
  count_ops(res, "bfs_snap", [&](auto instr) {
    pushpull::DigraphBfsOptions opt;
    opt.strategy = QueryRequest{}.policy;
    pushpull::bfs_digraph_strategy(base, src, opt, instr);
  });
  count_ops(res, "sssp_snap", [&](auto instr) {
    pushpull::sssp_delta_push(base.out(), src, defaults.sssp_delta, instr);
  });

  // What folding this run's overlay back into the base costs (the run itself
  // never compacts).
  const std::uint64_t c0 = now_ns();
  dg.compact();
  res.set("graph.compact_ms.p50", static_cast<double>(now_ns() - c0) * 1e-6);
  return res;
}

}  // namespace perfbench
