// Distributed-memory runtime façade (§3.8, §6; DESIGN.md §3).
//
// The paper's distributed experiments compare three communication styles on
// top of a 1D vertex partition: one-sided *pushing* (MPI_Accumulate / FAA),
// one-sided *pulling* (MPI_Get), and two-sided *message passing* with
// per-destination combining. `World`/`Rank`/`Window<T>` reproduce those
// tradeoffs as a thin façade over a pluggable Transport backend
// (dist/transport.hpp), selected once at World construction:
//
//   World(n, BackendKind::Emu)  thread-per-rank emulation; reported
//                               communication time is the CommCosts model
//                               applied to RankStats counters (benches run
//                               up to 16 ranks on a 4-vCPU box — wall time
//                               of oversubscribed threads would measure the
//                               scheduler).
//   World(n, BackendKind::Shm)  forked processes over POSIX shared memory;
//                               windows use real process-shared atomics, the
//                               float-accumulate lock protocol is a real
//                               striped lock, and per-rank wall-clock time
//                               is measured.
//
// The façade owns everything backend-independent: counter attribution
// (RankStats, identical across backends), the allreduce slot-fold protocol,
// message counting, and the Window ownership/counting rules. Cross-rank
// state (windows, result slices) must come from World::shared_array so it is
// visible to process-backed ranks; everything else a rank touches is private.
//
// The cost model encodes the paper's central asymmetry: a floating-point
// MPI_Accumulate runs a lock-protocol (remote lock, get, add, put, unlock —
// §4.1), while an integer fetch-and-add maps to the NIC/hardware fast path
// (§4.2); messages pay a fixed injection/matching overhead plus bandwidth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "dist/transport.hpp"
#include "dist/transport_emu.hpp"
#include "dist/transport_shm.hpp"
#include "graph/partition.hpp"
#include "obs/trace.hpp"
#include "sync/atomics.hpp"
#include "util/check.hpp"

namespace pushpull::dist {

// Which communication style a distributed kernel uses (§3.8).
enum class DistVariant {
  PushRma,     // one-sided writes into remote windows (accumulate / FAA)
  PullRma,     // one-sided reads of remote windows (get)
  MsgPassing,  // two-sided, contributions combined per destination rank
};

inline const char* to_string(DistVariant v) {
  switch (v) {
    case DistVariant::PushRma: return "push-rma";
    case DistVariant::PullRma: return "pull-rma";
    case DistVariant::MsgPassing: return "msg-passing";
  }
  return "unknown";
}

// Per-operation costs in microseconds. Calibrated to the relative magnitudes
// the paper reports for a Cray Aries interconnect (§6): the float-accumulate
// lock protocol is an order of magnitude above the integer FAA fast path, and
// a matched two-sided message costs far more than any single RMA op.
struct CommCosts {
  double us_per_msg = 10.0;    // two-sided injection + matching overhead
  double us_per_byte = 0.005;  // ~200 MB/s effective payload bandwidth
  double us_per_put = 0.5;     // MPI_Put
  double us_per_get = 0.8;     // MPI_Get round trip
  double us_per_acc = 3.0;     // MPI_Accumulate on floats: lock protocol (§4.1)
  double us_per_faa = 0.3;     // integer fetch-and-add fast path (§4.2)
  double us_per_barrier = 5.0; // dissemination barrier
};

// Communication counters for one rank. Local window accesses are tracked
// separately from remote ones and carry no modeled cost: only operations that
// would cross the network are charged. Counters are backend-independent —
// the same run produces the same counts on emu and shm ranks.
struct RankStats {
  std::uint64_t barriers = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t rma_puts = 0;
  std::uint64_t rma_gets = 0;
  std::uint64_t rma_accs = 0;
  std::uint64_t rma_faas = 0;
  std::uint64_t local_puts = 0;
  std::uint64_t local_gets = 0;
  std::uint64_t local_accs = 0;
  std::uint64_t local_faas = 0;
  // Receive side of the two-sided protocol: inbox drains and the bytes they
  // returned. Not modeled (the sender already paid the wire charge) but
  // essential telemetry — a rank whose drains return empty is starved, one
  // whose drained bytes dwarf its sent bytes is a hotspot.
  std::uint64_t drains = 0;
  std::uint64_t bytes_drained = 0;
  // Compute proxy filled by the distributed kernels: edges (PR) or neighbor
  // pairs (TC) processed by this rank.
  std::uint64_t edge_ops = 0;

  double modeled_comm_us(const CommCosts& c) const {
    return static_cast<double>(msgs_sent) * c.us_per_msg +
           static_cast<double>(bytes_sent) * c.us_per_byte +
           static_cast<double>(rma_puts) * c.us_per_put +
           static_cast<double>(rma_gets) * c.us_per_get +
           static_cast<double>(rma_accs) * c.us_per_acc +
           static_cast<double>(rma_faas) * c.us_per_faa +
           static_cast<double>(barriers) * c.us_per_barrier;
  }

  RankStats& operator+=(const RankStats& o) {
    barriers += o.barriers;
    msgs_sent += o.msgs_sent;
    bytes_sent += o.bytes_sent;
    rma_puts += o.rma_puts;
    rma_gets += o.rma_gets;
    rma_accs += o.rma_accs;
    rma_faas += o.rma_faas;
    local_puts += o.local_puts;
    local_gets += o.local_gets;
    local_accs += o.local_accs;
    local_faas += o.local_faas;
    drains += o.drains;
    bytes_drained += o.bytes_drained;
    edge_ops += o.edge_ops;
    return *this;
  }
};

// Field-wise `after - before`, for per-superstep counter deltas. Counters
// are monotone within a rank, so the subtraction never wraps.
inline RankStats rank_stats_delta(const RankStats& after,
                                  const RankStats& before) {
  RankStats d;
  d.barriers = after.barriers - before.barriers;
  d.msgs_sent = after.msgs_sent - before.msgs_sent;
  d.bytes_sent = after.bytes_sent - before.bytes_sent;
  d.rma_puts = after.rma_puts - before.rma_puts;
  d.rma_gets = after.rma_gets - before.rma_gets;
  d.rma_accs = after.rma_accs - before.rma_accs;
  d.rma_faas = after.rma_faas - before.rma_faas;
  d.local_puts = after.local_puts - before.local_puts;
  d.local_gets = after.local_gets - before.local_gets;
  d.local_accs = after.local_accs - before.local_accs;
  d.local_faas = after.local_faas - before.local_faas;
  d.drains = after.drains - before.drains;
  d.bytes_drained = after.bytes_drained - before.bytes_drained;
  d.edge_ops = after.edge_ops - before.edge_ops;
  return d;
}

// --- Superstep trace ---------------------------------------------------------
//
// Optional per-rank superstep log, closed at every Rank::barrier() — the
// universal superstep boundary of all distributed kernels here. Storage comes
// from World::shared_array, so it works identically on both backends: emu
// ranks (threads) and shm ranks (forked processes) write their own slot, and
// the controlling process reads the records after run() returns (thread join
// / process wait gives the happens-before; never read mid-run). Timestamps
// are steady_clock (CLOCK_MONOTONIC), which is consistent across forked
// processes on Linux, so per-rank lanes line up on one timeline.

inline constexpr int kSuperstepLanes = 8;

// One barrier-to-barrier interval of one rank.
struct SuperstepRecord {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  RankStats delta;  // counters this interval accumulated
  // Bytes sent per destination rank (send + alltoallv lanes); destinations
  // >= kSuperstepLanes fold into the last lane.
  std::uint64_t lane_bytes[kSuperstepLanes] = {};
};

// Per-rank bookkeeping between barriers (shared memory, written only by the
// owning rank).
struct SuperstepCursor {
  RankStats prev;
  std::uint64_t prev_t_ns = 0;
  std::uint64_t count = 0;    // records closed so far
  std::uint64_t dropped = 0;  // intervals past capacity
  std::uint64_t lane_bytes[kSuperstepLanes] = {};
};

class Rank;

// Owns the transport and hands each rank a Rank handle. All shared state —
// including the RankStats array — is allocated through the transport so
// process-backed ranks and the controlling process see the same memory.
class World {
 public:
  explicit World(int nranks, BackendKind backend = BackendKind::Emu,
                 std::size_t shm_segment_bytes = kDefaultShmSegmentBytes)
      : nranks_(nranks) {
    PP_CHECK(nranks >= 1);
    if (backend == BackendKind::Shm) {
      PP_CHECK(shm_backend_available());
      transport_ = std::make_unique<ShmTransport>(nranks, shm_segment_bytes);
    } else {
      transport_ = std::make_unique<EmuTransport>(nranks);
    }
    stats_ = shared_array<RankStats>(static_cast<std::size_t>(nranks)).data();
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int nranks() const noexcept { return nranks_; }
  BackendKind backend() const noexcept { return transport_->kind(); }
  Transport& transport() noexcept { return *transport_; }

  // Zero-initialized cross-rank storage for windows, bitmaps, and result
  // slices. Call from the controlling process (before or between runs),
  // never from inside a rank function.
  template <class T>
  std::span<T> shared_array(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    T* p = static_cast<T*>(
        transport_->shared_alloc(count * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < count; ++i) new (p + i) T{};
    return {p, count};
  }

  // SPMD entry point: fn(Rank&) runs once on every rank, concurrently.
  template <class F>
  void run(F&& fn);

  const RankStats& stats(int r) const {
    PP_CHECK(r >= 0 && r < nranks_);
    return stats_[static_cast<std::size_t>(r)];
  }

  RankStats total_stats() const {
    RankStats t;
    for (int r = 0; r < nranks_; ++r) t += stats_[static_cast<std::size_t>(r)];
    return t;
  }

  double max_modeled_comm_us(const CommCosts& c) const {
    double m = 0.0;
    for (int r = 0; r < nranks_; ++r) {
      m = std::max(m, stats_[static_cast<std::size_t>(r)].modeled_comm_us(c));
    }
    return m;
  }

  std::uint64_t max_edge_ops() const {
    std::uint64_t m = 0;
    for (int r = 0; r < nranks_; ++r) {
      m = std::max(m, stats_[static_cast<std::size_t>(r)].edge_ops);
    }
    return m;
  }

  // Slowest rank's measured wall-clock time, accumulated over run() calls.
  // Meaningful for the shm backend; for emu it measures oversubscribed
  // threads (use max_modeled_comm_us instead).
  double max_rank_wall_us() const {
    const double* w = transport_->rank_wall_us();
    double m = 0.0;
    for (int r = 0; r < nranks_; ++r) m = std::max(m, w[r]);
    return m;
  }

  // Turn on the per-rank superstep log. Call from the controlling process
  // before run(); each rank can close up to `capacity` records per World
  // (further barriers count as dropped). Storage is shared, so forked shm
  // ranks write records the parent reads back after run().
  void enable_superstep_trace(std::size_t capacity = 256) {
    PP_CHECK(capacity >= 1);
    ss_capacity_ = capacity;
    ss_cursors_ = shared_array<SuperstepCursor>(
                      static_cast<std::size_t>(nranks_))
                      .data();
    ss_records_ =
        shared_array<SuperstepRecord>(static_cast<std::size_t>(nranks_) *
                                      capacity)
            .data();
  }

  bool superstep_trace_enabled() const noexcept {
    return ss_cursors_ != nullptr;
  }

  // Records closed by rank r so far. Read after run() returns — the join
  // (emu) / wait (shm) in Transport::run is the happens-before edge.
  std::span<const SuperstepRecord> superstep_records(int r) const {
    PP_CHECK(r >= 0 && r < nranks_);
    if (ss_cursors_ == nullptr) return {};
    const SuperstepCursor& cur = ss_cursors_[static_cast<std::size_t>(r)];
    return {ss_records_ + static_cast<std::size_t>(r) * ss_capacity_,
            static_cast<std::size_t>(cur.count)};
  }

  std::uint64_t superstep_dropped(int r) const {
    PP_CHECK(r >= 0 && r < nranks_);
    return ss_cursors_ == nullptr
               ? 0
               : ss_cursors_[static_cast<std::size_t>(r)].dropped;
  }

 private:
  friend class Rank;

  int nranks_;
  std::unique_ptr<Transport> transport_;
  RankStats* stats_ = nullptr;
  SuperstepCursor* ss_cursors_ = nullptr;
  SuperstepRecord* ss_records_ = nullptr;
  std::size_t ss_capacity_ = 0;
};

// A rank's handle to the world: identity, synchronization, collectives, and
// two-sided messaging. All methods are called from the rank's own
// thread/process. Counter attribution lives here, above the transport, so
// both backends count identically.
class Rank {
 public:
  Rank(World& world, int id)
      : world_(&world), id_(id),
        stats_(&world.stats_[static_cast<std::size_t>(id)]) {
    // Anchor superstep 0 at rank entry so the first barrier closes a record
    // spanning actual rank work, not World setup.
    if (world_->ss_cursors_ != nullptr) {
      SuperstepCursor& cur = cursor();
      cur.prev = *stats_;
      cur.prev_t_ns = obs::now_ns();
      for (std::uint64_t& b : cur.lane_bytes) b = 0;
    }
  }

  int id() const noexcept { return id_; }
  int nranks() const noexcept { return world_->nranks_; }
  RankStats& stats() noexcept { return *stats_; }
  Transport& transport() noexcept { return *world_->transport_; }

  void barrier() {
    ++stats_->barriers;
    if (world_->ss_cursors_ != nullptr) close_superstep();
    world_->transport_->barrier(id_);
  }

  // Attribution + wire charge for one window-class operation: remote ops
  // count against the rma_* counters and pay the transport's emulated wire
  // service time; local ops count separately and are free. Window<T> and the
  // storage-less probes (dense frontier bitmap, TC's modeled adjacency
  // fetches) all funnel through here so both backends count identically.
  void count_put(bool remote) {
    count_op(remote, stats_->local_puts, stats_->rma_puts, RemoteOpClass::Put);
  }
  void count_get(bool remote) {
    count_op(remote, stats_->local_gets, stats_->rma_gets, RemoteOpClass::Get);
  }
  void count_acc(bool remote) {
    count_op(remote, stats_->local_accs, stats_->rma_accs, RemoteOpClass::Acc);
  }
  void count_faa(bool remote) {
    count_op(remote, stats_->local_faas, stats_->rma_faas, RemoteOpClass::Faa);
  }

  // Sum-allreduce over all ranks. Modeled as one message per rank (the
  // reduction tree's injection); free when the world has a single rank.
  // Restricted to floating-point: the reduction scratch is double, which
  // would silently round integer contributions above 2^53.
  template <class T>
  T allreduce_sum(T v) {
    return allreduce<T>(v, /*take_min=*/false);
  }

  // Min-allreduce over all ranks; same cost model. Used by the distributed
  // Δ-stepping kernel to agree on the next non-empty bucket.
  template <class T>
  T allreduce_min(T v) {
    return allreduce<T>(v, /*take_min=*/true);
  }

  // Personalized all-to-all: out[d] is this rank's payload for destination d.
  // Returns the concatenation of every source's payload for this rank. Only
  // non-empty lanes to *other* ranks count as sent messages.
  template <class T>
  std::vector<T> alltoallv(const std::vector<std::vector<T>>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    PP_CHECK(static_cast<int>(out.size()) == world_->nranks_);
    std::vector<ByteLane> lanes(out.size());
    for (int d = 0; d < world_->nranks_; ++d) {
      const auto& lane = out[static_cast<std::size_t>(d)];
      lanes[static_cast<std::size_t>(d)] = {lane.data(), lane.size() * sizeof(T)};
      if (d != id_ && !lane.empty()) {
        ++stats_->msgs_sent;
        stats_->bytes_sent += lane.size() * sizeof(T);
        note_lane_bytes(d, lane.size() * sizeof(T));
      }
    }
    std::vector<std::byte> bytes;
    world_->transport_->alltoallv(id_, lanes.data(), bytes);
    return from_bytes<T>(bytes);
  }

  // Two-sided send: `count` elements are delivered into dest's inbox
  // immediately (eager protocol); the receiver picks them up with drain<T>().
  template <class T>
  void send(int dest, const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    PP_CHECK(dest >= 0 && dest < world_->nranks_);
    const std::size_t nbytes = count * sizeof(T);
    world_->transport_->send(id_, dest, data, nbytes);
    // Self-sends stay in memory; only network-crossing traffic is charged.
    if (dest != id_) {
      ++stats_->msgs_sent;
      stats_->bytes_sent += nbytes;
      note_lane_bytes(dest, nbytes);
    }
  }

  // Empties this rank's inbox, reinterpreting the accumulated bytes as T.
  // Callers are responsible (via barriers) for ensuring all in-flight sends
  // of this phase have landed and that one phase never mixes element types.
  template <class T>
  std::vector<T> drain() {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes;
    world_->transport_->drain(id_, bytes);
    ++stats_->drains;
    stats_->bytes_drained += bytes.size();
    return from_bytes<T>(bytes);
  }

 private:
  // Backend-provided slot-fold reduction; only multi-rank worlds are
  // charged. Every backend folds contributions in rank order, so the result
  // is deterministic and identical across backends.
  template <class T>
  T allreduce(T v, bool take_min) {
    static_assert(std::is_floating_point_v<T>);
    const double acc =
        world_->transport_->allreduce(id_, static_cast<double>(v), take_min);
    if (world_->nranks_ > 1) {
      ++stats_->msgs_sent;
      stats_->bytes_sent += sizeof(T);
    }
    return static_cast<T>(acc);
  }

  SuperstepCursor& cursor() noexcept {
    return world_->ss_cursors_[static_cast<std::size_t>(id_)];
  }

  void note_lane_bytes(int dest, std::size_t nbytes) {
    if (world_->ss_cursors_ == nullptr) return;
    const int lane = dest < kSuperstepLanes ? dest : kSuperstepLanes - 1;
    cursor().lane_bytes[lane] += nbytes;
  }

  // Close the barrier-to-barrier interval ending now: one SuperstepRecord
  // carrying the counter deltas and per-destination bytes since the last
  // barrier (or rank entry). Past capacity the interval is dropped, but the
  // cursor still advances so later records stay correctly anchored.
  void close_superstep() {
    SuperstepCursor& cur = cursor();
    const std::uint64_t now = obs::now_ns();
    if (cur.count < world_->ss_capacity_) {
      SuperstepRecord& rec =
          world_->ss_records_[static_cast<std::size_t>(id_) *
                                  world_->ss_capacity_ +
                              cur.count];
      rec.t0_ns = cur.prev_t_ns;
      rec.t1_ns = now;
      rec.delta = rank_stats_delta(*stats_, cur.prev);
      for (int l = 0; l < kSuperstepLanes; ++l) {
        rec.lane_bytes[l] = cur.lane_bytes[l];
      }
      ++cur.count;
    } else {
      ++cur.dropped;
    }
    cur.prev = *stats_;
    cur.prev_t_ns = now;
    for (std::uint64_t& b : cur.lane_bytes) b = 0;
  }

  void count_op(bool remote, std::uint64_t& local, std::uint64_t& remote_ctr,
                RemoteOpClass cls) {
    if (remote) {
      ++remote_ctr;
      world_->transport_->charge_remote(cls);
    } else {
      ++local;
    }
  }

  template <class T>
  static std::vector<T> from_bytes(const std::vector<std::byte>& bytes) {
    PP_CHECK(bytes.size() % sizeof(T) == 0);
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  World* world_;
  int id_;
  RankStats* stats_;
};

template <class F>
void World::run(F&& fn) {
  transport_->run([this, &fn](int r) {
    Rank rank(*this, r);
    fn(rank);
  });
}

// A one-sided window: element i lives on the rank that owns i under the same
// 1D block partition the kernels use. Storage comes from the World's shared
// arena so process-backed ranks address the same memory. Accesses go through
// a Rank handle so local and remote operations are attributed to the
// caller's counters; all element accesses are atomic, and accumulate/faa are
// atomic read-modify-write so concurrent remote updates from many ranks are
// safe. Float accumulates additionally run the transport's §4.1 lock
// protocol (a real striped lock on shm, a no-op on emu where the CAS loop
// already serializes threads).
template <class T>
class Window {
 public:
  Window(World& world, std::size_t n)
      : transport_(&world.transport()), data_(world.shared_array<T>(n)),
        part_(static_cast<vid_t>(n), world.nranks()) {}

  int owner(std::size_t i) const noexcept {
    return part_.owner(static_cast<vid_t>(i));
  }

  void put(Rank& rank, std::size_t i, T value) {
    PP_DCHECK(i < data_.size());
    rank.count_put(owner(i) != rank.id());
    atomic_store(data_[i], value);
  }

  T get(Rank& rank, std::size_t i) {
    PP_DCHECK(i < data_.size());
    rank.count_get(owner(i) != rank.id());
    return atomic_load(data_[i]);
  }

  // MPI_Accumulate(SUM): the lock-protocol op class the cost model charges
  // heavily (§4.1). A *remote* accumulate additionally runs the transport's
  // lock protocol — remote lock, read-modify-write, unlock — which is a real
  // process-shared lock on shm and a no-op on emu; local accumulates and the
  // underlying atomicity (CAS loop for floats, atomic add for integers) are
  // backend-independent. Mirrors the counter convention: only operations
  // that would cross the network pay the op-class cost.
  void accumulate(Rank& rank, std::size_t i, T value) {
    PP_DCHECK(i < data_.size());
    const bool remote = owner(i) != rank.id();
    rank.count_acc(remote);
    if (remote) transport_->rmw_lock(i);
    if constexpr (std::is_floating_point_v<T>) {
      atomic_add(data_[i], value);
    } else {
      pushpull::faa(data_[i], value);
    }
    if (remote) transport_->rmw_unlock(i);
  }

  // MPI_Accumulate(MIN): the traversal kernels' one-sided claim/relax
  // primitive (BFS level claims, SSSP distance relaxations). Like the SUM
  // accumulate above, this is the lock-protocol op class (§4.1) — MIN is not
  // a NIC fast-path op — so it is counted through the acc counters and runs
  // the remote lock protocol for every element type.
  void accumulate_min(Rank& rank, std::size_t i, T value) {
    PP_DCHECK(i < data_.size());
    const bool remote = owner(i) != rank.id();
    rank.count_acc(remote);
    if (remote) transport_->rmw_lock(i);
    pushpull::atomic_min(data_[i], value);
    if (remote) transport_->rmw_unlock(i);
  }

  // Integer fetch-and-add (MPI_Fetch_and_op): the hardware fast path.
  T faa(Rank& rank, std::size_t i, T value)
    requires std::is_integral_v<T>
  {
    PP_DCHECK(i < data_.size());
    rank.count_faa(owner(i) != rank.id());
    return pushpull::faa(data_[i], value);
  }

  std::span<T> raw() noexcept { return data_; }
  std::span<const T> raw() const noexcept { return data_; }
  const Partition1D& partition() const noexcept { return part_; }

 private:
  Transport* transport_;
  std::span<T> data_;
  Partition1D part_;
};

}  // namespace pushpull::dist
