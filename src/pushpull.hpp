// Umbrella header: the complete public API of libpushpull.
//
// Include this for everything, or pick the per-module headers below for
// faster compiles.
#pragma once

// Graph substrate.
#include "graph/analogs.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/delta_graph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "graph/partition_aware.hpp"
#include "graph/stats.hpp"
#include "graph/types.hpp"

// Synchronization + instrumentation.
#include "perf/cache_sim.hpp"
#include "perf/counters.hpp"
#include "perf/instr.hpp"
#include "sync/atomics.hpp"
#include "sync/barrier.hpp"
#include "sync/spinlock.hpp"

// The direction-aware traversal engine (edge_map / vertex_map substrate).
#include "engine/context.hpp"
#include "engine/edge_map.hpp"
#include "engine/policy.hpp"
#include "engine/vertex_set.hpp"

// Core push/pull algorithms and their sequential references.
#include "core/baselines/baselines.hpp"
#include "core/baselines/union_find.hpp"
#include "core/bc.hpp"
#include "core/bfs.hpp"
#include "core/coloring.hpp"
#include "core/connected_components.hpp"
#include "core/directed.hpp"
#include "core/direction.hpp"
#include "core/frontier.hpp"
#include "core/generalized_bfs.hpp"
#include "core/incremental.hpp"
#include "core/kcore.hpp"
#include "core/mst_boruvka.hpp"
#include "core/mst_prim.hpp"
#include "core/pagerank.hpp"
#include "core/sssp_delta.hpp"
#include "core/triangle_count.hpp"

// Abstractions.
#include "gas/gas.hpp"
#include "gas/programs.hpp"
#include "la/algorithms.hpp"
#include "la/semiring.hpp"
#include "la/spmv.hpp"

// Distributed-memory emulation.
#include "dist/bc_dist.hpp"
#include "dist/bfs_dist.hpp"
#include "dist/frontier_dist.hpp"
#include "dist/pr_dist.hpp"
#include "dist/runtime.hpp"
#include "dist/sssp_dist.hpp"
#include "dist/tc_dist.hpp"
#include "dist/transport.hpp"
#include "dist/transport_emu.hpp"
#include "dist/transport_shm.hpp"

// Analysis.
#include "pram/model.hpp"
