// Figure 6 (the two §6.2 tables) as engine-policy sweeps — every row of every
// table is the same engine code path under a different policy bundle:
//   left   — Partition-Awareness: PR time/iteration, Push (AtomicCtx over the
//            flat CSR) vs Push+PA (dense_push_pa over the split
//            representation). Paper: PA wins ~24% on dense graphs
//            (orc/pok/ljn) but *backfires* on sparse ones (am/rca).
//   right  — BGC iteration counts for Push / +FE / +GS / +GrS. Paper: FE
//            explodes on social graphs (49 -> 173/334) and collapses on
//            road/purchase graphs (49 -> 5/10); the switches fix the social
//            blowup.
//   bottom — the §5 ordering on label-propagation CC: static push and static
//            pull re-touch all m arcs per round; FE/GrS ride the changed
//            frontier and must win on the low-diameter analogs. The bench
//            exits non-zero if that ordering breaks (CI gate).
//
// --verify also exits non-zero unless every CC policy returns the same
// labels and direction-optimizing BFS returns the sequential BFS distances.
//
// Flags (shared across fig1/fig2/fig5/fig6): --scale=K,
// --policy=push|pull|gs|grs|fe|pa|all, --graph=FILE.
#include <algorithm>

#include "bench_common.hpp"
#include "core/baselines/baselines.hpp"
#include "core/bfs.hpp"
#include "core/coloring.hpp"
#include "core/connected_components.hpp"
#include "core/pagerank.hpp"
#include "graph/partition_aware.hpp"

using namespace pushpull;

namespace {

bool policy_selected(const bench::SmCli& sm, engine::StrategyKind k) {
  for (engine::StrategyKind p : sm.policies) {
    if (p == k) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  bench::SmCli sm = bench::parse_sm_cli(cli, /*default_scale=*/-1);
  const int iters = static_cast<int>(cli.get_int("pr-iters", 8));
  const int bgc_l = static_cast<int>(cli.get_int("bgc-l", 49));
  const bool verify = cli.get_bool("verify");
  const std::string json_path = cli.get_string("json", "");
  cli.check();
  bench::JsonWriter json;
  json.add_string("bench", "fig6_strategies");
  bench::TraceSession trace(sm.trace_path);

  bench::print_banner(
      "Figure 6 — acceleration strategies as engine policies: PA on PageRank; "
      "FE/GS/GrS on BGC and CC",
      "PA helps dense, hurts sparse; FE explodes on social graphs, switches "
      "fix it; FE/GrS beat static directions on low-diameter graphs");

  using engine::StrategyKind;
  const std::vector<std::string> names = bench::sm_graph_names(sm);

  // The PR table *is* the PA strategy (flat push is its baseline column), so
  // it runs exactly when `pa` is selected.
  if (policy_selected(sm, StrategyKind::PartitionAware)) {
    std::printf("\nPR time per iteration [ms], Push vs Push+PA (paper's left table):\n");
    Table table({"Graph", "Push", "Push+PA", "PA effect"});
    for (const std::string& name : names) {
      const Csr& g = bench::sm_load_graph(sm, name);
      PageRankOptions opt;
      opt.iterations = iters;
      const PartitionAwareCsr pa(g, Partition1D(g.n(), omp_get_max_threads()));
      const double push_ms =
          bench::time_s([&] { pagerank_push(g, opt); }, 2) / iters * 1e3;
      const double pa_ms =
          bench::time_s([&] { pagerank_push_pa(g, pa, opt); }, 2) / iters * 1e3;
      table.add_row({name + "*", Table::num(push_ms, 3), Table::num(pa_ms, 3),
                     Table::num(push_ms / pa_ms, 2) + "x"});
    }
    table.print();
    std::printf("Paper: orc 558->426, pok 104->88, ljn 241->145 (PA wins); "
                "am 2.5->5.2, rca 5.4->13.7 (PA loses).\n");
  }

  // BGC columns are the strategies themselves: show the selected ones.
  const bool bgc_push = policy_selected(sm, StrategyKind::StaticPush);
  const bool bgc_fe = policy_selected(sm, StrategyKind::FrontierExploit);
  const bool bgc_gs = policy_selected(sm, StrategyKind::GenericSwitch);
  const bool bgc_grs = policy_selected(sm, StrategyKind::GreedySwitch);
  if (bgc_push || bgc_fe || bgc_gs || bgc_grs) {
    std::printf("\nBGC iterations to finish, Push / +FE / +GS / +GrS "
                "(paper's right table):\n");
    std::vector<std::string> header{"Graph"};
    if (bgc_push) header.push_back("Push");
    if (bgc_fe) header.push_back("+FE");
    if (bgc_gs) header.push_back("+GS");
    if (bgc_grs) header.push_back("+GrS");
    Table table(header);
    for (const std::string& name : names) {
      const Csr& g = bench::sm_load_graph(sm, name);
      ColoringOptions fixed;
      fixed.max_iterations = bgc_l;
      fixed.stop_on_converged = false;  // the paper's plain-push column is fixed-L
      ColoringOptions open;
      open.max_iterations = 8 * g.n();
      std::vector<std::string> row{name + "*"};
      if (bgc_push) row.push_back(std::to_string(boman_color_push(g, fixed).iterations));
      if (bgc_fe) row.push_back(std::to_string(fe_color(g, Direction::Push, open).iterations));
      if (bgc_gs) row.push_back(std::to_string(gs_color(g, open).iterations));
      if (bgc_grs) row.push_back(std::to_string(grs_color(g, open).iterations));
      table.add_row(row);
    }
    table.print();
    std::printf("Paper: orc 49/173/49/49, pok 49/48/49/47, ljn 49/334/49/49, "
                "am 49/10/10/9, rca 49/5/5/5.\n");
  }

  // Engine-policy sweep on label-propagation CC: identical functor, five
  // policies, one code path. The §5 ordering gate: on the low-diameter
  // social analogs the frontier strategies (FE, GrS) must beat both static
  // directions, which burn all m arcs every round.
  bool ordering_ok = true;
  bool verify_ok = true;
  std::vector<StrategyKind> cc_policies;
  for (StrategyKind k : sm.policies) {
    if (k != StrategyKind::PartitionAware) cc_policies.push_back(k);
  }
  if (!cc_policies.empty()) {
    std::printf("\nCC (label propagation) total time [ms] by engine policy:\n");
    std::vector<std::string> header{"Graph"};
    for (StrategyKind k : cc_policies) header.push_back(engine::to_string(k));
    header.push_back("rounds (grs)");
    Table table(header);
    for (const std::string& name : names) {
      const Csr& g = bench::sm_load_graph(sm, name);
      std::vector<std::string> row{name + "*"};
      double t_push = 0, t_pull = 0, t_fe = 0, t_grs = 0;
      int grs_rounds = 0;
      std::vector<vid_t> first_labels;
      for (StrategyKind k : cc_policies) {
        CcOptions opt;
        opt.strategy = k;
        CcResult r;
        const double t = bench::time_s([&] { r = connected_components(g, opt); }, 5);
        // One extra traced repetition outside the timed loop: the trace
        // captures every round's direction decision without perturbing the
        // reported best-of-5 numbers.
        if (trace.active()) {
          connected_components(g, opt, NullInstr{}, trace.tracer());
        }
        if (verify) {
          if (first_labels.empty()) first_labels = r.comp;
          if (r.comp != first_labels) {
            verify_ok = false;
            std::printf("  !! CC labels under %s differ from %s on %s\n",
                        engine::to_string(k),
                        engine::to_string(cc_policies.front()), name.c_str());
          }
        }
        row.push_back(Table::num(t * 1e3, 3));
        json.add("cc." + name + "." + engine::to_string(k), t);
        switch (k) {
          case StrategyKind::StaticPush: t_push = t; break;
          case StrategyKind::StaticPull: t_pull = t; break;
          case StrategyKind::FrontierExploit: t_fe = t; break;
          case StrategyKind::GreedySwitch: t_grs = t; grs_rounds = r.rounds; break;
          default: break;
        }
      }
      row.push_back(std::to_string(grs_rounds));
      table.add_row(row);
      // Low-diameter analogs: the three social graphs.
      const bool low_diameter =
          name == "orc" || name == "pok" || name == "ljn";
      if (low_diameter && t_push > 0 && t_pull > 0 && t_fe > 0 && t_grs > 0) {
        // 25% slack on best-of-5 timings: the work gap (frontier vs all-m
        // rounds) is what the gate protects, not sub-millisecond scheduler
        // noise on a shared CI runner.
        const double slack = 1.25;
        const double t_static = std::min(t_push, t_pull);
        if (!(t_fe < slack * t_static && t_grs < slack * t_static)) {
          ordering_ok = false;
          std::printf("  !! §5 ordering violated on %s: fe=%.3fms grs=%.3fms "
                      "push=%.3fms pull=%.3fms\n",
                      name.c_str(), t_fe * 1e3, t_grs * 1e3, t_push * 1e3,
                      t_pull * 1e3);
        }
      }
    }
    table.print();
    std::printf("§5 ordering (FE/GrS < static push, static pull on "
                "low-diameter graphs): %s\n",
                ordering_ok ? "holds" : "VIOLATED");
  }
  // Direction-optimizing BFS timeline (§5 GS on traversal): one run per
  // graph from the max-degree root. With --trace=FILE every level lands in
  // the trace as a "round" event carrying mode, frontier size, active work
  // and the α/β threshold inputs — the per-round direction-decision record
  // the §6.2 switch discussion is about.
  {
    std::printf("\nDirection-optimizing BFS (α=14, β=24), max-degree root:\n");
    Table table({"Graph", "depth", "time [ms]"});
    for (const std::string& name : names) {
      const Csr& g = bench::sm_load_graph(sm, name);
      vid_t root = 0;
      for (vid_t v = 1; v < g.n(); ++v) {
        if (g.degree(v) > g.degree(root)) root = v;
      }
      BfsResult r;
      const double t = bench::time_s(
          [&] { r = bfs_direction_optimizing(g, root, {}, NullInstr{},
                                             trace.tracer()); },
          1);
      if (verify && r.dist != baseline::bfs(g, root).dist) {
        verify_ok = false;
        std::printf("  !! BFS distances differ from sequential BFS on %s\n",
                    name.c_str());
      }
      vid_t depth = 0;
      for (vid_t d : r.dist) depth = std::max(depth, d);
      table.add_row({name + "*", std::to_string(depth), Table::num(t * 1e3, 3)});
      json.add("bfs_diropt." + name + ".s", t);
    }
    table.print();
  }

  if (verify) json.add_string("verify", verify_ok ? "match" : "diverged");
  json.add_string("s5_ordering", ordering_ok ? "holds" : "violated");
  bench::add_machine_stanza(json);
  json.write(json_path);
  if (!trace.finish()) return 2;
  return ordering_ok && verify_ok ? 0 : 1;
}
