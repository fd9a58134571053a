// Figure 5: Betweenness Centrality scalability — first-BFS time, second
// (accumulation) phase time, and total runtime vs thread count, push vs pull.
//
// Paper result: pushing is slower than pulling in both phases because the
// backward phase's float conflicts need locks (and the forward phase needs
// CAS + FAA), at every thread count.
#include "bench_common.hpp"
#include "core/bc.hpp"
#include "util/rng.hpp"

using namespace pushpull;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  bench::SmCli sm = bench::parse_sm_cli(cli, /*default_scale=*/-2);
  const int num_sources = static_cast<int>(cli.get_int("sources", 24));
  const int max_threads = static_cast<int>(cli.get_int("max-threads", 8));
  cli.check();

  bench::print_banner(
      "Figure 5 — BC: forward-BFS / backward phase / total vs threads",
      "pull beats push in both phases (float locks in backward, CAS+FAA in "
      "forward)");

  const Csr& g = bench::sm_load_graph(sm, "orc");
  bench::print_graph_line(bench::sm_graph_names(sm)[0] + "*", g);

  // Fixed source sample (seeded) — the paper uses full BC; we sample to keep
  // the sweep in seconds.
  std::vector<vid_t> sources;
  Rng rng(1234);
  for (int i = 0; i < num_sources; ++i) {
    sources.push_back(static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(g.n()))));
  }

  Table table({"T", "fwd push [s]", "fwd pull [s]", "bwd push [s]", "bwd pull [s]",
               "total push [s]", "total pull [s]"});
  for (int t = 1; t <= max_threads; t *= 2) {
    omp_set_num_threads(t);
    BcOptions push_opt;
    push_opt.sources = sources;
    push_opt.forward = Direction::Push;
    push_opt.backward = Direction::Push;
    const BcResult push = betweenness_centrality(g, push_opt);

    BcOptions pull_opt = push_opt;
    pull_opt.forward = Direction::Pull;
    pull_opt.backward = Direction::Pull;
    const BcResult pull = betweenness_centrality(g, pull_opt);

    table.add_row({std::to_string(t), Table::num(push.forward_s, 4),
                   Table::num(pull.forward_s, 4), Table::num(push.backward_s, 4),
                   Table::num(pull.backward_s, 4),
                   Table::num(push.forward_s + push.backward_s, 4),
                   Table::num(pull.forward_s + pull.backward_s, 4)});
  }
  table.print();
  const int cpus = numa::topology().cpus;
  std::printf("\nNote: the push-vs-pull ordering per row is the reproduced "
              "object; rows with T>%d oversubscribe this %d-cpu machine.\n",
              cpus, cpus);
  return 0;
}
