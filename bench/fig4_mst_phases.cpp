// Figure 4: Boruvka MST — per-iteration times of the three dominant phases:
// Find Minimum (FM), Build Merge Tree (BMT), Merge (M), push vs pull.
//
// Paper result: push is faster in BMT and comparable in M, but slower in the
// computationally dominant FM (write conflicts); overall pull wins ≈20%.
//
// --verify checks both directions against sequential Kruskal under Borůvka's
// own (weight, canonical arc) tie-break: the same forest edge set, a weight
// sum bitwise equal to kruskal_msf_weight, and the same iteration count for
// push and pull. It exits non-zero on any divergence (CI smoke-runs this).
// --json=FILE dumps the phase totals as a flat artifact.
#include <algorithm>

#include "bench_common.hpp"
#include "core/baselines/baselines.hpp"
#include "core/mst_boruvka.hpp"

using namespace pushpull;

namespace {

double total_s(const BoruvkaResult& r) {
  double t = 0;
  for (const auto& p : r.phase_times) {
    t += p.find_minimum_s + p.build_merge_tree_s + p.merge_s;
  }
  return t;
}

// Borůvka result vs the unique Kruskal forest: same edges, same weight bits.
// The analog weights are floats in [1, 64), whose double sum is exact in any
// order below 2^24 vertices, so the two sums agree bit for bit.
bool matches_kruskal(const Csr& g, Direction dir, const BoruvkaResult& got) {
  auto want = baseline::kruskal_msf_edges(g);
  auto edges = got.tree_edges;
  std::sort(want.begin(), want.end());
  std::sort(edges.begin(), edges.end());
  if (edges != want) {
    std::printf("  !! %s: Boruvka forest differs from Kruskal's "
                "(%zu vs %zu edges)\n",
                to_string(dir), edges.size(), want.size());
    return false;
  }
  const double want_weight = baseline::kruskal_msf_weight(g);
  if (got.total_weight != want_weight) {
    std::printf("  !! %s: Boruvka MST weight %.17g != Kruskal %.17g\n",
                to_string(dir), got.total_weight, want_weight);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", -1));
  const bool verify = cli.get_bool("verify");
  const std::string json_path = cli.get_string("json", "");
  cli.check();

  bench::print_banner(
      "Figure 4 — Boruvka MST phase times per iteration (FM / BMT / M)",
      "pull wins the dominant Find-Minimum phase (no CAS minimum updates); "
      "overall pull faster");

  const Csr g = analog_by_name("orc", scale, /*weighted=*/true);
  bench::print_graph_line("orc*", g);

  const BoruvkaResult push = mst_boruvka_push(g);
  const BoruvkaResult pull = mst_boruvka_pull(g);

  Table table({"iter", "FM push [ms]", "FM pull [ms]", "BMT push [ms]",
               "BMT pull [ms]", "M push [ms]", "M pull [ms]"});
  const std::size_t rows = std::max(push.phase_times.size(), pull.phase_times.size());
  for (std::size_t i = 0; i < rows; ++i) {
    auto cell = [&](const BoruvkaResult& r, double BoruvkaPhaseTimes::*field) {
      return i < r.phase_times.size() ? Table::num(r.phase_times[i].*field * 1e3, 3)
                                      : std::string("-");
    };
    table.add_row({std::to_string(i + 1),
                   cell(push, &BoruvkaPhaseTimes::find_minimum_s),
                   cell(pull, &BoruvkaPhaseTimes::find_minimum_s),
                   cell(push, &BoruvkaPhaseTimes::build_merge_tree_s),
                   cell(pull, &BoruvkaPhaseTimes::build_merge_tree_s),
                   cell(push, &BoruvkaPhaseTimes::merge_s),
                   cell(pull, &BoruvkaPhaseTimes::merge_s)});
  }
  table.print();

  const double push_total = total_s(push);
  const double pull_total = total_s(pull);
  std::printf("\ntotal: push=%.3fs pull=%.3fs (pull speedup %.2fx); "
              "MST weight push=%.1f pull=%.1f (must match)\n",
              push_total, pull_total, push_total / pull_total, push.total_weight,
              pull.total_weight);

  bench::JsonWriter json;
  json.add_string("bench", "fig4_mst_phases");
  json.add("scale", static_cast<long long>(scale));
  json.add("push.total_s", push_total);
  json.add("pull.total_s", pull_total);
  json.add("push.iterations", static_cast<long long>(push.iterations));
  json.add("mst_weight", pull.total_weight);

  bool ok = true;
  if (verify) {
    ok = matches_kruskal(g, Direction::Push, push) &&
         matches_kruskal(g, Direction::Pull, pull);
    if (push.iterations != pull.iterations) {
      std::printf("  !! push took %d Boruvka iterations, pull %d\n",
                  push.iterations, pull.iterations);
      ok = false;
    }
    std::printf("verify: Boruvka push + pull vs Kruskal forest: %s\n",
                ok ? "MATCH" : "DIVERGED");
    json.add_string("verify", ok ? "match" : "diverged");
  }
  bench::add_machine_stanza(json);
  json.write(json_path);
  return ok ? 0 : 1;
}
