// Ablation for the vertex-ordering choice (paper §4.2): descending degree
// — the paper's computing sequence — against a random permutation and the
// sampled path-centrality ψ estimate the paper cites as the ideal
// criterion. Reports indexing time, label size, and pruning work.
#include "common.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace parapll::bench {
namespace {

int Run(int argc, char** argv) {
  util::ArgParser args(argv[0],
                       "Ablation: vertex ordering policies for PLL");
  args.Flag("scale", "0.05", "fraction of paper dataset sizes")
      .Flag("datasets", "Gnutella:Epinions:DE-USA", "colon-separated subset")
      .Flag("seed", "1", "generator seed");
  AddObsFlags(args);
  if (!args.Parse(argc, argv)) {
    return 1;
  }
  ObsSession obs_session(args);

  std::printf("=== Ablation: vertex ordering (paper SS4.2) ===\n");

  const auto datasets =
      LoadDatasets(args.GetDouble("scale"), args.GetString("datasets"),
                   static_cast<std::uint64_t>(args.GetInt("seed")));

  util::Table table({"Dataset", "ordering", "IT(s)", "LN", "labels",
                     "settled", "pruned %", "probes"});
  for (const auto& d : datasets) {
    for (const auto policy :
         {pll::OrderingPolicy::kDegree, pll::OrderingPolicy::kRandom,
          pll::OrderingPolicy::kApproxBetweenness}) {
      util::WallTimer timer;
      const build::BuildOutcome result =
          build::Run(d.graph, {.ordering = policy, .seed = 42});
      const pll::Index& index = result.artifact.index;
      table.Row()
          .Cell(d.spec.name)
          .Cell(ToString(policy))
          .Cell(timer.Seconds(), 3)
          .Cell(index.AvgLabelSize(), 1)
          .Cell(static_cast<std::uint64_t>(index.TotalEntries()))
          .Cell(static_cast<std::uint64_t>(result.totals.settled))
          .Cell(100.0 * static_cast<double>(result.totals.pruned) /
                    static_cast<double>(result.totals.settled),
                1)
          .Cell(static_cast<std::uint64_t>(result.totals.probe_entries));
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: on power-law graphs, degree ordering (the paper's\n"
      "computing sequence) beats random by a wide margin and the psi-based\n"
      "ordering tracks it. On road networks degree carries no signal (all\n"
      "degrees ~2-4) and the sampled psi ordering wins decisively -- the\n"
      "'optimal sequence' of paper SS4.2 is centrality, with degree only a\n"
      "cheap proxy that happens to work on scale-free graphs.\n");
  return 0;
}

}  // namespace
}  // namespace parapll::bench

int main(int argc, char** argv) { return parapll::bench::Run(argc, argv); }
