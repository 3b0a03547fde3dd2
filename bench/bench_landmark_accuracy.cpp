// Accuracy/latency comparison against landmark-based estimation
// (Potamias et al., the paper's reference [18]).
//
// PLL answers exactly; landmark estimation answers approximately with k
// distance vectors. This bench quantifies the gap the paper's intro
// implies: how many landmarks it takes to get close to exact, and what
// the index sizes look like side by side.
#include "common.hpp"
#include "baseline/landmark_estimator.hpp"
#include "util/table.hpp"

namespace parapll::bench {
namespace {

int Run(int argc, char** argv) {
  util::ArgParser args(
      argv[0], "Landmark estimation vs exact PLL (paper reference [18])");
  args.Flag("scale", "0.05", "fraction of paper dataset sizes")
      .Flag("datasets", "Gnutella:Epinions:DE-USA", "colon-separated subset")
      .Flag("pairs", "300", "sampled query pairs per configuration")
      .Flag("seed", "1", "generator seed");
  AddObsFlags(args);
  if (!args.Parse(argc, argv)) {
    return 1;
  }
  ObsSession obs_session(args);
  const auto pairs = static_cast<std::size_t>(args.GetInt("pairs"));

  std::printf("=== Landmark estimation vs exact PLL ===\n");

  const auto datasets =
      LoadDatasets(args.GetDouble("scale"), args.GetString("datasets"),
                   static_cast<std::uint64_t>(args.GetInt("seed")));

  util::Table table({"Dataset", "method", "entries", "exact %",
                     "mean rel err", "max rel err"});
  for (const auto& d : datasets) {
    const build::BuildOutcome serial = build::Run(d.graph, {});
    table.Row()
        .Cell(d.spec.name)
        .Cell("PLL (exact)")
        .Cell(static_cast<std::uint64_t>(serial.artifact.index.TotalEntries()))
        .Cell(100.0, 1)
        .Cell(0.0, 4)
        .Cell(0.0, 4);
    for (const std::size_t k : {4u, 16u, 64u}) {
      const auto estimator = baseline::LandmarkEstimator::Build(
          d.graph, k, baseline::LandmarkSelection::kHighestDegree);
      const auto accuracy =
          MeasureAccuracy(d.graph, estimator, pairs,
                          static_cast<std::uint64_t>(args.GetInt("seed")));
      table.Row()
          .Cell(d.spec.name)
          .Cell("landmarks k=" + std::to_string(k))
          .Cell(static_cast<std::uint64_t>(k * d.graph.NumVertices()))
          .Cell(100.0 * static_cast<double>(accuracy.exact) /
                    static_cast<double>(std::max<std::size_t>(
                        accuracy.pairs, 1)),
                1)
          .Cell(accuracy.mean_relative_error, 4)
          .Cell(accuracy.max_relative_error, 4);
    }
  }
  table.Print();
  std::printf("\nExpected shape: even dozens of landmarks leave a long\n"
              "error tail that the (often similarly sized) exact 2-hop\n"
              "cover eliminates -- the motivation for pruned landmark\n"
              "labeling over landmark sketches.\n");
  return 0;
}

}  // namespace
}  // namespace parapll::bench

int main(int argc, char** argv) { return parapll::bench::Run(argc, argv); }
