// Deep-web schema matching (Experiment 2's setting): match a fixed query
// schema against the other query interfaces of its domain and report the
// element correspondences TUPELO reads off the discovered expressions.

#include <iostream>
#include <string>

#include "common/text.h"
#include "core/schema_matching.h"
#include "workloads/bamm.h"

int main(int argc, char** argv) {
  uint64_t seed = 2006;
  size_t show = 5;
  if (argc > 1 && !tupelo::ParseNumber(argv[1], seed)) {
    std::cerr << "usage: deep_web_matching [seed]\n";
    return 2;
  }

  tupelo::BammWorkload workload =
      tupelo::MakeBammWorkload(tupelo::BammDomain::kBooks, seed);

  std::cout << "Fixed source schema:\n"
            << workload.source.ToString() << "\n\n";

  tupelo::TupeloOptions options;
  options.algorithm = tupelo::SearchAlgorithm::kRbfs;
  options.heuristic = tupelo::HeuristicKind::kCosine;

  size_t shown = 0;
  for (const tupelo::Database& target : workload.targets) {
    if (shown >= show) break;
    ++shown;
    std::cout << "--- target schema #" << shown << " ---\n"
              << target.ToString() << "\n";
    tupelo::Result<tupelo::SchemaMatch> match =
        tupelo::MatchSchemas(workload.source, target, options);
    if (!match.ok() || !match->found) {
      std::cout << "no match found\n\n";
      continue;
    }
    std::cout << "states examined: " << match->stats.states_examined << "\n";
    for (const auto& [from, to] : match->relation_matches) {
      std::cout << "  relation  " << from << " <-> " << to << "\n";
    }
    for (const auto& [from, to] : match->attribute_matches) {
      std::cout << "  attribute " << from << " <-> " << to << "\n";
    }
    if (match->relation_matches.empty() && match->attribute_matches.empty()) {
      std::cout << "  (schemas already aligned — identity mapping)\n";
    }
    std::cout << "\n";
  }
  return 0;
}
