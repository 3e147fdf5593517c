// equivalence_fuzz: the scalable arm of the executor differential
// harness (tests/differential_common.h). Generates seeded random
// expressions against every workload generator plus randomized edge
// instances (empty relations, arity-0 relations, ⊥-heavy columns,
// collision-prone schemas) and checks that the interpreter and the
// CompiledExecutor agree exactly — same database (values, attribute
// order, tuple order) on success, same Status code and message on
// failure — that Simplify keeps the result of every succeeding instance,
// and that the fault injector is consulted identically on both executors.
//
// Exit status is nonzero on any divergence, with a replayable
// description (seed, expression script, both outcomes) on stderr.
//
//   equivalence_fuzz [--exprs=N] [--seed=S] [--max-len=K]
//
// The default run (1200 expressions) is the acceptance gate for the
// compiled executor.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "differential_common.h"
#include "fira/builtin_functions.h"
#include "relational/io.h"
#include "workloads/bamm.h"
#include "workloads/flights.h"
#include "workloads/restructuring.h"
#include "workloads/semantic.h"
#include "workloads/synthetic.h"

namespace tupelo {
namespace {

Database Tdb(const char* text) {
  Result<Database> db = ParseTdb(text);
  if (!db.ok()) {
    std::fprintf(stderr, "fixture parse error: %s\n",
                 db.status().message().c_str());
    std::exit(2);
  }
  return std::move(db).value();
}

// A small zoo of edge instances the random generator would be unlikely
// to hit: empty relations, arity-0 relations, ⊥-heavy pointer columns,
// schemas primed for rename collisions.
std::vector<std::pair<std::string, Database>> EdgeInstances() {
  std::vector<std::pair<std::string, Database>> out;
  out.emplace_back("empty_relation", Tdb("relation R (A, B) { }"));
  out.emplace_back("single_column", Tdb("relation R (A) { (1) (2) }"));
  out.emplace_back(
      "null_heavy",
      Tdb("relation R (P, A, B) { (null, null, 1) (A, null, null) "
          "(B, 2, null) (Z, 3, 4) }"));
  out.emplace_back(
      "collision_prone",
      Tdb("relation R (A, B, gen0, gen1) { (1, 2, 3, 4) } "
          "relation gen2 (C) { (5) }"));
  {
    Database db = Tdb("relation S (A) { (1) (2) (3) }");
    Result<Relation> zero = Relation::Create("Z", {});
    if (zero.ok()) {
      (void)zero->AddTuple(Tuple());
      (void)zero->AddTuple(Tuple());
      db.PutRelation(std::move(zero).value());
    }
    out.emplace_back("arity_zero", std::move(db));
  }
  return out;
}

std::vector<std::pair<std::string, Database>> Instances() {
  std::vector<std::pair<std::string, Database>> out = EdgeInstances();
  out.emplace_back("flights_a", MakeFlightsA());
  out.emplace_back("flights_b", MakeFlightsB());
  out.emplace_back("flights_c", MakeFlightsC());
  {
    SyntheticMatchingPair pair = MakeSyntheticMatchingPair(16);
    out.emplace_back("synthetic_source", std::move(pair.source));
    out.emplace_back("synthetic_target", std::move(pair.target));
  }
  {
    RestructuringWorkload w = MakeRestructuringWorkload(4, 6);
    out.emplace_back("restructuring_wide", std::move(w.wide));
    out.emplace_back("restructuring_flat", std::move(w.flat));
    out.emplace_back("restructuring_split", std::move(w.split));
  }
  for (BammDomain domain : {BammDomain::kBooks, BammDomain::kAutos,
                            BammDomain::kMusic, BammDomain::kMovies}) {
    BammWorkload w = MakeBammWorkload(domain, /*seed=*/11);
    out.emplace_back("bamm_source", std::move(w.source));
    if (!w.targets.empty()) {
      out.emplace_back("bamm_target", std::move(w.targets[0]));
    }
  }
  for (SemanticDomain domain :
       {SemanticDomain::kInventory, SemanticDomain::kRealEstate}) {
    SemanticWorkload w = MakeSemanticWorkload(domain, 8);
    out.emplace_back("semantic_source", std::move(w.source));
    out.emplace_back("semantic_target", std::move(w.target));
  }
  return out;
}

int Run(uint64_t exprs, uint64_t seed, size_t max_len) {
  FunctionRegistry registry;
  if (Status st = RegisterBuiltinFunctions(&registry); !st.ok()) {
    std::fprintf(stderr, "builtin registration failed: %s\n",
                 st.message().c_str());
    return 2;
  }

  std::vector<std::pair<std::string, Database>> instances = Instances();
  diff::Rng rng(seed);
  uint64_t divergences = 0;
  uint64_t checked = 0;
  uint64_t failures_exercised = 0;

  for (uint64_t i = 0; i < exprs; ++i) {
    const auto& [name, db] = instances[i % instances.size()];
    MappingExpression expr =
        diff::RandomExpression(rng, db, registry, max_len);
    ++checked;
    if (!expr.Apply(db, &registry).ok()) ++failures_exercised;

    std::string divergence = diff::CheckExpression(expr, db, &registry);
    if (divergence.empty()) {
      divergence = diff::CheckInjectorParity(expr, db, &registry);
    }
    if (!divergence.empty()) {
      ++divergences;
      std::fprintf(stderr,
                   "DIVERGENCE (instance=%s, seed=%llu, expr #%llu)\n%s\n",
                   name.c_str(), static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(i), divergence.c_str());
    }
  }

  std::printf(
      "equivalence_fuzz: %llu expressions over %zu instances, "
      "%llu error-path cases, %llu divergences (seed=%llu)\n",
      static_cast<unsigned long long>(checked), instances.size(),
      static_cast<unsigned long long>(failures_exercised),
      static_cast<unsigned long long>(divergences),
      static_cast<unsigned long long>(seed));
  return divergences == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tupelo

int main(int argc, char** argv) {
  uint64_t exprs = 1200;
  uint64_t seed = 2006;
  size_t max_len = 7;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--exprs=", 8) == 0) {
      exprs = std::strtoull(arg + 8, nullptr, 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--max-len=", 10) == 0) {
      max_len = std::strtoull(arg + 10, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: equivalence_fuzz [--exprs=N] [--seed=S] "
                   "[--max-len=K]\n");
      return 2;
    }
  }
  if (max_len == 0) max_len = 1;
  return tupelo::Run(exprs, seed, max_len);
}
