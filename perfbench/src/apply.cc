// apply_bulk: the deployment step after discovery. Four discovered
// mapping shapes are applied with CompiledExecutor::Apply to instances of
// 10^5..10^6 tuples; every output is checked against the interpreter
// (MappingExpression::Apply), run after the measurement: by 128-bit
// content fingerprint for every size, and with the full
// Database::ContentsEqual on the 10^5-tuple instance (a full comparison
// at 10^6 tuples costs seconds). Outputs must also repeat across passes.

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "fira/builtin_functions.h"
#include "fira/compile.h"
#include "fira/expression.h"
#include "fira/function_registry.h"
#include "fira/operators.h"
#include "relational/database.h"
#include "workloads.h"

namespace tupelo::perfbench {
namespace {

constexpr size_t kDimRows = 8;

// R(K, P, A, B, C, D) with `rows` tuples — P holds pointer atoms, mostly
// resolvable, and B has nulls — plus the dimension relation S(S1, S2).
Database MakeInstance(size_t rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const char* pointers[] = {"A", "B", "C", "D", "K", "nope"};
  Result<Relation> r = Relation::Create("R", {"K", "P", "A", "B", "C", "D"});
  r->ReserveTuples(rows);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> vs;
    vs.reserve(6);
    vs.emplace_back("k" + std::to_string(i));
    vs.push_back(rng() % 16 == 0 ? Value() : Value(pointers[rng() % 6]));
    vs.emplace_back("a" + std::to_string(rng() % 997));
    vs.push_back(rng() % 8 == 0 ? Value()
                                : Value("b" + std::to_string(rng() % 97)));
    vs.emplace_back("c" + std::to_string(rng() % 31));
    vs.emplace_back("d" + std::to_string(rng() % 7));
    (void)r->AddTuple(Tuple(std::move(vs)));
  }
  Result<Relation> s = Relation::Create("S", {"S1", "S2"});
  for (size_t i = 0; i < kDimRows; ++i) {
    (void)s->AddRow({"s" + std::to_string(i), "t" + std::to_string(i % 3)});
  }
  Database db;
  db.PutRelation(std::move(r).value());
  db.PutRelation(std::move(s).value());
  return db;
}

struct Shape {
  std::string name;
  MappingExpression expr;
  size_t rows_div;  // the product multiplies R by S's rows
};

std::vector<Shape> Shapes() {
  return {
      {"rename_chain",
       MappingExpression(std::vector<Op>{
           RenameAttrOp{"R", "A", "A1"}, RenameAttrOp{"R", "B", "B1"},
           RenameAttrOp{"R", "C", "C1"}, RenameAttrOp{"R", "D", "D1"},
           RenameAttrOp{"R", "A1", "A2"}, RenameRelOp{"R", "Out"}}),
       1},
      {"rename_drop",
       MappingExpression(std::vector<Op>{
           RenameAttrOp{"R", "A", "X"}, DropOp{"R", "X"}, DropOp{"R", "B"},
           RenameAttrOp{"R", "C", "Y"}, DropOp{"R", "D"}}),
       1},
      {"deref_lambda",
       MappingExpression(std::vector<Op>{
           DereferenceOp{"R", "P", "V"},
           ApplyFunctionOp{"R", "concat", {"K", "V"}, "W"}, DropOp{"R", "A"},
           DropOp{"R", "B"}}),
       1},
      {"product_trim",
       MappingExpression(std::vector<Op>{
           ProductOp{"R", "S"}, DropOp{"R*S", "A"}, DropOp{"R*S", "B"},
           DropOp{"R*S", "C"}, DropOp{"R*S", "D"}, DropOp{"R*S", "S2"}}),
       kDimRows},
  };
}

const std::vector<size_t> kSizes = {100000, 300000, 1000000};
// An apply's time is the mean of its this many fastest passes (of about
// 20). Over six runs the fastest pass alone spread 0.085 of the median on
// task_ms.p90, the mean of three 0.042.
constexpr size_t kFastPasses = 3;

// One apply of the operation list: a shape on an instance of one size.
struct ApplyOp {
  std::string id;
  const Shape* shape = nullptr;
  std::unique_ptr<CompiledExecutor> compiled;
  const Database* input = nullptr;
  size_t input_tuples = 0;  // the nominal size
  size_t output_tuples = 0;
  double interp_ns = 0;
};

struct Setup {
  FunctionRegistry registry;
  std::vector<Shape> shapes;
  std::vector<Database> instances;  // per (size, rows_div) pair
  std::vector<ApplyOp> ops;
};

bool BuildSetup(uint64_t seed, Setup* s) {
  s->registry = FunctionRegistry();
  if (!RegisterBuiltinFunctions(&s->registry).ok()) return false;
  s->shapes = Shapes();
  s->instances.clear();
  s->instances.reserve(kSizes.size() * 2);
  s->ops.clear();
  for (size_t size : kSizes) {
    s->instances.push_back(MakeInstance(size, seed ^ size));
    const Database* full = &s->instances.back();
    s->instances.push_back(MakeInstance(size / kDimRows, seed ^ (size + 1)));
    const Database* small = &s->instances.back();
    full->Fingerprint128();
    small->Fingerprint128();
    for (const Shape& shape : s->shapes) {
      ApplyOp op;
      op.id = shape.name + "/" + std::to_string(size);
      op.shape = &shape;
      op.compiled = std::make_unique<CompiledExecutor>(shape.expr);
      op.input = shape.rows_div == 1 ? full : small;
      op.input_tuples = size;
      s->ops.push_back(std::move(op));
    }
  }
  return true;
}

}  // namespace

RunOutcome RunApplyWorkload(const Args& args) {
  RunOutcome result;
  // Every time below is scaled by the gauge (see SpeedGauge).
  SpeedGauge gauge;
  Setup setup;
  bool setup_ok = true;
  std::vector<double> setup_times;
  TimeSetup(5, SetupClock::kThreadCpu, &gauge, &setup_times,
            [&] { setup_ok = BuildSetup(args.seed, &setup) && setup_ok; });
  const double setup_s = Median(setup_times);
  if (!setup_ok) {
    result.Fail("apply set-up");
    return result;
  }

  std::vector<size_t> order(setup.ops.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  SeededShuffle(order, Mix(args.seed));

  // Pass 0 warms up and keeps each output's fingerprint (and the
  // 10^5-tuple outputs) for the interpreter comparison after the
  // measurement; the timed passes after it must reproduce every
  // fingerprint.
  OpTimes op_times(setup.ops.size());
  std::vector<double> pass_wall_s;
  std::vector<Fp128> first_fp(setup.ops.size());
  std::vector<std::unique_ptr<Database>> first_small(setup.ops.size());
  double compiled_ns = 0;
  const Clock::time_point run_start = Clock::now();
  for (int pass = 0;; ++pass) {
    const double last = pass_wall_s.empty() ? 1.0 : pass_wall_s.back();
    if (pass >= 3 && SecondsSince(run_start) + 1.5 * last > args.seconds) {
      break;
    }
    double pass_s = 0;
    for (size_t i : order) {
      ApplyOp& op = setup.ops[i];
      ++result.attempted;
      PinToFastestCpu();
      gauge.Probe();
      const double cpu_start = ThreadCpuMs();
      Result<Database> out = op.compiled->Apply(*op.input, &setup.registry);
      const double ms = ThreadCpuMs() - cpu_start;
      if (pass > 0) {
        op_times.Add(i, gauge.Scale(ms));
        pass_s += ms / 1e3;
        compiled_ns += ms * 1e6;
      }
      if (!out.ok()) {
        result.Fail(op.id + ": compiled error " + out.status().ToString());
        continue;
      }
      if (pass == 0) {
        first_fp[i] = out->Fingerprint128();
        op.output_tuples = out->TupleCount();
        if (op.input_tuples == kSizes.front()) {
          first_small[i] = std::make_unique<Database>(std::move(out).value());
        }
      } else if (!(out->Fingerprint128() == first_fp[i])) {
        result.Fail(op.id + ": compiled output changed between passes");
      }
    }
    if (pass > 0) pass_wall_s.push_back(pass_s);
  }
  const double peak_rss_mb = SelfPeakRssMb();

  // The interpreter reference, after the measurement so it shows in
  // neither the timings nor the peak memory.
  for (size_t i = 0; i < setup.ops.size(); ++i) {
    ApplyOp& op = setup.ops[i];
    const double cpu_start = ThreadCpuMs();
    Result<Database> ref = op.shape->expr.Apply(*op.input, &setup.registry);
    op.interp_ns = (ThreadCpuMs() - cpu_start) * 1e6;
    if (!ref.ok()) {
      result.Fail(op.id + ": interpreter error " + ref.status().ToString());
    } else if (!(ref->Fingerprint128() == first_fp[i]) ||
               (first_small[i] != nullptr &&
                !first_small[i]->ContentsEqual(*ref))) {
      result.Fail(op.id + ": compiled output differs from interpreter");
    }
  }

  double pass_tuples = 0;
  for (const ApplyOp& op : setup.ops) {
    pass_tuples += static_cast<double>(op.output_tuples);
  }
  const std::vector<double> latency = op_times.BestMs(kFastPasses);
  const double wall_s = SumSeconds(latency);
  std::fprintf(stderr,
               "perfbench: apply_bulk seed=%llu ops/pass=%zu passes=%zu "
               "failed_frac=%.4f reference_ms=%.4f\n",
               static_cast<unsigned long long>(args.seed), setup.ops.size(),
               pass_wall_s.size(),
               static_cast<double>(result.failed) /
                   static_cast<double>(result.attempted),
               gauge.MedianMs());
  if (!args.trace) {
    result.Add("wall_s", wall_s, "s");
    result.Add("task_ms.p50", Percentile(latency, 0.50), "ms");
    result.Add("task_ms.p90", Percentile(latency, 0.90), "ms");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    result.Add("setup_s", setup_s, "s");
    return result;
  }
  double interp_ns = 0;
  size_t fused = 0, total_ops = 0;
  for (const ApplyOp& op : setup.ops) {
    interp_ns += op.interp_ns;
    fused += op.compiled->plan().fused_ops;
    total_ops += op.shape->expr.steps().size();
  }
  const double tuples_run =
      pass_tuples * static_cast<double>(pass_wall_s.size());
  result.Add("fira.apply_mtuples_per_s", pass_tuples / wall_s / 1e6, "");
  result.Add("fira.compiled_ns_per_tuple", compiled_ns / tuples_run, "");
  result.Add("fira.interp_ns_per_tuple", interp_ns / pass_tuples, "");
  result.Add("fira.fused_op_share",
             static_cast<double>(fused) / static_cast<double>(total_ops), "");
  return result;
}

}  // namespace tupelo::perfbench
