#include "fira/compile.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "fira/executor.h"

namespace tupelo {
namespace {

bool IsFusable(const Op& op) {
  return std::holds_alternative<RenameAttrOp>(op) ||
         std::holds_alternative<DropOp>(op) ||
         std::holds_alternative<DereferenceOp>(op) ||
         std::holds_alternative<ApplyFunctionOp>(op) ||
         std::holds_alternative<RenameRelOp>(op) ||
         std::holds_alternative<ProductOp>(op);
}

// The relation a fusable op leaves its result under: × adds "R*S",
// rename_rel moves its relation to `to`, and the rest rewrite their target.
std::string ResultRelation(const Op& op) {
  if (const auto* p = std::get_if<ProductOp>(&op)) return ProductResultName(*p);
  if (const auto* rr = std::get_if<RenameRelOp>(&op)) return rr->to;
  return OpTargetRelation(op);
}

// Mirrors MappingExpression::Apply's error wrapping exactly: the compiled
// executor must surface the same typed error text for the same failing
// step.
Status WrapStep(size_t step_index, const Op& op, const Status& status) {
  return Status(status.code(), "step " + std::to_string(step_index + 1) +
                                   " (" + OpToScript(op) +
                                   "): " + status.message());
}

// Schema-only copy of `db`: same relation names and attribute lists, zero
// tuples. The bind stage replays a fused segment's ops over this shadow
// through the real interpreter, which reproduces validation, error
// messages, fault-injector consults, and metric/trace activity exactly —
// fused operators can only fail on schema-level conditions, so a clean
// shadow replay proves the fused loop cannot fail.
Result<Database> MakeShadow(const Database& db) {
  Database shadow;
  for (const std::string& name : db.RelationNames()) {
    TUPELO_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(name));
    TUPELO_ASSIGN_OR_RETURN(Relation empty,
                            Relation::Create(name, rel->attributes()));
    shadow.PutRelation(std::move(empty));
  }
  return shadow;
}

size_t FindName(const std::vector<std::string>& names,
                const std::string& name) {
  return static_cast<size_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
}

// Interpret the segment op-by-op on the real database — the scalar
// fallback, exact by definition. On failure `*failed_op` is the index of
// the failing op within the segment and the raw (unwrapped) status is
// returned.
Result<Database> InterpretSegment(const PlanSegment& seg,
                                  const Database& input,
                                  const FunctionRegistry* registry,
                                  obs::MetricRegistry* metrics,
                                  obs::TraceSession* trace,
                                  size_t* failed_op) {
  Database state = input;
  for (size_t k = 0; k < seg.ops.size(); ++k) {
    Result<Database> next = ApplyOp(seg.ops[k], state, registry, metrics,
                                    trace);
    if (!next.ok()) {
      *failed_op = k;
      return next.status();
    }
    state = std::move(next).value();
  }
  return state;
}

// Binds a fused segment against `input` and runs it as one loop. On
// failure `*failed_op` is the index of the failing op within the segment
// and the raw status is returned (callers wrap with the step prefix).
Result<Database> ExecuteFused(const PlanSegment& seg, const Database& input,
                              const FunctionRegistry* registry,
                              obs::MetricRegistry* metrics,
                              obs::TraceSession* trace, size_t* failed_op) {
  *failed_op = 0;

  // A rename-only segment changes no tuple: the interpreter's
  // rename_att/rename_rel already share the input's tuple body, at
  // O(arity) per step, so a fused loop has nothing to save.
  if (std::all_of(seg.ops.begin(), seg.ops.end(), [](const Op& op) {
        return std::holds_alternative<RenameAttrOp>(op) ||
               std::holds_alternative<RenameRelOp>(op);
      })) {
    return InterpretSegment(seg, input, registry, metrics, trace, failed_op);
  }

  Result<Database> shadow_r = MakeShadow(input);
  if (!shadow_r.ok()) {
    // An input that cannot even be schema-copied (not producible through
    // the public Database API): fall back to exact interpretation.
    return InterpretSegment(seg, input, registry, metrics, trace, failed_op);
  }
  Database shadow = std::move(shadow_r).value();

  // ---- Bind: shadow replay + slot-layout tracking ----
  BoundLoop loop;
  std::vector<std::string> names;   // visible column names, in order
  std::vector<uint32_t> layout;     // their slots
  std::string cur_name;             // relation name as rename_rel runs
  uint32_t next_slot = 0;

  for (size_t k = 0; k < seg.ops.size(); ++k) {
    const Op& op = seg.ops[k];
    // The replay consults the fault injector and touches metrics/trace
    // exactly once per logical operator, in pipeline order — identical
    // accounting to the interpreter.
    Result<Database> next = ApplyOp(op, shadow, registry, metrics, trace);
    if (!next.ok()) {
      *failed_op = k;
      return next.status();
    }

    if (k == 0) {
      if (const auto* p = std::get_if<ProductOp>(&op)) {
        TUPELO_ASSIGN_OR_RETURN(loop.left, input.GetRelation(p->left));
        TUPELO_ASSIGN_OR_RETURN(loop.right, input.GetRelation(p->right));
        names = loop.left->attributes();
        const std::vector<std::string>& rattrs = loop.right->attributes();
        names.insert(names.end(), rattrs.begin(), rattrs.end());
        cur_name = ProductResultName(*p);
      } else {
        const std::string& src = OpTargetRelation(op);
        TUPELO_ASSIGN_OR_RETURN(loop.left, input.GetRelation(src));
        loop.source_name = src;
        names = loop.left->attributes();
        cur_name = src;
      }
      loop.base_width = static_cast<uint32_t>(names.size());
      layout.resize(names.size());
      std::iota(layout.begin(), layout.end(), 0u);
      next_slot = loop.base_width;
    }

    // Layout effect (the product source was consumed by the init above).
    if (const auto* r = std::get_if<RenameAttrOp>(&op)) {
      names[FindName(names, r->from)] = r->to;
    } else if (const auto* d = std::get_if<DropOp>(&op)) {
      size_t idx = FindName(names, d->attr);
      names.erase(names.begin() + static_cast<ptrdiff_t>(idx));
      layout.erase(layout.begin() + static_cast<ptrdiff_t>(idx));
    } else if (const auto* de = std::get_if<DereferenceOp>(&op)) {
      RowInstr ri;
      ri.kind = RowInstr::Kind::kDereference;
      ri.pointer = layout[FindName(names, de->pointer)];
      ri.scope.reserve(names.size());
      for (size_t i = 0; i < names.size(); ++i) {
        ri.scope.emplace_back(names[i], layout[i]);
      }
      std::sort(ri.scope.begin(), ri.scope.end());
      loop.instrs.push_back(std::move(ri));
      names.push_back(de->out);
      layout.push_back(next_slot++);
    } else if (const auto* ap = std::get_if<ApplyFunctionOp>(&op)) {
      RowInstr ri;
      ri.kind = RowInstr::Kind::kApply;
      TUPELO_ASSIGN_OR_RETURN(ri.fn, registry->Lookup(ap->function));
      ri.inputs.reserve(ap->inputs.size());
      for (const std::string& a : ap->inputs) {
        ri.inputs.push_back(layout[FindName(names, a)]);
      }
      loop.instrs.push_back(std::move(ri));
      names.push_back(ap->out);
      layout.push_back(next_slot++);
    } else if (const auto* rr = std::get_if<RenameRelOp>(&op)) {
      cur_name = rr->to;
    }

    shadow = std::move(next).value();
  }

  loop.projection = std::move(layout);
  loop.out_name = std::move(cur_name);
  loop.out_attrs = std::move(names);

  // ---- Execute ----
  obs::ScopedTimer loop_timer(
      metrics != nullptr ? &metrics->GetCounter("executor.fused.nanos")
                         : nullptr);
  obs::TraceSpan span(trace, obs::TraceCategory::kExecutor, "op.fused_loop");

  TUPELO_ASSIGN_OR_RETURN(
      Relation out_rel, Relation::Create(loop.out_name, loop.out_attrs));

  const uint32_t lw = static_cast<uint32_t>(loop.left->arity());
  const uint32_t base = loop.base_width;
  std::vector<Value> appended(loop.instrs.size());
  std::vector<std::string> args;  // λ scratch, reused across tuples

  auto run_row = [&](const Tuple& lt, const Tuple* rt) -> Status {
    auto value_at = [&](uint32_t slot) -> const Value& {
      if (slot < lw) return lt[slot];
      if (slot < base) return (*rt)[slot - lw];
      return appended[slot - base];
    };
    for (size_t j = 0; j < loop.instrs.size(); ++j) {
      const RowInstr& ri = loop.instrs[j];
      Value v;
      if (ri.kind == RowInstr::Kind::kDereference) {
        const Value& pointer = value_at(ri.pointer);
        if (!pointer.is_null()) {
          auto it = std::lower_bound(
              ri.scope.begin(), ri.scope.end(), pointer.atom(),
              [](const std::pair<std::string, uint32_t>& entry,
                 const std::string& atom) { return entry.first < atom; });
          if (it != ri.scope.end() && it->first == pointer.atom()) {
            v = value_at(it->second);
          }
        }
      } else {
        args.clear();
        bool applicable = true;
        for (uint32_t s : ri.inputs) {
          const Value& in = value_at(s);
          if (in.is_null()) {
            applicable = false;
            break;
          }
          args.push_back(in.atom());
        }
        if (applicable) {
          Result<std::string> r = ri.fn->impl(args);
          if (r.ok()) v = Value(std::move(r).value());
          // Per-tuple failure -> null, as in the interpreter.
        }
      }
      appended[j] = std::move(v);
    }
    std::vector<Value> vs;
    vs.reserve(loop.projection.size());
    for (uint32_t s : loop.projection) vs.push_back(value_at(s));
    return out_rel.AddTuple(Tuple(std::move(vs)));
  };

  if (loop.right == nullptr) {
    out_rel.ReserveTuples(loop.left->size());
    for (const Tuple& lt : loop.left->tuples()) {
      TUPELO_RETURN_IF_ERROR(run_row(lt, nullptr));
    }
  } else {
    out_rel.ReserveTuples(loop.left->size() * loop.right->size());
    for (const Tuple& lt : loop.left->tuples()) {
      for (const Tuple& rt : loop.right->tuples()) {
        TUPELO_RETURN_IF_ERROR(run_row(lt, &rt));
      }
    }
  }
  span.SetEndArg("tuples", static_cast<int64_t>(out_rel.size()));

  Database out = input;
  if (!loop.source_name.empty() && loop.out_name != loop.source_name) {
    // Net effect of the segment's rename_rel steps: the source key is
    // displaced by the output key (freshness proved by the shadow).
    TUPELO_RETURN_IF_ERROR(out.RemoveRelation(loop.source_name));
  }
  out.PutRelation(std::move(out_rel));
  return out;
}

}  // namespace

CompiledPlan CompileExpression(const MappingExpression& expression) {
  CompiledPlan plan;
  PlanSegment* cur = nullptr;  // open fused segment, if any
  std::string cur_rel;         // the relation it is threading

  const std::vector<Op>& steps = expression.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    const Op& op = steps[i];

    if (!IsFusable(op)) {
      cur = nullptr;
      plan.segments.push_back(
          PlanSegment{PlanSegment::Kind::kInterpret, i, {op}});
      ++plan.interpreted_ops;
      continue;
    }
    // A × only opens a segment; every other fusable op extends the open
    // one when it addresses the relation that segment is threading.
    if (cur != nullptr && !std::holds_alternative<ProductOp>(op) &&
        OpTargetRelation(op) == cur_rel) {
      cur->ops.push_back(op);
    } else {
      plan.segments.push_back(
          PlanSegment{PlanSegment::Kind::kFused, i, {op}});
      cur = &plan.segments.back();
    }
    cur_rel = ResultRelation(op);
    ++plan.fused_ops;
  }
  return plan;
}

Result<Database> CompiledExecutor::Apply(const Database& input,
                                         const FunctionRegistry* registry,
                                         obs::MetricRegistry* metrics,
                                         obs::TraceSession* trace) const {
  Database state = input;
  for (const PlanSegment& seg : plan_.segments) {
    size_t failed = 0;
    Result<Database> next =
        seg.kind == PlanSegment::Kind::kFused
            ? ExecuteFused(seg, state, registry, metrics, trace, &failed)
            : InterpretSegment(seg, state, registry, metrics, trace,
                               &failed);
    if (!next.ok()) {
      return WrapStep(seg.first_step + failed, seg.ops[failed],
                      next.status());
    }
    state = std::move(next).value();
  }
  return state;
}

}  // namespace tupelo
