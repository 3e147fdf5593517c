#include "fira/executor.h"

#include <atomic>
#include <chrono>
#include <map>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace tupelo {
namespace {

std::atomic<FaultInjector*> g_fault_injector{nullptr};

}  // namespace

void FaultInjector::Arm(std::string op_name, Status status, uint64_t skip) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = true;
  mode_ = Mode::kAfterSkip;
  kind_ = Kind::kStatus;
  op_name_ = std::move(op_name);
  status_ = std::move(status);
  skip_ = skip;
  delay_millis_ = 0;
  max_fires_ = 0;
  consults_ = 0;
  injected_ = 0;
}

void FaultInjector::ArmProbabilistic(std::string op_name, Status status,
                                     double probability, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = true;
  mode_ = Mode::kProbabilistic;
  kind_ = Kind::kStatus;
  op_name_ = std::move(op_name);
  status_ = std::move(status);
  probability_ = probability < 0.0 ? 0.0 : (probability > 1.0 ? 1.0
                                                              : probability);
  seed_ = seed;
  delay_millis_ = 0;
  max_fires_ = 0;
  consults_ = 0;
  injected_ = 0;
}

void FaultInjector::ArmEveryNth(std::string op_name, Status status,
                                uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = true;
  mode_ = Mode::kEveryNth;
  kind_ = Kind::kStatus;
  op_name_ = std::move(op_name);
  status_ = std::move(status);
  every_n_ = n;
  delay_millis_ = 0;
  max_fires_ = 0;
  consults_ = 0;
  injected_ = 0;
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
  kind_ = Kind::kStatus;
  delay_millis_ = 0;
  max_fires_ = 0;
}

void FaultInjector::SetKind(Kind kind, int64_t delay_millis) {
  std::lock_guard<std::mutex> lock(mu_);
  kind_ = kind;
  delay_millis_ = delay_millis < 0 ? 0 : delay_millis;
}

void FaultInjector::SetMaxFires(uint64_t max_fires) {
  std::lock_guard<std::mutex> lock(mu_);
  max_fires_ = max_fires;
}

uint64_t FaultInjector::consults() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consults_;
}

uint64_t FaultInjector::injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_;
}

bool FaultInjector::ShouldFail(std::string_view op_name, Fault* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_) return false;
  if (op_name_ != "*" && op_name_ != op_name) return false;
  uint64_t index = consults_++;
  bool fire = false;
  switch (mode_) {
    case Mode::kAfterSkip:
      fire = index >= skip_;
      break;
    case Mode::kProbabilistic: {
      // Counter-keyed hash → uniform double in [0, 1): deterministic per
      // (seed, index), so a campaign trial replays bit-for-bit.
      uint64_t r = Mix64(seed_ ^ Mix64(index + 1));
      fire = (static_cast<double>(r >> 11) * 0x1.0p-53) < probability_;
      break;
    }
    case Mode::kEveryNth:
      fire = every_n_ > 0 && (index + 1) % every_n_ == 0;
      break;
  }
  if (fire && max_fires_ > 0 && injected_ >= max_fires_) fire = false;
  if (!fire) return false;
  ++injected_;
  out->kind = kind_;
  out->status = status_;
  out->delay_millis = delay_millis_;
  return true;
}

void SetFaultInjector(FaultInjector* injector) {
  g_fault_injector.store(injector, std::memory_order_release);
}

FaultInjector* GetFaultInjector() {
  return g_fault_injector.load(std::memory_order_acquire);
}

namespace {

struct OpApplier {
  const Database& input;
  const FunctionRegistry* registry;

  Result<Database> operator()(const DereferenceOp& op) const {
    Database db = input;
    TUPELO_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(op.rel));
    std::optional<size_t> pointer_idx = rel->AttributeIndex(op.pointer);
    if (!pointer_idx.has_value()) {
      return Status::NotFound(OpErrorPrefix(op) + "attribute '" + op.pointer +
                              "' not in " + op.rel);
    }
    if (rel->HasAttribute(op.out)) {
      return Status::AlreadyExists(OpErrorPrefix(op) + "attribute '" + op.out +
                                   "' already in " + op.rel);
    }
    std::vector<std::string> attrs = rel->attributes();
    attrs.push_back(op.out);
    TUPELO_ASSIGN_OR_RETURN(Relation out,
                            Relation::Create(op.rel, std::move(attrs)));
    for (const Tuple& t : rel->tuples()) {
      const Value& pointer = t[*pointer_idx];
      Value deref;
      if (!pointer.is_null()) {
        std::optional<size_t> target = rel->AttributeIndex(pointer.atom());
        if (target.has_value()) deref = t[*target];
      }
      std::vector<Value> vs = t.values();
      vs.push_back(std::move(deref));
      TUPELO_RETURN_IF_ERROR(out.AddTuple(Tuple(std::move(vs))));
    }
    db.PutRelation(std::move(out));
    return db;
  }

  Result<Database> operator()(const PromoteOp& op) const {
    Database db = input;
    // Read-only access: the rebuilt relation replaces it via PutRelation,
    // so a copy-on-write clone here would be pure waste.
    TUPELO_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(op.rel));
    std::optional<size_t> name_idx = rel->AttributeIndex(op.name_attr);
    if (!name_idx.has_value()) {
      return Status::NotFound(OpErrorPrefix(op) + "attribute '" +
                              op.name_attr + "' not in " + op.rel);
    }
    std::optional<size_t> value_idx = rel->AttributeIndex(op.value_attr);
    if (!value_idx.has_value()) {
      return Status::NotFound(OpErrorPrefix(op) + "attribute '" +
                              op.value_attr + "' not in " + op.rel);
    }
    TUPELO_ASSIGN_OR_RETURN(std::vector<std::string> new_columns,
                            rel->DistinctValues(op.name_attr));
    for (const std::string& col : new_columns) {
      if (rel->HasAttribute(col)) {
        return Status::AlreadyExists(OpErrorPrefix(op) + "column name '" + col +
                                     "' already in " + op.rel);
      }
    }
    // Rebuild the relation with the appended columns.
    std::vector<std::string> attrs = rel->attributes();
    size_t base_arity = attrs.size();
    attrs.insert(attrs.end(), new_columns.begin(), new_columns.end());
    std::map<std::string, size_t> column_pos;
    for (size_t i = 0; i < new_columns.size(); ++i) {
      column_pos[new_columns[i]] = base_arity + i;
    }
    TUPELO_ASSIGN_OR_RETURN(Relation out,
                            Relation::Create(op.rel, std::move(attrs)));
    for (const Tuple& t : rel->tuples()) {
      std::vector<Value> vs = t.values();
      vs.resize(base_arity + new_columns.size());
      const Value& name = t[*name_idx];
      if (!name.is_null()) {
        vs[column_pos.at(name.atom())] = t[*value_idx];
      }
      TUPELO_RETURN_IF_ERROR(out.AddTuple(Tuple(std::move(vs))));
    }
    db.PutRelation(std::move(out));
    return db;
  }

  Result<Database> operator()(const DemoteOp& op) const {
    Database db = input;
    TUPELO_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(op.rel));
    if (rel->HasAttribute(kDemoteAttrColumn) ||
        rel->HasAttribute(kDemoteValueColumn)) {
      return Status::AlreadyExists(OpErrorPrefix(op) + op.rel +
                                   " already has demote columns");
    }
    std::vector<std::string> attrs = rel->attributes();
    std::vector<std::string> out_attrs = attrs;
    out_attrs.push_back(kDemoteAttrColumn);
    out_attrs.push_back(kDemoteValueColumn);
    TUPELO_ASSIGN_OR_RETURN(Relation out,
                            Relation::Create(op.rel, std::move(out_attrs)));
    for (const Tuple& t : rel->tuples()) {
      for (size_t i = 0; i < attrs.size(); ++i) {
        std::vector<Value> vs = t.values();
        vs.emplace_back(attrs[i]);
        vs.push_back(t[i]);
        TUPELO_RETURN_IF_ERROR(out.AddTuple(Tuple(std::move(vs))));
      }
    }
    db.PutRelation(std::move(out));
    return db;
  }

  Result<Database> operator()(const PartitionOp& op) const {
    Database db = input;
    TUPELO_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(op.rel));
    std::optional<size_t> idx = rel->AttributeIndex(op.attr);
    if (!idx.has_value()) {
      return Status::NotFound(OpErrorPrefix(op) + "attribute '" + op.attr +
                              "' not in " + op.rel);
    }
    TUPELO_ASSIGN_OR_RETURN(std::vector<std::string> names,
                            rel->DistinctValues(op.attr));
    for (const std::string& name : names) {
      if (db.HasRelation(name)) {
        return Status::AlreadyExists(OpErrorPrefix(op) + "relation '" + name +
                                     "' already exists");
      }
    }
    for (const std::string& name : names) {
      TUPELO_ASSIGN_OR_RETURN(Relation part,
                              Relation::Create(name, rel->attributes()));
      for (const Tuple& t : rel->tuples()) {
        if (!t[*idx].is_null() && t[*idx].atom() == name) {
          TUPELO_RETURN_IF_ERROR(part.AddTuple(t));
        }
      }
      TUPELO_RETURN_IF_ERROR(db.AddRelation(std::move(part)));
    }
    return db;
  }

  Result<Database> operator()(const ProductOp& op) const {
    if (op.left == op.right) {
      return Status::InvalidArgument(
          OpErrorPrefix(op) + "self-product of '" + op.left +
          "' would duplicate attribute names");
    }
    Database db = input;
    TUPELO_ASSIGN_OR_RETURN(const Relation* left, db.GetRelation(op.left));
    TUPELO_ASSIGN_OR_RETURN(const Relation* right, db.GetRelation(op.right));
    std::string result_name = ProductResultName(op);
    if (db.HasRelation(result_name)) {
      return Status::AlreadyExists(OpErrorPrefix(op) + "relation '" +
                                   result_name + "' already exists");
    }
    std::vector<std::string> attrs = left->attributes();
    for (const std::string& a : right->attributes()) {
      if (left->HasAttribute(a)) {
        return Status::InvalidArgument(OpErrorPrefix(op) + "attribute '" + a +
                                       "' appears in both operands");
      }
      attrs.push_back(a);
    }
    TUPELO_ASSIGN_OR_RETURN(Relation out,
                            Relation::Create(result_name, std::move(attrs)));
    for (const Tuple& lt : left->tuples()) {
      for (const Tuple& rt : right->tuples()) {
        std::vector<Value> vs = lt.values();
        vs.insert(vs.end(), rt.values().begin(), rt.values().end());
        TUPELO_RETURN_IF_ERROR(out.AddTuple(Tuple(std::move(vs))));
      }
    }
    TUPELO_RETURN_IF_ERROR(db.AddRelation(std::move(out)));
    return db;
  }

  Result<Database> operator()(const DropOp& op) const {
    Database db = input;
    TUPELO_ASSIGN_OR_RETURN(Relation * rel, db.GetMutableRelation(op.rel));
    if (rel->arity() <= 1) {
      return Status::FailedPrecondition(
          OpErrorPrefix(op) + "cannot drop the last column of " + op.rel);
    }
    TUPELO_RETURN_IF_ERROR(rel->DropAttribute(op.attr));
    return db;
  }

  Result<Database> operator()(const MergeOp& op) const {
    Database db = input;
    // Read-only access: the merged relation replaces it via PutRelation.
    TUPELO_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(op.rel));
    std::optional<size_t> idx = rel->AttributeIndex(op.attr);
    if (!idx.has_value()) {
      return Status::NotFound(OpErrorPrefix(op) + "attribute '" + op.attr +
                              "' not in " + op.rel);
    }
    // Group tuple indices by their (non-null) merge-key atom; null-keyed
    // tuples stay untouched.
    std::vector<Tuple> untouched;
    std::map<std::string, std::vector<Tuple>> groups;
    for (const Tuple& t : rel->tuples()) {
      if (t[*idx].is_null()) {
        untouched.push_back(t);
      } else {
        groups[t[*idx].atom()].push_back(t);
      }
    }
    // Greedy fixpoint within each group: repeatedly merge the first
    // compatible pair. Deterministic given input tuple order.
    std::vector<Tuple> merged_all;
    for (auto& [key, group] : groups) {
      bool changed = true;
      while (changed) {
        changed = false;
        for (size_t i = 0; i < group.size() && !changed; ++i) {
          for (size_t j = i + 1; j < group.size() && !changed; ++j) {
            if (group[i].MergeCompatibleWith(group[j])) {
              group[i] = group[i].MergedWith(group[j]);
              group.erase(group.begin() + static_cast<ptrdiff_t>(j));
              changed = true;
            }
          }
        }
      }
      merged_all.insert(merged_all.end(), group.begin(), group.end());
    }
    TUPELO_ASSIGN_OR_RETURN(Relation out,
                            Relation::Create(op.rel, rel->attributes()));
    for (Tuple& t : merged_all) TUPELO_RETURN_IF_ERROR(out.AddTuple(std::move(t)));
    for (Tuple& t : untouched) TUPELO_RETURN_IF_ERROR(out.AddTuple(std::move(t)));
    db.PutRelation(std::move(out));
    return db;
  }

  Result<Database> operator()(const RenameAttrOp& op) const {
    Database db = input;
    TUPELO_ASSIGN_OR_RETURN(Relation * rel, db.GetMutableRelation(op.rel));
    TUPELO_RETURN_IF_ERROR(rel->RenameAttribute(op.from, op.to));
    return db;
  }

  Result<Database> operator()(const RenameRelOp& op) const {
    Database db = input;
    TUPELO_RETURN_IF_ERROR(db.RenameRelation(op.from, op.to));
    return db;
  }

  Result<Database> operator()(const ApplyFunctionOp& op) const {
    if (registry == nullptr) {
      return Status::FailedPrecondition(
          OpErrorPrefix(op) + "no function registry supplied for λ operator");
    }
    TUPELO_ASSIGN_OR_RETURN(const ComplexFunction* fn,
                            registry->Lookup(op.function));
    if (fn->arity != op.inputs.size()) {
      return Status::InvalidArgument(
          OpErrorPrefix(op) + "function '" + op.function + "' expects " +
          std::to_string(fn->arity) + " inputs, got " +
          std::to_string(op.inputs.size()));
    }
    Database db = input;
    TUPELO_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(op.rel));
    std::vector<size_t> input_idx;
    input_idx.reserve(op.inputs.size());
    for (const std::string& a : op.inputs) {
      std::optional<size_t> idx = rel->AttributeIndex(a);
      if (!idx.has_value()) {
        return Status::NotFound(OpErrorPrefix(op) + "attribute '" + a +
                                "' not in " + op.rel);
      }
      input_idx.push_back(*idx);
    }
    if (rel->HasAttribute(op.out)) {
      return Status::AlreadyExists(OpErrorPrefix(op) + "attribute '" + op.out +
                                   "' already in " + op.rel);
    }
    std::vector<std::string> attrs = rel->attributes();
    attrs.push_back(op.out);
    TUPELO_ASSIGN_OR_RETURN(Relation out,
                            Relation::Create(op.rel, std::move(attrs)));
    for (const Tuple& t : rel->tuples()) {
      std::vector<std::string> args;
      args.reserve(input_idx.size());
      bool applicable = true;
      for (size_t idx : input_idx) {
        if (t[idx].is_null()) {
          applicable = false;
          break;
        }
        args.push_back(t[idx].atom());
      }
      Value result;
      if (applicable) {
        Result<std::string> r = fn->impl(args);
        if (r.ok()) result = Value(std::move(r).value());
        // Per-tuple failure -> null (λ is the identity on tuples of
        // inappropriate schema).
      }
      std::vector<Value> vs = t.values();
      vs.push_back(std::move(result));
      TUPELO_RETURN_IF_ERROR(out.AddTuple(Tuple(std::move(vs))));
    }
    db.PutRelation(std::move(out));
    return db;
  }
};

// An operator's instrument names, built once per operator type from its
// kName. They are never freed: a trace session records the span-name
// pointer, not a copy.
struct InstrumentNames {
  std::string span;      // op.<name>
  std::string count;     // executor.<name>.count
  std::string nanos;     // executor.<name>.nanos
  std::string failures;  // executor.<name>.failures
};

const InstrumentNames& NamesOf(const Op& op) {
  return std::visit(
      [](const auto& o) -> const InstrumentNames& {
        // One static per instantiation, i.e. per operator type.
        static const InstrumentNames* const names = [] {
          const std::string name(std::decay_t<decltype(o)>::kName);
          const std::string metric = "executor." + name;
          return new InstrumentNames{"op." + name, metric + ".count",
                                     metric + ".nanos",
                                     metric + ".failures"};
        }();
        return *names;
      },
      op);
}

}  // namespace

Result<Database> ApplyOp(const Op& op, const Database& input,
                         const FunctionRegistry* registry,
                         obs::MetricRegistry* metrics,
                         obs::TraceSession* trace) {
  if (FaultInjector* injector = GetFaultInjector(); injector != nullptr) {
    FaultInjector::Fault fault;
    if (injector->ShouldFail(OpName(op), &fault)) {
      if (metrics != nullptr) {
        const InstrumentNames& names = NamesOf(op);
        metrics->GetCounter(names.count).Increment();
        if (fault.kind != FaultInjector::Kind::kDelay) {
          metrics->GetCounter(names.failures).Increment();
        }
      }
      if (trace != nullptr) {
        // kFault instants bump the session's fault counter, which is one
        // of the flight-recorder dump triggers.
        trace->EmitInstant(obs::TraceCategory::kFault, "fault.injected",
                           "kind", static_cast<int64_t>(fault.kind));
      }
      switch (fault.kind) {
        case FaultInjector::Kind::kStatus:
          return fault.status;
        case FaultInjector::Kind::kThrow:
          // A poison state: the exception escapes ApplyOp and Expand.
          // GuardedExpand (search/search_types.h) quarantines the state;
          // without a quarantine it unwinds to the caller.
          throw std::runtime_error(fault.status.message());
        case FaultInjector::Kind::kBadAlloc:
          // Simulated allocation failure inside Expand.
          throw std::bad_alloc();
        case FaultInjector::Kind::kDelay:
          // A hung/slow application: stall the applying thread, then
          // execute normally. The watchdog's stall detector sees the
          // silent heartbeat and preempts the rung.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(fault.delay_millis));
          break;
      }
    }
  }
  if (metrics == nullptr && trace == nullptr) {
    return std::visit(OpApplier{input, registry}, op);
  }
  const InstrumentNames& names = NamesOf(op);
  if (metrics != nullptr) metrics->GetCounter(names.count).Increment();
  Result<Database> result = [&] {
    obs::ScopedTimer timer(
        metrics != nullptr ? &metrics->GetCounter(names.nanos) : nullptr);
    obs::TraceSpan span(trace, obs::TraceCategory::kExecutor,
                        names.span.c_str());
    return std::visit(OpApplier{input, registry}, op);
  }();
  if (!result.ok() && metrics != nullptr) {
    metrics->GetCounter(names.failures).Increment();
  }
  return result;
}

}  // namespace tupelo
