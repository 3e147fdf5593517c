#include "fira/type_check.h"

#include <algorithm>
#include <utility>

namespace tupelo {

bool RelationSchema::HasAttribute(const std::string& attr) const {
  return std::find(attributes.begin(), attributes.end(), attr) !=
         attributes.end();
}

DatabaseSchema DatabaseSchema::Of(const Database& db) {
  DatabaseSchema out;
  for (const auto& [name, rel] : db.relations()) {
    out.relations[name] = RelationSchema{rel->attributes(), false};
  }
  return out;
}

namespace {

// Looks up a relation schema; when the database is open and the relation
// is unknown, yields a fully-open placeholder (nothing can be proven about
// it). A missing relation in a closed database is a definite error.
template <typename T>
Result<RelationSchema> FindRelation(const DatabaseSchema& db,
                                    const std::string& name, const T& op) {
  auto it = db.relations.find(name);
  if (it != db.relations.end()) return it->second;
  if (db.open) return RelationSchema{{}, true};
  return Status::NotFound(OpErrorPrefix(op) + "relation '" + name +
                          "' does not exist");
}

// Definite-presence / definite-absence judgements on attributes.
template <typename T>
Status RequireAttribute(const RelationSchema& rel, const std::string& attr,
                        const T& op) {
  if (rel.HasAttribute(attr) || rel.open) return Status::OK();
  return Status::NotFound(OpErrorPrefix(op) + "attribute '" + attr +
                          "' does not exist");
}

template <typename T>
Status RequireFreshAttribute(const RelationSchema& rel,
                             const std::string& attr, const T& op) {
  if (rel.HasAttribute(attr)) {
    return Status::AlreadyExists(OpErrorPrefix(op) + "attribute '" + attr +
                                 "' already exists");
  }
  return Status::OK();
}

struct SchemaApplier {
  const DatabaseSchema& input;
  const FunctionRegistry* registry;

  Result<DatabaseSchema> operator()(const DereferenceOp& op) const {
    TUPELO_ASSIGN_OR_RETURN(RelationSchema rel,
                            FindRelation(input, op.rel, op));
    TUPELO_RETURN_IF_ERROR(RequireAttribute(rel, op.pointer, op));
    TUPELO_RETURN_IF_ERROR(RequireFreshAttribute(rel, op.out, op));
    DatabaseSchema out = input;
    rel.attributes.push_back(op.out);
    out.relations[op.rel] = std::move(rel);
    return out;
  }

  Result<DatabaseSchema> operator()(const PromoteOp& op) const {
    TUPELO_ASSIGN_OR_RETURN(RelationSchema rel,
                            FindRelation(input, op.rel, op));
    TUPELO_RETURN_IF_ERROR(RequireAttribute(rel, op.name_attr, op));
    TUPELO_RETURN_IF_ERROR(RequireAttribute(rel, op.value_attr, op));
    DatabaseSchema out = input;
    rel.open = true;  // data-named columns appear
    out.relations[op.rel] = std::move(rel);
    return out;
  }

  Result<DatabaseSchema> operator()(const DemoteOp& op) const {
    TUPELO_ASSIGN_OR_RETURN(RelationSchema rel,
                            FindRelation(input, op.rel, op));
    TUPELO_RETURN_IF_ERROR(
        RequireFreshAttribute(rel, kDemoteAttrColumn, op));
    TUPELO_RETURN_IF_ERROR(
        RequireFreshAttribute(rel, kDemoteValueColumn, op));
    DatabaseSchema out = input;
    rel.attributes.push_back(kDemoteAttrColumn);
    rel.attributes.push_back(kDemoteValueColumn);
    out.relations[op.rel] = std::move(rel);
    return out;
  }

  Result<DatabaseSchema> operator()(const PartitionOp& op) const {
    TUPELO_ASSIGN_OR_RETURN(RelationSchema rel,
                            FindRelation(input, op.rel, op));
    TUPELO_RETURN_IF_ERROR(RequireAttribute(rel, op.attr, op));
    DatabaseSchema out = input;
    out.open = true;  // data-named relations appear
    return out;
  }

  Result<DatabaseSchema> operator()(const ProductOp& op) const {
    if (op.left == op.right) {
      return Status::InvalidArgument(OpErrorPrefix(op) + "self-product of '" +
                                     op.left + "'");
    }
    TUPELO_ASSIGN_OR_RETURN(RelationSchema left,
                            FindRelation(input, op.left, op));
    TUPELO_ASSIGN_OR_RETURN(RelationSchema right,
                            FindRelation(input, op.right, op));
    for (const std::string& a : right.attributes) {
      if (left.HasAttribute(a)) {
        return Status::InvalidArgument(OpErrorPrefix(op) + "attribute '" + a +
                                       "' appears in both operands");
      }
    }
    std::string result_name = ProductResultName(op);
    if (input.HasRelation(result_name)) {
      return Status::AlreadyExists(OpErrorPrefix(op) + "relation '" +
                                   result_name + "' already exists");
    }
    DatabaseSchema out = input;
    RelationSchema product;
    product.attributes = left.attributes;
    product.attributes.insert(product.attributes.end(),
                              right.attributes.begin(),
                              right.attributes.end());
    product.open = left.open || right.open;
    out.relations[result_name] = std::move(product);
    return out;
  }

  Result<DatabaseSchema> operator()(const DropOp& op) const {
    TUPELO_ASSIGN_OR_RETURN(RelationSchema rel,
                            FindRelation(input, op.rel, op));
    TUPELO_RETURN_IF_ERROR(RequireAttribute(rel, op.attr, op));
    if (!rel.open && rel.attributes.size() <= 1) {
      return Status::FailedPrecondition(
          OpErrorPrefix(op) + "cannot drop the last column of " + op.rel);
    }
    DatabaseSchema out = input;
    auto it =
        std::find(rel.attributes.begin(), rel.attributes.end(), op.attr);
    if (it != rel.attributes.end()) rel.attributes.erase(it);
    out.relations[op.rel] = std::move(rel);
    return out;
  }

  Result<DatabaseSchema> operator()(const MergeOp& op) const {
    TUPELO_ASSIGN_OR_RETURN(RelationSchema rel,
                            FindRelation(input, op.rel, op));
    TUPELO_RETURN_IF_ERROR(RequireAttribute(rel, op.attr, op));
    return input;  // schema unchanged
  }

  Result<DatabaseSchema> operator()(const RenameAttrOp& op) const {
    TUPELO_ASSIGN_OR_RETURN(RelationSchema rel,
                            FindRelation(input, op.rel, op));
    TUPELO_RETURN_IF_ERROR(RequireAttribute(rel, op.from, op));
    TUPELO_RETURN_IF_ERROR(RequireFreshAttribute(rel, op.to, op));
    DatabaseSchema out = input;
    auto it =
        std::find(rel.attributes.begin(), rel.attributes.end(), op.from);
    if (it != rel.attributes.end()) {
      *it = op.to;
    } else {
      rel.attributes.push_back(op.to);  // came from the open part
    }
    out.relations[op.rel] = std::move(rel);
    return out;
  }

  Result<DatabaseSchema> operator()(const RenameRelOp& op) const {
    TUPELO_ASSIGN_OR_RETURN(RelationSchema rel,
                            FindRelation(input, op.from, op));
    if (input.HasRelation(op.to)) {
      return Status::AlreadyExists(OpErrorPrefix(op) + "relation '" + op.to +
                                   "' already exists");
    }
    DatabaseSchema out = input;
    out.relations.erase(op.from);
    out.relations[op.to] = std::move(rel);
    return out;
  }

  Result<DatabaseSchema> operator()(const ApplyFunctionOp& op) const {
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
    TUPELO_ASSIGN_OR_RETURN(RelationSchema rel,
                            FindRelation(input, op.rel, op));
    for (const std::string& in : op.inputs) {
      TUPELO_RETURN_IF_ERROR(RequireAttribute(rel, in, op));
    }
    TUPELO_RETURN_IF_ERROR(RequireFreshAttribute(rel, op.out, op));
    DatabaseSchema out = input;
    rel.attributes.push_back(op.out);
    out.relations[op.rel] = std::move(rel);
    return out;
  }
};

}  // namespace

Result<DatabaseSchema> ApplyOpToSchema(const Op& op,
                                       const DatabaseSchema& input,
                                       const FunctionRegistry* registry) {
  return std::visit(SchemaApplier{input, registry}, op);
}

Result<DatabaseSchema> CheckExpression(const MappingExpression& expression,
                                       const DatabaseSchema& input,
                                       const FunctionRegistry* registry) {
  DatabaseSchema schema = input;
  for (size_t i = 0; i < expression.steps().size(); ++i) {
    Result<DatabaseSchema> next =
        ApplyOpToSchema(expression.steps()[i], schema, registry);
    if (!next.ok()) {
      return Status(next.status().code(),
                    "step " + std::to_string(i + 1) + " (" +
                        OpToScript(expression.steps()[i]) +
                        "): " + next.status().message());
    }
    schema = std::move(next).value();
  }
  return schema;
}

}  // namespace tupelo
