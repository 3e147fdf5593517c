#ifndef TUPELO_FIRA_OPERATORS_H_
#define TUPELO_FIRA_OPERATORS_H_

#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

namespace tupelo {

// The transformation language L (Table 1 of the paper), a fragment of the
// Federated Interoperable Relational Algebra (FIRA, Wyss & Robertson 2005),
// extended with the λ operator for complex semantic functions (§4). Each
// operator is a small parameter struct; an Op is the variant over them.
//
// Each struct declares its script name once, as `kName`, and its
// arguments once, as `Fields()`: a tie of its members in script order.
// The script printer, the parser, OpName, error messages and the
// executor's metric and span names all read these two. The first
// argument is always the relation the operator acts on (×'s left
// operand); OpTargetRelation returns it.
//
// All operators act on one database state and yield a new database state:
// they rewrite the named relation (or add relations) and leave the rest of
// the database untouched.

// →B_A(R): for every tuple t, append a new column named `out` (B) holding
// t[t[pointer]] — the value of the column whose *name* is t's value in the
// pointer column. Null/unresolvable pointers yield null.
struct DereferenceOp {
  static constexpr std::string_view kName = "dereference";
  std::string rel;
  std::string pointer;  // A
  std::string out;      // B
  auto Fields() { return std::tie(rel, pointer, out); }
  auto Fields() const { return std::tie(rel, pointer, out); }
  friend bool operator==(const DereferenceOp&, const DereferenceOp&) = default;
};

// ↑A_B(R): promote column A to metadata. For every tuple t, append a new
// column named t[name_attr] (A's value) holding t[value_attr] (B's value).
// One new column per distinct non-null A value; other tuples hold null.
struct PromoteOp {
  static constexpr std::string_view kName = "promote";
  std::string rel;
  std::string name_attr;   // A: values become column names
  std::string value_attr;  // B: values populate the new columns
  auto Fields() { return std::tie(rel, name_attr, value_attr); }
  auto Fields() const { return std::tie(rel, name_attr, value_attr); }
  friend bool operator==(const PromoteOp&, const PromoteOp&) = default;
};

// ↓(R): demote metadata to data — the Cartesian product of R with its own
// metadata, realized as UNPIVOT: for every tuple t and every attribute A of
// R, emit t extended with (kDemoteAttrColumn = A, kDemoteValueColumn =
// t[A]). This is the inverse TUPELO needs to undo ↑ (cf. Wyss & Robertson,
// CIKM 2005).
struct DemoteOp {
  static constexpr std::string_view kName = "demote";
  std::string rel;
  auto Fields() { return std::tie(rel); }
  auto Fields() const { return std::tie(rel); }
  friend bool operator==(const DemoteOp&, const DemoteOp&) = default;
};

inline constexpr char kDemoteAttrColumn[] = "_att";
inline constexpr char kDemoteValueColumn[] = "_val";

// ℘A(R): for every distinct non-null value v of column `attr`, create a new
// relation named v holding the tuples of R with t[attr] = v (schema
// unchanged). R itself is kept: TUPELO's goal test is containment, and
// extra relations are filtered by post-processing selections (§2.1).
struct PartitionOp {
  static constexpr std::string_view kName = "partition";
  std::string rel;
  std::string attr;
  auto Fields() { return std::tie(rel, attr); }
  auto Fields() const { return std::tie(rel, attr); }
  friend bool operator==(const PartitionOp&, const PartitionOp&) = default;
};

// ×(R, S): Cartesian product, added as a new relation named "R*S". The
// attribute sets must be disjoint and both operands are kept.
struct ProductOp {
  static constexpr std::string_view kName = "product";
  std::string left;
  std::string right;
  auto Fields() { return std::tie(left, right); }
  auto Fields() const { return std::tie(left, right); }
  friend bool operator==(const ProductOp&, const ProductOp&) = default;
};

// π̄A(R): drop column A from R.
struct DropOp {
  static constexpr std::string_view kName = "drop";
  std::string rel;
  std::string attr;
  auto Fields() { return std::tie(rel, attr); }
  auto Fields() const { return std::tie(rel, attr); }
  friend bool operator==(const DropOp&, const DropOp&) = default;
};

// µA(R): merge tuples of R that share a non-null value in column `attr` and
// are pointwise merge-compatible (equal or null in every column), replacing
// them by their pointwise merge, to a fixpoint (Wyss & Robertson's simple
// merge). Tuples with null in `attr` are left untouched.
struct MergeOp {
  static constexpr std::string_view kName = "merge";
  std::string rel;
  std::string attr;
  auto Fields() { return std::tie(rel, attr); }
  auto Fields() const { return std::tie(rel, attr); }
  friend bool operator==(const MergeOp&, const MergeOp&) = default;
};

// ρatt X→X'(R).
struct RenameAttrOp {
  static constexpr std::string_view kName = "rename_att";
  std::string rel;
  std::string from;
  std::string to;
  auto Fields() { return std::tie(rel, from, to); }
  auto Fields() const { return std::tie(rel, from, to); }
  friend bool operator==(const RenameAttrOp&, const RenameAttrOp&) = default;
};

// ρrel X→X'.
struct RenameRelOp {
  static constexpr std::string_view kName = "rename_rel";
  std::string from;
  std::string to;
  auto Fields() { return std::tie(from, to); }
  auto Fields() const { return std::tie(from, to); }
  friend bool operator==(const RenameRelOp&, const RenameRelOp&) = default;
};

// λB_f,Ā(R): for every tuple t with all of `inputs` non-null, append column
// `out` (B) holding f(t[Ā]); other tuples hold null. f is a black box drawn
// from the FunctionRegistry; failures on individual tuples yield null
// (the paper's λ is the identity on tuples of inappropriate schema).
struct ApplyFunctionOp {
  static constexpr std::string_view kName = "apply";
  std::string rel;
  std::string function;
  std::vector<std::string> inputs;  // Ā
  std::string out;                  // B
  auto Fields() { return std::tie(rel, function, inputs, out); }
  auto Fields() const { return std::tie(rel, function, inputs, out); }
  friend bool operator==(const ApplyFunctionOp&,
                         const ApplyFunctionOp&) = default;
};

using Op = std::variant<DereferenceOp, PromoteOp, DemoteOp, PartitionOp,
                        ProductOp, DropOp, MergeOp, RenameAttrOp, RenameRelOp,
                        ApplyFunctionOp>;

// Machine-readable, re-parseable form: `promote(Prices, Route, Cost)`.
// Names that are not bare words are double-quoted. See fira/parser.h.
std::string OpToScript(const Op& op);

// Paper-style display form: `↑^Route_Cost(Prices)`.
std::string OpToPretty(const Op& op);

// The operator's symbolic name in script form ("promote", "rename_att"...):
// its kName.
std::string_view OpName(const Op& op);

// "<kName>: ", the prefix of every error message about operator `op`,
// from the type checker and the executor alike.
template <typename T>
std::string OpErrorPrefix(const T& /*op*/) {
  return std::string(T::kName) + ": ";
}

// The operator's first argument: the relation it primarily rewrites (left
// operand for product, `from` for rename_rel).
const std::string& OpTargetRelation(const Op& op);

// The name of the relation produced for ProductOp ("left*right").
std::string ProductResultName(const ProductOp& op);

}  // namespace tupelo

#endif  // TUPELO_FIRA_OPERATORS_H_
