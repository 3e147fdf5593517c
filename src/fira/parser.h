#ifndef TUPELO_FIRA_PARSER_H_
#define TUPELO_FIRA_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "fira/expression.h"
#include "fira/operators.h"

namespace tupelo {

// Parses the script form of mapping expressions produced by
// MappingExpression::ToScript() / OpToScript(). Grammar:
//
//   script := (op)*                       # whitespace/newline separated
//   op     := opname '(' args ')'
//   args   := arg (',' arg)*
//   arg    := name | '[' name (',' name)* ']'
//   name   := bare word | double-quoted string (with \\ \" \n \t escapes)
//
// Operator signatures:
//   dereference(R, pointerAttr, outAttr)
//   promote(R, nameAttr, valueAttr)
//   demote(R)
//   partition(R, attr)
//   product(R, S)
//   drop(R, attr)
//   merge(R, attr)
//   rename_att(R, from, to)
//   rename_rel(from, to)
//   apply(R, function, [in1, in2, ...], outAttr)
//
// '#' starts a comment to end of line. Error lines count from
// `first_line`, the number of the script's first line in the file that
// embeds it.
Result<MappingExpression> ParseExpression(std::string_view script,
                                          size_t first_line = 1);

// Parses exactly one operator; fails on trailing input.
Result<Op> ParseOp(std::string_view text);

}  // namespace tupelo

#endif  // TUPELO_FIRA_PARSER_H_
