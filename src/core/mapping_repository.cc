#include "core/mapping_repository.h"

#include <utility>

#include "common/text.h"
#include "fira/parser.h"
#include "relational/io.h"

namespace tupelo {
namespace {

constexpr char kMagic[] = "tupelo-mapping";
constexpr char kVersion[] = "1";

void AppendAtomLine(std::string& out, std::string_view keyword,
                    std::string_view atom) {
  out += keyword;
  out += ' ';
  AppendAtom(out, atom, kTmapDelims);
  out += '\n';
}

}  // namespace

std::string WriteMapping(const StoredMapping& mapping) {
  std::string out = std::string(kMagic) + " " + kVersion + "\n";
  AppendAtomLine(out, "name", mapping.name);
  if (!mapping.algorithm.empty()) {
    AppendAtomLine(out, "algorithm", mapping.algorithm);
  }
  if (!mapping.heuristic.empty()) {
    AppendAtomLine(out, "heuristic", mapping.heuristic);
  }
  out += "states " + std::to_string(mapping.states_examined) + "\n";
  for (const SemanticCorrespondence& c : mapping.correspondences) {
    out += "correspondence ";
    AppendAtom(out, c.function, kTmapDelims);
    out += " [";
    for (size_t i = 0; i < c.inputs.size(); ++i) {
      if (i > 0) out += ", ";
      AppendAtom(out, c.inputs[i], kTmapDelims);
    }
    out += "] ";
    AppendAtom(out, c.output, kTmapDelims);
    out += '\n';
  }
  AppendSection(out, "source", WriteTdb(mapping.source_instance));
  AppendSection(out, "target", WriteTdb(mapping.target_instance));
  AppendSection(out, "expression", mapping.expression.ToScript());
  return out;
}

Result<StoredMapping> ParseMapping(std::string_view text) {
  StoredMapping mapping;
  LineCursor lines(text);
  bool saw_magic = false;
  bool saw_source = false;
  bool saw_target = false;
  bool saw_expression = false;

  while (!lines.done()) {
    const size_t line = lines.line();
    Scanner in(lines.Next(), kTmapDelims, line);
    if (in.AtEnd()) continue;  // blank or comment
    TUPELO_ASSIGN_OR_RETURN(std::string keyword, in.Atom());
    if (!saw_magic) {
      if (keyword != kMagic) {
        return Status::ParseError("not a tupelo-mapping file");
      }
      Result<std::string> version = in.Atom();
      if (!version.ok() || *version != kVersion || !in.AtEnd()) {
        return Status::ParseError("unsupported tupelo-mapping version");
      }
      saw_magic = true;
      continue;
    }
    std::string* field = keyword == "name"        ? &mapping.name
                         : keyword == "algorithm" ? &mapping.algorithm
                         : keyword == "heuristic" ? &mapping.heuristic
                                                  : nullptr;
    if (field != nullptr) {
      TUPELO_ASSIGN_OR_RETURN(*field, in.Atom());
    } else if (keyword == "states") {
      TUPELO_ASSIGN_OR_RETURN(std::string states, in.Atom());
      if (!ParseNumber(states, mapping.states_examined)) {
        return in.Error("states expects an unsigned 64-bit integer");
      }
    } else if (keyword == "correspondence") {
      SemanticCorrespondence c;
      TUPELO_ASSIGN_OR_RETURN(c.function, in.Atom());
      TUPELO_ASSIGN_OR_RETURN(c.inputs, in.NameList());
      TUPELO_ASSIGN_OR_RETURN(c.output, in.Atom());
      mapping.correspondences.push_back(std::move(c));
    } else if (keyword == "begin") {
      TUPELO_ASSIGN_OR_RETURN(std::string section, in.Atom());
      if (!in.AtEnd()) return in.Error("trailing input after section name");
      size_t body_line = 0;
      TUPELO_ASSIGN_OR_RETURN(std::string_view body,
                              lines.SectionBody(section, &body_line));
      if (section == "source") {
        TUPELO_ASSIGN_OR_RETURN(mapping.source_instance,
                                ParseTdb(body, body_line));
        saw_source = true;
      } else if (section == "target") {
        TUPELO_ASSIGN_OR_RETURN(mapping.target_instance,
                                ParseTdb(body, body_line));
        saw_target = true;
      } else if (section == "expression") {
        TUPELO_ASSIGN_OR_RETURN(mapping.expression,
                                ParseExpression(body, body_line));
        saw_expression = true;
      } else {
        return Status::ParseError("unknown section '" + section + "'");
      }
      continue;
    } else {
      return in.Error("unknown header line '" + keyword + "'");
    }
    if (!in.AtEnd()) return in.Error("trailing input after " + keyword);
  }

  if (!saw_magic) return Status::ParseError("not a tupelo-mapping file");
  if (!saw_source || !saw_target || !saw_expression) {
    return Status::ParseError(
        "mapping file needs source, target, and expression sections");
  }
  return mapping;
}

Result<StoredMapping> LoadMappingFile(const std::string& path) {
  TUPELO_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseMapping(text);
}

Status SaveMappingFile(const StoredMapping& mapping,
                       const std::string& path) {
  return AtomicWriteFile(path, WriteMapping(mapping));
}

Result<bool> ValidateStoredMapping(const StoredMapping& mapping,
                                   const FunctionRegistry* registry) {
  TUPELO_ASSIGN_OR_RETURN(
      Database mapped,
      mapping.expression.Apply(mapping.source_instance, registry));
  return mapped.Contains(mapping.target_instance);
}

}  // namespace tupelo
