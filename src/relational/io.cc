#include "relational/io.h"

#include <utility>
#include <vector>

#include "common/text.h"

namespace tupelo {
namespace {

// A relation or attribute name: any atom but the bare keyword `null`.
Result<std::string> ParseName(Scanner& in) {
  bool quoted = false;
  Result<std::string> name = in.Atom(&quoted);
  if (name.ok() && !quoted && *name == "null") {
    return in.Error("expected name, got 'null'");
  }
  return name;
}

Result<Relation> ParseRelation(Scanner& in) {
  TUPELO_RETURN_IF_ERROR(in.ExpectWord("relation"));
  TUPELO_ASSIGN_OR_RETURN(std::string name, ParseName(in));

  TUPELO_RETURN_IF_ERROR(in.Expect('('));
  std::vector<std::string> attrs;
  if (!in.Consume(')')) {
    do {
      TUPELO_ASSIGN_OR_RETURN(std::string attr, ParseName(in));
      attrs.push_back(std::move(attr));
    } while (in.Consume(','));
    TUPELO_RETURN_IF_ERROR(in.Expect(')'));
  }
  TUPELO_ASSIGN_OR_RETURN(Relation rel,
                          Relation::Create(std::move(name), attrs));

  TUPELO_RETURN_IF_ERROR(in.Expect('{'));
  while (!in.Consume('}')) {
    TUPELO_RETURN_IF_ERROR(in.Expect('('));
    std::vector<Value> values;
    if (!in.Consume(')')) {
      do {
        bool quoted = false;
        TUPELO_ASSIGN_OR_RETURN(std::string atom, in.Atom(&quoted));
        if (!quoted && atom == "null") {
          values.push_back(Value::Null());
        } else {
          values.emplace_back(std::move(atom));
        }
      } while (in.Consume(','));
      TUPELO_RETURN_IF_ERROR(in.Expect(')'));
    }
    TUPELO_RETURN_IF_ERROR(rel.AddTuple(Tuple(std::move(values))));
  }
  return rel;
}

}  // namespace

Result<Database> ParseTdb(std::string_view text, size_t first_line) {
  Scanner in(text, kTdbDelims, first_line);
  Database db;
  while (!in.AtEnd()) {
    TUPELO_ASSIGN_OR_RETURN(Relation rel, ParseRelation(in));
    TUPELO_RETURN_IF_ERROR(db.AddRelation(std::move(rel)));
  }
  return db;
}

std::string WriteTdb(const Database& db) {
  std::string out;
  // Atoms spelled like the keywords `null` and `relation` are quoted.
  auto atom = [&out](std::string_view s) {
    AppendAtom(out, s, kTdbDelims, {"null", "relation"});
  };
  for (const auto& [name, relp] : db.relations()) {
    const Relation& rel = *relp;
    out += "relation ";
    atom(name);
    out += " (";
    for (size_t i = 0; i < rel.attributes().size(); ++i) {
      if (i > 0) out += ", ";
      atom(rel.attributes()[i]);
    }
    out += ") {\n";
    for (const Tuple& t : rel.tuples()) {
      out += "  (";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ", ";
        if (t[i].is_null()) {
          out += "null";
        } else {
          atom(t[i].atom());
        }
      }
      out += ")\n";
    }
    out += "}\n";
  }
  return out;
}

Result<Database> LoadTdbFile(const std::string& path) {
  TUPELO_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  TUPELO_ASSIGN_OR_RETURN(Database db, ParseTdb(text));
  // Loaded bytes are untrusted: fail with a descriptive Status on any
  // structural damage rather than letting it surface as UB mid-search.
  TUPELO_RETURN_IF_ERROR(db.Validate());
  return db;
}

Status SaveTdbFile(const Database& db, const std::string& path) {
  return AtomicWriteFile(path, WriteTdb(db));
}

}  // namespace tupelo
