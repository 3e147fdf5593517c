#ifndef TUPELO_RELATIONAL_IO_H_
#define TUPELO_RELATIONAL_IO_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "relational/database.h"

namespace tupelo {

// Text format for database instances (".tdb"):
//
//   # comment to end of line
//   relation Flights (Carrier, Fee, ATL29, ORD17) {
//     (AirEast, 15, 100, 110)
//     ("Jet West", "16", null, 220)
//   }
//
// Atoms follow the text layer's rules (common/text.h) with the
// delimiters ( ) { } ,; `null` (bare, case sensitive) is the null value.
// Relation and attribute names are atoms too, but never bare `null`.
// Error lines count from `first_line`, the number of the text's first
// line in the file that embeds it.
Result<Database> ParseTdb(std::string_view text, size_t first_line = 1);

// Serializes `db` in .tdb format; round-trips through ParseTdb.
std::string WriteTdb(const Database& db);

// File helpers. Saving is atomic (AtomicWriteFile).
Result<Database> LoadTdbFile(const std::string& path);
Status SaveTdbFile(const Database& db, const std::string& path);

}  // namespace tupelo

#endif  // TUPELO_RELATIONAL_IO_H_
