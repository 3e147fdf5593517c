#ifndef TUPELO_HEURISTICS_LEVENSHTEIN_H_
#define TUPELO_HEURISTICS_LEVENSHTEIN_H_

#include <cstddef>
#include <string_view>

namespace tupelo {

// Levenshtein edit distance (single-character insert, delete,
// substitute). Thin wrapper over the Myers bit-parallel kernel in
// common/simd/edit_distance.h.
size_t LevenshteinDistance(std::string_view a, std::string_view b);

}  // namespace tupelo

#endif  // TUPELO_HEURISTICS_LEVENSHTEIN_H_
