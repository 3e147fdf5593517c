#ifndef TUPELO_CORE_CHECKPOINT_H_
#define TUPELO_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "fira/operators.h"
#include "relational/database.h"
#include "search/search_types.h"

namespace tupelo {

// Durable snapshot of a Tupelo::Discover run: the ladder position, the
// remaining budget, the best partial mapping, and the active algorithm's
// resumable core (beam frontier / A*-greedy open list / IDA* bound). A
// killed run restarted with TupeloOptions::resume picks up at the last
// snapshot instead of from scratch.
//
// On-disk format (versioned, text, one logical item per line):
//
//   tupelo-checkpoint 1
//   workload <src.lo>:<src.hi> <tgt.lo>:<tgt.hi>     # hex Fp128 lanes
//   algorithm <name>                                  # "ida", "beam", ...
//   rung <index> <ladder_size>
//   states_left / deadline_left_millis / states_examined
//   best_h / ida_bound / beam_depth / next_seq
//   begin best_path ... end best_path                 # expression script
//   frontier_h <h> + begin fpath/fstate sections      # per beam node
//   open_entry <key> <seq> + begin opath section      # per open-list node
//   closed <lo>:<hi> <g>                              # per closed entry
//   checksum <lo>:<hi>                                # over all bytes above
//
// The checksum is two independently seeded FNV lanes over the payload
// text; section payloads are the existing round-trip formats (.tdb for
// states, expression scripts for paths), whose lines never start with
// "end ", so the sectioned framing is unambiguous. Writers must go
// through SaveCheckpointFile/AtomicWriteFile so a crash mid-write leaves
// the previous checkpoint intact.
inline constexpr int kCheckpointFormatVersion = 1;
inline constexpr char kCheckpointMagic[] = "tupelo-checkpoint";

struct DiscoveryCheckpoint {
  // Workload identity: fingerprints of the source and target instances.
  // Resume refuses a checkpoint whose fingerprints do not match.
  Fp128 source_fp;
  Fp128 target_fp;
  std::string algorithm;  // SearchAlgorithmName form

  // Ladder position and remaining budget at snapshot time.
  int rung_index = 0;
  int ladder_size = 0;
  int64_t states_left = 0;
  int64_t deadline_left_millis = 0;

  // The search's snapshot: progress, the anytime result and the active
  // algorithm's resumable core (unused fields stay at their defaults).
  // Open-list states are not stored: ParseCheckpoint leaves each
  // `seed.open[i].state` empty, and resume replays it from its path
  // (operators are deterministic).
  SearchSeed<Database, Op> seed;
};

// Serializes to the on-disk text format, checksum line included.
std::string WriteCheckpoint(const DiscoveryCheckpoint& checkpoint);

// Parses and verifies a checkpoint. Typed failures: damaged framing,
// truncation, or checksum mismatch return ParseError; an unsupported
// format version returns FailedPrecondition. Every embedded database
// passes Database::Validate() before it is accepted.
Result<DiscoveryCheckpoint> ParseCheckpoint(std::string_view text);

// File wrappers. LoadCheckpointFile returns NotFound when the file cannot
// be opened; SaveCheckpointFile writes atomically (common/text.h
// AtomicWriteFile).
Result<DiscoveryCheckpoint> LoadCheckpointFile(const std::string& path);
Status SaveCheckpointFile(const DiscoveryCheckpoint& checkpoint,
                          const std::string& path);

// Hygiene for AtomicWriteFile's crash window: a process killed between
// writing `<path>.tmp` and renaming it leaves the temporary behind. The
// temporary is never valid input — loads read only the final path — so
// callers sweep it before writing to `path` again. Returns true when a
// stale temporary existed and was removed.
bool RemoveStaleCheckpointTmp(const std::string& path);

// Directory-level sweep of the same crash window, for journal directories
// holding many checkpoints (the server's job journal): removes every
// regular file under `dir` whose name ends in ".tmp". Returns the number
// removed; a missing or unreadable directory sweeps nothing.
int SweepStaleTmpFiles(const std::string& dir);

}  // namespace tupelo

#endif  // TUPELO_CORE_CHECKPOINT_H_
