#include "core/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <utility>

#include "common/string_util.h"
#include "common/text.h"
#include "fira/expression.h"
#include "fira/parser.h"
#include "relational/io.h"

namespace tupelo {

namespace {

std::string HexLane(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

bool ParseHexLane(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

std::string FpText(const Fp128& fp) {
  return HexLane(fp.lo) + ":" + HexLane(fp.hi);
}

bool ParseFp(std::string_view s, Fp128* out) {
  size_t colon = s.find(':');
  if (colon == std::string_view::npos) return false;
  return ParseHexLane(s.substr(0, colon), &out->lo) &&
         ParseHexLane(s.substr(colon + 1), &out->hi);
}

Status Malformed(const std::string& what) {
  return Status::ParseError("malformed checkpoint: " + what);
}

// The operators of the path script in the section `name`, the next one.
Result<std::vector<Op>> ReadPath(LineCursor& lines, std::string_view name) {
  size_t first_line = 0;
  TUPELO_ASSIGN_OR_RETURN(std::string_view script,
                          lines.Section(name, &first_line));
  TUPELO_ASSIGN_OR_RETURN(MappingExpression expr,
                          ParseExpression(script, first_line));
  return expr.steps();
}

}  // namespace

std::string WriteCheckpoint(const DiscoveryCheckpoint& checkpoint) {
  const SearchSeed<Database, Op>& seed = checkpoint.seed;
  std::string out;
  out += std::string(kCheckpointMagic) + " " +
         std::to_string(kCheckpointFormatVersion) + "\n";
  out += "workload " + FpText(checkpoint.source_fp) + " " +
         FpText(checkpoint.target_fp) + "\n";
  out += "algorithm " + checkpoint.algorithm + "\n";
  out += "rung " + std::to_string(checkpoint.rung_index) + " " +
         std::to_string(checkpoint.ladder_size) + "\n";
  out += "states_left " + std::to_string(checkpoint.states_left) + "\n";
  out += "deadline_left_millis " +
         std::to_string(checkpoint.deadline_left_millis) + "\n";
  out += "states_examined " + std::to_string(seed.states_examined) + "\n";
  out += "best_h " + std::to_string(seed.best_h) + "\n";
  out += "ida_bound " + std::to_string(seed.ida_bound) + "\n";
  out += "beam_depth " + std::to_string(seed.beam_depth) + "\n";
  out += "next_seq " + std::to_string(seed.next_seq) + "\n";
  AppendSection(out, "best_path", MappingExpression(seed.best_path).ToScript());
  for (const auto& node : seed.frontier) {
    out += "frontier_h " + std::to_string(node.h) + "\n";
    AppendSection(out, "fpath", MappingExpression(node.path).ToScript());
    AppendSection(out, "fstate", WriteTdb(node.state));
  }
  for (const auto& node : seed.open) {
    out += "open_entry " + std::to_string(node.key) + " " +
           std::to_string(node.seq) + "\n";
    AppendSection(out, "opath", MappingExpression(node.path).ToScript());
  }
  for (const auto& [fp, g] : seed.closed) {
    out += "closed " + FpText(fp) + " " + std::to_string(g) + "\n";
  }
  out += "checksum " + HexLane(Fnv1aSeeded(out, kFpSeedLo)) + ":" +
         HexLane(Fnv1aSeeded(out, kFpSeedHi)) + "\n";
  return out;
}

Result<DiscoveryCheckpoint> ParseCheckpoint(std::string_view text) {
  // Peel off and verify the trailing checksum line before trusting any
  // other byte.
  size_t csum_pos = text.rfind("checksum ");
  if (csum_pos == std::string_view::npos ||
      (csum_pos != 0 && text[csum_pos - 1] != '\n')) {
    return Malformed("missing checksum line (truncated file?)");
  }
  std::string_view payload = text.substr(0, csum_pos);
  std::string_view csum_line = text.substr(csum_pos);
  if (!csum_line.empty() && csum_line.back() == '\n') {
    csum_line.remove_suffix(1);
  }
  Fp128 stored;
  if (!ParseFp(csum_line.substr(sizeof("checksum ") - 1), &stored)) {
    return Malformed("unreadable checksum line");
  }
  Fp128 actual{Fnv1aSeeded(payload, kFpSeedLo),
               Fnv1aSeeded(payload, kFpSeedHi)};
  if (!(stored == actual)) {
    return Status::ParseError(
        "checkpoint checksum mismatch (file corrupted)");
  }

  LineCursor lines(payload);
  if (lines.done()) return Malformed("empty file");
  {
    std::vector<std::string> head = Split(lines.Next(), ' ');
    if (head.size() != 2 || head[0] != kCheckpointMagic) {
      return Malformed("bad magic line");
    }
    int64_t version = 0;
    if (!ParseNumber(head[1], version)) return Malformed("bad version");
    if (version != kCheckpointFormatVersion) {
      return Status::FailedPrecondition(
          "unsupported checkpoint format version " + head[1] +
          " (this build reads version " +
          std::to_string(kCheckpointFormatVersion) + ")");
    }
  }

  DiscoveryCheckpoint cp;
  SearchSeed<Database, Op>& seed = cp.seed;
  // The fields of the next line, which must start with `keyword`.
  auto fields = [&lines](const std::string& keyword)
      -> Result<std::vector<std::string>> {
    if (lines.done()) return Malformed("missing '" + keyword + "' line");
    std::vector<std::string> parts = Split(lines.Next(), ' ');
    if (parts[0] != keyword) {
      return Malformed("expected '" + keyword + "' line");
    }
    parts.erase(parts.begin());
    return parts;
  };
  // A `<keyword> <number>` line, read into `out`.
  auto number_line = [&fields](const std::string& keyword,
                               auto& out) -> Status {
    TUPELO_ASSIGN_OR_RETURN(std::vector<std::string> value, fields(keyword));
    if (value.size() != 1 || !ParseNumber(value[0], out)) {
      return Malformed("bad " + keyword);
    }
    return Status::OK();
  };

  TUPELO_ASSIGN_OR_RETURN(std::vector<std::string> workload,
                          fields("workload"));
  if (workload.size() != 2 || !ParseFp(workload[0], &cp.source_fp) ||
      !ParseFp(workload[1], &cp.target_fp)) {
    return Malformed("bad workload fingerprints");
  }
  TUPELO_ASSIGN_OR_RETURN(std::vector<std::string> algorithm,
                          fields("algorithm"));
  cp.algorithm = Join(algorithm, " ");
  TUPELO_ASSIGN_OR_RETURN(std::vector<std::string> rung, fields("rung"));
  if (rung.size() != 2 || !ParseNumber(rung[0], cp.rung_index, 0) ||
      !ParseNumber(rung[1], cp.ladder_size, 1) ||
      cp.rung_index >= cp.ladder_size) {
    return Malformed("bad rung position");
  }
  TUPELO_RETURN_IF_ERROR(number_line("states_left", cp.states_left));
  TUPELO_RETURN_IF_ERROR(
      number_line("deadline_left_millis", cp.deadline_left_millis));
  TUPELO_RETURN_IF_ERROR(number_line("states_examined", seed.states_examined));
  TUPELO_RETURN_IF_ERROR(number_line("best_h", seed.best_h));
  TUPELO_RETURN_IF_ERROR(number_line("ida_bound", seed.ida_bound));
  TUPELO_RETURN_IF_ERROR(number_line("beam_depth", seed.beam_depth));
  if (seed.beam_depth < 0) return Malformed("bad beam_depth");
  TUPELO_RETURN_IF_ERROR(number_line("next_seq", seed.next_seq));

  TUPELO_ASSIGN_OR_RETURN(seed.best_path, ReadPath(lines, "best_path"));

  while (!lines.done()) {
    std::vector<std::string> parts = Split(lines.Next(), ' ');
    if (parts[0] == "frontier_h") {
      SearchSeed<Database, Op>::FrontierNode node;
      if (parts.size() != 2 || !ParseNumber(parts[1], node.h)) {
        return Malformed("bad frontier_h line");
      }
      TUPELO_ASSIGN_OR_RETURN(node.path, ReadPath(lines, "fpath"));
      size_t state_line = 0;
      TUPELO_ASSIGN_OR_RETURN(std::string_view tdb,
                              lines.Section("fstate", &state_line));
      TUPELO_ASSIGN_OR_RETURN(node.state, ParseTdb(tdb, state_line));
      TUPELO_RETURN_IF_ERROR(node.state.Validate());
      seed.frontier.push_back(std::move(node));
    } else if (parts[0] == "open_entry") {
      SearchSeed<Database, Op>::OpenNode node;
      if (parts.size() != 3 || !ParseNumber(parts[1], node.key) ||
          !ParseNumber(parts[2], node.seq)) {
        return Malformed("bad open_entry line");
      }
      TUPELO_ASSIGN_OR_RETURN(node.path, ReadPath(lines, "opath"));
      seed.open.push_back(std::move(node));
    } else if (parts[0] == "closed") {
      Fp128 fp;
      int64_t g = 0;
      if (parts.size() != 3 || !ParseFp(parts[1], &fp) ||
          !ParseNumber(parts[2], g)) {
        return Malformed("bad closed line");
      }
      seed.closed.emplace_back(fp, g);
    } else {
      return Malformed("unknown entry '" + parts[0] + "'");
    }
  }
  return cp;
}

Result<DiscoveryCheckpoint> LoadCheckpointFile(const std::string& path) {
  TUPELO_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseCheckpoint(text);
}

Status SaveCheckpointFile(const DiscoveryCheckpoint& checkpoint,
                          const std::string& path) {
  return AtomicWriteFile(path, WriteCheckpoint(checkpoint));
}

bool RemoveStaleCheckpointTmp(const std::string& path) {
  const std::string tmp = path + ".tmp";
  return std::remove(tmp.c_str()) == 0;
}

int SweepStaleTmpFiles(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  int removed = 0;
  while (struct dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    constexpr std::string_view kSuffix = ".tmp";
    if (name.size() <= kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    const std::string full = dir + "/" + name;
    struct stat st;
    if (stat(full.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    if (std::remove(full.c_str()) == 0) ++removed;
  }
  closedir(d);
  return removed;
}

}  // namespace tupelo
