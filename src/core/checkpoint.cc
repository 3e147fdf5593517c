#include "core/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/string_util.h"
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

bool ParseI64(std::string_view s, int64_t* out) {
  if (!IsInteger(s)) return false;
  errno = 0;
  char* end = nullptr;
  std::string owned(s);
  long long v = std::strtoll(owned.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s[0] == '-' || !IsInteger(s)) return false;
  errno = 0;
  char* end = nullptr;
  std::string owned(s);
  unsigned long long v = std::strtoull(owned.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

Status Malformed(const std::string& what) {
  return Status::ParseError("malformed checkpoint: " + what);
}

// Cursor over the payload lines with sectioned-text helpers (same framing
// idiom as the .tmap mapping repository format).
class LineReader {
 public:
  explicit LineReader(std::string_view payload)
      : lines_(Split(payload, '\n')) {
    // Split of a '\n'-terminated payload yields one trailing empty field.
    if (!lines_.empty() && lines_.back().empty()) lines_.pop_back();
  }

  bool done() const { return pos_ >= lines_.size(); }
  const std::string& Peek() const { return lines_[pos_]; }
  const std::string& Next() { return lines_[pos_++]; }

  // Reads "begin <name>" ... "end <name>" and returns the body joined
  // with newlines (empty body allowed).
  Result<std::string> Section(const std::string& name) {
    if (done() || Next() != "begin " + name) {
      return Malformed("expected 'begin " + name + "'");
    }
    std::string body;
    const std::string terminator = "end " + name;
    while (true) {
      if (done()) return Malformed("unterminated section '" + name + "'");
      const std::string& line = Next();
      if (line == terminator) break;
      body += line;
      body += "\n";
    }
    return body;
  }

 private:
  std::vector<std::string> lines_;
  size_t pos_ = 0;
};

void AppendSection(std::string& out, const std::string& name,
                   std::string_view body) {
  out += "begin " + name + "\n";
  out += body;
  if (!body.empty() && body.back() != '\n') out += "\n";
  out += "end " + name + "\n";
}

Result<std::vector<Op>> ParsePathScript(std::string_view script) {
  TUPELO_ASSIGN_OR_RETURN(MappingExpression expr, ParseExpression(script));
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

  LineReader reader(payload);
  if (reader.done()) return Malformed("empty file");
  {
    std::vector<std::string> head = Split(reader.Next(), ' ');
    if (head.size() != 2 || head[0] != kCheckpointMagic) {
      return Malformed("bad magic line");
    }
    int64_t version = 0;
    if (!ParseI64(head[1], &version)) return Malformed("bad version");
    if (version != kCheckpointFormatVersion) {
      return Status::FailedPrecondition(
          "unsupported checkpoint format version " + head[1] +
          " (this build reads version " +
          std::to_string(kCheckpointFormatVersion) + ")");
    }
  }

  DiscoveryCheckpoint cp;
  SearchSeed<Database, Op>& seed = cp.seed;
  auto expect_kv = [&reader](const std::string& keyword,
                             std::string* value) -> Status {
    if (reader.done()) return Malformed("missing '" + keyword + "' line");
    std::vector<std::string> parts = Split(reader.Next(), ' ');
    if (parts.empty() || parts[0] != keyword) {
      return Malformed("expected '" + keyword + "' line");
    }
    std::vector<std::string> rest(parts.begin() + 1, parts.end());
    *value = Join(rest, " ");
    return Status::OK();
  };

  std::string value;
  TUPELO_RETURN_IF_ERROR(expect_kv("workload", &value));
  {
    std::vector<std::string> fps = Split(value, ' ');
    if (fps.size() != 2 || !ParseFp(fps[0], &cp.source_fp) ||
        !ParseFp(fps[1], &cp.target_fp)) {
      return Malformed("bad workload fingerprints");
    }
  }
  TUPELO_RETURN_IF_ERROR(expect_kv("algorithm", &cp.algorithm));
  TUPELO_RETURN_IF_ERROR(expect_kv("rung", &value));
  {
    std::vector<std::string> parts = Split(value, ' ');
    int64_t index = 0, size = 0;
    if (parts.size() != 2 || !ParseI64(parts[0], &index) ||
        !ParseI64(parts[1], &size) || index < 0 || size <= 0 ||
        index >= size) {
      return Malformed("bad rung position");
    }
    cp.rung_index = static_cast<int>(index);
    cp.ladder_size = static_cast<int>(size);
  }
  TUPELO_RETURN_IF_ERROR(expect_kv("states_left", &value));
  if (!ParseI64(value, &cp.states_left)) return Malformed("bad states_left");
  TUPELO_RETURN_IF_ERROR(expect_kv("deadline_left_millis", &value));
  if (!ParseI64(value, &cp.deadline_left_millis)) {
    return Malformed("bad deadline_left_millis");
  }
  TUPELO_RETURN_IF_ERROR(expect_kv("states_examined", &value));
  if (!ParseU64(value, &seed.states_examined)) {
    return Malformed("bad states_examined");
  }
  TUPELO_RETURN_IF_ERROR(expect_kv("best_h", &value));
  {
    int64_t best_h = 0;
    if (!ParseI64(value, &best_h)) return Malformed("bad best_h");
    seed.best_h = static_cast<int>(best_h);
  }
  TUPELO_RETURN_IF_ERROR(expect_kv("ida_bound", &value));
  if (!ParseI64(value, &seed.ida_bound)) return Malformed("bad ida_bound");
  TUPELO_RETURN_IF_ERROR(expect_kv("beam_depth", &value));
  {
    int64_t depth = 0;
    if (!ParseI64(value, &depth) || depth < 0) {
      return Malformed("bad beam_depth");
    }
    seed.beam_depth = static_cast<int>(depth);
  }
  TUPELO_RETURN_IF_ERROR(expect_kv("next_seq", &value));
  if (!ParseU64(value, &seed.next_seq)) return Malformed("bad next_seq");

  TUPELO_ASSIGN_OR_RETURN(std::string best_script,
                          reader.Section("best_path"));
  TUPELO_ASSIGN_OR_RETURN(seed.best_path, ParsePathScript(best_script));

  while (!reader.done()) {
    std::vector<std::string> parts = Split(reader.Next(), ' ');
    if (parts.empty()) return Malformed("blank line in entry list");
    if (parts[0] == "frontier_h") {
      SearchSeed<Database, Op>::FrontierNode node;
      if (parts.size() != 2 || !ParseI64(parts[1], &node.h)) {
        return Malformed("bad frontier_h line");
      }
      TUPELO_ASSIGN_OR_RETURN(std::string script, reader.Section("fpath"));
      TUPELO_ASSIGN_OR_RETURN(node.path, ParsePathScript(script));
      TUPELO_ASSIGN_OR_RETURN(std::string tdb, reader.Section("fstate"));
      TUPELO_ASSIGN_OR_RETURN(node.state, ParseTdb(tdb));
      TUPELO_RETURN_IF_ERROR(node.state.Validate());
      seed.frontier.push_back(std::move(node));
    } else if (parts[0] == "open_entry") {
      SearchSeed<Database, Op>::OpenNode node;
      if (parts.size() != 3 || !ParseI64(parts[1], &node.key) ||
          !ParseU64(parts[2], &node.seq)) {
        return Malformed("bad open_entry line");
      }
      TUPELO_ASSIGN_OR_RETURN(std::string script, reader.Section("opath"));
      TUPELO_ASSIGN_OR_RETURN(node.path, ParsePathScript(script));
      seed.open.push_back(std::move(node));
    } else if (parts[0] == "closed") {
      Fp128 fp;
      int64_t g = 0;
      if (parts.size() != 3 || !ParseFp(parts[1], &fp) ||
          !ParseI64(parts[2], &g)) {
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
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open checkpoint: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ParseCheckpoint(ss.str());
}

Status SaveCheckpointFile(const DiscoveryCheckpoint& checkpoint,
                          const std::string& path) {
  return AtomicWriteFile(path, WriteCheckpoint(checkpoint));
}

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot write file: " + tmp);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    // Short write (ENOSPC, I/O error): typed, and the torn tmp file is
    // removed rather than left behind to shadow a later write.
    out.close();
    std::remove(tmp.c_str());
    return Status::ResourceExhausted("short write for file: " + tmp);
  }
  // close() is where buffered data actually reaches the filesystem; an
  // error here (ENOSPC at flush-on-close) would previously vanish in the
  // destructor and leave a silently torn tmp file.
  out.close();
  if (out.fail()) {
    std::remove(tmp.c_str());
    return Status::ResourceExhausted("close failed for file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
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
