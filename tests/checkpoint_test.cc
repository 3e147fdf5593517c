// Checkpoint/resume: on-disk format round-trips, corruption taxonomy,
// atomic replacement, and crash-equivalence of killed-and-resumed
// discovery runs (docs/ROBUSTNESS.md, "Checkpoint & resume contract").
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/text.h"
#include "core/checkpoint.h"
#include "core/tupelo.h"
#include "fira/expression.h"
#include "fira/operators.h"
#include "relational/io.h"
#include "workloads/synthetic.h"

namespace tupelo {
namespace {

Database Tdb(const char* text) {
  Result<Database> db = ParseTdb(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

void WriteFileRaw(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << text;
}

// A checkpoint exercising every field, including multi-entry frontier,
// open list, and closed set.
DiscoveryCheckpoint FullCheckpoint() {
  DiscoveryCheckpoint cp;
  cp.source_fp = Fp128{0x1234, 0x5678};
  cp.target_fp = Fp128{0x9abc, 0xdef0};
  cp.algorithm = "astar";
  cp.rung_index = 1;
  cp.ladder_size = 3;
  cp.states_left = 4200;
  cp.deadline_left_millis = 1500;
  cp.seed.states_examined = 77;
  cp.seed.best_path = {RenameAttrOp{"R", "A", "B"}};
  cp.seed.best_h = 2;
  cp.seed.ida_bound = 9;
  cp.seed.beam_depth = 4;
  cp.seed.frontier.push_back(
      {Tdb("relation R (A) { (1) }"), {RenameAttrOp{"R", "A", "C"}}, 3});
  cp.seed.frontier.push_back(
      {Tdb("relation S (X, Y) { (a, b) }"),
       {RenameRelOp{"R", "S"}, RenameAttrOp{"S", "X", "Z"}},
       5});
  cp.seed.open.push_back({{}, {RenameAttrOp{"R", "A", "D"}}, 7, 11});
  cp.seed.open.push_back({{}, {}, 0, 12});  // root entry: empty path
  cp.seed.next_seq = 13;
  cp.seed.closed.push_back({Fp128{1, 2}, 0});
  cp.seed.closed.push_back({Fp128{3, 4}, 6});
  return cp;
}

// `payload` followed by its checksum line, so ParseCheckpoint gets past
// the checksum to whatever the payload holds.
std::string WithChecksum(const std::string& payload) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "checksum %016llx:%016llx\n",
                static_cast<unsigned long long>(
                    Fnv1aSeeded(payload, kFpSeedLo)),
                static_cast<unsigned long long>(
                    Fnv1aSeeded(payload, kFpSeedHi)));
  return payload + buf;
}

std::string Script(const std::vector<Op>& path) {
  return MappingExpression(path).ToScript();
}

TEST(CheckpointFormatTest, RoundTripsEveryField) {
  DiscoveryCheckpoint cp = FullCheckpoint();
  std::string text = WriteCheckpoint(cp);
  Result<DiscoveryCheckpoint> back = ParseCheckpoint(text);
  ASSERT_TRUE(back.ok()) << back.status();

  EXPECT_TRUE(back->source_fp == cp.source_fp);
  EXPECT_TRUE(back->target_fp == cp.target_fp);
  EXPECT_EQ(back->algorithm, "astar");
  EXPECT_EQ(back->rung_index, 1);
  EXPECT_EQ(back->ladder_size, 3);
  EXPECT_EQ(back->states_left, 4200);
  EXPECT_EQ(back->deadline_left_millis, 1500);
  const SearchSeed<Database, Op>& seed = back->seed;
  EXPECT_EQ(seed.states_examined, 77u);
  EXPECT_EQ(Script(seed.best_path), Script(cp.seed.best_path));
  EXPECT_EQ(seed.best_h, 2);
  EXPECT_EQ(seed.ida_bound, 9);
  EXPECT_EQ(seed.beam_depth, 4);

  ASSERT_EQ(seed.frontier.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(seed.frontier[i].state.Fingerprint128() ==
                cp.seed.frontier[i].state.Fingerprint128());
    EXPECT_EQ(Script(seed.frontier[i].path),
              Script(cp.seed.frontier[i].path));
    EXPECT_EQ(seed.frontier[i].h, cp.seed.frontier[i].h);
  }
  ASSERT_EQ(seed.open.size(), 2u);
  EXPECT_EQ(Script(seed.open[0].path), Script(cp.seed.open[0].path));
  EXPECT_EQ(seed.open[0].key, 7);
  EXPECT_EQ(seed.open[0].seq, 11u);
  EXPECT_TRUE(seed.open[1].path.empty());
  EXPECT_EQ(seed.open[1].seq, 12u);
  EXPECT_EQ(seed.next_seq, 13u);
  ASSERT_EQ(seed.closed.size(), 2u);
  EXPECT_TRUE(seed.closed[0].first == cp.seed.closed[0].first);
  EXPECT_EQ(seed.closed[1].second, 6);
}

// WriteCheckpoint(FullCheckpoint()) byte for byte, checksum line included.
// A change to this text is a format change: it needs a new
// kCheckpointFormatVersion, not a new literal.
constexpr char kFullCheckpointTck[] = R"tck(tupelo-checkpoint 1
workload 0000000000001234:0000000000005678 0000000000009abc:000000000000def0
algorithm astar
rung 1 3
states_left 4200
deadline_left_millis 1500
states_examined 77
best_h 2
ida_bound 9
beam_depth 4
next_seq 13
begin best_path
rename_att(R, A, B)
end best_path
frontier_h 3
begin fpath
rename_att(R, A, C)
end fpath
begin fstate
relation R (A) {
  (1)
}
end fstate
frontier_h 5
begin fpath
rename_rel(R, S)
rename_att(S, X, Z)
end fpath
begin fstate
relation S (X, Y) {
  (a, b)
}
end fstate
open_entry 7 11
begin opath
rename_att(R, A, D)
end opath
open_entry 0 12
begin opath
end opath
closed 0000000000000001:0000000000000002 0
closed 0000000000000003:0000000000000004 6
checksum 969ab5ee3881c6cd:7fde6fa47ad709fd
)tck";

TEST(CheckpointFormatTest, WritesPinnedBytes) {
  EXPECT_EQ(WriteCheckpoint(FullCheckpoint()), kFullCheckpointTck);
}

TEST(CheckpointFormatTest, SaveAndLoadFile) {
  std::string path = TempPath("roundtrip.tck");
  ASSERT_TRUE(SaveCheckpointFile(FullCheckpoint(), path).ok());
  Result<DiscoveryCheckpoint> back = LoadCheckpointFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->algorithm, "astar");
  std::remove(path.c_str());
}

TEST(CheckpointFormatTest, MissingFileIsNotFound) {
  Result<DiscoveryCheckpoint> r =
      LoadCheckpointFile(TempPath("no_such_checkpoint.tck"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Corruption taxonomy: every damage class is a typed error, and a
// previously saved checkpoint is untouched by a failed replacement.
// ---------------------------------------------------------------------------

TEST(CheckpointCorruptionTest, TruncatedFileIsParseError) {
  std::string text = WriteCheckpoint(FullCheckpoint());
  std::string path = TempPath("truncated.tck");
  WriteFileRaw(path, text.substr(0, text.size() - 30));
  Result<DiscoveryCheckpoint> r = LoadCheckpointFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CheckpointCorruptionTest, FlippedBitIsChecksumMismatch) {
  std::string text = WriteCheckpoint(FullCheckpoint());
  text[text.size() / 2] ^= 1;  // flip one bit in the middle of the payload
  Result<DiscoveryCheckpoint> r = ParseCheckpoint(text);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().ToString().find("checksum mismatch"),
            std::string::npos);
}

TEST(CheckpointCorruptionTest, WrongVersionIsFailedPrecondition) {
  // A future-version file with a *valid* checksum: version gating must
  // fire, not the corruption path.
  std::string text = WriteCheckpoint(FullCheckpoint());
  size_t eol = text.find('\n');
  std::string payload = "tupelo-checkpoint 2" + text.substr(eol);
  payload.resize(payload.rfind("checksum "));
  Result<DiscoveryCheckpoint> r = ParseCheckpoint(WithChecksum(payload));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().ToString().find("unsupported checkpoint format"),
            std::string::npos);
}

TEST(CheckpointCorruptionTest, SectionErrorsNameTheFileLine) {
  // Lines 17 and 21 of kFullCheckpointTck hold the first frontier node's
  // path script and state. A broken body, with a valid checksum, must
  // fail naming its line in the file.
  const std::string payload = std::string(kFullCheckpointTck)
                                  .substr(0, std::string(kFullCheckpointTck)
                                                 .rfind("checksum "));
  for (const auto& [from, to, line] :
       {std::tuple<const char*, const char*, const char*>{
            "rename_att(R, A, C)\n", "rename_att(R, A)\n", "at line 17"},
        {"  (1)\n", "  (1 2)\n", "at line 21"}}) {
    std::string broken = payload;
    const size_t at = broken.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    broken.replace(at, std::string(from).size(), to);
    Result<DiscoveryCheckpoint> r = ParseCheckpoint(WithChecksum(broken));
    ASSERT_FALSE(r.ok()) << to;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_NE(r.status().message().find(line), std::string::npos)
        << r.status();
  }
}

TEST(CheckpointCorruptionTest, AtomicWriteReplacesWholeFileOnly) {
  std::string path = TempPath("atomic.tck");
  ASSERT_TRUE(AtomicWriteFile(path, "first contents\n").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "second contents\n").ok());
  EXPECT_EQ(ReadFile(path), "second contents\n");
  // The staging file never survives a completed write.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open());
  std::remove(path.c_str());
}

TEST(CheckpointCorruptionTest, FailedWriteLeavesPriorCheckpointIntact) {
  std::string path = TempPath("prior.tck");
  ASSERT_TRUE(SaveCheckpointFile(FullCheckpoint(), path).ok());
  std::string before = ReadFile(path);
  // An unwritable destination fails cleanly...
  EXPECT_FALSE(
      AtomicWriteFile(TempPath("no_such_dir/x.tck"), "data").ok());
  // ...and the prior checkpoint still parses bit-for-bit.
  EXPECT_EQ(ReadFile(path), before);
  EXPECT_TRUE(LoadCheckpointFile(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Resume through Tupelo::Discover
// ---------------------------------------------------------------------------

TupeloResult MustDiscover(const Tupelo& system, const TupeloOptions& options) {
  Result<TupeloResult> r = system.Discover(options);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

TEST(CheckpointResumeTest, ResumeWithoutPathIsInvalidArgument) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(2);
  Tupelo system(pair.source, pair.target);
  TupeloOptions options;
  options.resume = true;
  Result<TupeloResult> r = system.Discover(options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointResumeTest, ResumeFromMissingFileIsFreshStart) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(2);
  Tupelo system(pair.source, pair.target);
  std::string path = TempPath("never_written.tck");
  TupeloOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  TupeloResult r = MustDiscover(system, options);
  EXPECT_TRUE(r.found);
  EXPECT_FALSE(r.resumed);
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, CheckpointFromDifferentWorkloadIsRejected) {
  SyntheticMatchingPair small = MakeSyntheticMatchingPair(2);
  SyntheticMatchingPair big = MakeSyntheticMatchingPair(4);
  std::string path = TempPath("workload_mismatch.tck");

  // Write a checkpoint from the small workload by killing a run at its
  // first checkpoint boundary.
  TupeloOptions options;
  options.checkpoint_path = path;
  options.checkpoint_interval_states = 1;
  options.checkpoint_kill_after = 1;
  Tupelo writer(small.source, small.target);
  MustDiscover(writer, options);

  TupeloOptions resume_options;
  resume_options.checkpoint_path = path;
  resume_options.resume = true;
  Tupelo other(big.source, big.target);
  Result<TupeloResult> r = other.Discover(resume_options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().ToString().find("different workload"),
            std::string::npos);
  std::remove(path.c_str());
}

// The acceptance scenario: for each of the five algorithms, a run killed
// at a checkpoint boundary and resumed must reproduce the uninterrupted
// baseline — same mapping script, same verification, same stop reason.
TEST(CheckpointResumeTest, KilledRunResumesToBaselineForEveryAlgorithm) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(4);
  const SearchAlgorithm algorithms[] = {
      SearchAlgorithm::kIda, SearchAlgorithm::kRbfs, SearchAlgorithm::kAStar,
      SearchAlgorithm::kGreedy, SearchAlgorithm::kBeam,
  };
  for (SearchAlgorithm algo : algorithms) {
    SCOPED_TRACE(std::string(SearchAlgorithmName(algo)));
    Tupelo system(pair.source, pair.target);
    TupeloOptions base;
    base.algorithm = algo;
    TupeloResult baseline = MustDiscover(system, base);
    ASSERT_TRUE(baseline.found);
    ASSERT_TRUE(baseline.verified);

    std::string path = TempPath("equiv_" +
                                std::string(SearchAlgorithmName(algo)) +
                                ".tck");
    TupeloOptions inter = base;
    inter.checkpoint_path = path;
    inter.checkpoint_interval_states = 1;  // snapshot at every poll
    inter.checkpoint_kill_after = 2;
    TupeloResult killed = MustDiscover(system, inter);
    EXPECT_GE(killed.checkpoint_writes, 1u);

    TupeloResult final_result;
    if (killed.stop_reason == StopReason::kCancelled) {
      EXPECT_FALSE(killed.found);
      TupeloOptions res = inter;
      res.checkpoint_kill_after = 0;
      res.resume = true;
      final_result = MustDiscover(system, res);
      EXPECT_TRUE(final_result.resumed);
    } else {
      // Goal reached before the injected kill could be observed; the
      // completed run must still equal the baseline.
      final_result = std::move(killed);
    }
    EXPECT_EQ(final_result.found, baseline.found);
    EXPECT_EQ(final_result.verified, baseline.verified);
    EXPECT_EQ(final_result.stop_reason, baseline.stop_reason);
    EXPECT_EQ(final_result.mapping.ToScript(), baseline.mapping.ToScript());
    std::remove(path.c_str());
  }
}

// Resume restores the remaining state budget, so kill + resume together
// respect the original max_states ceiling and reproduce the baseline's
// resource stop.
TEST(CheckpointResumeTest, ResumePreservesBudgetAccounting) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(8);
  Tupelo system(pair.source, pair.target);
  TupeloOptions base;
  base.algorithm = SearchAlgorithm::kAStar;
  base.limits.max_states = 5;   // below the n=8 solution depth
  base.limits.check_interval = 1;  // poll every state: the tiny budget
                                   // must still see the kill boundary
  TupeloResult baseline = MustDiscover(system, base);
  ASSERT_FALSE(baseline.found);
  ASSERT_EQ(baseline.stop_reason, StopReason::kStates);

  std::string path = TempPath("budget.tck");
  TupeloOptions inter = base;
  inter.checkpoint_path = path;
  inter.checkpoint_interval_states = 1;
  inter.checkpoint_kill_after = 2;
  TupeloResult killed = MustDiscover(system, inter);
  ASSERT_EQ(killed.stop_reason, StopReason::kCancelled);

  TupeloOptions res = inter;
  res.checkpoint_kill_after = 0;
  res.resume = true;
  TupeloResult resumed = MustDiscover(system, res);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.stop_reason, StopReason::kStates);
  // The resumed leg examines only what was left of the original budget.
  EXPECT_LE(resumed.stats.states_examined, base.limits.max_states);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tupelo
