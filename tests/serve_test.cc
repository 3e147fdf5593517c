// Discovery-as-a-service governance and durability: admission control
// and typed shedding, fair-share scheduling of concurrent jobs over one
// shared pool, parented CancelToken trees (sibling isolation, disconnect
// races), deadline propagation through queue time, crash-durable
// journaling with boot-time recovery, stale-tmp sweep and retention
// (docs/SERVING.md). The TCP shell gets one end-to-end pass; everything
// else drives JobManager directly.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "relational/io.h"
#include "serve/client.h"
#include "serve/job_manager.h"
#include "serve/server.h"
#include "workloads/synthetic.h"

namespace tupelo::serve {
namespace {

std::string EasySource(size_t n) {
  return WriteTdb(MakeSyntheticMatchingPair(n).source);
}

std::string EasyTarget(size_t n) {
  return WriteTdb(MakeSyntheticMatchingPair(n).target);
}

// Perturbs tuple values (a1 → z1, ...) so no mapping exists: the search
// runs its whole deadline, keeping a worker reliably busy.
std::string HardTarget(size_t n) {
  std::string t = EasyTarget(n);
  std::string out;
  out.reserve(t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    out.push_back(t[i] == 'a' && i + 1 < t.size() &&
                          std::isdigit(static_cast<unsigned char>(t[i + 1]))
                      ? 'z'
                      : t[i]);
  }
  return out;
}

JobSpec EasyJob(size_t n = 3) {
  JobSpec spec;
  spec.source_tdb = EasySource(n);
  spec.target_tdb = EasyTarget(n);
  return spec;
}

JobSpec HardJob(int64_t deadline_millis, size_t n = 6) {
  JobSpec spec;
  spec.source_tdb = EasySource(n);
  spec.target_tdb = HardTarget(n);
  spec.deadline_millis = deadline_millis;
  return spec;
}

// Scoped journal directory in the test cwd, recursively removed on both
// construction (stale state from a crashed prior run) and destruction.
struct JournalDir {
  std::string path;

  explicit JournalDir(const std::string& name)
      : path("serve_test_" + name) {
    Remove();
  }
  ~JournalDir() { Remove(); }

  void Remove() {
    DIR* d = opendir(path.c_str());
    if (d == nullptr) return;
    while (struct dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      std::remove((path + "/" + name).c_str());
    }
    closedir(d);
    ::rmdir(path.c_str());
  }

  bool Has(const std::string& file) const {
    std::ifstream in(path + "/" + file);
    return in.good();
  }

  void Write(const std::string& file, const std::string& text) const {
    ::mkdir(path.c_str(), 0777);
    std::ofstream out(path + "/" + file);
    out << text;
  }

  size_t CountSuffix(const std::string& suffix) const {
    size_t count = 0;
    DIR* d = opendir(path.c_str());
    if (d == nullptr) return 0;
    while (struct dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        ++count;
      }
    }
    closedir(d);
    return count;
  }
};

JobManagerConfig BaseConfig(const JournalDir& dir) {
  JobManagerConfig config;
  config.journal_dir = dir.path;
  config.workers = 2;
  config.default_deadline_millis = 3000;
  config.checkpoint_interval_states = 32;
  return config;
}

TEST(ServeSpecTest, JsonRoundTripPreservesEveryField) {
  JobSpec spec = HardJob(250, 4);
  spec.tenant = "team-a";
  spec.algorithm = "beam";
  spec.heuristic = "h2";
  spec.max_states = 12345;
  spec.beam_width = 3;
  spec.supervise = true;
  spec.cancel_on_disconnect = true;

  Result<JobSpec> back = SpecFromJson(SpecToJson(spec));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->tenant, "team-a");
  EXPECT_EQ(back->source_tdb, spec.source_tdb);
  EXPECT_EQ(back->target_tdb, spec.target_tdb);
  EXPECT_EQ(back->algorithm, "beam");
  EXPECT_EQ(back->heuristic, "h2");
  EXPECT_EQ(back->deadline_millis, 250);
  EXPECT_EQ(back->max_states, 12345u);
  EXPECT_EQ(back->beam_width, 3u);
  EXPECT_TRUE(back->supervise);
  EXPECT_TRUE(back->cancel_on_disconnect);
}

TEST(ServeSpecTest, MalformedSpecsAreTypedRejections) {
  JobSpec bad_tdb = EasyJob();
  bad_tdb.source_tdb = "relation R (A1 {";
  Result<JobSpec> r1 = SpecFromJson(SpecToJson(bad_tdb));
  EXPECT_FALSE(r1.ok());

  JobSpec bad_algo = EasyJob();
  bad_algo.algorithm = "dijkstra";
  Result<JobSpec> r2 = SpecFromJson(SpecToJson(bad_algo));
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  JobSpec bad_h = EasyJob();
  bad_h.heuristic = "h99";
  Result<JobSpec> r3 = SpecFromJson(SpecToJson(bad_h));
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
}

// A zero-width beam examines nothing, and -1 would cast to a beam with no
// width cut: both are malformed requests.
TEST(ServeSpecTest, BeamWidthBelowOneIsRejected) {
  for (int width : {0, -1}) {
    obs::JsonValue v = SpecToJson(EasyJob());
    v["beam_width"] = width;
    Result<JobSpec> r = SpecFromJson(v);
    ASSERT_FALSE(r.ok()) << width;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << width;
  }
}

TEST(JobManagerTest, RunsAJobToVerifiedCompletion) {
  JournalDir dir("basic");
  JobManager manager(BaseConfig(dir));
  ASSERT_TRUE(manager.Start().ok());

  Result<SubmitOutcome> outcome = manager.Submit(EasyJob());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->accepted);

  Result<JobStatus> status = manager.WaitTerminal(outcome->job_id, 10000);
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_TRUE(status->found);
  EXPECT_TRUE(status->verified);
  EXPECT_EQ(status->stop_reason, "found");
  EXPECT_FALSE(status->script.empty());
  // Terminal record + spec journal are both durable.
  EXPECT_TRUE(dir.Has(outcome->job_id + ".done"));
  EXPECT_TRUE(dir.Has(outcome->job_id + ".job"));
  manager.Shutdown();
}

TEST(JobManagerTest, QueuePressureShedsWithRetryAfterHint) {
  JournalDir dir("shed");
  JobManagerConfig config = BaseConfig(dir);
  config.workers = 1;
  config.queue_limit = 1;
  JobManager manager(config);
  ASSERT_TRUE(manager.Start().ok());

  // One running + one queued fills the admission bound; the burst after
  // that must shed with a positive Retry-After, and never leave a
  // journal entry behind (shed ≠ accepted-then-dropped).
  std::vector<std::string> accepted;
  size_t sheds = 0;
  for (int i = 0; i < 6; ++i) {
    Result<SubmitOutcome> outcome = manager.Submit(HardJob(400));
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_LE(outcome->queue_depth, config.queue_limit);
    if (outcome->accepted) {
      accepted.push_back(outcome->job_id);
    } else {
      ++sheds;
      EXPECT_GT(outcome->retry_after_millis, 0);
      EXPECT_TRUE(outcome->job_id.empty());
    }
  }
  EXPECT_GE(sheds, 1u);
  for (const std::string& id : accepted) {
    Result<JobStatus> status = manager.WaitTerminal(id, 15000);
    ASSERT_TRUE(status.ok()) << status.status();
    EXPECT_EQ(status->state, JobState::kDone) << id;
  }
  EXPECT_EQ(dir.CountSuffix(".job"), accepted.size());
  manager.Shutdown();
}

TEST(JobManagerTest, DeadlinePropagatesThroughQueueTime) {
  JournalDir dir("deadline");
  JobManagerConfig config = BaseConfig(dir);
  config.workers = 1;
  JobManager manager(config);
  ASSERT_TRUE(manager.Start().ok());

  // The first job holds the only worker for ~500ms; the second's 100ms
  // submit-to-finish budget is gone before it ever reaches a worker, so
  // it must stop as "deadline" without burning any search states.
  Result<SubmitOutcome> blocker = manager.Submit(HardJob(500));
  ASSERT_TRUE(blocker.ok() && blocker->accepted);
  Result<SubmitOutcome> starved = manager.Submit(HardJob(100));
  ASSERT_TRUE(starved.ok() && starved->accepted);

  Result<JobStatus> status = manager.WaitTerminal(starved->job_id, 15000);
  ASSERT_TRUE(status.ok()) << status.status();
  ASSERT_EQ(status->state, JobState::kDone);
  EXPECT_EQ(status->stop_reason, "deadline");
  EXPECT_EQ(status->states_examined, 0u);
  EXPECT_GE(status->queue_millis, 100.0);
  manager.Shutdown();
}

TEST(JobManagerTest, CancelQueuedJobIsTerminalAndIdempotent) {
  JournalDir dir("cancel_queued");
  JobManagerConfig config = BaseConfig(dir);
  config.workers = 1;
  JobManager manager(config);
  ASSERT_TRUE(manager.Start().ok());

  Result<SubmitOutcome> blocker = manager.Submit(HardJob(400));
  ASSERT_TRUE(blocker.ok() && blocker->accepted);
  Result<SubmitOutcome> queued = manager.Submit(EasyJob());
  ASSERT_TRUE(queued.ok() && queued->accepted);

  EXPECT_TRUE(manager.Cancel(queued->job_id));
  Result<JobStatus> status = manager.GetStatus(queued->job_id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_EQ(status->stop_reason, "cancelled");
  EXPECT_TRUE(dir.Has(queued->job_id + ".done"));
  // Terminal jobs ignore further cancels; unknown ids report false.
  EXPECT_FALSE(manager.Cancel(queued->job_id));
  EXPECT_FALSE(manager.Cancel("j999999"));
  manager.Shutdown();
}

TEST(JobManagerTest, CancellingOneRunningJobLeavesSiblingsAlone) {
  JournalDir dir("siblings");
  JobManagerConfig config = BaseConfig(dir);
  config.workers = 2;
  JobManager manager(config);
  ASSERT_TRUE(manager.Start().ok());

  // Both jobs run concurrently; their CancelTokens are siblings parented
  // on the manager's root. Cancelling one must not leak into the other.
  Result<SubmitOutcome> victim = manager.Submit(HardJob(2000));
  Result<SubmitOutcome> bystander = manager.Submit(HardJob(300));
  ASSERT_TRUE(victim.ok() && victim->accepted);
  ASSERT_TRUE(bystander.ok() && bystander->accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(manager.Cancel(victim->job_id));

  Result<JobStatus> cancelled = manager.WaitTerminal(victim->job_id, 10000);
  ASSERT_TRUE(cancelled.ok());
  ASSERT_EQ(cancelled->state, JobState::kDone);
  EXPECT_EQ(cancelled->stop_reason, "cancelled");

  Result<JobStatus> unaffected =
      manager.WaitTerminal(bystander->job_id, 10000);
  ASSERT_TRUE(unaffected.ok());
  ASSERT_EQ(unaffected->state, JobState::kDone);
  EXPECT_NE(unaffected->stop_reason, "cancelled");
  manager.Shutdown();
}

TEST(JobManagerTest, DisconnectCancelRacingCompletionIsBenign) {
  JournalDir dir("disconnect");
  JobManager manager(BaseConfig(dir));
  ASSERT_TRUE(manager.Start().ok());

  // The job finishes long before the "disconnect": the late cancel must
  // not disturb the terminal record.
  JobSpec spec = EasyJob();
  spec.cancel_on_disconnect = true;
  Result<SubmitOutcome> outcome = manager.Submit(std::move(spec));
  ASSERT_TRUE(outcome.ok() && outcome->accepted);
  Result<JobStatus> done = manager.WaitTerminal(outcome->job_id, 10000);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->state, JobState::kDone);
  const std::string reason_before = done->stop_reason;

  manager.OnClientDisconnect({outcome->job_id, "j424242"});
  Result<JobStatus> after = manager.GetStatus(outcome->job_id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stop_reason, reason_before);

  // A disconnect while the job is live does cancel it.
  Result<SubmitOutcome> live = manager.Submit([&] {
    JobSpec s = HardJob(5000);
    s.cancel_on_disconnect = true;
    return s;
  }());
  ASSERT_TRUE(live.ok() && live->accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  manager.OnClientDisconnect({live->job_id});
  Result<JobStatus> killed = manager.WaitTerminal(live->job_id, 10000);
  ASSERT_TRUE(killed.ok());
  ASSERT_EQ(killed->state, JobState::kDone);
  EXPECT_EQ(killed->stop_reason, "cancelled");
  manager.Shutdown();
}

TEST(JobManagerTest, ShutdownPreemptsAndRecoveryCompletesEveryJob) {
  JournalDir dir("recovery");
  JobManagerConfig config = BaseConfig(dir);
  config.workers = 1;
  std::vector<std::string> ids;
  {
    JobManager manager(config);
    ASSERT_TRUE(manager.Start().ok());
    for (int i = 0; i < 3; ++i) {
      Result<SubmitOutcome> outcome = manager.Submit(HardJob(400));
      ASSERT_TRUE(outcome.ok() && outcome->accepted);
      ids.push_back(outcome->job_id);
    }
    // Preempt with the first job mid-search: its search stops at the
    // next cancel poll and, crucially, no `.done` record is written —
    // the exact on-disk state a kill -9 leaves behind.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    manager.Shutdown();
  }
  EXPECT_EQ(dir.CountSuffix(".done"), 0u);
  EXPECT_EQ(dir.CountSuffix(".job"), 3u);

  JobManager recovered(config);
  ASSERT_TRUE(recovered.Start().ok());
  EXPECT_EQ(recovered.jobs_recovered(), 3u);
  for (const std::string& id : ids) {
    Result<JobStatus> status = recovered.WaitTerminal(id, 20000);
    ASSERT_TRUE(status.ok()) << status.status();
    EXPECT_EQ(status->state, JobState::kDone) << id;
    EXPECT_NE(status->stop_reason, "error") << id;
  }
  recovered.Shutdown();
}

TEST(JobManagerTest, RecoveryServesPriorTerminalRecords) {
  JournalDir dir("terminal_recovery");
  JobManagerConfig config = BaseConfig(dir);
  std::string id;
  std::string script;
  {
    JobManager manager(config);
    ASSERT_TRUE(manager.Start().ok());
    Result<SubmitOutcome> outcome = manager.Submit(EasyJob());
    ASSERT_TRUE(outcome.ok() && outcome->accepted);
    id = outcome->job_id;
    Result<JobStatus> status = manager.WaitTerminal(id, 10000);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status->state, JobState::kDone);
    script = status->script;
    manager.Shutdown();
  }
  JobManager recovered(config);
  ASSERT_TRUE(recovered.Start().ok());
  EXPECT_EQ(recovered.jobs_recovered(), 0u);
  Result<JobStatus> status = recovered.GetStatus(id);
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_TRUE(status->found);
  EXPECT_EQ(status->script, script);
  recovered.Shutdown();
}

TEST(JobManagerTest, BootSweepsOrphanedTmpFiles) {
  JournalDir dir("tmp_sweep");
  // A kill mid-AtomicWriteFile leaves `*.tmp` orphans; boot must sweep
  // them so they can never shadow a later rename.
  dir.Write("j000001.tck.tmp", "torn half-written checkpoint");
  dir.Write("j000002.done.tmp", "torn terminal record");
  dir.Write("keep.done", "{}");

  obs::MetricRegistry metrics;
  JobManagerConfig config = BaseConfig(dir);
  config.metrics = &metrics;
  JobManager manager(config);
  ASSERT_TRUE(manager.Start().ok());
  EXPECT_FALSE(dir.Has("j000001.tck.tmp"));
  EXPECT_FALSE(dir.Has("j000002.done.tmp"));
  EXPECT_TRUE(dir.Has("keep.done"));
  EXPECT_EQ(metrics.GetCounter("serve.journal.tmp_swept").value(), 2u);
  manager.Shutdown();
}

TEST(CheckpointHygieneTest, RemoveStaleCheckpointTmpAndDirectorySweep) {
  JournalDir dir("hygiene_unit");
  dir.Write("run.tck.tmp", "orphan");
  dir.Write("run.tck", "real");
  // Path-level: removes exactly `<path>.tmp`.
  EXPECT_TRUE(RemoveStaleCheckpointTmp(dir.path + "/run.tck"));
  EXPECT_FALSE(RemoveStaleCheckpointTmp(dir.path + "/run.tck"));
  EXPECT_TRUE(dir.Has("run.tck"));
  // Directory-level: removes every regular `*.tmp`, counts them.
  dir.Write("a.tmp", "x");
  dir.Write("b.job.tmp", "y");
  dir.Write("c.job", "z");
  EXPECT_EQ(SweepStaleTmpFiles(dir.path), 2);
  EXPECT_EQ(SweepStaleTmpFiles(dir.path), 0);
  EXPECT_TRUE(dir.Has("c.job"));
}

TEST(JobManagerTest, RetentionPrunesOldestTerminalTriples) {
  JournalDir dir("retention");
  JobManagerConfig config = BaseConfig(dir);
  config.workers = 1;
  config.checkpoint_keep = 2;
  JobManager manager(config);
  ASSERT_TRUE(manager.Start().ok());
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    Result<SubmitOutcome> outcome = manager.Submit(EasyJob());
    ASSERT_TRUE(outcome.ok() && outcome->accepted);
    ids.push_back(outcome->job_id);
    Result<JobStatus> status = manager.WaitTerminal(ids.back(), 10000);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status->state, JobState::kDone);
  }
  manager.Shutdown();
  // Only the newest `checkpoint_keep` completed triples survive on disk.
  EXPECT_LE(dir.CountSuffix(".done"), 2u);
  EXPECT_LE(dir.CountSuffix(".job"), 2u);
  EXPECT_FALSE(dir.Has(ids[0] + ".done"));
  EXPECT_TRUE(dir.Has(ids[3] + ".done"));
}

TEST(JobManagerTest, ConcurrentMultiJobGovernanceOverOneSharedPool) {
  JournalDir dir("governance");
  obs::MetricRegistry metrics;
  JobManagerConfig config = BaseConfig(dir);
  config.workers = 2;
  config.pool_threads = 2;  // one ThreadPool shared by every job
  config.fair_states_per_job = 5000;
  config.metrics = &metrics;
  JobManager manager(config);
  ASSERT_TRUE(manager.Start().ok());

  // A mixed fleet under concurrent cancels and disconnects: every
  // accepted job must reach a clean terminal state, hard jobs must stay
  // inside their fair-share state slice, and nothing may crash or race
  // (this test is the TSan target for the serving layer).
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    JobSpec spec = i % 2 == 0 ? EasyJob() : HardJob(600);
    spec.cancel_on_disconnect = i % 4 == 3;
    Result<SubmitOutcome> outcome = manager.Submit(std::move(spec));
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    if (outcome->accepted) ids.push_back(outcome->job_id);
  }
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    if (ids.size() > 1) manager.Cancel(ids[1]);
    manager.OnClientDisconnect({ids.back()});
  });
  for (const std::string& id : ids) {
    Result<JobStatus> status = manager.WaitTerminal(id, 20000);
    ASSERT_TRUE(status.ok()) << status.status();
    EXPECT_EQ(status->state, JobState::kDone) << id;
    EXPECT_NE(status->stop_reason, "error") << id;
    // Fair share: no job may exceed its state ration (slack for the
    // final checkpoint interval).
    EXPECT_LE(status->states_examined,
              config.fair_states_per_job + config.checkpoint_interval_states)
        << id;
  }
  chaos.join();
  manager.Shutdown();
  EXPECT_EQ(metrics.GetCounter("serve.jobs.accepted").value(),
            static_cast<uint64_t>(ids.size()));
}

TEST(ServerTest, EndToEndSubmitStreamCancelMetricsShutdown) {
  JournalDir dir("server_e2e");
  ServerConfig config;
  config.port = 0;  // ephemeral
  config.jobs = BaseConfig(dir);
  obs::MetricRegistry metrics;
  config.jobs.metrics = &metrics;
  Server server(std::move(config));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Result<Client> client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(client->Ping().ok());

  // Submit an easy job and stream it to a verified terminal state.
  Result<SubmitReply> reply = client->Submit(EasyJob());
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_TRUE(reply->accepted);
  ASSERT_FALSE(reply->job_id.empty());
  Result<JobStatus> done = client->AwaitTerminal(reply->job_id, 15000);
  ASSERT_TRUE(done.ok()) << done.status();
  EXPECT_TRUE(done->found);
  EXPECT_TRUE(done->verified);
  EXPECT_FALSE(done->script.empty());

  // A malformed spec is a typed rejection at the wire layer.
  JobSpec bad = EasyJob();
  bad.algorithm = "dijkstra";
  EXPECT_FALSE(client->Submit(bad).ok());

  // Cancel on a terminal job reports false; unknown status is NotFound.
  Result<bool> cancelled = client->Cancel(reply->job_id);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_FALSE(*cancelled);
  EXPECT_FALSE(client->GetStatus("j424242").ok());

  Result<obs::JsonValue> m = client->Metrics();
  ASSERT_TRUE(m.ok()) << m.status();
  const obs::JsonValue* registry = m->Find("metrics");
  ASSERT_NE(registry, nullptr);
  const obs::JsonValue* counters = registry->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("serve.jobs.completed"), nullptr);

  EXPECT_TRUE(client->RequestShutdown().ok());
  server.Shutdown();
  EXPECT_TRUE(server.stop_requested());
}

// Shutdown after the accept loop has polled for more than 100 ms: the
// loop reads the listen descriptor until it exits, so Shutdown may reset
// the descriptor only after joining it (a data race under TSan
// otherwise). Four cycles, because TSan reported that race reliably only
// from the fourth server of a process on.
TEST(ServerTest, ShutdownAfterAnIdleAcceptPoll) {
  for (int cycle = 0; cycle < 4; ++cycle) {
    JournalDir dir("server_idle");
    ServerConfig config;
    config.port = 0;
    config.jobs = BaseConfig(dir);
    Server server(std::move(config));
    ASSERT_TRUE(server.Start().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server.Shutdown();
    EXPECT_TRUE(server.stop_requested());
  }
}

TEST(ServerTest, ClientDisconnectCancelsInteractiveJobs) {
  JournalDir dir("server_disc");
  ServerConfig config;
  config.port = 0;
  config.jobs = BaseConfig(dir);
  Server server(std::move(config));
  ASSERT_TRUE(server.Start().ok());

  std::string job_id;
  {
    Result<Client> client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    JobSpec spec = HardJob(10000);
    spec.cancel_on_disconnect = true;
    Result<SubmitReply> reply = client->Submit(spec);
    ASSERT_TRUE(reply.ok() && reply->accepted);
    job_id = reply->job_id;
    client->Close();  // vanish mid-job
  }
  // A second connection watches the abandoned job get cancelled.
  Result<Client> watcher = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(watcher.ok());
  Result<JobStatus> done = watcher->AwaitTerminal(job_id, 15000);
  ASSERT_TRUE(done.ok()) << done.status();
  EXPECT_EQ(done->stop_reason, "cancelled");
  server.Shutdown();
}

}  // namespace
}  // namespace tupelo::serve
