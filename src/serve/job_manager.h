#ifndef TUPELO_SERVE_JOB_MANAGER_H_
#define TUPELO_SERVE_JOB_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/tupelo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/database.h"
#include "runtime/supervisor.h"
#include "search/search_types.h"

namespace tupelo::serve {

// One tenant-submitted discovery job: a critical-instance pair plus the
// budget the client is willing to spend. Everything here round-trips
// through JSON (SpecToJson/SpecFromJson) — the same document is the
// submit request body and the crash-durable `<id>.job` journal entry.
struct JobSpec {
  std::string tenant = "default";
  std::string source_tdb;
  std::string target_tdb;
  // Empty runs the default degradation ladder (DefaultLadder()); a named
  // algorithm ("ida", "rbfs", "astar", "greedy", "beam") runs alone.
  std::string algorithm;
  std::string heuristic = "h1";
  int64_t deadline_millis = 0;  // 0 = server default
  uint64_t max_states = 0;      // 0 = server fair-share slice
  size_t beam_width = 8;
  bool supervise = false;
  // Cancel the job if the submitting connection goes away before it
  // finishes (interactive clients); detached batch jobs leave this off.
  bool cancel_on_disconnect = false;
};

obs::JsonValue SpecToJson(const JobSpec& spec);
Result<JobSpec> SpecFromJson(const obs::JsonValue& v);

// Job lifecycle. Queued and running jobs are re-runnable after a crash
// (their `.job` journal entry has no `.done` companion yet); done is
// terminal and durable.
enum class JobState { kQueued, kRunning, kDone };
std::string_view JobStateName(JobState s);

// A point-in-time snapshot of one job, as served to clients and persisted
// to `<id>.done` on completion.
struct JobStatus {
  std::string id;
  std::string tenant;
  JobState state = JobState::kQueued;
  // Monotonic per-job update counter; bumps on every state or progress
  // change. Streaming clients long-poll "wake me when version > N".
  uint64_t version = 0;

  // Progress (live while running, final when done).
  uint64_t states_examined = 0;
  int best_h = -1;
  std::string partial_script;  // best partial mapping, FIRA script form

  // Terminal fields (valid once state == kDone).
  bool found = false;
  bool verified = false;
  std::string stop_reason = "exhausted";
  std::string script;  // the verified mapping, FIRA script form
  double queue_millis = 0.0;
  double run_millis = 0.0;
  double total_millis = 0.0;  // submit → terminal, what clients perceive
  int retries = 0;
  bool resumed = false;  // restarted from a crash-recovered checkpoint
};

obs::JsonValue StatusToJson(const JobStatus& s);

// Admission verdict. Accepted jobs are journaled before Submit returns —
// from that point the server guarantees a terminal result (possibly after
// a crash+restart). Shed jobs carry a Retry-After hint derived from queue
// pressure: (queued ahead / workers + 1) × the EWMA of recent job wall
// time.
struct SubmitOutcome {
  bool accepted = false;
  std::string job_id;
  size_t queue_depth = 0;
  int64_t retry_after_millis = 0;  // only meaningful when shed
};

struct JobManagerConfig {
  // Crash-durability journal directory (required). Layout: `<id>.job`
  // spec, `<id>.tck` checkpoint, `<id>.done` terminal record — all
  // written atomically (common/text.h AtomicWriteFile).
  std::string journal_dir;
  // Worker threads draining the admission queue; each runs one job at a
  // time, so this is the running-job concurrency. tupelo_serve caps it at
  // kMaxThreads.
  size_t workers = 2;
  // Admission bound: Submit sheds when queued (not yet running) jobs
  // would exceed this. Bounded queue depth is the overload contract —
  // accepted work is never dropped, excess work is refused up front.
  size_t queue_limit = 16;
  // Search workers for beam fan-out, passed to every job as
  // TupeloOptions::threads, so all jobs share the process's one pool of
  // this size (0 or 1 = jobs run single-threaded search; BudgetGuard
  // slices still apportion budgets). At most kMaxThreads.
  size_t pool_threads = 0;
  // Per-job fair-share slices. A job asking for more states than
  // fair_states_per_job, or a longer deadline than max_deadline_millis,
  // is clamped — one tenant cannot starve the rest by over-asking.
  uint64_t fair_states_per_job = 200000;
  int64_t default_deadline_millis = 2000;
  int64_t max_deadline_millis = 60000;
  uint64_t max_memory_nodes_per_job = 0;  // 0 = unlimited
  uint64_t checkpoint_interval_states = 256;
  // Transient-fault retry: a job stopping on kStalled (or whose Discover
  // call fails with a non-configuration error) is re-run from its last
  // checkpoint up to this many times, with exponential backoff.
  int max_job_retries = 2;
  int64_t retry_backoff_millis = 10;
  // Supervisor template for jobs submitted with supervise=true.
  runtime::SupervisorConfig supervisor;
  // Retention: keep at most this many completed-job journal triples on
  // disk (oldest pruned first); 0 keeps everything.
  size_t checkpoint_keep = 0;
  obs::MetricRegistry* metrics = nullptr;  // nullable; must outlive
  obs::TraceSession* trace = nullptr;      // nullable; must outlive
};

// The socket-free core of the discovery service: admission control, the
// bounded job queue, worker scheduling over the shared pool, per-job
// CancelToken trees parented on one root, crash-durable journaling and
// boot-time recovery. The TCP server (serve/server.h) is a thin framing
// shell over this class, which is what the governance tests exercise
// directly.
class JobManager {
 public:
  explicit JobManager(JobManagerConfig config);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  // Recovers the journal (sweeps stale `*.tmp`, loads terminal records,
  // re-enqueues unfinished jobs with resume), then starts the workers.
  Status Start();

  // Stops accepting, preempts running jobs through the root token, joins
  // the workers. Preempted and still-queued jobs keep their journal
  // entries un-terminal, so the next Start() resumes them — graceful
  // shutdown and kill -9 converge on the same recovery path.
  void Shutdown();

  // Admission. A typed error is a malformed spec (bad .tdb, unknown
  // algorithm/heuristic); a shed is a *successful* call with
  // accepted=false and a Retry-After hint.
  Result<SubmitOutcome> Submit(JobSpec spec);

  Result<JobStatus> GetStatus(const std::string& id) const;

  // Client-initiated cancel; benign on already-terminal jobs (returns
  // false). The job completes as stop_reason=cancelled.
  bool Cancel(const std::string& id);

  // Long-poll: blocks until the job's version exceeds `after_version`,
  // the job is terminal, or the timeout lapses; returns the then-current
  // snapshot. The streaming op is a loop over this.
  Result<JobStatus> WaitUpdate(const std::string& id, uint64_t after_version,
                               int64_t timeout_millis) const;

  // Blocks until terminal or timeout (DeadlineExceeded → the snapshot's
  // state is still non-terminal; callers decide what that means).
  Result<JobStatus> WaitTerminal(const std::string& id,
                                 int64_t timeout_millis) const;

  // Disconnect-driven cancellation for jobs submitted with
  // cancel_on_disconnect. Racing with completion is benign: a terminal
  // job ignores the cancel.
  void OnClientDisconnect(const std::vector<std::string>& job_ids);

  size_t queue_depth() const;
  size_t active_jobs() const;
  uint64_t jobs_recovered() const { return jobs_recovered_; }
  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_relaxed);
  }

  const JobManagerConfig& config() const { return config_; }

 private:
  struct Job {
    JobSpec spec;
    JobStatus status;
    std::unique_ptr<CancelToken> token;  // parented on root_token_
    std::chrono::steady_clock::time_point submitted_at;
    bool client_cancelled = false;
    bool recovered = false;  // re-enqueued by boot recovery
  };

  std::string JournalPath(const std::string& id, const char* ext) const;
  Status JournalSpec(const Job& job);
  void JournalDone(Job& job);
  Status RecoverJournal();
  void PruneRetention();
  void WorkerLoop(size_t worker_index);
  void RunJob(Job& job);
  void BumpVersion(Job& job);

  JobManagerConfig config_;
  CancelToken root_token_;
  std::atomic<bool> shutting_down_{false};
  uint64_t jobs_recovered_ = 0;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;       // job updates (status waiters)
  std::condition_variable queue_cv_;         // queue pushes (workers)
  std::deque<std::string> queue_;            // ids of queued jobs, FIFO
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  std::vector<std::string> done_order_;      // completion order, retention
  uint64_t next_seq_ = 1;
  size_t running_ = 0;
  double job_millis_ewma_ = 0.0;

  std::vector<std::thread> workers_;
};

}  // namespace tupelo::serve

#endif  // TUPELO_SERVE_JOB_MANAGER_H_
