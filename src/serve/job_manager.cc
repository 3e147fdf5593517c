#include "serve/job_manager.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/text.h"
#include "core/checkpoint.h"
#include "heuristics/heuristic_factory.h"
#include "relational/io.h"

namespace tupelo::serve {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0;
}

const obs::JsonValue* Req(const obs::JsonValue& v, std::string_view key) {
  return v.is_object() ? v.Find(key) : nullptr;
}

std::string GetString(const obs::JsonValue& v, std::string_view key,
                      std::string fallback = "") {
  const obs::JsonValue* m = Req(v, key);
  if (m != nullptr && m->kind() == obs::JsonValue::Kind::kString) {
    return m->as_string();
  }
  return fallback;
}

int64_t GetInt(const obs::JsonValue& v, std::string_view key,
               int64_t fallback = 0) {
  const obs::JsonValue* m = Req(v, key);
  return m != nullptr && m->is_number() ? m->as_int() : fallback;
}

bool GetBool(const obs::JsonValue& v, std::string_view key,
             bool fallback = false) {
  const obs::JsonValue* m = Req(v, key);
  return m != nullptr && m->kind() == obs::JsonValue::Kind::kBool
             ? m->as_bool()
             : fallback;
}

}  // namespace

obs::JsonValue SpecToJson(const JobSpec& spec) {
  obs::JsonValue v = obs::JsonValue::Object();
  v["tenant"] = spec.tenant;
  v["source_tdb"] = spec.source_tdb;
  v["target_tdb"] = spec.target_tdb;
  v["algorithm"] = spec.algorithm;
  v["heuristic"] = spec.heuristic;
  v["deadline_millis"] = spec.deadline_millis;
  v["max_states"] = spec.max_states;
  v["beam_width"] = static_cast<uint64_t>(spec.beam_width);
  v["supervise"] = spec.supervise;
  v["cancel_on_disconnect"] = spec.cancel_on_disconnect;
  return v;
}

Result<JobSpec> SpecFromJson(const obs::JsonValue& v) {
  if (!v.is_object()) return Status::InvalidArgument("job spec: not an object");
  JobSpec spec;
  spec.tenant = GetString(v, "tenant", "default");
  spec.source_tdb = GetString(v, "source_tdb");
  spec.target_tdb = GetString(v, "target_tdb");
  if (spec.source_tdb.empty() || spec.target_tdb.empty()) {
    return Status::InvalidArgument(
        "job spec: source_tdb and target_tdb are required");
  }
  spec.algorithm = GetString(v, "algorithm");
  spec.heuristic = GetString(v, "heuristic", "h1");
  spec.deadline_millis = GetInt(v, "deadline_millis");
  spec.max_states = static_cast<uint64_t>(GetInt(v, "max_states"));
  const int64_t beam_width = GetInt(v, "beam_width", 8);
  if (beam_width < 1) {
    return Status::InvalidArgument("job spec: beam_width must be at least 1");
  }
  spec.beam_width = static_cast<size_t>(beam_width);
  spec.supervise = GetBool(v, "supervise");
  spec.cancel_on_disconnect = GetBool(v, "cancel_on_disconnect");
  // Validate what would otherwise only explode inside a worker: the
  // instances must parse and the algorithm/heuristic must exist. Typed
  // rejection here is the client's malformed-request signal; admission
  // (queue pressure) is a separate verdict.
  TUPELO_RETURN_IF_ERROR(ParseTdb(spec.source_tdb).status());
  TUPELO_RETURN_IF_ERROR(ParseTdb(spec.target_tdb).status());
  if (!spec.algorithm.empty() && !ParseSearchAlgorithm(spec.algorithm)) {
    return Status::InvalidArgument("job spec: unknown algorithm '" +
                                   spec.algorithm + "'");
  }
  if (!ParseHeuristicKind(spec.heuristic)) {
    return Status::InvalidArgument("job spec: unknown heuristic '" +
                                   spec.heuristic + "'");
  }
  return spec;
}

std::string_view JobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
  }
  return "unknown";
}

obs::JsonValue StatusToJson(const JobStatus& s) {
  obs::JsonValue v = obs::JsonValue::Object();
  v["id"] = s.id;
  v["tenant"] = s.tenant;
  v["state"] = std::string(JobStateName(s.state));
  v["version"] = s.version;
  v["states_examined"] = s.states_examined;
  v["best_h"] = static_cast<int64_t>(s.best_h);
  v["partial_script"] = s.partial_script;
  v["found"] = s.found;
  v["verified"] = s.verified;
  v["stop_reason"] = s.stop_reason;
  v["script"] = s.script;
  v["queue_millis"] = s.queue_millis;
  v["run_millis"] = s.run_millis;
  v["total_millis"] = s.total_millis;
  v["retries"] = static_cast<int64_t>(s.retries);
  v["resumed"] = s.resumed;
  return v;
}

namespace {

// Inverse of StatusToJson, for `.done` journal recovery. Tolerant of
// missing fields (defaults hold) but the id must be present.
Result<JobStatus> StatusFromJson(const obs::JsonValue& v) {
  if (!v.is_object()) return Status::ParseError("job record: not an object");
  JobStatus s;
  s.id = GetString(v, "id");
  if (s.id.empty()) return Status::ParseError("job record: missing id");
  s.tenant = GetString(v, "tenant", "default");
  s.state = JobState::kDone;
  s.version = static_cast<uint64_t>(GetInt(v, "version"));
  s.states_examined = static_cast<uint64_t>(GetInt(v, "states_examined"));
  s.best_h = static_cast<int>(GetInt(v, "best_h", -1));
  s.partial_script = GetString(v, "partial_script");
  s.found = GetBool(v, "found");
  s.verified = GetBool(v, "verified");
  s.stop_reason = GetString(v, "stop_reason", "exhausted");
  s.script = GetString(v, "script");
  const obs::JsonValue* m = v.Find("queue_millis");
  if (m != nullptr && m->is_number()) s.queue_millis = m->as_double();
  m = v.Find("run_millis");
  if (m != nullptr && m->is_number()) s.run_millis = m->as_double();
  m = v.Find("total_millis");
  if (m != nullptr && m->is_number()) s.total_millis = m->as_double();
  s.retries = static_cast<int>(GetInt(v, "retries"));
  s.resumed = GetBool(v, "resumed");
  return s;
}

}  // namespace

JobManager::JobManager(JobManagerConfig config) : config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
}

JobManager::~JobManager() { Shutdown(); }

std::string JobManager::JournalPath(const std::string& id,
                                    const char* ext) const {
  return config_.journal_dir + "/" + id + ext;
}

Status JobManager::JournalSpec(const Job& job) {
  obs::JsonValue v = SpecToJson(job.spec);
  v["id"] = job.status.id;
  return AtomicWriteFile(JournalPath(job.status.id, ".job"), v.Dump(2));
}

void JobManager::JournalDone(Job& job) {
  // The `.done` record is what makes a job terminal across restarts; a
  // failed write means the job re-runs after a crash, which is safe
  // (results are deterministic) just wasteful — so it is logged via the
  // metric, not fatal.
  Status s = AtomicWriteFile(JournalPath(job.status.id, ".done"),
                             StatusToJson(job.status).Dump(2));
  if (!s.ok() && config_.metrics != nullptr) {
    config_.metrics->GetCounter("serve.journal.write_failures").Increment();
  }
}

Status JobManager::RecoverJournal() {
  if (config_.journal_dir.empty()) {
    return Status::InvalidArgument("JobManagerConfig::journal_dir is required");
  }
  ::mkdir(config_.journal_dir.c_str(), 0777);
  struct stat st;
  if (stat(config_.journal_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("journal_dir is not a directory: " +
                                   config_.journal_dir);
  }
  // Crash hygiene first: a kill mid-AtomicWriteFile leaves `*.tmp` files
  // that must never shadow a later write.
  int swept = SweepStaleTmpFiles(config_.journal_dir);
  if (swept > 0 && config_.metrics != nullptr) {
    config_.metrics->GetCounter("serve.journal.tmp_swept").Increment(swept);
  }

  std::vector<std::string> ids;
  DIR* d = opendir(config_.journal_dir.c_str());
  if (d == nullptr) {
    return Status::Internal("cannot open journal_dir: " + config_.journal_dir);
  }
  while (struct dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    constexpr std::string_view kExt = ".job";
    if (name.size() > kExt.size() &&
        name.compare(name.size() - kExt.size(), kExt.size(), kExt) == 0) {
      ids.push_back(name.substr(0, name.size() - kExt.size()));
    }
  }
  closedir(d);
  std::sort(ids.begin(), ids.end());  // ids are zero-padded: lexicographic
                                      // order is submission order

  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& id : ids) {
    TUPELO_ASSIGN_OR_RETURN(std::string spec_text,
                            ReadFile(JournalPath(id, ".job")));
    Result<obs::JsonValue> spec_json = obs::JsonValue::Parse(spec_text);
    if (!spec_json.ok()) continue;  // torn beyond repair; skip, don't crash
    Result<JobSpec> spec = SpecFromJson(*spec_json);
    if (!spec.ok()) continue;

    auto job = std::make_unique<Job>();
    job->spec = std::move(*spec);
    job->status.id = id;
    job->status.tenant = job->spec.tenant;
    job->submitted_at = Clock::now();
    job->token = std::make_unique<CancelToken>(&root_token_);

    const std::string done_path = JournalPath(id, ".done");
    if (FileExists(done_path)) {
      Result<std::string> done_text = ReadFile(done_path);
      if (done_text.ok()) {
        Result<obs::JsonValue> done_json = obs::JsonValue::Parse(*done_text);
        if (done_json.ok()) {
          Result<JobStatus> done = StatusFromJson(*done_json);
          if (done.ok()) {
            job->status = std::move(*done);
            done_order_.push_back(id);
          }
        }
      }
      if (job->status.state != JobState::kDone) continue;  // torn: drop
    } else {
      // Unfinished at crash/shutdown time: back in the queue, resuming
      // from its `.tck` if one was written (a missing checkpoint is a
      // fresh start — Discover's resume contract).
      job->status.state = JobState::kQueued;
      job->recovered = true;
      queue_.push_back(id);
      ++jobs_recovered_;
      if (config_.metrics != nullptr) {
        config_.metrics->GetCounter("serve.jobs.recovered").Increment();
      }
    }
    // next_seq_ must clear every journaled id, done or not, so restarted
    // servers never mint a colliding id.
    uint64_t seq = 0;
    if (id.starts_with('j') &&
        ParseNumber(std::string_view(id).substr(1), seq)) {
      next_seq_ = std::max(next_seq_, seq + 1);
    }
    jobs_[id] = std::move(job);
  }
  if (config_.metrics != nullptr) {
    config_.metrics->GetGauge("serve.queue_depth")
        .Set(static_cast<int64_t>(queue_.size()));
  }
  return Status::OK();
}

Status JobManager::Start() {
  TUPELO_RETURN_IF_ERROR(RecoverJournal());
  PruneRetention();
  shutting_down_.store(false, std::memory_order_relaxed);
  workers_.reserve(config_.workers);
  for (size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return Status::OK();
}

void JobManager::Shutdown() {
  bool was = shutting_down_.exchange(true, std::memory_order_relaxed);
  if (was && workers_.empty()) return;
  // Preempt every running job through the shared root: searches stop at
  // their next BudgetGuard poll, their latest checkpoint already on disk.
  root_token_.Cancel();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_cv_.notify_all();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  cv_.notify_all();
}

Result<SubmitOutcome> JobManager::Submit(JobSpec spec) {
  obs::TraceSpan span(config_.trace, obs::TraceCategory::kDriver,
                      "serve.submit");
  if (config_.metrics != nullptr) {
    config_.metrics->GetCounter("serve.jobs.submitted").Increment();
  }
  if (shutting_down_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("server is shutting down");
  }
  // Re-validate through the canonical JSON path so a locally constructed
  // spec obeys the same contract as one off the wire.
  TUPELO_ASSIGN_OR_RETURN(spec, SpecFromJson(SpecToJson(spec)));

  std::unique_lock<std::mutex> lock(mu_);
  SubmitOutcome outcome;
  if (queue_.size() >= config_.queue_limit) {
    // Load shedding: the queue is the admission bound. The Retry-After
    // hint models the backlog draining at the recent per-job wall-time
    // EWMA across the worker fleet.
    double per_job = job_millis_ewma_ > 0.0 ? job_millis_ewma_ : 50.0;
    double waves =
        static_cast<double>(queue_.size()) /
            static_cast<double>(std::max<size_t>(1, config_.workers)) +
        1.0;
    outcome.accepted = false;
    outcome.queue_depth = queue_.size();
    outcome.retry_after_millis =
        std::max<int64_t>(1, static_cast<int64_t>(per_job * waves));
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("serve.jobs.shed").Increment();
    }
    return outcome;
  }

  char idbuf[24];
  std::snprintf(idbuf, sizeof(idbuf), "j%06llu",
                static_cast<unsigned long long>(next_seq_++));
  auto job = std::make_unique<Job>();
  job->spec = std::move(spec);
  job->status.id = idbuf;
  job->status.tenant = job->spec.tenant;
  job->status.state = JobState::kQueued;
  job->submitted_at = Clock::now();
  job->token = std::make_unique<CancelToken>(&root_token_);

  // Durability pivot: the spec is journaled *before* Submit acknowledges.
  // An accepted job either reaches a terminal record or survives a crash
  // as a re-runnable journal entry — never accepted-then-dropped.
  TUPELO_RETURN_IF_ERROR(JournalSpec(*job));

  outcome.accepted = true;
  outcome.job_id = job->status.id;
  queue_.push_back(job->status.id);
  outcome.queue_depth = queue_.size();
  jobs_[job->status.id] = std::move(job);
  if (config_.metrics != nullptr) {
    config_.metrics->GetCounter("serve.jobs.accepted").Increment();
    config_.metrics->GetGauge("serve.queue_depth")
        .Set(static_cast<int64_t>(queue_.size()));
  }
  queue_cv_.notify_one();
  return outcome;
}

Result<JobStatus> JobManager::GetStatus(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::NotFound("unknown job: " + id);
  return it->second->status;
}

bool JobManager::Cancel(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (job.status.state == JobState::kDone) return false;
  job.client_cancelled = true;
  job.token->Cancel();
  // A queued job never reaches a worker poll, so finish it here.
  if (job.status.state == JobState::kQueued) {
    auto q = std::find(queue_.begin(), queue_.end(), id);
    if (q != queue_.end()) queue_.erase(q);
    job.status.state = JobState::kDone;
    job.status.stop_reason = "cancelled";
    job.status.queue_millis = MillisSince(job.submitted_at);
    job.status.total_millis = job.status.queue_millis;
    BumpVersion(job);
    JournalDone(job);
    done_order_.push_back(id);
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("serve.jobs.cancelled").Increment();
      config_.metrics->GetGauge("serve.queue_depth")
          .Set(static_cast<int64_t>(queue_.size()));
    }
  } else if (config_.metrics != nullptr) {
    config_.metrics->GetCounter("serve.jobs.cancelled").Increment();
  }
  return true;
}

Result<JobStatus> JobManager::WaitUpdate(const std::string& id,
                                         uint64_t after_version,
                                         int64_t timeout_millis) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::NotFound("unknown job: " + id);
  const Job* job = it->second.get();
  auto changed = [&] {
    return job->status.version > after_version ||
           job->status.state == JobState::kDone ||
           shutting_down_.load(std::memory_order_relaxed);
  };
  if (timeout_millis > 0) {
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_millis), changed);
  }
  return job->status;
}

Result<JobStatus> JobManager::WaitTerminal(const std::string& id,
                                           int64_t timeout_millis) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::NotFound("unknown job: " + id);
  const Job* job = it->second.get();
  auto done = [&] {
    return job->status.state == JobState::kDone ||
           shutting_down_.load(std::memory_order_relaxed);
  };
  if (timeout_millis > 0) {
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_millis), done);
  }
  return job->status;
}

void JobManager::OnClientDisconnect(const std::vector<std::string>& job_ids) {
  for (const std::string& id : job_ids) {
    bool want_cancel = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(id);
      want_cancel = it != jobs_.end() && it->second->spec.cancel_on_disconnect;
    }
    // Racing a concurrent completion is benign: Cancel() is a no-op on
    // terminal jobs.
    if (want_cancel) {
      if (Cancel(id) && config_.metrics != nullptr) {
        config_.metrics->GetCounter("serve.jobs.disconnect_cancelled")
            .Increment();
      }
    }
  }
}

size_t JobManager::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t JobManager::active_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void JobManager::BumpVersion(Job& job) {
  ++job.status.version;
  cv_.notify_all();
}

void JobManager::PruneRetention() {
  if (config_.checkpoint_keep == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  while (done_order_.size() > config_.checkpoint_keep) {
    const std::string id = done_order_.front();
    done_order_.erase(done_order_.begin());
    for (const char* ext : {".job", ".tck", ".done"}) {
      std::remove(JournalPath(id, ext).c_str());
    }
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("serve.journal.pruned").Increment();
    }
  }
}

void JobManager::WorkerLoop(size_t worker_index) {
  (void)worker_index;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] {
        return !queue_.empty() ||
               shutting_down_.load(std::memory_order_relaxed);
      });
      if (shutting_down_.load(std::memory_order_relaxed)) return;
      const std::string id = queue_.front();
      queue_.pop_front();
      ++running_;
      auto it = jobs_.find(id);
      // Entries are never erased and unique_ptr targets are stable, so
      // the pointer stays valid outside the lock.
      if (it != jobs_.end()) job = it->second.get();
      if (config_.metrics != nullptr) {
        config_.metrics->GetGauge("serve.queue_depth")
            .Set(static_cast<int64_t>(queue_.size()));
        config_.metrics->GetGauge("serve.active")
            .Set(static_cast<int64_t>(running_));
      }
    }
    if (job != nullptr) RunJob(*job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      if (config_.metrics != nullptr) {
        config_.metrics->GetGauge("serve.active")
            .Set(static_cast<int64_t>(running_));
      }
    }
    PruneRetention();
  }
}

void JobManager::RunJob(Job& job) {
  obs::TraceSpan span(config_.trace, obs::TraceCategory::kDriver,
                      "serve.job");
  const double queue_millis = MillisSince(job.submitted_at);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job.status.state == JobState::kDone) return;  // cancelled in queue
    job.status.state = JobState::kRunning;
    job.status.queue_millis = queue_millis;
    BumpVersion(job);
  }

  // Fair-share slices: the client's ask, clamped to the per-job ration.
  int64_t deadline = job.spec.deadline_millis > 0
                         ? job.spec.deadline_millis
                         : config_.default_deadline_millis;
  deadline = std::min(deadline, config_.max_deadline_millis);
  // Deadline propagation: the budget is submit-to-finish, so time spent
  // queued is already gone when the rung ladder starts.
  int64_t remaining =
      deadline - static_cast<int64_t>(queue_millis);
  uint64_t states = job.spec.max_states > 0
                        ? std::min(job.spec.max_states,
                                   config_.fair_states_per_job)
                        : config_.fair_states_per_job;

  Result<TupeloResult> outcome = Status::Internal("job never ran");
  bool ran = false;
  int attempts = 0;
  double run_millis = 0.0;
  if (remaining > 0) {
    Result<Database> source = ParseTdb(job.spec.source_tdb);
    Result<Database> target = ParseTdb(job.spec.target_tdb);
    if (!source.ok() || !target.ok()) {
      outcome = !source.ok() ? source.status() : target.status();
    } else {
      Tupelo tupelo(std::move(*source), std::move(*target));
      TupeloOptions options;
      if (job.spec.algorithm.empty()) {
        options.ladder = DefaultLadder();
      } else {
        options.algorithm = *ParseSearchAlgorithm(job.spec.algorithm);
      }
      options.heuristic = *ParseHeuristicKind(job.spec.heuristic);
      options.beam_width = job.spec.beam_width;
      options.limits.max_states = states;
      options.limits.max_memory_nodes = config_.max_memory_nodes_per_job;
      options.limits.cancel = job.token.get();
      options.threads = config_.pool_threads;
      options.checkpoint_path = JournalPath(job.status.id, ".tck");
      options.checkpoint_interval_states = config_.checkpoint_interval_states;
      options.metrics = config_.metrics;
      options.trace = config_.trace;
      if (job.spec.supervise) {
        options.supervisor = config_.supervisor;
        options.supervisor.enabled = true;
      }
      options.on_progress = [this, &job](const DiscoverProgress& p) {
        std::lock_guard<std::mutex> lock(mu_);
        job.status.states_examined = p.states_examined;
        if (p.best_h >= 0 &&
            (job.status.best_h < 0 || p.best_h <= job.status.best_h)) {
          job.status.best_h = p.best_h;
          if (p.best_path != nullptr) {
            job.status.partial_script =
                MappingExpression(*p.best_path).ToScript();
          }
        }
        BumpVersion(job);
      };

      // Retry-with-backoff on transient outcomes: a stall preemption or
      // an internal fault re-runs the job from its last checkpoint, which
      // the previous attempt left on disk.
      Clock::time_point run_start = Clock::now();
      for (;;) {
        options.resume = job.recovered || attempts > 0;
        options.limits.deadline_millis =
            std::max<int64_t>(1, remaining - static_cast<int64_t>(
                                                 MillisSince(run_start)));
        outcome = tupelo.Discover(options);
        ran = true;
        bool transient =
            (outcome.ok() &&
             outcome->stop_reason == StopReason::kStalled) ||
            (!outcome.ok() &&
             outcome.status().code() == StatusCode::kInternal);
        bool budget_left =
            remaining - static_cast<int64_t>(MillisSince(run_start)) > 1;
        if (!transient || attempts >= config_.max_job_retries ||
            !budget_left || job.token->cancelled()) {
          break;
        }
        ++attempts;
        if (config_.metrics != nullptr) {
          config_.metrics->GetCounter("serve.jobs.retries").Increment();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(
            config_.retry_backoff_millis * (int64_t{1} << (attempts - 1))));
      }
      run_millis = MillisSince(run_start);
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  // Shutdown preemption is not completion: leave the journal entry
  // un-terminal so the next boot resumes the job from its checkpoint —
  // graceful drain and kill -9 share one recovery path. A client cancel
  // racing shutdown still terminates normally below.
  if (shutting_down_.load(std::memory_order_relaxed) &&
      !job.client_cancelled && ran && outcome.ok() &&
      outcome->stop_reason == StopReason::kCancelled) {
    job.status.state = JobState::kQueued;
    BumpVersion(job);
    return;
  }
  job.status.state = JobState::kDone;
  job.status.retries = attempts;
  job.status.run_millis = run_millis;
  job.status.total_millis = MillisSince(job.submitted_at);
  if (remaining <= 0) {
    // The deadline elapsed while the job sat in the queue: it is honest
    // to call that a deadline stop without burning a worker on a search
    // that has no budget left.
    job.status.stop_reason = "deadline";
  } else if (!outcome.ok()) {
    job.status.stop_reason = "error";
    job.status.partial_script = outcome.status().message();
  } else {
    const TupeloResult& r = *outcome;
    job.status.found = r.found;
    job.status.verified = r.verified;
    job.status.stop_reason = std::string(StopReasonName(r.stop_reason));
    job.status.states_examined = r.stats.states_examined;
    job.status.best_h = r.partial_h;
    job.status.resumed = r.resumed;
    if (r.found) job.status.script = r.mapping.ToScript();
    if (!r.partial_mapping.steps().empty() || r.partial_h >= 0) {
      job.status.partial_script = r.partial_mapping.ToScript();
    }
  }
  BumpVersion(job);
  JournalDone(job);
  done_order_.push_back(job.status.id);
  {
    // EWMA of job wall time feeds the shed Retry-After hint.
    double w = job.status.total_millis;
    job_millis_ewma_ =
        job_millis_ewma_ <= 0.0 ? w : 0.8 * job_millis_ewma_ + 0.2 * w;
  }
  if (config_.metrics != nullptr) {
    config_.metrics->GetCounter("serve.jobs.completed").Increment();
    config_.metrics
        ->GetHistogram("serve.job_millis")
        .Observe(static_cast<int64_t>(job.status.total_millis));
  }
  lock.unlock();
}

}  // namespace tupelo::serve
