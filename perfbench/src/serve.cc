// serve_open: tupelo_serve on loopback with a fresh journal directory,
// driven from this process over at most kClients connections. Each round
// is an open loop at a fixed arrival rate, every job timed from its
// scheduled send, followed by a closed-loop pass at saturation over a
// fixed job list. No kill, hard-job, disconnect or slow-client modes run here.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/tupelo.h"
#include "fira/parser.h"
#include "relational/io.h"
#include "serve/client.h"
#include "workloads.h"
#include "workloads/bamm.h"
#include "workloads/synthetic.h"

namespace tupelo::perfbench {
namespace {

constexpr size_t kClients = 4;
// 41-46% of the closed-loop capacity of the daemon's two default workers
// on this job mix with daemon and clients on one CPU (serve.jobs_per_s
// read 440-490 jobs/s on a 4-vCPU x86-64 VM). Fixed, not derived per run,
// so that a faster server shows as lower latency at the same load.
constexpr double kArrivalPerSec = 200.0;
// Rounds per run at most; each runs every job kind once in the open loop
// and once in a closed-loop pass.
constexpr size_t kRounds = 40;
// The open-loop rounds replay one fixed sequence of orders, the same in
// every run: a job's latency depends on which jobs arrive around it, and
// seeded orders made that a difference between seeds.
constexpr uint64_t kOpenLoopSeed = 0x0be11;
// Journals kept under the output directory, newest first: about 35 MB each
// on disk. Deleting one slows file creation on a disk mounted with online
// discard for many runs after (see perfbench/README.md), so the cap is set
// above the number of runs a regression check makes in one checkout.
constexpr size_t kKeepJournals = 24;
constexpr uint64_t kJobStates = 5000;       // each job's state budget ask
constexpr int64_t kDeadlineMillis = 2000;   // the server's default deadline
constexpr double kMaxGenLagMillis = 1000.0;  // beyond this a run is invalid
constexpr uint64_t kAwaitForever = uint64_t{1} << 40;

// The spawned daemon, journaling into a fresh directory. The destructor
// kills a daemon still running (any benchmark error path). Stopping it
// removes an empty journal; one that holds jobs stays for PruneJournals.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Kill(); }

  Status Start(const std::string& bin, const std::string& journal_dir) {
    journal_dir_ = journal_dir;
    std::error_code ec;
    if (!std::filesystem::create_directories(journal_dir_, ec)) {
      return Status::Internal("cannot create " + journal_dir_);
    }
    int fds[2];
    if (::pipe(fds) != 0) return Status::Internal("pipe() failed");
    const std::string journal_flag = "--journal-dir=" + journal_dir_;
    pid_ = ::fork();
    if (pid_ < 0) return Status::Internal("fork() failed");
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      // The daemon's own defaults: workers, queue limit, checkpoint
      // interval and allocator are those of `tupelo_serve` as it ships.
      ::execl(bin.c_str(), bin.c_str(), "--port=0", journal_flag.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    stdout_fd_ = fds[0];
    std::string banner;
    char c;
    while (banner.find('\n') == std::string::npos) {
      if (::read(stdout_fd_, &c, 1) <= 0) {
        return Status::Internal("tupelo_serve exited before its banner");
      }
      banner.push_back(c);
    }
    unsigned port = 0;
    if (std::sscanf(banner.c_str(), "listening %u", &port) != 1 ||
        port == 0) {
      return Status::Internal("bad tupelo_serve banner: " + banner);
    }
    port_ = static_cast<uint16_t>(port);
    return Status::OK();
  }

  uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  // Graceful stop through the protocol; escalates to SIGKILL after 5 s.
  void Shutdown() {
    if (pid_ <= 0) return;
    if (Result<serve::Client> c = serve::Client::Connect("127.0.0.1", port_);
        c.ok()) {
      (void)c->RequestShutdown();
    }
    for (int i = 0; i < 200; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    Kill();
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
    if (!journal_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove(journal_dir_, ec);  // only when empty
      journal_dir_.clear();
    }
  }

 private:
  int pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  std::string journal_dir_;
};

// Removes all but the newest `keep` journals under out_dir, then flushes
// the file system, so that the write-back of earlier runs' journals does
// not land inside this run's timing.
void PruneJournals(const std::string& out_dir, size_t keep) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::pair<fs::file_time_type, fs::path>> journals;
  for (const fs::directory_entry& e : fs::directory_iterator(out_dir, ec)) {
    if (e.is_directory(ec) &&
        e.path().filename().string().rfind("serve_journal_", 0) == 0) {
      journals.emplace_back(e.last_write_time(ec), e.path());
    }
  }
  std::sort(journals.begin(), journals.end());
  for (size_t i = 0; i + keep < journals.size(); ++i) {
    fs::remove_all(journals[i].second, ec);
  }
  if (int fd = ::open(out_dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

// One distinct job of the universe, in wire form plus the parsed pair for
// the local reference run and the replay check.
struct JobKind {
  std::string name;
  serve::JobSpec spec;
  const Database* source = nullptr;
  const Database* target = nullptr;
};

struct Universe {
  std::vector<BammWorkload> bamm;
  std::vector<SyntheticMatchingPair> synthetic;
  std::vector<JobKind> kinds;
};

std::unique_ptr<Universe> BuildUniverse() {
  auto u = std::make_unique<Universe>();
  for (BammDomain d : AllBammDomains()) {
    u->bamm.push_back(MakeBammWorkload(d, kBammPoolSeed));
  }
  const size_t first_n = 3;
  for (size_t n = first_n; n <= 6; ++n) {
    u->synthetic.push_back(MakeSyntheticMatchingPair(n));
  }
  size_t drawn = 0;
  auto add = [&](std::string name, const Database& s, const Database& t) {
    JobKind k;
    k.name = std::move(name);
    k.spec.source_tdb = WriteTdb(s);
    k.spec.target_tdb = WriteTdb(t);
    k.spec.max_states = kJobStates;  // default ladder, default deadline
    k.source = &s;
    k.target = &t;
    // The draw: every second kind, the same in every run.
    if (drawn++ % 2 == 0) u->kinds.push_back(std::move(k));
  };
  for (const BammWorkload& w : u->bamm) {
    for (size_t i = 0; i < w.targets.size(); ++i) {
      add("bamm/" + std::string(BammDomainName(w.domain)) + "/" +
              std::to_string(i),
          w.source, w.targets[i]);
    }
  }
  for (size_t i = 0; i < u->synthetic.size(); ++i) {
    add("syn/n=" + std::to_string(first_n + i), u->synthetic[i].source,
        u->synthetic[i].target);
  }
  return u;
}

// What one job came back as, client side.
struct JobRecord {
  size_t kind = 0;
  bool ok = false;
  std::string error;
  double latency_ms = 0;  // scheduled send → terminal result seen
  double scaled_ms = 0;   // latency_ms scaled by the round's gauge probe
  double submit_ms = 0;   // the Submit round trip (journals `.job` first)
  double lag_ms = 0;      // how late the send left
  uint64_t rpcs = 0;
  serve::JobStatus status;
};

// Submits one job and long-polls until it is terminal.
void RunJob(serve::Client& client, const JobKind& kind, size_t client_index,
            Clock::time_point scheduled, JobRecord& rec) {
  serve::JobSpec spec = kind.spec;
  spec.tenant = "client-" + std::to_string(client_index);
  rec.lag_ms = std::max(0.0, MillisSince(scheduled));
  Clock::time_point submit = Clock::now();
  Result<serve::SubmitReply> reply = client.Submit(spec);
  rec.submit_ms = MillisSince(submit);
  ++rec.rpcs;
  if (!reply.ok()) {
    rec.error = "submit: " + reply.status().ToString();
    return;
  }
  if (!reply->accepted) {
    rec.error = "shed";
    return;
  }
  for (int polls = 0; polls < 60; ++polls) {
    Result<serve::JobStatus> s =
        client.Stream(reply->job_id, kAwaitForever, 1000);
    ++rec.rpcs;
    if (!s.ok()) {
      rec.error = "stream: " + s.status().ToString();
      return;
    }
    if (s->state == serve::JobState::kDone) {
      rec.latency_ms = MillisSince(scheduled);
      rec.status = *s;
      rec.ok = true;
      return;
    }
  }
  rec.error = "dropped: no terminal result";
}

struct Setup {
  std::unique_ptr<Universe> universe;
  std::unique_ptr<Daemon> daemon;
};

}  // namespace

RunOutcome RunServeWorkload(const Args& args) {
  RunOutcome result;
  const std::string bin = args.bin_dir + "/tupelo_serve";
  const std::string journal_prefix =
      args.out_dir + "/serve_journal_" + std::to_string(::getpid()) + "_";
  int daemons = 0;
  PruneJournals(args.out_dir, kKeepJournals - 1);

  // Set-up: job generation, daemon start and journal recovery, ready for
  // the first request. Repeated; the earlier daemons are shut down after
  // the timing.
  // The daemons and every client thread share one CPU, the fastest at the
  // start: each inherits this thread's pin. Spread over the vCPUs, every
  // RPC hand-off wakes an idle vCPU, whose wake-up latency on a shared host
  // varied more from run to run than the server's own work.
  PinToFastestCpu();
  // Every time below is scaled by the gauge (see SpeedGauge), probed on
  // this thread and so on the CPU the daemon and clients share.
  SpeedGauge gauge;
  Setup setup;
  std::vector<std::unique_ptr<Daemon>> earlier;
  Status setup_status = Status::OK();
  std::vector<double> setup_times;
  TimeSetup(9, SetupClock::kWall, &gauge, &setup_times, [&] {
    if (setup.daemon != nullptr) earlier.push_back(std::move(setup.daemon));
    setup.universe = BuildUniverse();
    setup.daemon = std::make_unique<Daemon>();
    Status st = setup.daemon->Start(
        bin, journal_prefix + std::to_string(daemons++));
    if (st.ok()) {
      Result<serve::Client> c =
          serve::Client::Connect("127.0.0.1", setup.daemon->port());
      st = c.ok() ? c->Ping() : c.status();
    }
    if (!st.ok()) setup_status = st;
  });
  const double setup_s = Median(setup_times);
  for (std::unique_ptr<Daemon>& d : earlier) d->Shutdown();
  earlier.clear();
  if (!setup_status.ok()) {
    result.Fail("serve set-up: " + setup_status.ToString());
    return result;
  }
  const Universe& u = *setup.universe;
  Daemon& daemon = *setup.daemon;

  std::vector<serve::Client> clients;
  for (size_t c = 0; c < kClients; ++c) {
    Result<serve::Client> client =
        serve::Client::Connect("127.0.0.1", daemon.port());
    if (!client.ok()) {
      result.Fail("connect: " + client.status().ToString());
      return result;
    }
    clients.push_back(std::move(client).value());
  }

  // Every job kind runs once per open-loop round and once per closed-loop
  // pass, in seeded orders: runs with different seeds differ in order and
  // noise, not in the job mix.
  std::vector<size_t> closed_kinds(u.kinds.size());
  for (size_t i = 0; i < closed_kinds.size(); ++i) closed_kinds[i] = i;
  SeededShuffle(closed_kinds, Mix(args.seed ^ 0xc105ed));
  const size_t closed_jobs = closed_kinds.size();
  std::vector<JobRecord> closed;
  // One closed-loop pass: kClients connections pulling from the job list
  // until it is drained. Returns the pass wall time.
  auto closed_pass = [&] {
    gauge.Probe();
    std::vector<JobRecord> pass(closed_jobs);
    std::atomic<size_t> next{0};
    Clock::time_point pass_start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = next++; i < closed_jobs; i = next++) {
          pass[i].kind = closed_kinds[i];
          RunJob(clients[c], u.kinds[closed_kinds[i]], c, Clock::now(),
                 pass[i]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    closed.insert(closed.end(), pass.begin(), pass.end());
    return gauge.Scale(MillisSince(pass_start)) / 1e3;
  };
  // One untimed pass warms the daemon up; its jobs are checked too.
  const Clock::time_point run_start = Clock::now();
  closed_pass();

  // Rounds alternate the two phases, so that each samples the whole run
  // rather than one stretch of it. Phase one, open loop: the round's job i
  // is scheduled at the round's start + i / rate on connection
  // i % kClients; a busy connection sends late and the lag is recorded,
  // but latency still counts from the scheduled time. Phase two, closed
  // loop at saturation: one pass.
  std::vector<JobRecord> open;
  std::vector<double> pass_wall_s;
  double last_round_s = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    if (round >= 3 && SecondsSince(run_start) + last_round_s > args.seconds) {
      break;
    }
    const Clock::time_point round_start = Clock::now();
    gauge.Probe();
    std::vector<size_t> kinds = closed_kinds;
    SeededShuffle(kinds, Mix(kOpenLoopSeed ^ round));
    std::vector<JobRecord> batch(kinds.size());
    const Clock::time_point open_start =
        round_start + std::chrono::milliseconds(20);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < batch.size(); i += kClients) {
          Clock::time_point at =
              open_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) / kArrivalPerSec));
          std::this_thread::sleep_until(at);
          batch[i].kind = kinds[i];
          RunJob(clients[c], u.kinds[kinds[i]], c, at, batch[i]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (JobRecord& r : batch) r.scaled_ms = gauge.Scale(r.latency_ms);
    open.insert(open.end(), batch.begin(), batch.end());
    pass_wall_s.push_back(closed_pass());
    last_round_s = SecondsSince(round_start);
  }

  // Server-side counters and the daemon's peak memory, before shutdown.
  obs::JsonValue server_metrics;
  if (Result<obs::JsonValue> m = clients[0].Metrics(); m.ok()) {
    if (const obs::JsonValue* reg = m->Find("metrics")) server_metrics = *reg;
  }
  const double daemon_rss_mb = ProcessPeakRssMb(daemon.pid());
  clients.clear();
  daemon.Shutdown();

  // Checks, untimed: every job accepted, terminal, within the deadline,
  // and equal to a local run of the same Discover call; every found
  // mapping replays to a state containing the target.
  std::map<size_t, TupeloResult> local;
  // Open-loop jobs only, except rpcs: the same jobs task_ms times.
  std::vector<double> latency, submit, queue, run, rpcs;
  // task_ms: each job kind's median open-loop latency over the rounds. The
  // raw tail stays in serve.job_ms.p99.
  OpTimes kind_latency(u.kinds.size());
  double max_lag = 0;
  auto check = [&](const JobRecord& r, bool open_loop) {
    ++result.attempted;
    const JobKind& kind = u.kinds[r.kind];
    if (!r.ok) {
      result.Fail(kind.name + ": " + r.error);
      return;
    }
    rpcs.push_back(static_cast<double>(r.rpcs));
    if (open_loop) {
      submit.push_back(r.submit_ms);
      queue.push_back(r.status.queue_millis);
      run.push_back(r.status.run_millis);
      latency.push_back(r.latency_ms);
      kind_latency.Add(r.kind, r.scaled_ms);
      max_lag = std::max(max_lag, r.lag_ms);
    }
    if (r.status.total_millis > static_cast<double>(kDeadlineMillis)) {
      result.Fail(kind.name + ": job took over the deadline");
      return;
    }
    auto it = local.find(r.kind);
    if (it == local.end()) {
      TupeloOptions options;
      options.ladder = DefaultLadder();
      options.limits.max_states = kJobStates;
      Result<TupeloResult> ref =
          DiscoverMapping(*kind.source, *kind.target, options);
      if (!ref.ok()) {
        result.Fail(kind.name + ": local reference run failed");
        return;
      }
      it = local.emplace(r.kind, std::move(ref).value()).first;
    }
    const TupeloResult& ref = it->second;
    if (r.status.found != ref.found ||
        r.status.states_examined != ref.stats.states_examined ||
        r.status.stop_reason != StopReasonName(ref.stop_reason)) {
      result.Fail(kind.name + ": served outcome differs from a local run");
      return;
    }
    if (r.status.found) {
      Result<MappingExpression> m = ParseExpression(r.status.script);
      Result<Database> out =
          m.ok() ? m->Apply(*kind.source) : Result<Database>(m.status());
      if (!r.status.verified || !out.ok() || !out->Contains(*kind.target)) {
        result.Fail(kind.name + ": served mapping does not replay");
      }
    }
  };
  for (const JobRecord& r : open) check(r, true);
  for (const JobRecord& r : closed) check(r, false);
  if (max_lag > kMaxGenLagMillis) {
    result.Fail("open-loop generator ran " + std::to_string(max_lag) +
                " ms late; the run is invalid");
  }

  std::fprintf(stderr,
               "perfbench: serve_open seed=%llu open_jobs=%zu at %.0f/s "
               "closed passes=%zu x %zu jobs failed_frac=%.4f "
               "reference_ms=%.4f\n",
               static_cast<unsigned long long>(args.seed), open.size(),
               kArrivalPerSec, pass_wall_s.size(), closed_jobs,
               result.attempted > 0
                   ? static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted)
                   : 0.0,
               gauge.MedianMs());
  // The median pass: queueing makes closed-loop passes of the same jobs
  // differ by a third within a run, and their fastest varied twice as much
  // from run to run as their median.
  const double wall_s = Median(pass_wall_s);
  if (!args.trace) {
    result.Add("wall_s", wall_s, "s");
    const std::vector<double> per_kind = kind_latency.MedianMs();
    result.Add("task_ms.p50", Percentile(per_kind, 0.50), "ms");
    result.Add("task_ms.p90", Percentile(per_kind, 0.90), "ms");
    result.Add("peak_rss_mb", daemon_rss_mb, "MB");
    result.Add("setup_s", setup_s, "s");
    return result;
  }
  auto counter = [&](const char* name) {
    const obs::JsonValue* counters = server_metrics.Find("counters");
    const obs::JsonValue* v =
        counters != nullptr ? counters->Find(name) : nullptr;
    return v != nullptr ? static_cast<double>(v->as_uint()) : 0.0;
  };
  const double completed = counter("serve.jobs.completed");
  result.Add("serve.job_ms.p99", Percentile(latency, 0.99), "");
  result.Add("serve.jobs_per_s",
             static_cast<double>(closed_jobs) / wall_s, "");
  result.Add("serve.submit_ack_ms.p50", Percentile(submit, 0.50), "");
  result.Add("serve.queue_ms.p50", Percentile(queue, 0.50), "");
  result.Add("serve.queue_ms.p99", Percentile(queue, 0.99), "");
  result.Add("serve.run_ms.p50", Percentile(run, 0.50), "");
  double rpc_total = 0;
  for (double r : rpcs) rpc_total += r;
  result.Add("serve.rpcs_per_job",
             rpcs.empty() ? 0 : rpc_total / static_cast<double>(rpcs.size()),
             "");
  result.Add("serve.gen_lag_ms.max", max_lag, "");
  result.Add("core.checkpoint_writes_per_job",
             completed > 0 ? counter("checkpoint.writes") / completed : 0, "");
  result.Add("core.checkpoint_kb_per_job",
             completed > 0 ? counter("checkpoint.bytes") / 1024.0 / completed
                           : 0,
             "");
  return result;
}

}  // namespace tupelo::perfbench
