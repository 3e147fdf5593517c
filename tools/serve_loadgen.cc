// serve_loadgen — concurrent-client load generator for tupelo_serve.
//
// Usage:
//   serve_loadgen [--server=HOST:PORT] [--serve-bin=PATH]
//                 [--clients=N] [--jobs=M] [--arrival-per-sec=R]
//                 [--deadline-ms=D] [--disconnect-pct=P] [--slow-pct=P]
//                 [--hard-pct=P]
//                 [--kill-after-ms=T] [--restarts=K]
//                 [--workers=N] [--queue-limit=N] [--pool-threads=N]
//                 [--checkpoint-keep=N] [--journal-dir=DIR]
//                 [--seed=S] [--quick] [--json=BENCH_serve.json]
//
// Without --server it spawns its own tupelo_serve (sibling binary, or
// --serve-bin=) on an ephemeral port and tears it down at the end — and
// with --kill-after-ms it SIGKILLs the daemon mid-run every T ms,
// restarts it on the same journal directory (--restarts times), and keeps
// the clients submitting/streaming across the crashes. That is the
// crash-durability proof: every accepted job must still reach a terminal
// state after the restarts, or the run exits non-zero with a violation.
//
// Fault modes: --disconnect-pct makes that share of jobs submit with
// cancel_on_disconnect and drop the connection right after the accept
// (exercising disconnect-driven cancellation); --slow-pct makes that
// share of clients sleep between stream polls (a slow consumer must
// never stall the server or other tenants).
//
// The --json report is schema_version 11, harness "serve": a "jobs"
// panel with one run per submitted job (accepted or shed) and a
// "summary" panel with throughput, p50/p99 latency of accepted jobs,
// shed rate, jobs/sec, resume counts and the violation count.
// scripts/check_bench_json.py validates it.

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "relational/io.h"
#include "serve/client.h"
#include "workloads/synthetic.h"

namespace {

using namespace tupelo;
using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Counter-keyed deterministic rng (same idiom as tools/fault_campaign.cc):
// trial decisions depend only on (seed, counter), never on interleaving.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One spawned tupelo_serve process. The stdout pipe stays open so the
// "listening <port>" banner can be scraped; the daemon writes nothing
// else until shutdown.
struct ServerProcess {
  pid_t pid = -1;
  int stdout_fd = -1;
  uint16_t port = 0;
};

Result<ServerProcess> SpawnServer(const std::string& bin,
                                  const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::Internal("pipe() failed");
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return Status::Internal("fork() failed");
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(bin.c_str(), argv.data());
    std::perror("execv tupelo_serve");
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  // Scrape "listening <port>\n".
  std::string banner;
  char c;
  while (banner.find('\n') == std::string::npos) {
    ssize_t n = ::read(pipe_fds[0], &c, 1);
    if (n <= 0) {
      ::close(pipe_fds[0]);
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return Status::Internal("server exited before printing its port");
    }
    banner.push_back(c);
  }
  unsigned port = 0;
  if (std::sscanf(banner.c_str(), "listening %u", &port) != 1 || port == 0) {
    ::close(pipe_fds[0]);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return Status::Internal("unparseable server banner: " + banner);
  }
  ServerProcess p;
  p.pid = pid;
  p.stdout_fd = pipe_fds[0];
  p.port = static_cast<uint16_t>(port);
  return p;
}

// Where the clients currently find the server. The kill/restart
// supervisor bumps `generation` on every respawn; clients re-resolve on
// any connection failure.
struct Endpoint {
  std::mutex mu;
  uint16_t port = 0;
  uint64_t generation = 0;
};

struct JobOutcome {
  int index = 0;
  bool accepted = false;
  bool shed_final = false;       // still shed after retrying the hint
  int sheds = 0;                 // shed responses seen before acceptance
  int64_t retry_after_millis = 0;  // last hint received
  size_t queue_depth = 0;        // depth reported at the final submit
  bool disconnect_mode = false;
  int64_t deadline_millis = 0;
  serve::JobStatus final_status;  // valid when accepted && terminal
  bool terminal = false;
  double client_latency_millis = 0.0;  // submit → terminal, client clock
  bool violation = false;  // accepted but never reached terminal
};

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  size_t clients = 4;
  size_t jobs = 24;
  double arrival_per_sec = 0.0;  // 0 = no pacing
  int64_t deadline_ms = 1500;
  int disconnect_pct = 0;
  int slow_pct = 0;
  // Share of jobs made unsatisfiable (target values perturbed so no
  // mapping exists): those searches run their whole deadline, which is
  // what makes kill -9 land mid-job and gives recovery real work.
  int hard_pct = 0;
  int64_t await_ms = 30000;  // per-job terminal wait ceiling
  uint64_t seed = 2006;
};

Result<serve::Client> ConnectCurrent(const LoadgenConfig& config,
                                     Endpoint& endpoint) {
  uint16_t port;
  {
    std::lock_guard<std::mutex> lock(endpoint.mu);
    port = endpoint.port;
  }
  return serve::Client::Connect(config.host, port);
}

// Connects, retrying through server downtime (kill/restart windows),
// until `deadline` lapses.
Result<serve::Client> ConnectPatient(const LoadgenConfig& config,
                                     Endpoint& endpoint,
                                     Clock::time_point deadline) {
  for (;;) {
    Result<serve::Client> client = ConnectCurrent(config, endpoint);
    if (client.ok()) return client;
    if (Clock::now() >= deadline) return client;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

void RunClient(const LoadgenConfig& config, Endpoint& endpoint,
               size_t client_index, Clock::time_point start,
               std::vector<JobOutcome>& outcomes,
               std::atomic<size_t>& max_queue_depth) {
  const bool slow =
      config.slow_pct > 0 &&
      Mix64(config.seed ^ (0x510c << 16) ^ client_index) % 100 <
          static_cast<uint64_t>(config.slow_pct);
  for (size_t i = client_index; i < config.jobs; i += config.clients) {
    JobOutcome& out = outcomes[i];
    out.index = static_cast<int>(i);
    out.deadline_millis = config.deadline_ms;
    out.disconnect_mode =
        config.disconnect_pct > 0 &&
        Mix64(config.seed ^ (0xd15c << 16) ^ i) % 100 <
            static_cast<uint64_t>(config.disconnect_pct);

    // Open-loop arrival pacing: job i targets start + i/rate, regardless
    // of how the previous jobs fared — overload stays overload.
    if (config.arrival_per_sec > 0.0) {
      double target_ms =
          static_cast<double>(i) * 1000.0 / config.arrival_per_sec;
      double now_ms = MillisSince(start);
      if (now_ms < target_ms) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            target_ms - now_ms));
      }
    }

    // The workload: a synthetic matching pair whose size is derived from
    // (seed, i) — deterministic across runs and across a server restart.
    size_t n = 2 + Mix64(config.seed ^ i) % 3;
    SyntheticMatchingPair pair = MakeSyntheticMatchingPair(n);
    serve::JobSpec spec;
    spec.tenant = "client-" + std::to_string(client_index);
    spec.source_tdb = WriteTdb(pair.source);
    spec.target_tdb = WriteTdb(pair.target);
    const bool hard =
        config.hard_pct > 0 &&
        Mix64(config.seed ^ (0xdeadu << 16) ^ i) % 100 <
            static_cast<uint64_t>(config.hard_pct);
    if (hard) {
      // Perturb the target values (a1 → z1, ...) so no mapping exists:
      // the search burns its entire deadline and checkpoints as it goes.
      std::string perturbed;
      perturbed.reserve(spec.target_tdb.size());
      for (size_t k = 0; k < spec.target_tdb.size(); ++k) {
        char c = spec.target_tdb[k];
        perturbed.push_back(c == 'a' && k + 1 < spec.target_tdb.size() &&
                                    std::isdigit(static_cast<unsigned char>(
                                        spec.target_tdb[k + 1]))
                                ? 'z'
                                : c);
      }
      spec.target_tdb = std::move(perturbed);
    }
    spec.deadline_millis = config.deadline_ms;
    spec.cancel_on_disconnect = out.disconnect_mode;

    const Clock::time_point submit_start = Clock::now();
    const Clock::time_point patience =
        submit_start + std::chrono::milliseconds(config.await_ms);

    // Submit, riding out sheds (sleep the hint, retry) and crashes
    // (reconnect to the restarted server).
    std::string job_id;
    for (;;) {
      Result<serve::Client> client =
          ConnectPatient(config, endpoint, patience);
      if (!client.ok()) break;
      Result<serve::SubmitReply> reply = client->Submit(spec);
      if (!reply.ok()) {
        // Mid-crash: the connection died or the server refused; retry
        // against the restarted process.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (Clock::now() >= patience) break;
        continue;
      }
      size_t depth = reply->queue_depth;
      size_t seen = max_queue_depth.load(std::memory_order_relaxed);
      while (depth > seen && !max_queue_depth.compare_exchange_weak(
                                 seen, depth, std::memory_order_relaxed)) {
      }
      if (reply->accepted) {
        out.accepted = true;
        out.queue_depth = depth;
        job_id = reply->job_id;
        if (out.disconnect_mode) {
          // Fault mode: vanish right after the accept. The server must
          // cancel the job (or let it finish — the race is benign).
          client->Close();
        }
        break;
      }
      ++out.sheds;
      out.retry_after_millis = reply->retry_after_millis;
      out.queue_depth = depth;
      if (out.sheds >= 3 || Clock::now() >= patience) {
        out.shed_final = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<int64_t>(reply->retry_after_millis, 500)));
    }
    if (!out.accepted || out.disconnect_mode) continue;

    // Stream updates until terminal, surviving restarts: the job id stays
    // valid across a crash because the journal recovery reloads it.
    uint64_t version = 0;
    while (Clock::now() < patience) {
      Result<serve::Client> client =
          ConnectPatient(config, endpoint, patience);
      if (!client.ok()) break;
      bool reconnect = false;
      while (Clock::now() < patience) {
        if (slow) {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
        }
        Result<serve::JobStatus> status =
            client->Stream(job_id, version, 250);
        if (!status.ok()) {
          reconnect = true;
          break;
        }
        version = status->version;
        if (status->state == serve::JobState::kDone) {
          out.final_status = *status;
          out.terminal = true;
          out.client_latency_millis = MillisSince(submit_start);
          break;
        }
      }
      if (out.terminal || !reconnect) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    // An accepted job that never reached a terminal state within the
    // (generous) patience window is the one unforgivable outcome:
    // accepted-then-dropped.
    out.violation = !out.terminal;
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv, 250000);

  LoadgenConfig config;
  config.seed = bench_args.seed;
  std::string server_flag;
  std::string serve_bin;
  std::string journal_dir = "serve_loadgen_journal";
  int64_t kill_after_ms = 0;
  int restarts = 1;
  std::vector<std::string> forward;  // flags forwarded to a spawned server
  forward.push_back("--port=0");
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto u64 = [&](const char* name) {
      return std::strtoull(argv[i] + std::strlen(name), nullptr, 10);
    };
    if (arg.rfind("--server=", 0) == 0) {
      server_flag = arg.substr(std::strlen("--server="));
    } else if (arg.rfind("--serve-bin=", 0) == 0) {
      serve_bin = arg.substr(std::strlen("--serve-bin="));
    } else if (arg.rfind("--journal-dir=", 0) == 0) {
      journal_dir = arg.substr(std::strlen("--journal-dir="));
    } else if (arg.rfind("--clients=", 0) == 0) {
      config.clients = static_cast<size_t>(u64("--clients="));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      config.jobs = static_cast<size_t>(u64("--jobs="));
    } else if (arg.rfind("--arrival-per-sec=", 0) == 0) {
      config.arrival_per_sec =
          std::strtod(argv[i] + std::strlen("--arrival-per-sec="), nullptr);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      config.deadline_ms = static_cast<int64_t>(u64("--deadline-ms="));
    } else if (arg.rfind("--disconnect-pct=", 0) == 0) {
      config.disconnect_pct = static_cast<int>(u64("--disconnect-pct="));
    } else if (arg.rfind("--slow-pct=", 0) == 0) {
      config.slow_pct = static_cast<int>(u64("--slow-pct="));
    } else if (arg.rfind("--hard-pct=", 0) == 0) {
      config.hard_pct = static_cast<int>(u64("--hard-pct="));
    } else if (arg.rfind("--await-ms=", 0) == 0) {
      config.await_ms = static_cast<int64_t>(u64("--await-ms="));
    } else if (arg.rfind("--kill-after-ms=", 0) == 0) {
      kill_after_ms = static_cast<int64_t>(u64("--kill-after-ms="));
    } else if (arg.rfind("--restarts=", 0) == 0) {
      restarts = static_cast<int>(u64("--restarts="));
    } else if (arg.rfind("--workers=", 0) == 0 ||
               arg.rfind("--queue-limit=", 0) == 0 ||
               arg.rfind("--pool-threads=", 0) == 0 ||
               arg.rfind("--checkpoint-keep=", 0) == 0 ||
               arg.rfind("--fair-states=", 0) == 0 ||
               arg.rfind("--max-deadline-ms=", 0) == 0 ||
               arg.rfind("--checkpoint-interval=", 0) == 0) {
      forward.push_back(std::string(arg));
    }
  }
  if (bench_args.quick) {
    config.jobs = std::min<size_t>(config.jobs, 12);
    config.await_ms = std::min<int64_t>(config.await_ms, 20000);
  }
  if (config.clients == 0) config.clients = 1;

  const bool spawn = server_flag.empty();
  Endpoint endpoint;
  ServerProcess proc;
  std::atomic<int> kills{0};
  if (spawn) {
    if (serve_bin.empty()) {
      std::string self = argv[0];
      size_t slash = self.find_last_of('/');
      serve_bin = (slash == std::string::npos ? std::string(".")
                                              : self.substr(0, slash)) +
                  "/tupelo_serve";
    }
    forward.push_back("--journal-dir=" + journal_dir);
    Result<ServerProcess> spawned = SpawnServer(serve_bin, forward);
    if (!spawned.ok()) {
      std::fprintf(stderr, "serve_loadgen: %s\n",
                   spawned.status().ToString().c_str());
      return 1;
    }
    proc = *spawned;
    endpoint.port = proc.port;
  } else {
    size_t colon = server_flag.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "serve_loadgen: --server wants HOST:PORT\n");
      return 2;
    }
    config.host = server_flag.substr(0, colon);
    endpoint.port = static_cast<uint16_t>(
        std::strtoul(server_flag.c_str() + colon + 1, nullptr, 10));
  }

  std::printf("serve_loadgen: %zu clients, %zu jobs, deadline %lldms, "
              "arrival %.1f/s, server %s:%u%s\n",
              config.clients, config.jobs,
              static_cast<long long>(config.deadline_ms),
              config.arrival_per_sec, config.host.c_str(),
              static_cast<unsigned>(endpoint.port),
              kill_after_ms > 0 ? " [kill/restart mode]" : "");

  std::vector<JobOutcome> outcomes(config.jobs);
  std::atomic<size_t> max_queue_depth{0};
  const Clock::time_point start = Clock::now();

  // The chaos supervisor: SIGKILL the daemon mid-run, restart it on the
  // same journal, repeat. Runs alongside the clients.
  std::atomic<bool> clients_done{false};
  std::thread killer;
  if (spawn && kill_after_ms > 0 && restarts > 0) {
    killer = std::thread([&] {
      for (int k = 0; k < restarts; ++k) {
        auto until = Clock::now() + std::chrono::milliseconds(kill_after_ms);
        while (Clock::now() < until) {
          if (clients_done.load(std::memory_order_relaxed)) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ::kill(proc.pid, SIGKILL);
        ::waitpid(proc.pid, nullptr, 0);
        ::close(proc.stdout_fd);
        kills.fetch_add(1, std::memory_order_relaxed);
        Result<ServerProcess> respawn = SpawnServer(serve_bin, forward);
        if (!respawn.ok()) {
          std::fprintf(stderr, "serve_loadgen: respawn failed: %s\n",
                       respawn.status().ToString().c_str());
          return;
        }
        proc = *respawn;
        {
          std::lock_guard<std::mutex> lock(endpoint.mu);
          endpoint.port = proc.port;
          ++endpoint.generation;
        }
        std::printf("serve_loadgen: kill #%d, restarted on port %u\n", k + 1,
                    static_cast<unsigned>(proc.port));
      }
    });
  }

  {
    std::vector<std::thread> clients;
    clients.reserve(config.clients);
    for (size_t c = 0; c < config.clients; ++c) {
      clients.emplace_back([&, c] {
        RunClient(config, endpoint, c, start, outcomes, max_queue_depth);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  clients_done.store(true, std::memory_order_relaxed);
  if (killer.joinable()) killer.join();
  const double wall_millis = MillisSince(start);

  // Final server-side metrics (and recovery counts) before teardown.
  obs::JsonValue server_metrics;
  uint64_t jobs_recovered = 0;
  {
    Result<serve::Client> client = ConnectPatient(
        config, endpoint, Clock::now() + std::chrono::seconds(5));
    if (client.ok()) {
      Result<obs::JsonValue> m = client->Metrics();
      if (m.ok()) {
        const obs::JsonValue* recovered = m->Find("jobs_recovered");
        if (recovered != nullptr && recovered->is_number()) {
          jobs_recovered = recovered->as_uint();
        }
        const obs::JsonValue* registry = m->Find("metrics");
        if (registry != nullptr) server_metrics = *registry;
      }
      if (spawn) client->RequestShutdown();
    }
  }
  if (spawn) {
    // Clean drain; escalate only if the daemon ignores the request.
    int status = 0;
    for (int i = 0; i < 200 && ::waitpid(proc.pid, &status, WNOHANG) == 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ::kill(proc.pid, SIGKILL);
    ::waitpid(proc.pid, nullptr, WNOHANG);
    ::close(proc.stdout_fd);
  }

  // ── Aggregate ──────────────────────────────────────────────────────
  size_t accepted = 0, shed = 0, completed = 0, resumed = 0, violations = 0;
  size_t disconnects = 0, cancelled = 0, deadline_ok = 0, sheds_seen = 0;
  std::vector<double> latencies;
  for (const JobOutcome& out : outcomes) {
    sheds_seen += out.sheds;
    if (out.shed_final) ++shed;
    if (!out.accepted) continue;
    ++accepted;
    if (out.disconnect_mode) {
      ++disconnects;
      continue;  // fire-and-forget: no terminal expectation client-side
    }
    if (out.violation) {
      ++violations;
      continue;
    }
    ++completed;
    if (out.final_status.resumed) ++resumed;
    if (out.final_status.stop_reason == "cancelled") ++cancelled;
    latencies.push_back(out.final_status.total_millis);
    if (out.final_status.total_millis <=
        static_cast<double>(out.deadline_millis) * 1.25 + 50.0) {
      ++deadline_ok;
    }
  }
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);
  const double jobs_per_sec =
      wall_millis > 0.0 ? static_cast<double>(completed) * 1000.0 / wall_millis
                        : 0.0;

  std::printf("serve_loadgen: accepted=%zu shed=%zu completed=%zu "
              "resumed=%zu kills=%d recovered=%llu p50=%.1fms p99=%.1fms "
              "max_queue=%zu violations=%zu\n",
              accepted, shed, completed, resumed,
              kills.load(), static_cast<unsigned long long>(jobs_recovered),
              p50, p99, max_queue_depth.load(), violations);

  // ── Report (schema 11, harness "serve") ────────────────────────────
  bench::BenchReport report("serve", bench_args);
  report.BeginPanel("jobs");
  for (const JobOutcome& out : outcomes) {
    bench::RunResult r;
    r.deadline_millis = out.deadline_millis;
    if (out.terminal) {
      const serve::JobStatus& s = out.final_status;
      r.found = s.found;
      r.stop_reason = s.stop_reason;
      r.cutoff = !s.found && s.stop_reason != "exhausted";
      r.verified = s.verified;
      r.states = s.states_examined;
      r.millis = s.total_millis;
      r.resumed = s.resumed;
    } else {
      r.stop_reason = "cancelled";  // shed, disconnected, or dropped
      r.cutoff = true;
    }
    obs::JsonValue run = bench::BenchReport::MakeRun(r);
    run["job_id"] = out.accepted && out.terminal ? out.final_status.id
                    : out.accepted              ? std::string("(untracked)")
                                                : std::string("(shed)");
    run["accepted"] = out.accepted;
    run["shed"] = out.shed_final;
    run["sheds_seen"] = static_cast<int64_t>(out.sheds);
    run["retry_after_millis"] = out.retry_after_millis;
    run["queue_depth"] = static_cast<uint64_t>(out.queue_depth);
    run["disconnect_mode"] = out.disconnect_mode;
    run["queue_millis"] =
        out.terminal ? out.final_status.queue_millis : 0.0;
    run["latency_millis"] = out.client_latency_millis;
    run["retries"] =
        static_cast<int64_t>(out.terminal ? out.final_status.retries : 0);
    run["violation"] = out.violation;
    report.AddRun(std::move(run));
  }
  report.BeginPanel("summary");
  {
    bench::RunResult r;
    r.millis = wall_millis;
    obs::JsonValue run = bench::BenchReport::MakeRun(r);
    run["jobs_submitted"] = static_cast<uint64_t>(config.jobs);
    run["jobs_accepted"] = static_cast<uint64_t>(accepted);
    run["jobs_shed"] = static_cast<uint64_t>(shed);
    // Total shed replies observed, including ones a later retry turned
    // into an acceptance — the typed-shed evidence even when every job
    // eventually got in.
    run["sheds_seen"] = static_cast<uint64_t>(sheds_seen);
    run["jobs_completed"] = static_cast<uint64_t>(completed);
    run["jobs_resumed"] = static_cast<uint64_t>(resumed);
    run["jobs_recovered"] = jobs_recovered;
    run["jobs_disconnected"] = static_cast<uint64_t>(disconnects);
    run["jobs_cancelled"] = static_cast<uint64_t>(cancelled);
    run["jobs_per_sec"] = jobs_per_sec;
    run["p50_millis"] = p50;
    run["p99_millis"] = p99;
    run["shed_rate"] = config.jobs > 0 ? static_cast<double>(shed) /
                                             static_cast<double>(config.jobs)
                                       : 0.0;
    run["deadline_ok"] = static_cast<uint64_t>(deadline_ok);
    run["max_queue_depth"] =
        static_cast<uint64_t>(max_queue_depth.load());
    run["arrival_per_sec"] = config.arrival_per_sec;
    run["clients"] = static_cast<uint64_t>(config.clients);
    run["deadline_ms"] = config.deadline_ms;
    run["kills"] = static_cast<int64_t>(kills.load());
    run["violations"] = static_cast<uint64_t>(violations);
    if (server_metrics.is_object()) run["metrics"] = server_metrics;
    report.AddRun(std::move(run));
  }
  if (!report.Write()) return 1;

  return violations == 0 ? 0 : 1;
}
