// tupelo_serve — the discovery-as-a-service daemon.
//
// Usage:
//   tupelo_serve --journal-dir=DIR [--port=N] [--workers=N]
//                [--queue-limit=N] [--pool-threads=N] [--fair-states=N]
//                [--default-deadline-ms=N] [--max-deadline-ms=N]
//                [--checkpoint-interval=N] [--checkpoint-keep=N]
//                [--retries=N] [--trace=trace.json]
//
// A malformed or out-of-range number (--port above 65535, say, or
// --workers or --pool-threads above kMaxThreads, 256), an unknown flag,
// or --help prints the usage line and exits 2.
//
// Binds 127.0.0.1:<port> (0 = ephemeral) and prints "listening <port>" on
// stdout once ready — scripts scrape that line. Speaks the framed-JSON
// protocol documented in docs/SERVING.md. On boot it recovers the journal
// directory: stale `*.tmp` files are swept, finished jobs become servable
// terminal records, and unfinished jobs re-enter the queue with resume —
// so kill -9 mid-campaign loses no accepted work.
//
// SIGINT/SIGTERM trigger graceful shutdown: stop accepting, cancel the
// root CancelToken (running searches stop at their next budget poll,
// their last checkpoint already durable), join all threads, flush the
// trace, exit 0. A job preempted this way resumes on the next boot.

#include <csignal>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/text.h"
#include "core/tupelo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(stderr,
               "usage: tupelo_serve --journal-dir=DIR [--port=N] "
               "[--workers=N] [--queue-limit=N] [--pool-threads=N] "
               "[--fair-states=N] [--default-deadline-ms=N] "
               "[--max-deadline-ms=N] [--checkpoint-interval=N] "
               "[--checkpoint-keep=N] [--retries=N] [--trace=PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tupelo;

  serve::ServerConfig config;
  config.jobs.journal_dir = "serve_journal";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    // True when `arg` is `<flag><value>`, with `value` set.
    auto is = [&](std::string_view flag) {
      if (!arg.starts_with(flag)) return false;
      value = arg.substr(flag.size());
      return true;
    };
    // Parses a numeric flag's value, non-negative and within T's range.
    auto number = [&value](auto& out) {
      return ParseNumber(value, out, 0);
    };
    bool ok = true;
    if (is("--journal-dir=")) {
      config.jobs.journal_dir = value;
    } else if (is("--trace=")) {
      trace_path = value;
    } else if (is("--port=")) {
      ok = number(config.port);
    } else if (is("--workers=")) {
      ok = number(config.jobs.workers) && config.jobs.workers <= kMaxThreads;
    } else if (is("--queue-limit=")) {
      ok = number(config.jobs.queue_limit);
    } else if (is("--pool-threads=")) {
      ok = number(config.jobs.pool_threads) &&
           config.jobs.pool_threads <= kMaxThreads;
    } else if (is("--fair-states=")) {
      ok = number(config.jobs.fair_states_per_job);
    } else if (is("--default-deadline-ms=")) {
      ok = number(config.jobs.default_deadline_millis);
    } else if (is("--max-deadline-ms=")) {
      ok = number(config.jobs.max_deadline_millis);
    } else if (is("--checkpoint-interval=")) {
      ok = number(config.jobs.checkpoint_interval_states);
    } else if (is("--checkpoint-keep=")) {
      ok = number(config.jobs.checkpoint_keep);
    } else if (is("--retries=")) {
      ok = number(config.jobs.max_job_retries);
    } else {
      ok = false;  // --help and unknown flags
    }
    if (!ok) return Usage();
  }

  obs::MetricRegistry metrics;
  config.jobs.metrics = &metrics;
  std::unique_ptr<obs::TraceSession> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::TraceSession>();
    config.jobs.trace = trace.get();
  }

  serve::Server server(std::move(config));
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "tupelo_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("listening %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  while (g_stop == 0 && !server.stop_requested()) {
    struct timespec ts = {0, 20 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.Shutdown();

  if (trace != nullptr && !trace->WriteChromeJson(trace_path)) {
    std::fprintf(stderr, "tupelo_serve: cannot write trace to %s\n",
                 trace_path.c_str());
  }
  std::printf("shutdown clean (recovered=%llu)\n",
              static_cast<unsigned long long>(server.jobs().jobs_recovered()));
  return 0;
}
