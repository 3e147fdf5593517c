#ifndef TUPELO_SERVE_SERVER_H_
#define TUPELO_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "serve/job_manager.h"

namespace tupelo::serve {

struct ServerConfig {
  // 0 binds an ephemeral loopback port; read it back with Server::port()
  // (the daemon prints "listening <port>" for scripts to scrape).
  uint16_t port = 0;
  int backlog = 64;
  JobManagerConfig jobs;
};

// The discovery service: a framed-JSON request/response loop (serve/wire.h)
// over a JobManager. Thread-per-connection — tenant counts are tens, not
// thousands, and a blocked connection must never stall a sibling.
//
// Request ops (full catalog in docs/SERVING.md):
//   submit | status | stream | cancel | result | metrics | ping | shutdown
//
// Every response carries "ok"; failures add "error" plus a typed "code",
// and a shed submit adds "retry_after_millis" — the load-shedding hint.
class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Recovers the job journal, binds the listen socket, starts the accept
  // loop. On success port() is the bound port.
  Status Start();

  // Graceful stop: closes the listener, wakes the connection threads,
  // preempts running jobs (JobManager::Shutdown), joins everything.
  // Checkpoints flushed by the preempted jobs make the next Start()
  // resume them — the SIGTERM path and kill -9 converge. Safe to call
  // twice; RequestStop() is the async trigger signal handlers use.
  void Shutdown();
  void RequestStop() { stop_requested_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_relaxed);
  }

  uint16_t port() const { return port_; }
  JobManager& jobs() { return *jobs_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  obs::JsonValue Dispatch(const obs::JsonValue& request,
                          std::vector<std::string>& session_jobs);

  ServerConfig config_;
  std::unique_ptr<JobManager> jobs_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopped_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> connections_;
};

}  // namespace tupelo::serve

#endif  // TUPELO_SERVE_SERVER_H_
