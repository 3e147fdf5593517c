#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "obs/trace.h"
#include "serve/wire.h"

namespace tupelo::serve {
namespace {

obs::JsonValue ErrorResponse(const Status& status) {
  obs::JsonValue v = obs::JsonValue::Object();
  v["ok"] = false;
  v["error"] = status.message();
  v["code"] = std::string(StatusCodeToString(status.code()));
  return v;
}

obs::JsonValue OkResponse() {
  obs::JsonValue v = obs::JsonValue::Object();
  v["ok"] = true;
  return v;
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {
  jobs_ = std::make_unique<JobManager>(config_.jobs);
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  TUPELO_RETURN_IF_ERROR(jobs_->Start());
  TUPELO_ASSIGN_OR_RETURN(listen_fd_,
                          ListenOn(config_.port, config_.backlog));
  TUPELO_ASSIGN_OR_RETURN(port_, BoundPort(listen_fd_));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Shutdown() {
  if (stopped_.exchange(true, std::memory_order_relaxed)) return;
  RequestStop();
  // Shutting the listener down kicks the accept loop's poll. The loop
  // reads listen_fd_ until it exits, so the descriptor is closed and reset
  // only after the join. Connection loops notice stop_requested_ at their
  // next read timeout.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (std::thread& t : connections_) {
      if (t.joinable()) t.join();
    }
    connections_.clear();
  }
  // Last: preempt running jobs so their final checkpoints are on disk
  // before the process exits.
  jobs_->Shutdown();
}

void Server::AcceptLoop() {
  while (!stop_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (stop_requested()) break;
    if (ready <= 0) continue;
    Result<int> fd = AcceptOn(listen_fd_);
    if (!fd.ok()) {
      if (stop_requested()) break;
      continue;
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.emplace_back([this, conn = *fd] { ServeConnection(conn); });
  }
}

void Server::ServeConnection(int fd) {
  obs::MetricRegistry* metrics = config_.jobs.metrics;
  if (metrics != nullptr) metrics->GetCounter("serve.connections").Increment();
  // Jobs this connection submitted with cancel_on_disconnect: if the
  // client vanishes, their CancelTokens fire (benign when the job already
  // finished).
  std::vector<std::string> session_jobs;
  for (;;) {
    // Bounded read: poll with a short timeout so a dead or idle client
    // cannot pin the thread past shutdown.
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (stop_requested()) break;
    if (ready < 0) break;
    if (ready == 0) continue;
    Result<obs::JsonValue> request = ReadFrame(fd);
    if (!request.ok()) {
      // NotFound is a clean client close; anything else is a torn frame —
      // either way the conversation is over.
      break;
    }
    obs::JsonValue response = Dispatch(*request, session_jobs);
    if (!WriteFrame(fd, response).ok()) break;
  }
  ::close(fd);
  jobs_->OnClientDisconnect(session_jobs);
  if (metrics != nullptr) metrics->GetCounter("serve.disconnects").Increment();
}

obs::JsonValue Server::Dispatch(const obs::JsonValue& request,
                                std::vector<std::string>& session_jobs) {
  obs::MetricRegistry* metrics = config_.jobs.metrics;
  obs::TraceSpan span(config_.jobs.trace, obs::TraceCategory::kDriver,
                      "serve.request");
  const obs::JsonValue* op_field =
      request.is_object() ? request.Find("op") : nullptr;
  const std::string op =
      op_field != nullptr && op_field->kind() == obs::JsonValue::Kind::kString
          ? op_field->as_string()
          : "";
  if (metrics != nullptr) {
    metrics->GetCounter("serve.requests").Increment();
  }
  auto job_id = [&]() -> std::string {
    const obs::JsonValue* j = request.Find("job");
    return j != nullptr && j->kind() == obs::JsonValue::Kind::kString
               ? j->as_string()
               : "";
  };

  if (op == "ping") {
    obs::JsonValue v = OkResponse();
    v["server"] = "tupelo_serve";
    return v;
  }
  if (op == "submit") {
    const obs::JsonValue* spec_json = request.Find("spec");
    if (spec_json == nullptr) {
      return ErrorResponse(Status::InvalidArgument("submit: missing spec"));
    }
    Result<JobSpec> spec = SpecFromJson(*spec_json);
    if (!spec.ok()) return ErrorResponse(spec.status());
    const bool disconnect_cancel = spec->cancel_on_disconnect;
    Result<SubmitOutcome> outcome = jobs_->Submit(std::move(*spec));
    if (!outcome.ok()) return ErrorResponse(outcome.status());
    obs::JsonValue v = obs::JsonValue::Object();
    v["ok"] = true;
    v["accepted"] = outcome->accepted;
    v["queue_depth"] = static_cast<uint64_t>(outcome->queue_depth);
    if (outcome->accepted) {
      v["job"] = outcome->job_id;
      if (disconnect_cancel) session_jobs.push_back(outcome->job_id);
    } else {
      // The typed shed: overloaded, try again after the hint. The client
      // was never admitted, so nothing was accepted-then-dropped.
      v["error"] = "overloaded";
      v["code"] = std::string(StatusCodeToString(StatusCode::kResourceExhausted));
      v["retry_after_millis"] = outcome->retry_after_millis;
    }
    return v;
  }
  if (op == "status" || op == "result") {
    Result<JobStatus> status = jobs_->GetStatus(job_id());
    if (!status.ok()) return ErrorResponse(status.status());
    obs::JsonValue v = OkResponse();
    v["job"] = StatusToJson(*status);
    return v;
  }
  if (op == "stream") {
    const obs::JsonValue* after = request.Find("after_version");
    const obs::JsonValue* timeout = request.Find("timeout_millis");
    Result<JobStatus> status = jobs_->WaitUpdate(
        job_id(),
        after != nullptr && after->is_number() ? after->as_uint() : 0,
        timeout != nullptr && timeout->is_number() ? timeout->as_int() : 1000);
    if (!status.ok()) return ErrorResponse(status.status());
    obs::JsonValue v = OkResponse();
    v["job"] = StatusToJson(*status);
    return v;
  }
  if (op == "cancel") {
    obs::JsonValue v = OkResponse();
    v["cancelled"] = jobs_->Cancel(job_id());
    return v;
  }
  if (op == "metrics") {
    obs::JsonValue v = OkResponse();
    v["queue_depth"] = static_cast<uint64_t>(jobs_->queue_depth());
    v["active_jobs"] = static_cast<uint64_t>(jobs_->active_jobs());
    v["jobs_recovered"] = jobs_->jobs_recovered();
    if (metrics != nullptr) v["metrics"] = metrics->ToJson();
    return v;
  }
  if (op == "shutdown") {
    // Trusted-tenant remote stop (the loadgen and the chaos campaign use
    // it for clean teardown). The response is written before the accept
    // loop notices the flag, so the client gets an ack.
    RequestStop();
    return OkResponse();
  }
  return ErrorResponse(
      Status::InvalidArgument("unknown op: '" + op + "'"));
}

}  // namespace tupelo::serve
