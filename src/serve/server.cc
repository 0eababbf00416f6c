#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/api.h"
#include "base/fileio.h"
#include "base/net.h"
#include "base/strings.h"
#include "base/thread_pool.h"
#include "cli/cli.h"
#include "serve/protocol.h"
#include "supervise/jsonl.h"
#include "supervise/ledger.h"

namespace tgdkit {

namespace {

using Clock = std::chrono::steady_clock;

/// Poll granularity: the watchdog's resolution for deadlines and drain
/// phases. Small enough that tests with ~50ms deadlines are stable.
constexpr int kPollIntervalMs = 20;

bool IsServable(const std::string& command) {
  static constexpr const char* kCommands[] = {
      "classify", "lint",    "chase",   "check", "certain", "normalize",
      "dot",      "explain", "compose", "solve", "batch",   "selftest",
  };
  for (const char* candidate : kCommands) {
    if (command == candidate) return true;
  }
  return false;
}

void HashString(size_t* seed, std::string_view text) {
  HashCombine(seed, std::hash<std::string_view>{}(text));
  HashCombine(seed, text.size());
}

/// Content hash of the parts of a request that determine its response:
/// the ledger's `request_key`.
uint64_t ServeRequestKey(const ServeRequest& request) {
  size_t seed = 0xA11CE5ED;
  HashString(&seed, request.command);
  for (const std::string& arg : request.args) HashString(&seed, arg);
  for (size_t i = 0; i < request.file_names.size(); ++i) {
    HashString(&seed, request.file_names[i]);
    HashString(&seed, request.file_contents[i]);
  }
  return seed;
}

/// Content hash of a request's inline files only: the quarantine key.
/// Requests with no inline files hash their command + args instead, so
/// hostile filesystem-path requests still accumulate strikes.
uint64_t ServeRulesetKey(const ServeRequest& request) {
  size_t seed = 0x0BADC0DE;
  if (request.file_contents.empty()) {
    HashString(&seed, request.command);
    for (const std::string& arg : request.args) HashString(&seed, arg);
    return seed;
  }
  for (const std::string& content : request.file_contents) {
    HashString(&seed, content);
  }
  return seed;
}

/// The watchdog's memory: repeated in-flight failures (internal errors,
/// hard deadline overruns) for the same ruleset hash trip a breaker, and
/// further requests for that hash are refused with a typed `quarantined`
/// response instead of burning another worker. A clean completion resets
/// a breaker that has not tripped yet. Internally locked.
class QuarantineRegistry {
 public:
  /// threshold == 0 disables quarantining entirely.
  explicit QuarantineRegistry(uint32_t threshold) : threshold_(threshold) {}

  /// Records one in-flight failure for the ruleset; returns true when
  /// this strike tripped (or the hash already was at) the breaker.
  bool Strike(uint64_t ruleset_key) {
    if (threshold_ == 0) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    uint32_t& strikes = strikes_[ruleset_key];
    if (strikes < threshold_) ++strikes;
    return strikes >= threshold_;
  }

  /// A request for this ruleset completed cleanly: reset the breaker.
  void OnSuccess(uint64_t ruleset_key) {
    if (threshold_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = strikes_.find(ruleset_key);
    // The breaker, once tripped, stays tripped: a request admitted
    // before it tripped may still finish cleanly, and that must not
    // re-arm a ruleset that kept wrecking workers.
    if (it != strikes_.end() && it->second < threshold_) strikes_.erase(it);
  }

  bool IsQuarantined(uint64_t ruleset_key) const {
    if (threshold_ == 0) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = strikes_.find(ruleset_key);
    return it != strikes_.end() && it->second >= threshold_;
  }

 private:
  uint32_t threshold_;
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, uint32_t> strikes_;
};

struct Completion {
  uint64_t seq = 0;
  ServeResponse response;
};

/// Shared between the poll loop and worker tasks. Held by shared_ptr so
/// that a worker wedged in an abandoned request can still complete
/// safely after the server has given up on it (and, in the worst case,
/// after RunServer returned).
struct CompletionQueue {
  std::mutex mutex;
  std::vector<Completion> items;
  int wake_fd = -1;

  void Push(uint64_t seq, ServeResponse response) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      items.push_back({seq, std::move(response)});
    }
    char byte = 1;
    // A full pipe already guarantees a pending wake-up.
    (void)!write(wake_fd, &byte, 1);
  }

  ~CompletionQueue() {
    if (wake_fd >= 0) close(wake_fd);
  }
};

struct Connection {
  int fd = -1;
  uint64_t id = 0;
  std::string in;
  std::string out;
  /// Discarding input until the next newline (oversized frame recovery).
  bool resync = false;
  /// Peer sent EOF: no more requests, but responses still flow.
  bool read_closed = false;
  /// Connection is gone (hangup / write error): cancel its requests.
  bool dead = false;
};

struct Inflight {
  uint64_t seq = 0;
  std::string id;
  uint64_t conn_id = 0;
  std::string command;
  CancellationToken cancel;
  uint64_t deadline_commit_ms = 0;
  uint64_t memory_commit_mb = 0;
  Clock::time_point deadline;
  Clock::time_point abandon_at;
  bool cancelled = false;
  bool abandoned = false;
  uint64_t ruleset_key = 0;
};

class Server {
 public:
  Server(const ServeOptions& options, std::ostream& out, std::ostream& err)
      : options_(options),
        out_(out),
        err_(err),
        quarantine_(options.quarantine_after) {}

  Result<ServeSummary> Run();

 private:
  std::string Endpoint(uint16_t port) const {
    return options_.socket_path.empty()
               ? Cat("tcp:127.0.0.1:", port)
               : Cat("unix:", options_.socket_path);
  }

  void AppendLedgerLine(const std::string& record);
  void LedgerRequest(const ServeRequest& request, uint64_t conn_id,
                     uint64_t ruleset_key);
  void LedgerResponse(const ServeResponse& response);

  void Respond(Connection& conn, const ServeResponse& response);
  void RespondToConn(uint64_t conn_id, const ServeResponse& response);
  void FlushConn(Connection& conn);

  void PollOnce();
  void HandleConnRead(Connection& conn);
  void ProcessInput(Connection& conn);
  void HandleFrame(Connection& conn, std::string line);
  void Admit(Connection& conn, ServeRequest request, uint64_t deadline_ms,
             uint64_t memory_mb, uint64_t ruleset_key);
  void DrainCompletions();
  void Watchdog(Clock::time_point now);
  void AbandonRequest(Inflight& request);
  void BeginDrain(const char* reason, Clock::time_point now);
  void ReapConnections();
  bool ConnHasInflight(uint64_t conn_id) const;
  void FinalFlush();

  const ServeOptions& options_;
  std::ostream& out_;
  std::ostream& err_;
  QuarantineRegistry quarantine_;

  uint32_t max_inflight_ = 0;
  int listen_fd_ = -1;
  int wake_read_ = -1;
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<CompletionQueue> completions_;

  std::unordered_map<uint64_t, Connection> conns_;
  uint64_t conn_seq_ = 0;
  std::unordered_map<uint64_t, Inflight> inflight_;
  uint64_t request_seq_ = 0;
  uint64_t committed_deadline_ms_ = 0;
  uint64_t committed_memory_mb_ = 0;
  uint64_t responded_ = 0;

  bool draining_ = false;
  const char* drain_reason_ = "shutdown";
  bool drain_cancelled_ = false;
  Clock::time_point drain_cancel_at_;
  Clock::time_point drain_abandon_at_;

  bool ledger_failed_ = false;
  ServeSummary summary_;
};

void Server::AppendLedgerLine(const std::string& record) {
  if (options_.ledger_path.empty()) return;
  Status status = AppendLineDurable(options_.ledger_path, record);
  if (!status.ok() && !ledger_failed_) {
    // Report once and keep serving: a full disk must not take the
    // daemon down, it just stops being journaled.
    err_ << "tgdkit: serve: ledger: " << status.ToString() << "\n";
    ledger_failed_ = true;
  }
}

void Server::LedgerRequest(const ServeRequest& request, uint64_t conn_id,
                           uint64_t ruleset_key) {
  if (options_.ledger_path.empty()) return;
  std::string record = "{";
  AppendJsonString(&record, "type", "request");
  AppendJsonString(&record, "id", request.id);
  AppendJsonRaw(&record, "conn", std::to_string(conn_id));
  AppendJsonString(&record, "command", request.command);
  AppendJsonRaw(&record, "request_key",
                std::to_string(ServeRequestKey(request)));
  AppendJsonRaw(&record, "ruleset_key", std::to_string(ruleset_key));
  record += '}';
  AppendLedgerLine(record);
}

void Server::LedgerResponse(const ServeResponse& response) {
  if (options_.ledger_path.empty()) return;
  // Written BEFORE the bytes are queued to the socket: a response on the
  // wire therefore implies a ledger record, which is what lets a replay
  // after kill-and-restart prove no request was answered twice.
  std::string record = "{";
  AppendJsonString(&record, "type", "response");
  AppendJsonString(&record, "id", response.id);
  AppendJsonString(&record, "status", ToString(response.status));
  AppendJsonRaw(&record, "exit", std::to_string(response.exit_code));
  AppendJsonRaw(&record, "duration_ms",
                std::to_string(response.duration_ms));
  record += '}';
  AppendLedgerLine(record);
}

void Server::Respond(Connection& conn, const ServeResponse& response) {
  conn.out += RenderServeResponse(response);
  conn.out += '\n';
  FlushConn(conn);
}

void Server::RespondToConn(uint64_t conn_id, const ServeResponse& response) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;  // client is gone
  Respond(it->second, response);
}

void Server::FlushConn(Connection& conn) {
  while (!conn.out.empty() && !conn.dead) {
    // MSG_NOSIGNAL: a vanished client is a dead connection, not a
    // process-killing SIGPIPE (RunServer also runs in-process in tests
    // that do not ignore the signal globally).
    ssize_t n =
        send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.dead = true;  // EPIPE, ECONNRESET, ...
  }
}

void Server::HandleConnRead(Connection& conn) {
  for (;;) {
    char buf[8192];
    ssize_t n = read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      // EOF on the request stream; the peer may still be reading
      // responses (a half-close), so the connection stays up. Full
      // closes surface as POLLHUP or a write error.
      conn.read_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.dead = true;
    break;
  }
  ProcessInput(conn);
}

void Server::ProcessInput(Connection& conn) {
  for (;;) {
    size_t eol = conn.in.find('\n');
    if (eol == std::string::npos) {
      if (conn.resync) {
        conn.in.clear();
      } else if (conn.in.size() > options_.max_frame_bytes) {
        // Refuse and resynchronize at the next newline — an oversized
        // frame must cost its sender an error, not the daemon its life.
        ++summary_.bad_frames;
        Respond(conn,
                MakeRefusal("", ServeStatus::kBadRequest,
                            Cat("frame exceeds ", options_.max_frame_bytes,
                                " bytes")));
        conn.resync = true;
        conn.in.clear();
      }
      return;
    }
    std::string line = conn.in.substr(0, eol);
    conn.in.erase(0, eol + 1);
    if (conn.resync) {
      conn.resync = false;  // the tail of the oversized frame
      continue;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    HandleFrame(conn, std::move(line));
  }
}

void Server::HandleFrame(Connection& conn, std::string line) {
  ServeRequest request;
  if (draining_) {
    // Best-effort parse so the refusal can still carry the id.
    (void)ParseServeRequest(line, &request);
    ++summary_.draining_refusals;
    Respond(conn, MakeRefusal(request.id, ServeStatus::kDraining,
                              "daemon is draining"));
    return;
  }
  Status parsed = ParseServeRequest(line, &request);
  if (!parsed.ok()) {
    ++summary_.bad_frames;
    Respond(conn, MakeRefusal(request.id, ServeStatus::kBadRequest,
                              std::string(parsed.message())));
    return;
  }
  if (request.command == "ping") {
    ServeResponse pong;
    pong.id = request.id;
    Respond(conn, pong);
    return;
  }
  if (!IsServable(request.command)) {
    ++summary_.bad_frames;
    Respond(conn, MakeRefusal(request.id, ServeStatus::kBadRequest,
                              Cat("unknown command '", request.command,
                                  "'")));
    return;
  }
  uint64_t ruleset_key = ServeRulesetKey(request);
  if (quarantine_.IsQuarantined(ruleset_key)) {
    ++summary_.quarantined;
    Respond(conn,
            MakeRefusal(request.id, ServeStatus::kQuarantined,
                        "ruleset quarantined after repeated in-flight "
                        "failures"));
    return;
  }
  uint64_t deadline_ms = request.deadline_ms != 0
                             ? request.deadline_ms
                             : options_.default_deadline_ms;
  uint64_t memory_mb =
      request.memory_mb != 0 ? request.memory_mb : options_.default_memory_mb;
  if (inflight_.size() >= max_inflight_ ||
      committed_deadline_ms_ + deadline_ms >
          options_.max_commit_deadline_ms ||
      committed_memory_mb_ + memory_mb > options_.max_commit_memory_mb) {
    // Shed, don't queue: the client knows immediately and can back off
    // or go elsewhere; an unbounded queue would just turn overload into
    // latency and then into timeouts.
    ++summary_.shed;
    ServeResponse refusal =
        MakeRefusal(request.id, ServeStatus::kOverloaded,
                    Cat("admission: ", inflight_.size(), " in flight, ",
                        committed_deadline_ms_, "ms deadline and ",
                        committed_memory_mb_, "mb memory committed"));
    refusal.retry_after_ms = 50;
    Respond(conn, refusal);
    return;
  }
  Admit(conn, std::move(request), deadline_ms, memory_mb, ruleset_key);
}

void Server::Admit(Connection& conn, ServeRequest request,
                   uint64_t deadline_ms, uint64_t memory_mb,
                   uint64_t ruleset_key) {
  uint64_t seq = ++request_seq_;
  Clock::time_point now = Clock::now();
  Inflight entry;
  entry.seq = seq;
  entry.id = request.id;
  entry.conn_id = conn.id;
  entry.command = request.command;
  entry.deadline_commit_ms = deadline_ms;
  entry.memory_commit_mb = memory_mb;
  entry.deadline = now + std::chrono::milliseconds(deadline_ms);
  entry.abandon_at =
      entry.deadline + std::chrono::milliseconds(options_.hard_grace_ms);
  entry.ruleset_key = ruleset_key;
  committed_deadline_ms_ += deadline_ms;
  committed_memory_mb_ += memory_mb;
  ++summary_.admitted;
  LedgerRequest(request, conn.id, ruleset_key);

  auto files =
      std::make_shared<std::unordered_map<std::string, std::string>>();
  for (size_t i = 0; i < request.file_names.size(); ++i) {
    (*files)[request.file_names[i]] = request.file_contents[i];
  }
  std::vector<std::string> argv;
  argv.reserve(1 + request.args.size() + 2);
  argv.push_back(request.command);
  argv.insert(argv.end(), request.args.begin(), request.args.end());
  if (request.command == "batch" && !options_.worker_binary.empty() &&
      std::find(request.args.begin(), request.args.end(), "--worker") ==
          request.args.end()) {
    argv.push_back("--worker");
    argv.push_back(options_.worker_binary);
  }
  CancellationToken token = entry.cancel;
  std::shared_ptr<CompletionQueue> queue = completions_;
  std::string id = request.id;
  inflight_.emplace(seq, std::move(entry));
  pool_->Post([queue, token, files, argv = std::move(argv), seq,
               id = std::move(id)] {
    ApiOptions api;
    api.cancel = token;
    api.forbid_fork_workers = true;
    api.resolver =
        [files](const std::string& path) -> std::optional<std::string> {
      auto it = files->find(path);
      if (it != files->end()) return it->second;
      return std::nullopt;
    };
    ServeResponse response;
    response.id = id;
    std::ostringstream request_out, request_err;
    Clock::time_point start = Clock::now();
    response.exit_code = RunCommand(argv, request_out, request_err, api);
    response.duration_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - start)
            .count());
    response.out = request_out.str();
    response.err = request_err.str();
    queue->Push(seq, std::move(response));
  });
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_->mutex);
    batch.swap(completions_->items);
  }
  for (Completion& completion : batch) {
    auto it = inflight_.find(completion.seq);
    if (it == inflight_.end()) continue;
    Inflight& entry = it->second;
    committed_deadline_ms_ -= entry.deadline_commit_ms;
    committed_memory_mb_ -= entry.memory_commit_mb;
    int exit_code = completion.response.exit_code;
    if (exit_code == kExitInternal) {
      quarantine_.Strike(entry.ruleset_key);
    } else if (exit_code == kExitOk || exit_code == kExitVerdict) {
      quarantine_.OnSuccess(entry.ruleset_key);
    }
    if (!entry.abandoned) {
      LedgerResponse(completion.response);
      ++summary_.ok;
      ++responded_;
      RespondToConn(entry.conn_id, completion.response);
    }
    inflight_.erase(it);
  }
}

void Server::AbandonRequest(Inflight& request) {
  request.abandoned = true;
  ++summary_.timeouts;
  ++responded_;
  quarantine_.Strike(request.ruleset_key);
  ServeResponse refusal =
      MakeRefusal(request.id, ServeStatus::kTimeout,
                  "request ignored cancellation past deadline + grace; "
                  "abandoned");
  LedgerResponse(refusal);
  RespondToConn(request.conn_id, refusal);
}

void Server::Watchdog(Clock::time_point now) {
  for (auto& [seq, entry] : inflight_) {
    if (!entry.cancelled && now >= entry.deadline) {
      entry.cancel.Cancel();
      entry.cancelled = true;
    }
    if (!entry.abandoned && now >= entry.abandon_at) {
      AbandonRequest(entry);
    }
  }
}

void Server::BeginDrain(const char* reason, Clock::time_point now) {
  draining_ = true;
  drain_reason_ = reason;
  drain_cancel_at_ = now + std::chrono::milliseconds(options_.drain_ms);
  drain_abandon_at_ =
      drain_cancel_at_ + std::chrono::milliseconds(options_.hard_grace_ms);
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    if (!options_.socket_path.empty()) {
      unlink(options_.socket_path.c_str());
    }
  }
}

bool Server::ConnHasInflight(uint64_t conn_id) const {
  for (const auto& [seq, entry] : inflight_) {
    if (entry.conn_id == conn_id && !entry.abandoned) return true;
  }
  return false;
}

void Server::ReapConnections() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = it->second;
    bool drained_out =
        conn.read_closed && conn.out.empty() && !ConnHasInflight(conn.id);
    if (!conn.dead && !drained_out) {
      ++it;
      continue;
    }
    if (conn.dead) {
      // Client disconnect: cancel everything it was waiting for. The
      // requests finish cooperatively and their responses are dropped
      // in DrainCompletions (the connection is gone by then).
      for (auto& [seq, entry] : inflight_) {
        if (entry.conn_id == conn.id && !entry.cancelled) {
          entry.cancel.Cancel();
          entry.cancelled = true;
        }
      }
    }
    close(conn.fd);
    it = conns_.erase(it);
  }
}

void Server::PollOnce() {
  std::vector<pollfd> fds;
  fds.push_back({wake_read_, POLLIN, 0});
  size_t listen_index = SIZE_MAX;
  if (!draining_ && listen_fd_ >= 0) {
    listen_index = fds.size();
    fds.push_back({listen_fd_, POLLIN, 0});
  }
  std::vector<uint64_t> conn_ids;
  conn_ids.reserve(conns_.size());
  for (auto& [id, conn] : conns_) {
    short events = 0;
    if (!conn.read_closed) events |= POLLIN;
    if (!conn.out.empty()) events |= POLLOUT;
    conn_ids.push_back(id);
    fds.push_back({conn.fd, events, 0});
  }
  int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()),
                kPollIntervalMs);
  if (rc <= 0) return;
  if ((fds[0].revents & POLLIN) != 0) {
    char buf[256];
    while (read(wake_read_, buf, sizeof(buf)) > 0) {
    }
  }
  if (listen_index != SIZE_MAX &&
      (fds[listen_index].revents & POLLIN) != 0) {
    for (;;) {
      Result<int> accepted = AcceptConnection(listen_fd_);
      if (!accepted.ok()) break;
      (void)SetNonBlocking(*accepted, true);
      Connection conn;
      conn.fd = *accepted;
      conn.id = ++conn_seq_;
      conns_.emplace(conn.id, std::move(conn));
    }
  }
  size_t base = listen_index == SIZE_MAX ? 1 : 2;
  for (size_t k = 0; k < conn_ids.size(); ++k) {
    auto it = conns_.find(conn_ids[k]);
    if (it == conns_.end()) continue;
    Connection& conn = it->second;
    short revents = fds[base + k].revents;
    if ((revents & (POLLERR | POLLNVAL)) != 0) {
      conn.dead = true;
      continue;
    }
    if ((revents & POLLOUT) != 0) FlushConn(conn);
    if ((revents & POLLIN) != 0) {
      HandleConnRead(conn);
    } else if ((revents & POLLHUP) != 0) {
      // Hangup with nothing left to read: the peer fully closed.
      conn.dead = true;
    }
  }
}

void Server::FinalFlush() {
  // Give clients a short, bounded window to take delivery of the last
  // responses; a reader that went away must not block the drain.
  Clock::time_point give_up =
      Clock::now() + std::chrono::milliseconds(250);
  for (;;) {
    bool pending = false;
    for (auto& [id, conn] : conns_) {
      if (!conn.dead && !conn.out.empty()) {
        FlushConn(conn);
        if (!conn.dead && !conn.out.empty()) pending = true;
      }
    }
    if (!pending || Clock::now() >= give_up) return;
    struct timespec nap = {0, 5 * 1000 * 1000};
    nanosleep(&nap, nullptr);
  }
}

Result<ServeSummary> Server::Run() {
  if (!options_.socket_path.empty() && options_.tcp_port >= 0) {
    return Status::InvalidArgument(
        "serve: pass --socket or --listen, not both");
  }
  if (options_.socket_path.empty() && options_.tcp_port < 0) {
    return Status::InvalidArgument(
        "serve: a transport is required (--socket PATH or --listen PORT)");
  }
  if (options_.threads == 0) {
    return Status::InvalidArgument("serve: --serve-threads must be >= 1");
  }
  max_inflight_ =
      options_.max_inflight == 0 ? options_.threads : options_.max_inflight;
  uint16_t port = 0;
  Result<int> listener =
      options_.socket_path.empty()
          ? ListenTcpLocal(static_cast<uint16_t>(options_.tcp_port), 64,
                           &port)
          : ListenUnix(options_.socket_path, 64);
  if (!listener.ok()) return listener.status();
  listen_fd_ = *listener;
  (void)SetNonBlocking(listen_fd_, true);

  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
    close(listen_fd_);
    return Status::Internal(Cat("pipe2: ", strerror(errno)));
  }
  wake_read_ = pipe_fds[0];
  completions_ = std::make_shared<CompletionQueue>();
  completions_->wake_fd = pipe_fds[1];

  if (!options_.ledger_path.empty()) {
    Status healed = TruncateTornLedgerTail(options_.ledger_path);
    if (!healed.ok()) {
      close(listen_fd_);
      close(wake_read_);
      return healed;
    }
    std::string header = "{";
    AppendJsonString(&header, "type", "serve");
    AppendJsonString(&header, "transport", Endpoint(port));
    AppendJsonRaw(&header, "threads", std::to_string(options_.threads));
    header += '}';
    AppendLedgerLine(header);
  }

  // `threads` worker lanes on top of this polling thread: ThreadPool(n)
  // spawns n-1 workers and the pool's "caller lane" is never used for
  // posted tasks.
  pool_ = std::make_unique<ThreadPool>(options_.threads + 1);

  out_ << "# serve: listening on " << Endpoint(port)
       << " threads=" << options_.threads
       << " max_inflight=" << max_inflight_ << "\n";
  out_.flush();
  if (options_.on_ready) options_.on_ready(port);

  for (;;) {
    Clock::time_point now = Clock::now();
    if (!draining_ &&
        (options_.shutdown.cancelled() ||
         (options_.max_requests != 0 &&
          responded_ >= options_.max_requests))) {
      BeginDrain(options_.shutdown.cancelled() ? "shutdown" : "max-requests",
                 now);
    }
    if (draining_) {
      DrainCompletions();
      if (inflight_.empty()) break;
      if (!drain_cancelled_ && now >= drain_cancel_at_) {
        for (auto& [seq, entry] : inflight_) {
          if (!entry.cancelled) {
            entry.cancel.Cancel();
            entry.cancelled = true;
          }
        }
        drain_cancelled_ = true;
      }
      if (now >= drain_abandon_at_) {
        for (auto& [seq, entry] : inflight_) {
          if (!entry.abandoned) AbandonRequest(entry);
        }
        summary_.stuck_workers = true;
        break;
      }
    }
    Watchdog(now);
    PollOnce();
    DrainCompletions();
    ReapConnections();
  }

  FinalFlush();
  for (auto& [id, conn] : conns_) close(conn.fd);
  conns_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    if (!options_.socket_path.empty()) unlink(options_.socket_path.c_str());
  }
  close(wake_read_);
  wake_read_ = -1;

  if (!options_.ledger_path.empty()) {
    std::string record = "{";
    AppendJsonString(&record, "type", "drain");
    AppendJsonString(&record, "reason", drain_reason_);
    AppendJsonRaw(&record, "admitted", std::to_string(summary_.admitted));
    AppendJsonRaw(&record, "ok", std::to_string(summary_.ok));
    AppendJsonRaw(&record, "shed", std::to_string(summary_.shed));
    AppendJsonRaw(&record, "quarantined",
                  std::to_string(summary_.quarantined));
    AppendJsonRaw(&record, "bad_frames",
                  std::to_string(summary_.bad_frames));
    AppendJsonRaw(&record, "timeouts", std::to_string(summary_.timeouts));
    AppendJsonRaw(&record, "abandoned",
                  summary_.stuck_workers ? "true" : "false");
    record += '}';
    AppendLedgerLine(record);
  }

  out_ << "# serve: drained reason=" << drain_reason_
       << " admitted=" << summary_.admitted << " ok=" << summary_.ok
       << " shed=" << summary_.shed
       << " quarantined=" << summary_.quarantined
       << " bad_frames=" << summary_.bad_frames
       << " timeouts=" << summary_.timeouts << "\n";
  out_.flush();

  if (summary_.stuck_workers) {
    // Workers are wedged inside abandoned requests; joining them would
    // hang the drain forever. Leak the pool — the caller hard-exits.
    err_ << "tgdkit: serve: abandoning " << inflight_.size()
         << " wedged request(s) at drain deadline\n";
    (void)pool_.release();
  } else {
    pool_.reset();  // all lanes idle: join cleanly
  }
  return summary_;
}

}  // namespace

Result<ServeSummary> RunServer(const ServeOptions& options,
                               std::ostream& out, std::ostream& err) {
  Server server(options, out, err);
  return server.Run();
}

int RunServeCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  using O = ServeOptions;
  static const FlagTable<O> flags{"serve: unknown option ", {
      {"--socket", [](O* o, const std::string& v) { o->socket_path = v; }},
      {"--listen", [](O* o, uint64_t v) { o->tcp_port = static_cast<int>(v); },
       0, 65535},
      {"--serve-threads",
       [](O* o, uint64_t v) { o->threads = static_cast<uint32_t>(v); }, 1,
       256},
      {"--max-inflight",
       [](O* o, uint64_t v) { o->max_inflight = static_cast<uint32_t>(v); },
       0, UINT32_MAX},
      {"--max-commit-deadline-ms",
       [](O* o, uint64_t v) { o->max_commit_deadline_ms = v; }},
      {"--max-commit-memory-mb",
       [](O* o, uint64_t v) { o->max_commit_memory_mb = v; }},
      {"--default-deadline-ms",
       [](O* o, uint64_t v) { o->default_deadline_ms = v; }},
      {"--default-memory-mb",
       [](O* o, uint64_t v) { o->default_memory_mb = v; }},
      {"--hard-grace-ms", [](O* o, uint64_t v) { o->hard_grace_ms = v; }},
      {"--max-frame-kb",
       [](O* o, uint64_t v) { o->max_frame_bytes = v << 10; }, 1,
       UINT64_MAX >> 10},
      {"--quarantine-after",
       [](O* o, uint64_t v) {
         o->quarantine_after = static_cast<uint32_t>(v);
       },
       0, UINT32_MAX},
      {"--ledger", [](O* o, const std::string& v) { o->ledger_path = v; }},
      {"--worker", [](O* o, const std::string& v) { o->worker_binary = v; }},
      {"--drain-ms", [](O* o, uint64_t v) { o->drain_ms = v; }},
      {"--max-requests", [](O* o, uint64_t v) { o->max_requests = v; }},
  }};
  ServeOptions options;
  options.shutdown = GlobalCancellationToken();
  if (!flags.Parse(args, &options, nullptr, err)) return kExitUsage;
  Result<ServeSummary> summary = RunServer(options, out, err);
  if (!summary.ok()) {
    err << "tgdkit: serve: " << summary.status().ToString() << "\n";
    return ExitCodeForStatus(summary.status());
  }
  if (summary->stuck_workers) {
    // Worker threads are wedged in abandoned requests; a normal return
    // would hang in thread teardown. The ledger already has the drain
    // record (fsync'd), so a hard exit loses nothing durable.
    out.flush();
    err.flush();
    std::_Exit(kExitInternal);
  }
  return kExitOk;
}

}  // namespace tgdkit
