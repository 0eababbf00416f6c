// End-to-end tests for `tgdkit serve` (src/serve/server): the daemon
// runs in-process on its own thread against a Unix socket in a temp
// directory, so every robustness property — byte-identity with the
// one-shot CLI, overload shedding, client-disconnect cancellation,
// malformed/oversized frame recovery, quarantine, hard-overrun
// abandonment, graceful drain, ledger discipline — is exercised with
// real sockets but no forked processes (TSan-compatible).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/fileio.h"
#include "cli/cli.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "supervise/jsonl.h"

namespace tgdkit {
namespace {

constexpr const char* kDeps = "every: Emp(e) -> exists m . Mgr(e, m) .\n";
constexpr const char* kInst = "Emp(alice). Emp(bob). Mgr(alice, boss).\n";
constexpr const char* kQuery = "ans(e) :- Emp(e).";

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = testing::TempDir() + "/tgdkit_serve_" + std::to_string(getpid()) +
           "_" + std::to_string(counter++);
    // Start empty: a directory left behind by an earlier test process
    // that had the same pid would hand this test its ledgers.
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(MakeDirectories(dir_).ok());
    options_.socket_path = dir_ + "/serve.sock";
    options_.threads = 4;
    options_.drain_ms = 10000;
  }

  void TearDown() override {
    if (server_.joinable()) StopServer();
  }

  std::string WriteInput(const std::string& name,
                         const std::string& content) {
    std::string path = dir_ + "/" + name;
    std::ofstream out(path);
    out << content;
    return path;
  }

  void StartServer() {
    options_.shutdown = shutdown_;
    // The promise outlives the server thread (it is a member), so the
    // on_ready closure never dangles.
    std::future<void> listening = ready_.get_future();
    options_.on_ready = [this](uint16_t) { ready_.set_value(); };
    server_ = std::thread([this] {
      std::ostringstream out, err;
      Result<ServeSummary> result = RunServer(options_, out, err);
      server_status_ = result.status();
      if (result.ok()) summary_ = *result;
      server_out_ = out.str();
      server_err_ = err.str();
    });
    listening.wait();
  }

  ServeSummary StopServer() {
    shutdown_.Cancel();
    server_.join();
    EXPECT_TRUE(server_status_.ok()) << server_status_.ToString();
    return summary_;
  }

  ServeClient Connect() {
    Result<ServeClient> client =
        ServeClient::ConnectUnixSocket(options_.socket_path);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  static ServeResponse MustCall(ServeClient& client,
                                const ServeRequest& request) {
    Result<ServeResponse> response = client.Call(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : ServeResponse{};
  }

  std::string dir_;
  ServeOptions options_;
  std::promise<void> ready_;
  CancellationToken shutdown_;
  std::thread server_;
  Status server_status_ = Status::Ok();
  ServeSummary summary_;
  std::string server_out_, server_err_;
};

/// A request whose inputs ride inline under the same absolute paths the
/// CLI invocation would read from disk, so the two can be compared.
ServeRequest InlineRequest(std::string id, std::string command,
                           std::vector<std::string> args,
                           std::vector<std::pair<std::string, std::string>>
                               files = {}) {
  ServeRequest request;
  request.id = std::move(id);
  request.command = std::move(command);
  request.args = std::move(args);
  for (auto& [name, content] : files) {
    request.file_names.push_back(name);
    request.file_contents.push_back(content);
  }
  return request;
}

TEST_F(ServeTest, EverySubcommandIsByteIdenticalToTheOneShotCli) {
  std::string deps = WriteInput("deps.tgd", kDeps);
  std::string inst = WriteInput("seed.inst", kInst);
  StartServer();
  ServeClient client = Connect();

  struct Case {
    const char* name;
    std::vector<std::string> cli;
  };
  const std::vector<Case> cases = {
      {"classify", {"classify", deps}},
      {"lint", {"lint", deps}},
      {"check", {"check", deps, inst}},
      {"chase", {"chase", deps, inst}},
      {"certain", {"certain", deps, inst, kQuery}},
      {"normalize", {"normalize", deps}},
      {"dot", {"dot", deps}},
      {"explain", {"explain", deps, inst}},
      {"solve", {"solve", deps, inst}},
  };
  for (const Case& test_case : cases) {
    std::ostringstream cli_out, cli_err;
    int cli_exit = RunCli(test_case.cli, cli_out, cli_err);

    ServeRequest request = InlineRequest(
        test_case.name, test_case.cli[0],
        {test_case.cli.begin() + 1, test_case.cli.end()},
        {{deps, kDeps}, {inst, kInst}});
    ServeResponse response = MustCall(client, request);
    EXPECT_EQ(response.status, ServeStatus::kOk) << test_case.name;
    EXPECT_EQ(response.exit_code, cli_exit) << test_case.name;
    EXPECT_EQ(response.out, cli_out.str()) << test_case.name;
    EXPECT_EQ(response.err, cli_err.str()) << test_case.name;
  }
  ServeSummary summary = StopServer();
  EXPECT_EQ(summary.admitted, cases.size());
  EXPECT_EQ(summary.ok, cases.size());
}

TEST_F(ServeTest, IdenticalRequestsAreEachAdmittedByteIdentically) {
  StartServer();
  ServeClient client = Connect();
  ServeRequest request = InlineRequest("c1", "classify", {"deps.tgd"},
                                       {{"deps.tgd", "p(X) -> q(X) .\n"}});
  ServeResponse first = MustCall(client, request);
  ASSERT_EQ(first.status, ServeStatus::kOk);

  // The repeat runs again, like a second one-shot CLI call.
  request.id = "c2";
  ServeResponse second = MustCall(client, request);
  EXPECT_EQ(second.status, ServeStatus::kOk);
  EXPECT_EQ(second.id, "c2");
  EXPECT_EQ(second.exit_code, first.exit_code);
  EXPECT_EQ(second.out, first.out);
  EXPECT_EQ(second.err, first.err);

  ServeSummary summary = StopServer();
  EXPECT_EQ(summary.admitted, 2u);
  EXPECT_EQ(summary.ok, 2u);
}

TEST_F(ServeTest, RequestsReadingTheDaemonFilesystemSeeItsEdits) {
  std::string deps = WriteInput("disk.tgd", kDeps);
  std::string inst = WriteInput("disk.inst", "Emp(a). Mgr(a, b).\n");
  StartServer();
  ServeClient client = Connect();
  // No inline files: the resolver falls back to the daemon's disk.
  ServeRequest request = InlineRequest("d1", "check", {deps, inst});
  ServeResponse first = MustCall(client, request);
  ASSERT_EQ(first.status, ServeStatus::kOk);
  ASSERT_EQ(first.exit_code, kExitOk) << first.out << first.err;

  // Rewrite the instance between the two requests: the second answer
  // must read the edit, as a one-shot CLI run after the edit does.
  WriteInput("disk.inst", "Emp(a).\n");
  std::ostringstream cli_out, cli_err;
  int cli_exit = RunCli({"check", deps, inst}, cli_out, cli_err);
  ASSERT_EQ(cli_exit, kExitVerdict) << cli_out.str() << cli_err.str();
  request.id = "d2";
  ServeResponse second = MustCall(client, request);
  EXPECT_EQ(second.status, ServeStatus::kOk);
  EXPECT_EQ(second.exit_code, cli_exit);
  EXPECT_EQ(second.out, cli_out.str());
  EXPECT_EQ(second.err, cli_err.str());
  EXPECT_NE(second.out, first.out);
  StopServer();
}

TEST_F(ServeTest, OverloadShedsImmediatelyWithATypedResponse) {
  options_.threads = 1;
  options_.max_inflight = 1;
  StartServer();
  ServeClient client = Connect();
  // Occupy the only lane, then ask for more.
  ServeRequest slow =
      InlineRequest("slow", "selftest", {"--spin-ms", "2000"});
  ASSERT_TRUE(client.Send(slow).ok());
  ServeRequest extra = InlineRequest("extra", "classify", {"x.tgd"},
                                     {{"x.tgd", "p(X) -> q(X) .\n"}});
  // The slow request may not be admitted yet when `extra` arrives; retry
  // until the refusal shows up (admission is synchronous once it is).
  ServeResponse refusal;
  for (int attempt = 0; attempt < 200; ++attempt) {
    extra.id = "extra-" + std::to_string(attempt);
    refusal = MustCall(client, extra);
    if (refusal.status != ServeStatus::kOk) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(refusal.status, ServeStatus::kOverloaded);
  EXPECT_GT(refusal.retry_after_ms, 0u);
  EXPECT_NE(refusal.error.find("admission"), std::string::npos)
      << refusal.error;
  // The daemon is still healthy: the slow request completes normally.
  Result<ServeResponse> slow_response = client.ReadResponse();
  ASSERT_TRUE(slow_response.ok()) << slow_response.status().ToString();
  EXPECT_EQ(slow_response->id, "slow");
  EXPECT_EQ(slow_response->status, ServeStatus::kOk);
  ServeSummary summary = StopServer();
  EXPECT_GE(summary.shed, 1u);
}

TEST_F(ServeTest, ClientDisconnectCancelsTheInflightRequest) {
  StartServer();
  auto begun = std::chrono::steady_clock::now();
  {
    ServeClient client = Connect();
    // Would spin for 30 s if nothing cancelled it; it polls the token.
    ASSERT_TRUE(
        client
            .Send(InlineRequest("gone", "selftest", {"--spin-ms", "30000"}))
            .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }  // full close: the daemon sees the hangup and cancels
  ServeSummary summary = StopServer();
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - begun)
                          .count();
  EXPECT_LT(elapsed_ms, 15000) << "disconnect did not cancel the request";
  EXPECT_EQ(summary.admitted, 1u);
  EXPECT_EQ(summary.timeouts, 0u);
}

TEST_F(ServeTest, MalformedAndOversizedFramesNeverKillTheDaemon) {
  options_.max_frame_bytes = 1024;
  StartServer();
  ServeClient client = Connect();

  // Garbage that is not JSON.
  ASSERT_TRUE(client.SendRaw("this is not a frame\n").ok());
  Result<ServeResponse> bad = client.ReadResponse();
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, ServeStatus::kBadRequest);

  // Valid JSON missing required fields.
  ASSERT_TRUE(client.SendRaw("{\"id\":\"nope\"}\n").ok());
  bad = client.ReadResponse();
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, ServeStatus::kBadRequest);
  EXPECT_EQ(bad->id, "nope");

  // An unknown command.
  ASSERT_TRUE(
      client.SendRaw("{\"id\":\"rm\",\"command\":\"rm-rf\"}\n").ok());
  bad = client.ReadResponse();
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, ServeStatus::kBadRequest);

  // An oversized frame: refused mid-stream, and the daemon resyncs at
  // the next newline.
  std::string huge(4096, 'x');
  ASSERT_TRUE(client.SendRaw(huge).ok());
  bad = client.ReadResponse();
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, ServeStatus::kBadRequest);
  EXPECT_NE(bad->error.find("exceeds"), std::string::npos) << bad->error;
  ASSERT_TRUE(client.SendRaw("tail-of-oversized-frame\n").ok());

  // A truncated frame (no newline) followed by the rest.
  ASSERT_TRUE(client.SendRaw("{\"id\":\"split\",\"comm").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(client.SendRaw("and\":\"ping\"}\n").ok());
  Result<ServeResponse> pong = client.ReadResponse();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->id, "split");
  EXPECT_EQ(pong->status, ServeStatus::kOk);

  // A well-formed frame whose program has a 0-ary head: a parse error
  // (exit 2), not a dead daemon.
  ServeResponse nullary = MustCall(
      client, InlineRequest("nullary", "classify", {"deps.tgd"},
                            {{"deps.tgd", "P(x) -> R() .\n"}}));
  EXPECT_EQ(nullary.status, ServeStatus::kOk);
  EXPECT_EQ(nullary.exit_code, 2);

  // After all that chaos a real request still works.
  ServeResponse ok = MustCall(
      client, InlineRequest("real", "classify", {"deps.tgd"},
                            {{"deps.tgd", "p(X) -> q(X) .\n"}}));
  EXPECT_EQ(ok.status, ServeStatus::kOk);
  EXPECT_EQ(ok.exit_code, 0);

  ServeSummary summary = StopServer();
  EXPECT_GE(summary.bad_frames, 4u);
  EXPECT_EQ(summary.admitted, 2u);
}

TEST_F(ServeTest, RepeatedInternalFailuresQuarantineTheRuleset) {
  options_.quarantine_after = 2;
  StartServer();
  ServeClient client = Connect();
  // selftest --die-exit 5 reports an internal failure (exit 5) without
  // taking the daemon down; its quarantine key is command+args.
  ServeRequest failing =
      InlineRequest("f1", "selftest", {"--die-exit", "5"});
  for (int i = 1; i <= 2; ++i) {
    failing.id = "f" + std::to_string(i);
    ServeResponse response = MustCall(client, failing);
    EXPECT_EQ(response.status, ServeStatus::kOk);
    EXPECT_EQ(response.exit_code, 5);
  }
  failing.id = "f3";
  ServeResponse refused = MustCall(client, failing);
  EXPECT_EQ(refused.status, ServeStatus::kQuarantined);

  // Other rulesets are unaffected.
  ServeResponse ok = MustCall(
      client, InlineRequest("fine", "classify", {"deps.tgd"},
                            {{"deps.tgd", "p(X) -> q(X) .\n"}}));
  EXPECT_EQ(ok.status, ServeStatus::kOk);

  ServeSummary summary = StopServer();
  EXPECT_EQ(summary.quarantined, 1u);
}

TEST_F(ServeTest, HostileRequestIsAbandonedWithATimeoutResponse) {
  options_.hard_grace_ms = 150;
  StartServer();
  ServeClient client = Connect();
  // --ignore-term makes selftest spin without polling its token: the
  // deadline cancellation is ignored, the grace expires, the request is
  // abandoned with a typed timeout while the worker spins on.
  ServeRequest hostile =
      InlineRequest("hostile", "selftest",
                    {"--ignore-term", "--spin-ms", "800"});
  hostile.deadline_ms = 100;
  ServeResponse response = MustCall(client, hostile);
  EXPECT_EQ(response.status, ServeStatus::kTimeout);

  // Let the spinner finish so the drain is clean (its late completion
  // must be discarded, not double-answered).
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  ServeSummary summary = StopServer();
  EXPECT_EQ(summary.timeouts, 1u);
  EXPECT_FALSE(summary.stuck_workers);
}

TEST_F(ServeTest, DrainFinishesEightConcurrentRequestsThenRefuses) {
  options_.threads = 8;
  options_.max_inflight = 8;
  // Eight default 10 s deadline commitments must all fit.
  options_.max_commit_deadline_ms = 1u << 20;
  StartServer();
  std::vector<ServeClient> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(Connect());
    ASSERT_TRUE(clients.back()
                    .Send(InlineRequest("req-" + std::to_string(i),
                                        "selftest", {"--spin-ms", "700"}))
                    .ok());
  }
  // Give the frames time to be admitted, then start the drain while all
  // eight are in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  shutdown_.Cancel();
  // Let the poll loop observe the shutdown before the late request
  // arrives (the drain flag flips at the top of a poll iteration).
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // A request sent during the drain is refused with a typed response.
  ASSERT_TRUE(clients[0]
                  .Send(InlineRequest("late", "classify", {"x"}))
                  .ok());

  // Every in-flight request still completes and is delivered.
  int late_refusals = 0;
  for (int i = 0; i < 8; ++i) {
    for (;;) {
      Result<ServeResponse> response = clients[i].ReadResponse();
      ASSERT_TRUE(response.ok())
          << i << ": " << response.status().ToString();
      if (response->id == "late") {
        EXPECT_EQ(response->status, ServeStatus::kDraining);
        ++late_refusals;
        continue;
      }
      EXPECT_EQ(response->id, "req-" + std::to_string(i));
      EXPECT_EQ(response->status, ServeStatus::kOk);
      EXPECT_EQ(response->exit_code, 0);
      break;
    }
  }
  EXPECT_EQ(late_refusals, 1);
  ServeSummary summary = StopServer();
  EXPECT_EQ(summary.admitted, 8u);
  EXPECT_EQ(summary.ok, 8u);
  EXPECT_EQ(summary.draining_refusals, 1u);
  EXPECT_FALSE(summary.stuck_workers);
}

TEST_F(ServeTest, LedgerRecordsEveryAnswerBeforeItIsSent) {
  options_.ledger_path = dir_ + "/serve.jsonl";
  StartServer();
  ServeClient client = Connect();
  ServeRequest request = InlineRequest("L1", "classify", {"deps.tgd"},
                                       {{"deps.tgd", "p(X) -> q(X) .\n"}});
  ASSERT_EQ(MustCall(client, request).status, ServeStatus::kOk);
  request.id = "L2";  // a repeat: its own request and response records
  ASSERT_EQ(MustCall(client, request).status, ServeStatus::kOk);
  // Refusals are stateless and must NOT be ledgered.
  ASSERT_TRUE(client.SendRaw("garbage\n").ok());
  ASSERT_TRUE(client.ReadResponse().ok());
  StopServer();

  Result<std::string> ledger = ReadFileBytes(options_.ledger_path);
  ASSERT_TRUE(ledger.ok());
  std::vector<std::string> types;
  std::vector<std::string> response_ids;
  std::istringstream lines(*ledger);
  std::string line;
  while (std::getline(lines, line)) {
    FlatJson record;
    ASSERT_TRUE(ParseFlatJson(line, &record).ok()) << line;
    std::string type = GetJsonString(record, "type");
    ASSERT_FALSE(type.empty()) << line;
    types.push_back(type);
    if (type == "response") {
      response_ids.push_back(GetJsonString(record, "id"));
    }
  }
  // header, request L1, response L1, request L2, response L2, drain.
  EXPECT_EQ(types,
            (std::vector<std::string>{"serve", "request", "response",
                                      "request", "response", "drain"}));
  // No id answered twice.
  EXPECT_EQ(response_ids, (std::vector<std::string>{"L1", "L2"}));
}

TEST_F(ServeTest, BatchOverServeRequiresAnExecWorker) {
  StartServer();
  ServeClient client = Connect();
  std::string manifest = WriteInput(
      "batch.manifest", "task one : selftest --stdout-lines 1\n");
  // No worker binary configured: the daemon must refuse to fork
  // in-process workers (it is multithreaded) with a usage error, not
  // crash or deadlock.
  ServeResponse response = MustCall(
      client, InlineRequest("b1", "batch", {manifest}));
  EXPECT_EQ(response.status, ServeStatus::kOk);
  EXPECT_EQ(response.exit_code, 1);
  EXPECT_NE(response.err.find("--worker"), std::string::npos)
      << response.err;
  StopServer();
}

TEST_F(ServeTest, PingAnswersWithoutBurningAdmission) {
  options_.threads = 1;
  options_.max_inflight = 1;
  StartServer();
  ServeClient client = Connect();
  for (int i = 0; i < 5; ++i) {
    ServeResponse pong =
        MustCall(client, InlineRequest("p" + std::to_string(i), "ping", {}));
    EXPECT_EQ(pong.status, ServeStatus::kOk);
    EXPECT_EQ(pong.exit_code, 0);
  }
  ServeSummary summary = StopServer();
  EXPECT_EQ(summary.admitted, 0u);
}

TEST_F(ServeTest, MaxRequestsTriggersAutomaticDrain) {
  options_.max_requests = 1;
  StartServer();
  ServeClient client = Connect();
  ServeResponse response = MustCall(
      client, InlineRequest("only", "classify", {"deps.tgd"},
                            {{"deps.tgd", "p(X) -> q(X) .\n"}}));
  EXPECT_EQ(response.status, ServeStatus::kOk);
  // The daemon drains on its own; no shutdown needed.
  server_.join();
  EXPECT_TRUE(server_status_.ok()) << server_status_.ToString();
  EXPECT_NE(server_out_.find("drained reason=max-requests"),
            std::string::npos)
      << server_out_;
}

}  // namespace
}  // namespace tgdkit
