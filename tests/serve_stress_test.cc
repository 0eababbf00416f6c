// Concurrency stress for the serve daemon: many client threads hammer
// one in-process server with a mix of identical requests (one shared
// ruleset, run on several lanes at once), distinct rulesets, and abrupt
// disconnects mid-request (cancellation path). Run under TSan this is
// the data-race proof for the poll-loop / worker-pool / completion-queue
// seams; under plain builds it is a correctness soak: every response
// must parse, match its request id, and carry the right classification
// output.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/fileio.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace tgdkit {
namespace {

TEST(ServeStress, ConcurrentClientsSharedRulesetsAndDisconnects) {
  static int counter = 0;
  std::string dir = testing::TempDir() + "/tgdkit_serve_stress_" +
                    std::to_string(getpid()) + "_" +
                    std::to_string(counter++);
  ASSERT_TRUE(MakeDirectories(dir).ok());

  ServeOptions options;
  options.socket_path = dir + "/stress.sock";
  options.threads = 4;
  options.max_inflight = 32;
  options.max_commit_deadline_ms = 1u << 24;
  options.max_commit_memory_mb = 1u << 24;
  options.drain_ms = 30000;
  CancellationToken shutdown;
  options.shutdown = shutdown;
  std::promise<void> ready;
  options.on_ready = [&ready](uint16_t) { ready.set_value(); };

  std::thread server([&options] {
    std::ostringstream out, err;
    Result<ServeSummary> result = RunServer(options, out, err);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) {
      EXPECT_FALSE(result->stuck_workers);
    }
  });
  ready.get_future().wait();

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> ok_count{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        Result<ServeClient> client =
            ServeClient::ConnectUnixSocket(options.socket_path);
        if (!client.ok()) {
          ++failures;
          continue;
        }
        ServeRequest request;
        request.id = std::to_string(c) + "-" + std::to_string(r);
        request.command = "classify";
        request.args = {"deps.tgd"};
        request.file_names = {"deps.tgd"};
        if (r % 3 == 0) {
          // One shared ruleset, requested by every client.
          request.file_contents = {"p(X) -> q(X) .\n"};
        } else {
          // Distinct per (client, request).
          request.file_contents = {"p" + std::to_string(c) + "x" +
                                   std::to_string(r) +
                                   "(X) -> q(X) .\n"};
        }
        if (r % 7 == 6) {
          // Fire and vanish mid-request: the daemon must cancel and
          // discard without wedging a lane.
          if (!client->Send(request).ok()) ++failures;
          continue;
        }
        Result<ServeResponse> response = client->Call(request);
        if (!response.ok()) {
          ++failures;
          continue;
        }
        if (response->status == ServeStatus::kOverloaded) {
          continue;  // legitimate shed under load
        }
        if (response->status != ServeStatus::kOk ||
            response->exit_code != 0 || response->id != request.id ||
            response->out.find("figure-1") == std::string::npos) {
          ADD_FAILURE() << "bad response for " << request.id << ": "
                        << RenderServeResponse(*response);
          ++failures;
          continue;
        }
        ++ok_count;
      }
    });
  }
  for (std::thread& client : clients) client.join();

  shutdown.Cancel();
  server.join();

  EXPECT_EQ(failures.load(), 0);
  // 6 clients * 25 requests, minus the ~1/7 that disconnect on purpose.
  EXPECT_GT(ok_count.load(), kClients * kRequestsPerClient / 2);
}

}  // namespace
}  // namespace tgdkit
