// E15 — resident serving: `tgdkit serve` answers protocol pings and
// classify requests (each a full run on a pool lane) over a Unix socket,
// and sheds overload with typed refusals instead of queueing
// (docs/SERVE.md). Prints the admission/shed table for a deliberate
// overload burst, then benchmarks the two request latencies so CI can
// gate the resident path via tools/bench_gate.py (BENCH_serve.json).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace tgdkit {
namespace {

/// One in-process daemon on its own Unix socket; joined on destruction.
struct ServerHarness {
  explicit ServerHarness(const char* tag, ServeOptions base = {}) {
    options = std::move(base);
    options.socket_path = "/tmp/tgdkit_bench_serve_" +
                          std::to_string(getpid()) + "_" + tag + ".sock";
    options.shutdown = shutdown;
    options.on_ready = [this](uint16_t) { ready.set_value(); };
    thread = std::thread([this] {
      std::ostringstream out, err;
      RunServer(options, out, err);
    });
    ready.get_future().wait();
  }
  ~ServerHarness() {
    shutdown.Cancel();
    thread.join();
  }

  ServeOptions options;
  CancellationToken shutdown;
  std::promise<void> ready;
  std::thread thread;
};

ServerHarness* g_server = nullptr;

ServeRequest ClassifyRequest(std::string id, std::string ruleset) {
  ServeRequest request;
  request.id = std::move(id);
  request.command = "classify";
  request.args = {"deps.tgd"};
  request.file_names = {"deps.tgd"};
  request.file_contents = {std::move(ruleset)};
  return request;
}

/// The admission contract, demonstrated: a burst far past capacity gets
/// an immediate typed answer for every request — admitted ones run,
/// the rest shed with `overloaded` and a retry hint; nothing queues.
void PrintShedTable() {
  ServeOptions options;
  options.threads = 2;
  options.max_inflight = 2;
  ServerHarness server("shed", options);

  std::printf("\nE15 — serve admission under a deliberate overload burst\n");
  std::printf("(2 lanes, max-inflight 2; every request is answered "
              "immediately — ok or a typed shed, never queued)\n");
  std::printf("%-12s | %8s | %6s | %10s\n", "burst", "admitted", "shed",
              "unanswered");
  std::printf("-------------+----------+--------+-----------\n");
  for (int burst : {2, 8, 16}) {
    std::atomic<int> ok{0}, shed{0}, lost{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < burst; ++c) {
      clients.emplace_back([&, c] {
        Result<ServeClient> client =
            ServeClient::ConnectUnixSocket(server.options.socket_path);
        if (!client.ok()) {
          ++lost;
          return;
        }
        ServeRequest request;
        request.id = "burst-" + std::to_string(c);
        request.command = "selftest";
        request.args = {"--spin-ms", "100"};
        Result<ServeResponse> response = client->Call(request);
        if (!response.ok()) {
          ++lost;
        } else if (response->status == ServeStatus::kOk) {
          ++ok;
        } else if (response->status == ServeStatus::kOverloaded) {
          ++shed;
        } else {
          ++lost;
        }
      });
    }
    for (std::thread& client : clients) client.join();
    std::printf("%-12d | %8d | %6d | %10d\n", burst, ok.load(), shed.load(),
                lost.load());
  }
}

void BM_ServePing(benchmark::State& state) {
  // Protocol floor: frame parse + poll-loop dispatch + reply, no worker.
  Result<ServeClient> client =
      ServeClient::ConnectUnixSocket(g_server->options.socket_path);
  if (!client.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  ServeRequest ping;
  ping.id = "ping";
  ping.command = "ping";
  for (auto _ : state) {
    Result<ServeResponse> response = client->Call(ping);
    if (!response.ok()) {
      state.SkipWithError("ping failed");
      return;
    }
    benchmark::DoNotOptimize(response->id);
  }
}
BENCHMARK(BM_ServePing)->Unit(benchmark::kMicrosecond);

void BM_ServeColdClassify(benchmark::State& state) {
  // Each iteration classifies a fresh one-rule ruleset: a full parse +
  // classification on a pool lane, on top of BM_ServePing's floor.
  Result<ServeClient> client =
      ServeClient::ConnectUnixSocket(g_server->options.socket_path);
  if (!client.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  static int counter = 0;
  for (auto _ : state) {
    ++counter;
    ServeRequest request = ClassifyRequest(
        "cold" + std::to_string(counter),
        "p" + std::to_string(counter) + "(X) -> q(X) .\n");
    Result<ServeResponse> response = client->Call(request);
    if (!response.ok() || response->status != ServeStatus::kOk) {
      state.SkipWithError("cold request failed");
      return;
    }
    benchmark::DoNotOptimize(response->out);
  }
}
BENCHMARK(BM_ServeColdClassify)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tgdkit

int main(int argc, char** argv) {
  tgdkit::PrintShedTable();
  {
    tgdkit::ServeOptions options;
    options.threads = 4;
    tgdkit::ServerHarness server("bench", options);
    tgdkit::g_server = &server;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    tgdkit::g_server = nullptr;
  }
  return 0;
}
