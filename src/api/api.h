// The tgdkit command layer as a reusable, request-scoped library.
//
// RunCommand executes one subcommand invocation (classify, lint, chase,
// check, certain, normalize, dot, explain, compose, solve, batch,
// selftest) exactly like the `tgdkit` binary would, but with everything
// a resident server needs scoped to the request instead of the process:
//
//   * cancellation — ApiOptions::cancel is threaded into every engine
//     budget, so a client disconnect or server watchdog can stop this
//     request without touching its neighbours;
//   * input resolution — ApiOptions::resolver lets the caller serve
//     file contents from memory (the serve protocol ships rulesets
//     inline), falling back to the filesystem when it declines;
//   * process safety — ApiOptions::forbid_fork_workers rejects batch
//     configurations that would fork() in-process workers, which is
//     undefined behaviour from a multithreaded daemon.
//
// The CLI driver (src/cli) is a thin wrapper binding this API to the
// process-global signal-driven cancellation token; byte-identical
// output between a one-shot CLI run and a served request falls out of
// both going through RunCommand.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "api/flags.h"
#include "base/budget.h"
#include "base/status.h"

namespace tgdkit {

/// Process exit codes of every tgdkit subcommand. The mapping is part of
/// the CLI contract (docs/FORMAT.md, "Exit codes"): the batch
/// supervisor's run ledger and retry policy key off these values, and
/// the serve protocol echoes them verbatim in its `exit` field, so
/// every subcommand must conform (asserted by tests/cli_exit_code_test).
enum ExitCode : int {
  /// Command completed and every verdict it computed is positive.
  kExitOk = 0,
  /// Malformed command line: unknown command/option, wrong arity,
  /// invalid option value. Deterministic; retrying is pointless.
  kExitUsage = 1,
  /// An input could not be loaded: missing file, parse error, corrupt or
  /// version-mismatched snapshot. Deterministic; retrying is pointless.
  kExitInput = 2,
  /// The command ran to completion and the answer is negative: `check`
  /// found a violation, `lint` found findings at/above --fail-on,
  /// `batch` ended with quarantined or negative-verdict tasks.
  kExitVerdict = 3,
  /// A resource budget stopped the engine (StopReason other than
  /// fixpoint, including cooperative SIGINT/SIGTERM cancellation). The
  /// partial result and a `# status:` line are on stdout.
  kExitResource = 4,
  /// Environment/internal failure: a checkpoint or ledger write failed,
  /// worker subprocess machinery broke. Possibly transient.
  kExitInternal = 5,
  /// The result could not be delivered: stdout was closed under the
  /// command (EPIPE from a dead downstream reader). The computation may
  /// have finished, but an unknown prefix of the output was dropped, so
  /// the run must not be treated as complete.
  kExitPipe = 6,
};

/// Maps a Status to the exit-code contract above.
int ExitCodeForStatus(const Status& status);

/// Maps an engine stop reason: kExitOk for fixpoint, kExitResource
/// otherwise.
int ExitCodeForStop(StopReason stop);

/// Resolves an input path to file contents without touching the
/// filesystem. Returning nullopt means "not mine" and the path is read
/// from disk as usual; returning a value serves that content (the serve
/// daemon maps protocol-supplied virtual files this way). Error
/// messages still print the path the caller used, so output stays
/// byte-identical whether the bytes came from memory or disk.
using FileResolver =
    std::function<std::optional<std::string>(const std::string& path)>;

/// Per-request execution context for RunCommand.
struct ApiOptions {
  /// Polled by every engine this request starts. Each request gets its
  /// own token; Cancel() stops this request and nothing else.
  CancellationToken cancel;
  /// Consulted before the filesystem for every input path (may be
  /// empty). Only single-shot commands honour it: batch workers are
  /// separate processes and cannot see the caller's memory.
  FileResolver resolver;
  /// Reject `batch` invocations that would fork in-process workers
  /// (i.e. without --worker BIN). Set by the serve daemon: fork() from
  /// a multithreaded process can deadlock in the child.
  bool forbid_fork_workers = false;
};

/// What the engine commands' flags set (the budgets, checkpoint and
/// spill settings, and lint's output options).
struct EngineOptions;

/// The flags of the engine commands: classify, lint, chase, check,
/// certain, normalize, dot, explain, compose and solve. Every engine
/// command accepts every row; RunCommand refuses the checkpoint and spill
/// flags for the commands that cannot honour them.
const FlagTable<EngineOptions>& EngineFlags();

/// Runs one subcommand invocation. `args` excludes the program name.
/// Returns a process exit code from the ExitCode table. Thread-safe:
/// concurrent calls share nothing but the streams they are given.
int RunCommand(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err, const ApiOptions& options = {});

}  // namespace tgdkit
