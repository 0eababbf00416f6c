// The tgdkit command-line driver, as a testable library. The `tgdkit`
// binary (tools/tgdkit_main.cc) forwards straight into CliMain. The
// command implementations live in src/api (a request-scoped library the
// serve daemon shares); this layer binds them to the process: the
// signal-driven global cancellation token, SIGPIPE handling, and the
// `serve` subcommand that turns the process into a resident service.
// The commands and their flags are listed in the usage text (kUsage in
// src/api/api.cc, printed by `tgdkit` with no arguments).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "api/api.h"  // IWYU pragma: export (ExitCode & friends)
#include "base/budget.h"
#include "base/status.h"

namespace tgdkit {

/// Runs one CLI invocation bound to the process-global cancellation
/// token. `args` excludes the program name. Returns a process exit code
/// from the ExitCode table (api/api.h).
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

/// The `tgdkit` binary's entire main: ignores SIGPIPE (a closed stdout
/// must become kExitPipe, not a silent death mid-output), installs the
/// cancellation signal handlers, runs RunCli against std::cout/cerr,
/// and downgrades the exit code to kExitPipe when stdout failed.
int CliMain(const std::vector<std::string>& args);

/// The process-wide cancellation token every RunCli invocation listens
/// on. Cancel() is async-signal-safe, so a SIGINT handler may call it;
/// engines then stop cleanly with StopReason::kCancelled. Reset() before
/// reuse (tests cancel and then run again in the same process).
CancellationToken& GlobalCancellationToken();

/// Wires SIGINT and SIGTERM to cooperative cancellation: the first
/// signal cancels GlobalCancellationToken() (engines stop cleanly with
/// partial output and — with --checkpoint — a final snapshot); a second
/// restores the default disposition and kills the process. Called by the
/// tgdkit binary and by forked batch workers (after resetting the
/// inherited token).
void InstallCancellationSignalHandlers();

}  // namespace tgdkit
