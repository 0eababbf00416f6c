// Batch manifest: the task list `tgdkit batch` supervises.
//
// A manifest is a line-oriented text file (see docs/BATCH.md):
//
//   # comment (also //); blank lines ignored; a trailing backslash
//   # joins the next line
//   batch max-parallel=4 retries=3 backoff-ms=200 task-deadline-ms=60000
//   task lint-univ : lint corpus/university.tgd --fail-on=warning
//   task chase-tau deadline-ms=5000 env TGDKIT_CRASH_AT=3 :
//     chase corpus/paper_tau.tgd seed.inst --seed 7   (one logical line)
//
// Each task is an ordinary tgdkit subcommand invocation (anything RunCli
// accepts except `batch` itself), plus optional per-task attributes
// (deadline-ms=, retries=) and environment variables for the worker
// process. A `batch` directive's `key=value` is the `tgdkit batch` flag
// `--key` with that value (a switch takes true|false|1|0 here); flags on
// the command line override it.
//
// This header also hosts the argv-rewriting helpers the supervisor's
// retry/degradation policy applies between attempts: forcing --threads 1
// after a crash, scaling budget options after a ResourceExhausted stop,
// and rewriting a chase invocation to resume from its checkpoint.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"

namespace tgdkit {

struct SupervisorOptions;

/// One supervised task: a tgdkit subcommand invocation.
struct ManifestTask {
  std::string id;
  /// Full CLI argv, subcommand first (what RunCli receives).
  std::vector<std::string> args;
  /// Extra environment for the worker process (fault injection, etc.).
  std::vector<std::pair<std::string, std::string>> env;
  std::optional<uint64_t> deadline_ms;
  std::optional<uint64_t> retries;
  /// `isolation=none`: run in-process through the library API instead of
  /// a forked worker — a fast path for cheap, read-only subcommands
  /// (classify, lint, normalize, dot) that skips the fork/pipe/reap
  /// round-trip. Only those commands qualify, env attributes are
  /// rejected, and the task runs without per-task deadline enforcement
  /// (supervisor shutdown still cancels it cooperatively). Everything
  /// else keeps `isolation=fork`, the fault-isolated default.
  bool in_process = false;
  /// 1-based manifest line of the `task` directive (diagnostics).
  size_t line = 0;
};

struct Manifest {
  std::vector<ManifestTask> tasks;
};

/// Parses manifest text and applies its `batch` settings to `*settings`,
/// in order, through batch's flag table (BatchFlags). InvalidArgument
/// with a line number on malformed directives or settings, duplicate or
/// invalid task ids, or a `batch` task command. Only batch's number and
/// switch flags are settings; its paths are not.
Result<Manifest> ParseManifest(std::string_view text,
                               SupervisorOptions* settings);

/// Reads and parses a manifest file; a parse error names the file.
Result<Manifest> LoadManifest(const std::string& path,
                              SupervisorOptions* settings);

/// True if task ids may use this string (1-64 chars of [A-Za-z0-9._-],
/// not starting with '.' or '-'); ids become checkpoint/artifact file
/// names, so the charset is deliberately narrow.
bool IsValidTaskId(std::string_view id);

/// True for an engine-command option whose value is the next token
/// (--max-steps, --checkpoint, --spill-dir, ...), as the engine commands'
/// flag table (EngineFlags in api/api.h) parses it. Tells positionals
/// from option values when rewriting a task argv.
bool OptionTakesValue(std::string_view arg);

/// Replaces the value of `option` in `args`, appending "option value" if
/// absent. Handles only separate-token values (the form the supervisor
/// itself writes).
std::vector<std::string> WithForcedOption(std::vector<std::string> args,
                                          std::string_view option,
                                          std::string_view value);

/// Multiplies the values of the budget options (--max-steps,
/// --deadline-ms, --max-memory-mb) by `factor`, saturating at uint64 max.
/// Options that are absent stay absent (absent = unlimited already).
std::vector<std::string> WithScaledBudgets(std::vector<std::string> args,
                                           uint64_t factor);

/// Rewrites a `chase DEPS INSTANCE ...` argv into the resume form
/// `chase --resume SNAP ...`: positionals are dropped, every option is
/// kept, and --checkpoint is forced to SNAP so the resumed leg keeps
/// checkpointing to the same file.
std::vector<std::string> RewriteChaseForResume(
    const std::vector<std::string>& args, const std::string& snapshot_path);

/// Renders an argv as a copy-pasteable shell command (for triage
/// reproduction lines), quoting tokens that need it.
std::string ShellQuote(const std::vector<std::string>& args);

}  // namespace tgdkit
