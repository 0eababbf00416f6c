#include "supervise/manifest.h"

#include <limits>

#include "api/api.h"
#include "base/fileio.h"
#include "base/strings.h"
#include "supervise/supervisor.h"

namespace tgdkit {

namespace {

Status LineError(size_t line, const std::string& what) {
  return Status::InvalidArgument(Cat("manifest line ", line, ": ", what));
}

/// Splits one logical manifest line into tokens: whitespace-separated,
/// with double-quoted tokens that may contain spaces (\" and \\ escapes).
/// A '#' or "//" at the start of a token ends the line (comment).
Status Tokenize(std::string_view text, size_t line,
                std::vector<std::string>* out) {
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    if (i >= text.size()) break;
    if (text[i] == '#' ||
        (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '/')) {
      break;
    }
    std::string token;
    if (text[i] == '"') {
      ++i;
      bool closed = false;
      while (i < text.size()) {
        char c = text[i++];
        if (c == '\\' && i < text.size() &&
            (text[i] == '"' || text[i] == '\\')) {
          token += text[i++];
        } else if (c == '"') {
          closed = true;
          break;
        } else {
          token += c;
        }
      }
      if (!closed) return LineError(line, "unterminated quoted token");
    } else {
      while (i < text.size() && text[i] != ' ' && text[i] != '\t') {
        token += text[i++];
      }
    }
    out->push_back(std::move(token));
  }
  return Status::Ok();
}

/// Applies one `key=value` of a `batch` directive: the flag `--key` of
/// batch's table with that value.
Status ApplySetting(const std::string& token, size_t line,
                    SupervisorOptions* settings) {
  size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    return LineError(line, Cat("malformed batch setting '", token, "'"));
  }
  std::string key = token.substr(0, eq);
  const Flag<SupervisorOptions>* flag = BatchFlags().Find(Cat("--", key));
  if (flag == nullptr ||
      std::holds_alternative<Flag<SupervisorOptions>::Text>(flag->store)) {
    return LineError(line, Cat("unknown batch setting '", key, "'"));
  }
  Status set = flag->Set(settings, token.substr(eq + 1));
  return set.ok() ? set : LineError(line, set.message());
}

Status ParseTaskDirective(const std::vector<std::string>& tokens, size_t line,
                          ManifestTask* task) {
  if (tokens.size() < 2) return LineError(line, "task needs an id");
  task->id = tokens[1];
  task->line = line;
  if (!IsValidTaskId(task->id)) {
    return LineError(
        line, Cat("invalid task id '", task->id,
                  "' (want 1-64 chars of [A-Za-z0-9._-], not starting "
                  "with '.' or '-')"));
  }
  size_t i = 2;
  // Attributes and env assignments until the ':' separator.
  for (; i < tokens.size() && tokens[i] != ":"; ++i) {
    const std::string& token = tokens[i];
    if (token == "env") {
      if (i + 1 >= tokens.size()) {
        return LineError(line, "env needs a NAME=VALUE argument");
      }
      const std::string& assignment = tokens[++i];
      size_t eq = assignment.find('=');
      if (eq == std::string::npos || eq == 0) {
        return LineError(line,
                         Cat("malformed env assignment '", assignment, "'"));
      }
      task->env.emplace_back(assignment.substr(0, eq),
                             assignment.substr(eq + 1));
      continue;
    }
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return LineError(line, Cat("unexpected token '", token,
                                 "' before ':' (did you mean 'env ", token,
                                 "=...'?)"));
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "isolation") {
      if (value == "none") {
        task->in_process = true;
      } else if (value == "fork") {
        task->in_process = false;
      } else {
        return LineError(line, "isolation must be 'fork' or 'none'");
      }
      continue;
    }
    uint64_t parsed = 0;
    if (!ParseNumericFlag(key, value, 0, UINT64_MAX, &parsed).ok()) {
      return LineError(line, Cat("invalid value in '", token, "'"));
    }
    if (key == "deadline-ms") {
      task->deadline_ms = parsed;
    } else if (key == "retries") {
      task->retries = parsed;
    } else {
      return LineError(line, Cat("unknown task attribute '", key, "'"));
    }
  }
  if (i >= tokens.size()) {
    return LineError(line, "task is missing the ': COMMAND ARGS...' part");
  }
  task->args.assign(tokens.begin() + static_cast<long>(i) + 1, tokens.end());
  if (task->args.empty()) {
    return LineError(line, "task has an empty command");
  }
  if (task->args[0] == "batch") {
    return LineError(line, "a batch task cannot itself be 'batch'");
  }
  if (task->in_process) {
    // The fast path trades fault isolation for latency, so it is only
    // open to subcommands that are cheap, read-only and thread-free; a
    // crash in anything else must stay contained in a forked worker.
    const std::string& command = task->args[0];
    if (command != "classify" && command != "lint" &&
        command != "normalize" && command != "dot") {
      return LineError(
          line, Cat("isolation=none is only available for classify, lint, "
                    "normalize and dot (got '", command, "')"));
    }
    if (!task->env.empty()) {
      return LineError(line,
                       "isolation=none tasks cannot set env (no worker "
                       "process to scope it to)");
    }
  }
  return Status::Ok();
}

}  // namespace

bool IsValidTaskId(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  if (id[0] == '.' || id[0] == '-') return false;
  for (char c : id) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Result<Manifest> ParseManifest(std::string_view text,
                               SupervisorOptions* settings) {
  Manifest manifest;
  size_t line_number = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    // One logical line: physical lines joined while they end in '\'.
    std::string logical;
    size_t first_line = 0;
    bool more = true;
    while (more && pos <= text.size()) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      std::string_view physical = text.substr(pos, eol - pos);
      pos = eol + 1;
      ++line_number;
      if (first_line == 0) first_line = line_number;
      if (!physical.empty() && physical.back() == '\r') {
        physical.remove_suffix(1);
      }
      if (!physical.empty() && physical.back() == '\\') {
        physical.remove_suffix(1);
        logical.append(physical);
        logical += ' ';
      } else {
        logical.append(physical);
        more = false;
      }
    }
    std::vector<std::string> tokens;
    TGDKIT_RETURN_IF_ERROR(Tokenize(logical, first_line, &tokens));
    if (tokens.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    if (tokens[0] == "batch") {
      for (size_t i = 1; i < tokens.size(); ++i) {
        TGDKIT_RETURN_IF_ERROR(ApplySetting(tokens[i], first_line, settings));
      }
    } else if (tokens[0] == "task") {
      ManifestTask task;
      TGDKIT_RETURN_IF_ERROR(ParseTaskDirective(tokens, first_line, &task));
      for (const ManifestTask& existing : manifest.tasks) {
        if (existing.id == task.id) {
          return LineError(first_line,
                           Cat("duplicate task id '", task.id, "'"));
        }
      }
      manifest.tasks.push_back(std::move(task));
    } else {
      return LineError(first_line, Cat("unknown directive '", tokens[0],
                                       "' (want 'batch' or 'task')"));
    }
    if (pos > text.size()) break;
  }
  if (manifest.tasks.empty()) {
    return Status::InvalidArgument("manifest defines no tasks");
  }
  return manifest;
}

Result<Manifest> LoadManifest(const std::string& path,
                              SupervisorOptions* settings) {
  Result<std::string> text = ReadFileBytes(path);
  if (!text.ok()) return text.status();
  Result<Manifest> manifest = ParseManifest(*text, settings);
  if (!manifest.ok()) {
    return Status::InvalidArgument(
        Cat(path, ": ", manifest.status().message()));
  }
  return manifest;
}

bool OptionTakesValue(std::string_view arg) {
  const Flag<EngineOptions>* flag = EngineFlags().Find(arg);
  return flag != nullptr && flag->TakesValue();
}

std::vector<std::string> WithForcedOption(std::vector<std::string> args,
                                          std::string_view option,
                                          std::string_view value) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == option) {
      if (i + 1 < args.size()) {
        args[i + 1] = std::string(value);
        return args;
      }
      args.push_back(std::string(value));
      return args;
    }
  }
  args.push_back(std::string(option));
  args.push_back(std::string(value));
  return args;
}

std::vector<std::string> WithScaledBudgets(std::vector<std::string> args,
                                           uint64_t factor) {
  for (size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] != "--max-steps" && args[i] != "--deadline-ms" &&
        args[i] != "--max-memory-mb") {
      continue;
    }
    uint64_t value = 0;
    if (!ParseNumericFlag(args[i], args[i + 1], 0, UINT64_MAX, &value).ok()) {
      continue;
    }
    uint64_t scaled = value;
    if (factor != 0 && value > std::numeric_limits<uint64_t>::max() / factor) {
      scaled = std::numeric_limits<uint64_t>::max();
    } else {
      scaled = value * factor;
    }
    args[i + 1] = std::to_string(scaled);
    ++i;
  }
  return args;
}

std::vector<std::string> RewriteChaseForResume(
    const std::vector<std::string>& args, const std::string& snapshot_path) {
  std::vector<std::string> out;
  out.push_back("chase");
  out.push_back("--resume");
  out.push_back(snapshot_path);
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) == 0) {
      if (arg == "--resume" || arg == "--checkpoint") {
        if (OptionTakesValue(arg)) ++i;  // drop: re-forced below
        continue;
      }
      out.push_back(arg);
      if (OptionTakesValue(arg) && i + 1 < args.size()) {
        out.push_back(args[++i]);
      }
    }
    // Non-option tokens are the DEPS/INSTANCE positionals: dropped — the
    // snapshot is self-contained.
  }
  out.push_back("--checkpoint");
  out.push_back(snapshot_path);
  return out;
}

std::string ShellQuote(const std::vector<std::string>& args) {
  return JoinMapped(args, " ", [](const std::string& arg) -> std::string {
    bool plain = !arg.empty();
    for (char c : arg) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                c == '-' || c == '/' || c == '=' || c == ':' || c == ',';
      if (!ok) {
        plain = false;
        break;
      }
    }
    if (plain) return arg;
    std::string quoted = "'";
    for (char c : arg) {
      if (c == '\'') {
        quoted += "'\\''";
      } else {
        quoted += c;
      }
    }
    quoted += "'";
    return quoted;
  });
}

}  // namespace tgdkit
