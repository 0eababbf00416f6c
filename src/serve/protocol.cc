#include "serve/protocol.h"

#include "base/strings.h"
#include "supervise/jsonl.h"

namespace tgdkit {

const char* ToString(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kBadRequest: return "bad_request";
    case ServeStatus::kOverloaded: return "overloaded";
    case ServeStatus::kQuarantined: return "quarantined";
    case ServeStatus::kTimeout: return "timeout";
    case ServeStatus::kDraining: return "draining";
  }
  return "unknown";
}

bool ParseServeStatus(std::string_view text, ServeStatus* out) {
  static constexpr ServeStatus kAll[] = {
      ServeStatus::kOk,          ServeStatus::kBadRequest,
      ServeStatus::kOverloaded,  ServeStatus::kQuarantined,
      ServeStatus::kTimeout,     ServeStatus::kDraining,
  };
  for (ServeStatus candidate : kAll) {
    if (text == ToString(candidate)) {
      *out = candidate;
      return true;
    }
  }
  return false;
}

Status ParseServeRequest(std::string_view line, ServeRequest* out) {
  FlatJson fields;
  Status parsed = ParseFlatJson(line, &fields);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        Cat("request frame: ", parsed.message()));
  }
  out->id = GetJsonString(fields, "id");
  out->command = GetJsonString(fields, "command");
  out->args = GetJsonStringArray(fields, "args");
  out->file_names = GetJsonStringArray(fields, "file_names");
  out->file_contents = GetJsonStringArray(fields, "file_contents");
  out->deadline_ms = GetJsonU64(fields, "deadline_ms");
  out->memory_mb = GetJsonU64(fields, "memory_mb");
  if (out->id.empty()) {
    return Status::InvalidArgument("request frame: missing id");
  }
  if (out->command.empty()) {
    return Status::InvalidArgument("request frame: missing command");
  }
  if (out->file_names.size() != out->file_contents.size()) {
    return Status::InvalidArgument(
        Cat("request frame: ", out->file_names.size(),
            " file_names vs ", out->file_contents.size(),
            " file_contents"));
  }
  return Status::Ok();
}

std::string RenderServeRequest(const ServeRequest& request) {
  std::string out = "{";
  AppendJsonString(&out, "id", request.id);
  AppendJsonString(&out, "command", request.command);
  if (!request.args.empty()) {
    AppendJsonStringArray(&out, "args", request.args);
  }
  if (!request.file_names.empty()) {
    AppendJsonStringArray(&out, "file_names", request.file_names);
    AppendJsonStringArray(&out, "file_contents", request.file_contents);
  }
  if (request.deadline_ms != 0) {
    AppendJsonRaw(&out, "deadline_ms", std::to_string(request.deadline_ms));
  }
  if (request.memory_mb != 0) {
    AppendJsonRaw(&out, "memory_mb", std::to_string(request.memory_mb));
  }
  out += '}';
  return out;
}

Status ParseServeResponse(std::string_view line, ServeResponse* out) {
  FlatJson fields;
  Status parsed = ParseFlatJson(line, &fields);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        Cat("response frame: ", parsed.message()));
  }
  out->id = GetJsonString(fields, "id");
  if (!ParseServeStatus(GetJsonString(fields, "status"), &out->status)) {
    return Status::InvalidArgument("response frame: unknown status");
  }
  out->exit_code = static_cast<int>(GetJsonI64(fields, "exit", 0));
  out->duration_ms = GetJsonU64(fields, "duration_ms");
  out->out = GetJsonString(fields, "stdout");
  out->err = GetJsonString(fields, "stderr");
  out->error = GetJsonString(fields, "error");
  out->retry_after_ms = GetJsonU64(fields, "retry_after_ms");
  return Status::Ok();
}

std::string RenderServeResponse(const ServeResponse& response) {
  std::string out = "{";
  AppendJsonString(&out, "id", response.id);
  AppendJsonString(&out, "status", ToString(response.status));
  if (response.status == ServeStatus::kOk) {
    AppendJsonRaw(&out, "exit", std::to_string(response.exit_code));
    AppendJsonRaw(&out, "duration_ms",
                  std::to_string(response.duration_ms));
    AppendJsonString(&out, "stdout", response.out);
    AppendJsonString(&out, "stderr", response.err);
  } else {
    AppendJsonString(&out, "error", response.error);
    if (response.retry_after_ms != 0) {
      AppendJsonRaw(&out, "retry_after_ms",
                    std::to_string(response.retry_after_ms));
    }
  }
  out += '}';
  return out;
}

ServeResponse MakeRefusal(std::string id, ServeStatus status,
                          std::string error) {
  ServeResponse response;
  response.id = std::move(id);
  response.status = status;
  response.error = std::move(error);
  return response;
}

}  // namespace tgdkit
