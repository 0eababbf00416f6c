#include "api/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace tgdkit {

Status ParseNumericFlag(std::string_view flag, const std::string& text,
                        uint64_t min, uint64_t max, uint64_t* value) {
  // Validate by hand: strtoull skips leading space, takes a sign and
  // stops at trailing junk; option values must be pure digits.
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument(
        Cat("invalid value '", text, "' for ", flag));
  }
  errno = 0;
  uint64_t parsed = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || parsed < min || parsed > max) {
    return Status::InvalidArgument(
        min == 0 ? Cat("value '", text, "' for ", flag,
                       " is out of range (at most ", max, ")")
                 : Cat("value '", text, "' for ", flag,
                       " is out of range (between ", min, " and ", max,
                       ")"));
  }
  *value = parsed;
  return Status::Ok();
}

Status CheckTextFlag(std::string_view flag, const std::string& value,
                     std::span<const std::string_view> choices) {
  if (value.empty()) {
    return Status::InvalidArgument(Cat("empty value for ", flag));
  }
  if (choices.empty() ||
      std::find(choices.begin(), choices.end(), value) != choices.end()) {
    return Status::Ok();
  }
  std::string allowed(choices[0]);
  for (size_t i = 1; i < choices.size(); ++i) {
    allowed += i + 1 == choices.size() ? " or " : ", ";
    allowed += choices[i];
  }
  return Status::InvalidArgument(Cat(flag, " must be ", allowed));
}

}  // namespace tgdkit
