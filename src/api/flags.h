// One command-line grammar for every tgdkit command.
//
// Each command declares its flags once, as a table with one row per
// flag: its name, the kind and bounds of its value, and where the value
// goes. One loop (FlagTable::Parse) walks a command line against a
// table, and every other place that needs the grammar asks the tables:
// a batch manifest's `batch key=value` settings are batch's flags, and
// batch's argv rewriting asks the engine commands' table which flags
// take a value.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "base/status.h"
#include "base/strings.h"

namespace tgdkit {

/// Reads `text`, the value given to the numeric flag `flag`. The value
/// must be decimal digits only and within [min, max]; `max` bounds a
/// value that is later scaled or narrowed so that its stored form cannot
/// wrap around. InvalidArgument naming the flag otherwise. Every number
/// tgdkit reads from a command line or a manifest goes through it.
Status ParseNumericFlag(std::string_view flag, const std::string& text,
                        uint64_t min, uint64_t max, uint64_t* value);

/// Refuses an empty `value` for the text flag `flag`, and one outside
/// `choices` when those are given.
Status CheckTextFlag(std::string_view flag, const std::string& value,
                     std::span<const std::string_view> choices);

/// One flag of a command. The kind of its value is the kind of `store`:
/// a switch takes no value (in a manifest, true|false|1|0), a number is
/// read by ParseNumericFlag within [min, max], and text is any non-empty
/// token, or one of `choices` when those are given.
template <typename Options>
struct Flag {
  using Switch = void (*)(Options*, bool);
  using Number = void (*)(Options*, uint64_t);
  using Text = void (*)(Options*, const std::string&);

  std::string_view name;
  std::variant<Switch, Number, Text> store;
  uint64_t min = 0;
  uint64_t max = UINT64_MAX;
  std::span<const std::string_view> choices = {};
  /// The value may also be joined to the name, as "--name=value".
  bool joined = false;

  bool TakesValue() const { return !std::holds_alternative<Switch>(store); }

  /// Checks `value` against the row's kind and bounds, then stores it.
  Status Set(Options* options, const std::string& value) const {
    if (const Switch* on = std::get_if<Switch>(&store)) {
      if (value != "true" && value != "1" && value != "false" &&
          value != "0") {
        return Status::InvalidArgument(Cat(name, " must be true or false"));
      }
      (*on)(options, value == "true" || value == "1");
    } else if (const Number* number = std::get_if<Number>(&store)) {
      uint64_t parsed = 0;
      TGDKIT_RETURN_IF_ERROR(ParseNumericFlag(name, value, min, max, &parsed));
      (*number)(options, parsed);
    } else {
      TGDKIT_RETURN_IF_ERROR(CheckTextFlag(name, value, choices));
      std::get<Text>(store)(options, value);
    }
    return Status::Ok();
  }
};

/// A command's flags. `unknown` starts the message for a token that is
/// none of them.
template <typename Options>
struct FlagTable {
  std::string_view unknown;
  std::vector<Flag<Options>> flags;

  /// The row named exactly `name`, or null.
  const Flag<Options>* Find(std::string_view name) const {
    for (const Flag<Options>& flag : flags) {
      if (flag.name == name) return &flag;
    }
    return nullptr;
  }

  /// Parses `args` after the command word args[0] into `options`. Tokens
  /// that do not start with "--" are appended to `positional`, or refused
  /// when it is null. A malformed command line writes one diagnostic
  /// naming the flag to `err` and returns false (exit code kExitUsage).
  bool Parse(const std::vector<std::string>& args, Options* options,
             std::vector<std::string>* positional, std::ostream& err) const {
    for (size_t i = 1; i < args.size(); ++i) {
      Status status = ParseOne(args, &i, options, positional);
      if (!status.ok()) {
        err << "tgdkit: " << status.message() << "\n";
        return false;
      }
    }
    return true;
  }

 private:
  /// Consumes args[*i] and, for a flag with a separate value, the token
  /// after it.
  Status ParseOne(const std::vector<std::string>& args, size_t* i,
                  Options* options,
                  std::vector<std::string>* positional) const {
    const std::string& arg = args[*i];
    if (const Flag<Options>* flag = Find(arg)) {
      if (!flag->TakesValue()) {
        std::get<typename Flag<Options>::Switch>(flag->store)(options, true);
        return Status::Ok();
      }
      if (*i + 1 >= args.size()) {
        return Status::InvalidArgument(Cat("missing value for ", arg));
      }
      return flag->Set(options, args[++*i]);
    }
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      const Flag<Options>* flag = Find(std::string_view(arg).substr(0, eq));
      if (flag != nullptr && flag->joined) {
        return flag->Set(options, arg.substr(eq + 1));
      }
    }
    if (positional == nullptr || arg.rfind("--", 0) == 0) {
      return Status::InvalidArgument(Cat(unknown, arg));
    }
    positional->push_back(arg);
    return Status::Ok();
  }
};

}  // namespace tgdkit
