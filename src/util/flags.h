#ifndef ROADNET_UTIL_FLAGS_H_
#define ROADNET_UTIL_FLAGS_H_

#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace roadnet {

// Strict --flag parser shared by the command-line tools.
//
// Each command declares its flags up front: `valued` flags consume the
// following token as their value, `boolean` flags take none and map to
// "1". Anything else — an unknown flag (so typos like --metrics-ouT fail
// loudly instead of being silently ignored), a valued flag at the end of
// the line, or a stray positional token — is an error described in
// *error, and the parse returns nullopt.
struct FlagSpec {
  std::vector<std::string> valued;
  std::vector<std::string> boolean;
};

using FlagMap = std::map<std::string, std::string>;

inline std::optional<FlagMap> ParseFlags(int argc, char* const* argv,
                                         int first, const FlagSpec& spec,
                                         std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  auto contains = [](const std::vector<std::string>& v,
                     const std::string& s) {
    for (const std::string& e : v) {
      if (e == s) return true;
    }
    return false;
  };
  FlagMap flags;
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      return fail("unexpected argument '" + token + "'");
    }
    const std::string name = token.substr(2);
    if (flags.count(name) > 0) {
      return fail("duplicate flag --" + name);
    }
    if (contains(spec.valued, name)) {
      if (i + 1 >= argc) {
        return fail("flag --" + name + " requires a value");
      }
      flags[name] = argv[++i];
    } else if (contains(spec.boolean, name)) {
      flags[name] = "1";
    } else {
      return fail("unknown flag --" + name);
    }
  }
  return flags;
}

// Reads numeric flag `name`, if given, into *out. The whole token must
// be an unsigned decimal integer within T's range (no sign, blank or
// suffix). Otherwise it returns false with *error naming the flag and
// leaves *out alone.
template <typename T>
bool NumericFlag(const FlagMap& flags, const std::string& name, T* out,
                 std::string* error) {
  static_assert(std::is_unsigned_v<T>);
  const auto it = flags.find(name);
  if (it == flags.end()) return true;
  const std::string& text = it->second;
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end) {
    *out = value;
    return true;
  }
  *error = "--" + name + ": '" + text + "' is not an integer in [0, " +
           std::to_string(std::numeric_limits<T>::max()) + "]";
  return false;
}

}  // namespace roadnet

#endif  // ROADNET_UTIL_FLAGS_H_
