#pragma once

// Strict numeric flag values for the example drivers: "--workers=abc",
// "--deadline=x" or "--listen=80x" is a usage error (exit 2), like the
// bench drivers' parseBenchArgs, instead of silently running on as 1, 0
// or 80.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

namespace occm::examples {

/// The text of `arg` from `from` (default: after its '=') as a T, when
/// the whole of it is one: no trailing bytes, no overflow, no sign on an
/// unsigned type. Anything else prints the error and `usage()` to stderr
/// and exits 2.
template <typename T, typename Usage>
T flagValue(const std::string& arg, const Usage& usage,
            std::size_t from = std::string::npos) {
  const std::string_view text = std::string_view(arg).substr(
      from == std::string::npos ? arg.find('=') + 1 : from);
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc{} || stop != end) {
    std::fprintf(stderr, "error: bad value in \"%s\"\n", arg.c_str());
    usage();
    std::exit(2);
  }
  return value;
}

}  // namespace occm::examples
