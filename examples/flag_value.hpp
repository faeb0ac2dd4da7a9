#pragma once

// Strict flag values for the example drivers: "--workers=abc",
// "--deadline=x", "--listen=80x" or an unknown workload such as "XX.S" is
// a usage error (exit 2), like the bench drivers' parseBenchArgs, instead
// of silently running on as 1, 0 or 80.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

#include "workloads/workload.hpp"

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

/// "PROG.CLASS" in the paper's notation ("CG.C", "x264.native") as the
/// spec of a program and a class valid for it. Anything else prints the
/// error and `usage()` to stderr and exits 2.
template <typename Usage>
workloads::WorkloadSpec workloadValue(const std::string& arg,
                                      const Usage& usage) {
  const std::size_t dot = arg.find('.');
  if (dot != std::string::npos) {
    const auto program = workloads::parseProgram(arg.substr(0, dot));
    const auto cls = workloads::parseProblemClass(arg.substr(dot + 1));
    if (program && cls && workloads::classValidFor(*program, *cls)) {
      return {.program = *program, .problemClass = *cls};
    }
  }
  std::fprintf(stderr,
               "error: unknown workload \"%s\" (want PROG.CLASS, e.g. CG.C "
               "or x264.native)\n",
               arg.c_str());
  usage();
  std::exit(2);
}

}  // namespace occm::examples
