//===- support/Str.h - Small string formatting helpers ---------*- C++ -*-===//
//
// Part of the balsched project: a reproduction of Lo & Eggers, "Improving
// Balanced Scheduling with Compiler Optimizations that Increase
// Instruction-Level Parallelism" (PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String formatting helpers used throughout the project, and the strict
/// number parsers every command-line numeric flag goes through. We
/// deliberately avoid <iostream> in library code (per the LLVM coding
/// standards); these helpers build std::strings that callers print with
/// std::fputs / printf.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SUPPORT_STR_H
#define BALSCHED_SUPPORT_STR_H

#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

namespace bsched {

/// Formats \p Value with \p Decimals digits after the decimal point.
std::string fmtDouble(double Value, int Decimals = 2);

/// Formats \p Value with enough significant digits (%.17g) to round-trip
/// the exact bit pattern through strtod.
std::string fmtDoubleExact(double Value);

/// Formats \p Value as a percentage string, e.g. "23.3%".
std::string fmtPercent(double Fraction, int Decimals = 1);

/// Formats an integer with thousands separators, e.g. "1,234,567".
std::string fmtInt(int64_t Value);

/// Formats \p Value scaled to millions with one decimal, e.g. "17844.8".
std::string fmtMillions(uint64_t Value, int Decimals = 1);

/// Returns true if \p Str starts with \p Prefix.
bool startsWith(const std::string &Str, const std::string &Prefix);

/// Reads all of \p Text as a number of at least 0 into \p Out; false, with
/// \p Out unchanged, for junk, trailing characters, a negative value or one
/// that does not fit T, so a numeric flag never reads a typo as 0 or
/// wraps a value into range.
template <typename T> bool parseNonNegative(const char *Text, T &Out) {
  const char *End = Text + std::strlen(Text);
  T V{};
  auto [Ptr, Err] = std::from_chars(Text, End, V);
  if (Err != std::errc() || Ptr != End)
    return false;
  if constexpr (!std::is_unsigned_v<T>)
    if (!(V >= 0)) // refuses a NaN too
      return false;
  Out = V;
  return true;
}

/// As parseNonNegative, but 0 is refused too.
template <typename T> bool parsePositive(const char *Text, T &Out) {
  T V{};
  if (!parseNonNegative(Text, V) || !(V > 0))
    return false;
  Out = V;
  return true;
}

} // namespace bsched

#endif // BALSCHED_SUPPORT_STR_H
