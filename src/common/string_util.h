#ifndef CDI_COMMON_STRING_UTIL_H_
#define CDI_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace cdi {

/// Returns `s` with ASCII letters lowered.
std::string ToLower(std::string_view s);

/// Returns `s` without leading/trailing whitespace.
std::string Trim(std::string_view s);

/// Splits `s` on `delim`; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Canonicalizes an entity name for matching: lower-cases, trims, collapses
/// runs of whitespace/punctuation to single underscores.
std::string NormalizeEntityName(std::string_view s);

/// Jaro-Winkler similarity in [0, 1]; 1 means equal strings.
double JaroWinkler(std::string_view a, std::string_view b);

/// Formats a double with `precision` significant decimal digits after the
/// point (fixed notation), e.g. FormatDouble(0.456789, 2) == "0.46".
std::string FormatDouble(double v, int precision);

/// Parses a count named `what` (a protocol argument or a tool flag): a
/// plain non-negative integer (digits only, no sign or fraction, no 64-bit
/// overflow) at most `ceiling`. kInvalidArgument naming `what` and the bad
/// value otherwise.
Result<std::uint64_t> ParseBoundedCount(const std::string& what,
                                        const std::string& value,
                                        std::uint64_t ceiling);

/// Parses a finite decimal number named `what` in [lo, hi]: the whole
/// value must parse ("0.5x" does not), and NaN and infinities are out of
/// every range. kInvalidArgument naming `what` and the bad value otherwise.
Result<double> ParseBoundedDouble(const std::string& what,
                                  const std::string& value, double lo,
                                  double hi);

/// Parses the value of the count flag `flag` (as `--workers`) of a tool:
/// ParseBoundedCount with the flag's name, plus a floor. On a bad value
/// prints the error to stderr, naming the flag, and returns false; `*out`
/// is written only on success.
bool ParseCountFlag(const std::string& flag, const char* value,
                    std::uint64_t floor, std::uint64_t ceiling,
                    std::uint64_t* out);

/// ParseCountFlag into a narrower field; `ceiling` must fit in T.
template <typename T>
bool ParseCountFlag(const std::string& flag, const char* value,
                    std::uint64_t floor, std::uint64_t ceiling, T* out) {
  std::uint64_t v = 0;
  if (!ParseCountFlag(flag, value, floor, ceiling, &v)) return false;
  *out = static_cast<T>(v);
  return true;
}

/// ParseBoundedDouble for the flag `flag`, reporting like ParseCountFlag.
bool ParseDoubleFlag(const std::string& flag, const char* value, double lo,
                     double hi, double* out);

/// Ceiling of every thread-count flag: each thread is started before any
/// work, so an absurd value is a usage error, not a spawn request.
inline constexpr std::uint64_t kMaxThreadsFlag = 256;

}  // namespace cdi

#endif  // CDI_COMMON_STRING_UTIL_H_
