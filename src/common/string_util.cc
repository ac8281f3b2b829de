#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace cdi {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string Trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string NormalizeEntityName(std::string_view s) {
  const std::string lowered = ToLower(Trim(s));
  std::string out;
  out.reserve(lowered.size());
  bool pending_sep = false;
  for (unsigned char c : lowered) {
    if (std::isalnum(c)) {
      if (pending_sep && !out.empty()) out += '_';
      pending_sep = false;
      out += static_cast<char>(c);
    } else {
      pending_sep = true;
    }
  }
  return out;
}

double JaroWinkler(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;

  const std::size_t n = a.size();
  const std::size_t m = b.size();
  const std::size_t window =
      std::max<std::size_t>(1, std::max(n, m) / 2) - 1;

  std::vector<bool> a_matched(n, false);
  std::vector<bool> b_matched(m, false);
  std::size_t matches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i > window ? i - window : 0;
    const std::size_t hi = std::min(m, i + window + 1);
    for (std::size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = true;
      b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;

  std::size_t transpositions = 0;
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[k]) ++k;
    if (a[i] != b[k]) ++transpositions;
    ++k;
  }
  const double md = static_cast<double>(matches);
  const double jaro = (md / n + md / m +
                       (md - transpositions / 2.0) / md) /
                      3.0;

  // Winkler prefix bonus (max prefix length 4, scaling 0.1).
  std::size_t prefix = 0;
  for (std::size_t i = 0; i < std::min({n, m, std::size_t{4}}); ++i) {
    if (a[i] == b[i]) {
      ++prefix;
    } else {
      break;
    }
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return std::string(buf);
}

namespace {

/// The flag's name as its errors print it: `--workers` -> `workers`.
std::string FlagName(const std::string& flag) {
  return flag.rfind("--", 0) == 0 ? flag.substr(2) : flag;
}

/// Stores a parsed flag value, or prints its error naming the flag.
template <typename T>
bool StoreFlag(const std::string& flag, const Result<T>& parsed, T* out) {
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", flag.c_str(),
                 parsed.status().message().c_str());
    return false;
  }
  *out = *parsed;
  return true;
}

}  // namespace

Result<std::uint64_t> ParseBoundedCount(const std::string& what,
                                        const std::string& value,
                                        std::uint64_t ceiling) {
  // strtoull alone would wrap "-1" and stop at the dot of "4.5", so every
  // character must be a digit; it saturates on overflow, so ERANGE too.
  bool digits = !value.empty();
  for (char c : value) digits = digits && c >= '0' && c <= '9';
  errno = 0;
  const unsigned long long v =
      digits ? std::strtoull(value.c_str(), nullptr, 10) : 0;
  if (!digits || errno == ERANGE) {
    return Status::InvalidArgument(
        "bad " + what + " value '" + value +
        "' (expected a non-negative integer below 2^64)");
  }
  if (v > ceiling) {
    return Status::InvalidArgument(what + "=" + value +
                                   " exceeds the ceiling of " +
                                   std::to_string(ceiling));
  }
  return static_cast<std::uint64_t>(v);
}

Result<double> ParseBoundedDouble(const std::string& what,
                                  const std::string& value, double lo,
                                  double hi) {
  char* end = nullptr;
  // strtod skips leading blanks and reads "nan" and "inf"; none is a
  // finite number as a whole value.
  const bool blank =
      value.empty() || std::isspace(static_cast<unsigned char>(value[0]));
  const double v = blank ? 0.0 : std::strtod(value.c_str(), &end);
  if (blank || end != value.c_str() + value.size() || !std::isfinite(v)) {
    return Status::InvalidArgument("bad " + what + " value '" + value +
                                   "' (expected a finite number)");
  }
  if (v < lo || v > hi) {
    return Status::InvalidArgument(what + "=" + value + " is outside [" +
                                   FormatDouble(lo, 2) + ", " +
                                   FormatDouble(hi, 2) + "]");
  }
  return v;
}

bool ParseCountFlag(const std::string& flag, const char* value,
                    std::uint64_t floor, std::uint64_t ceiling,
                    std::uint64_t* out) {
  const std::string what = FlagName(flag);
  Result<std::uint64_t> parsed = ParseBoundedCount(what, value, ceiling);
  if (parsed.ok() && *parsed < floor) {
    parsed = Status::InvalidArgument(what + "=" + value +
                                     " is below the floor of " +
                                     std::to_string(floor));
  }
  return StoreFlag(flag, parsed, out);
}

bool ParseDoubleFlag(const std::string& flag, const char* value, double lo,
                     double hi, double* out) {
  return StoreFlag(flag, ParseBoundedDouble(FlagName(flag), value, lo, hi),
                   out);
}

}  // namespace cdi
