#pragma once
// String helpers shared by the parser, code emitter and diagnostics.

#include <climits>
#include <sstream>
#include <string>
#include <vector>

namespace dpgen {

/// Concatenates the string representations of all arguments.
template <typename... Ts>
std::string cat(const Ts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Joins the elements of `parts` with `sep` between them.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Removes leading and trailing ASCII whitespace.
std::string trim(const std::string& s);

/// Splits on any run of the characters in `delims`; empty tokens dropped.
std::vector<std::string> split(const std::string& s, const std::string& delims);

/// True if `s` begins with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// True if `name` is a valid C identifier ([A-Za-z_][A-Za-z0-9_]*).
bool is_identifier(const std::string& name);

/// Parse all of `s` as a base-10 integer in [lo, hi] / a finite number;
/// anything else (junk, trailing characters) throws dpgen::Error naming
/// `what`.
long long parse_int(const std::string& s, const std::string& what,
                    long long lo = LLONG_MIN, long long hi = LLONG_MAX);
double parse_double(const std::string& s, const std::string& what);

}  // namespace dpgen
