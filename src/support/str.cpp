#include "support/str.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "support/error.hpp"
#include "support/vec.hpp"

namespace dpgen {

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s,
                               const std::string& delims) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (delims.find(c) != std::string::npos) {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool is_identifier(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_'))
    return false;
  for (char c : name)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_'))
      return false;
  return true;
}

long long parse_int(const std::string& s, const std::string& what,
                    long long lo, long long hi) {
  long long v = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  DPGEN_CHECK(ec == std::errc() && end == s.data() + s.size() && v >= lo &&
                  v <= hi,
              cat(what, ": '", s, "' is not an integer in [", lo, ", ", hi,
                  "]"));
  return v;
}

double parse_double(const std::string& s, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  DPGEN_CHECK(!s.empty() && end == s.c_str() + s.size() && errno == 0 &&
                  std::isfinite(v),
              cat(what, ": '", s, "' is not a finite number"));
  return v;
}

std::string vec_to_string(const IntVec& a) {
  std::string out = "(";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(a[i]);
  }
  out += ")";
  return out;
}

}  // namespace dpgen
