#pragma once
// Small dense integer vectors used for points, template vectors and tile
// indices throughout the library, plus the hashing needed to key tiles.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "support/checked.hpp"
#include "support/int.hpp"

namespace dpgen {

/// Component-wise sum; both vectors must have the same length.
inline IntVec vec_add(const IntVec& a, const IntVec& b) {
  DPGEN_ASSERT(a.size() == b.size());
  IntVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = add_ck(a[i], b[i]);
  return r;
}

/// Component-wise difference; both vectors must have the same length.
inline IntVec vec_sub(const IntVec& a, const IntVec& b) {
  DPGEN_ASSERT(a.size() == b.size());
  IntVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = sub_ck(a[i], b[i]);
  return r;
}

/// Scales every component by s.
inline IntVec vec_scale(const IntVec& a, Int s) {
  IntVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = mul_ck(a[i], s);
  return r;
}

/// Inner product with overflow checking.
inline Int vec_dot(const IntVec& a, const IntVec& b) {
  DPGEN_ASSERT(a.size() == b.size());
  Int acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc = add_ck(acc, mul_ck(a[i], b[i]));
  return acc;
}

/// True if every component is zero.
inline bool vec_is_zero(const IntVec& a) {
  for (Int v : a)
    if (v != 0) return false;
  return true;
}

/// Renders as "(a, b, c)".
std::string vec_to_string(const IntVec& a);

/// FNV-1a style hash suitable for unordered_map keys.
struct IntVecHash {
  std::size_t operator()(const IntVec& v) const {
    std::size_t h = 1469598103934665603ull;
    for (Int x : v) {
      h ^= static_cast<std::size_t>(x) + 0x9e3779b97f4a7c15ull;
      h *= 1099511628211ull;
    }
    return h;
  }
};

}  // namespace dpgen
