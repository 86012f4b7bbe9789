#pragma once
// Overflow-checked 64-bit integer arithmetic.
//
// The polyhedral machinery (Fourier-Motzkin elimination, Ehrhart fitting)
// performs exact integer arithmetic whose intermediate values can grow
// quickly.  Rather than silently wrapping, every operation here throws
// dpgen::Error on overflow so that a mis-scaled problem fails loudly.

#include <numeric>

#include "support/error.hpp"
#include "support/int.hpp"

namespace dpgen {

/// Returns a + b, throwing on signed overflow.
inline Int add_ck(Int a, Int b) {
  Int r;
  if (__builtin_add_overflow(a, b, &r)) raise("integer overflow in addition");
  return r;
}

/// Returns a - b, throwing on signed overflow.
inline Int sub_ck(Int a, Int b) {
  Int r;
  if (__builtin_sub_overflow(a, b, &r)) raise("integer overflow in subtraction");
  return r;
}

/// Returns a * b, throwing on signed overflow.
inline Int mul_ck(Int a, Int b) {
  Int r;
  if (__builtin_mul_overflow(a, b, &r)) raise("integer overflow in multiplication");
  return r;
}

/// Returns -a, throwing on overflow (INT64_MIN has no negation).
inline Int neg_ck(Int a) { return sub_ck(0, a); }

/// Floor division: largest q with q*b <= a.  b must be nonzero.
inline Int floor_div(Int a, Int b) {
  DPGEN_CHECK(b != 0, "floor_div by zero");
  Int q = a / b;
  Int r = a % b;
  if (r != 0 && ((r < 0) != (b < 0))) --q;
  return q;
}

/// Ceiling division: smallest q with q*b >= a.  b must be nonzero.
inline Int ceil_div(Int a, Int b) {
  DPGEN_CHECK(b != 0, "ceil_div by zero");
  Int q = a / b;
  Int r = a % b;
  if (r != 0 && ((r < 0) == (b < 0))) ++q;
  return q;
}

/// Nonnegative gcd; gcd(0,0) == 0.
inline Int gcd(Int a, Int b) {
  if (a < 0) a = neg_ck(a);
  if (b < 0) b = neg_ck(b);
  while (b != 0) {
    Int t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Least common multiple with overflow checking.
inline Int lcm(Int a, Int b) {
  if (a == 0 || b == 0) return 0;
  if (a < 0) a = neg_ck(a);
  if (b < 0) b = neg_ck(b);
  return mul_ck(a / gcd(a, b), b);
}

}  // namespace dpgen
