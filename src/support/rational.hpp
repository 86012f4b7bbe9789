#pragma once
// Exact rational arithmetic over checked 64-bit integers.
//
// Used by the Ehrhart fitter (Gaussian elimination over Q) and by the
// load balancer when cutting work into fractional shares.  All operations
// normalise (gcd-reduced, positive denominator) and throw on overflow.

#include <compare>
#include <string>

#include "support/checked.hpp"

namespace dpgen {

/// An exact rational number p/q with q > 0, always stored in lowest terms.
class Rat {
 public:
  Rat() = default;
  Rat(Int numerator) : num_(numerator), den_(1) {}  // NOLINT: implicit by design
  Rat(Int numerator, Int denominator) : num_(numerator), den_(denominator) {
    DPGEN_CHECK(den_ != 0, "rational with zero denominator");
    normalize();
  }

  Int num() const { return num_; }
  Int den() const { return den_; }

  bool is_zero() const { return num_ == 0; }
  bool is_integer() const { return den_ == 1; }

  /// The integer value; throws unless is_integer().
  Int as_int() const {
    DPGEN_CHECK(den_ == 1, "rational is not an integer");
    return num_;
  }

  /// Largest integer <= value.
  Int floor() const { return floor_div(num_, den_); }
  /// Smallest integer >= value.
  Int ceil() const { return ceil_div(num_, den_); }

  Rat operator-() const { return Rat(neg_ck(num_), den_); }

  friend Rat operator+(const Rat& a, const Rat& b) {
    Int g = gcd(a.den_, b.den_);
    Int bd = b.den_ / g;
    Int n = add_ck(mul_ck(a.num_, bd), mul_ck(b.num_, a.den_ / g));
    return Rat(n, mul_ck(a.den_, bd));
  }
  friend Rat operator-(const Rat& a, const Rat& b) { return a + (-b); }
  friend Rat operator*(const Rat& a, const Rat& b) {
    // Cross-reduce before multiplying to keep intermediates small.
    Int g1 = gcd(a.num_, b.den_);
    Int g2 = gcd(b.num_, a.den_);
    return Rat(mul_ck(a.num_ / g1, b.num_ / g2),
               mul_ck(a.den_ / g2, b.den_ / g1));
  }
  friend Rat operator/(const Rat& a, const Rat& b) {
    DPGEN_CHECK(b.num_ != 0, "rational division by zero");
    return a * Rat(b.den_, b.num_);
  }

  Rat& operator+=(const Rat& o) { return *this = *this + o; }
  Rat& operator-=(const Rat& o) { return *this = *this - o; }
  Rat& operator*=(const Rat& o) { return *this = *this * o; }
  Rat& operator/=(const Rat& o) { return *this = *this / o; }

  friend bool operator==(const Rat& a, const Rat& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rat& a, const Rat& b) {
    // Compare via 128-bit cross multiplication; exact, cannot overflow.
    __int128 lhs = static_cast<__int128>(a.num_) * b.den_;
    __int128 rhs = static_cast<__int128>(b.num_) * a.den_;
    if (lhs < rhs) return std::strong_ordering::less;
    if (lhs > rhs) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }

  std::string to_string() const {
    if (den_ == 1) return std::to_string(num_);
    return std::to_string(num_) + "/" + std::to_string(den_);
  }

 private:
  void normalize() {
    if (den_ < 0) {
      num_ = neg_ck(num_);
      den_ = neg_ck(den_);
    }
    Int g = dpgen::gcd(num_, den_);
    if (g > 1) {
      num_ /= g;
      den_ /= g;
    }
    if (num_ == 0) den_ = 1;
  }

  Int num_ = 0;
  Int den_ = 1;
};

}  // namespace dpgen
