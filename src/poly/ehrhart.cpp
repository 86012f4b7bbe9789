#include "poly/ehrhart.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::poly {

void Polynomial::add_term(const std::vector<int>& exps, const Rat& coef) {
  DPGEN_ASSERT(static_cast<int>(exps.size()) == nvars_);
  if (coef.is_zero()) return;
  auto [it, inserted] = terms_.emplace(exps, coef);
  if (!inserted) {
    it->second += coef;
    if (it->second.is_zero()) terms_.erase(it);
  }
}

Rat Polynomial::eval(const IntVec& values) const {
  DPGEN_ASSERT(static_cast<int>(values.size()) == nvars_);
  Rat total(0);
  for (const auto& [exps, coef] : terms_) {
    Rat term = coef;
    for (int i = 0; i < nvars_; ++i) {
      Int v = values[static_cast<std::size_t>(i)];
      for (int e = 0; e < exps[static_cast<std::size_t>(i)]; ++e)
        term *= Rat(v);
    }
    total += term;
  }
  return total;
}

int Polynomial::degree() const {
  int deg = -1;
  for (const auto& [exps, coef] : terms_) {
    int d = 0;
    for (int e : exps) d += e;
    deg = std::max(deg, d);
  }
  return deg;
}

std::string Polynomial::to_string(
    const std::vector<std::string>& names) const {
  if (terms_.empty()) return "0";
  std::vector<std::string> parts;
  for (const auto& [exps, coef] : terms_) {
    std::string t = cat("(", coef.to_string(), ")");
    for (int i = 0; i < nvars_; ++i) {
      int e = exps[static_cast<std::size_t>(i)];
      if (e == 0) continue;
      t += cat("*", names[static_cast<std::size_t>(i)]);
      if (e > 1) t += cat("^", e);
    }
    parts.push_back(t);
  }
  return join(parts, " + ");
}

std::string Polynomial::to_cpp(const std::vector<std::string>& names) const {
  if (terms_.empty()) return "0LL";
  // Common denominator so the emitted code stays in integer arithmetic.
  Int den = 1;
  for (const auto& [exps, coef] : terms_) den = lcm(den, coef.den());
  std::vector<std::string> parts;
  for (const auto& [exps, coef] : terms_) {
    Int num = mul_ck(coef.num(), den / coef.den());
    std::string t = std::to_string(num) + "LL";
    for (int i = 0; i < nvars_; ++i) {
      for (int e = 0; e < exps[static_cast<std::size_t>(i)]; ++e)
        t += cat("*", names[static_cast<std::size_t>(i)]);
    }
    parts.push_back(t);
  }
  std::string numer = cat("(", join(parts, " + "), ")");
  if (den == 1) return numer;
  return numer + " / " + std::to_string(den) + "LL";
}

void QuasiPolynomial::set_class(const IntVec& residues, Polynomial poly) {
  classes_.insert_or_assign(residues, std::move(poly));
}

IntVec QuasiPolynomial::residues_of(const IntVec& values) const {
  DPGEN_ASSERT(values.size() == periods_.size());
  IntVec r(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    Int p = periods_[i];
    r[i] = ((values[i] % p) + p) % p;
  }
  return r;
}

const Polynomial& QuasiPolynomial::class_for(const IntVec& values) const {
  auto it = classes_.find(residues_of(values));
  DPGEN_CHECK(it != classes_.end(),
              "quasi-polynomial has no fitted residue class for arguments");
  return it->second;
}

Rat QuasiPolynomial::eval(const IntVec& values) const {
  return class_for(values).eval(values);
}

Int QuasiPolynomial::eval_int(const IntVec& values) const {
  Rat v = eval(values);
  DPGEN_CHECK(v.is_integer(),
              "quasi-polynomial evaluated to a non-integer count");
  return v.as_int();
}

std::vector<Rat> solve_linear_system(std::vector<std::vector<Rat>> a,
                                     std::vector<Rat> b) {
  const std::size_t n = a.size();
  DPGEN_CHECK(b.size() == n, "solve_linear_system: size mismatch");
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && a[pivot][col].is_zero()) ++pivot;
    DPGEN_CHECK(pivot < n, "solve_linear_system: singular matrix");
    std::swap(a[pivot], a[col]);
    std::swap(b[pivot], b[col]);
    Rat inv = Rat(1) / a[col][col];
    for (std::size_t j = col; j < n; ++j) a[col][j] *= inv;
    b[col] *= inv;
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col || a[row][col].is_zero()) continue;
      Rat f = a[row][col];
      for (std::size_t j = col; j < n; ++j) a[row][j] -= f * a[col][j];
      b[row] -= f * b[col];
    }
  }
  return b;
}

namespace {

/// Enumerates exponent tuples with exps[i] <= degree[i].
std::vector<std::vector<int>> exponent_tuples(const std::vector<int>& degree) {
  std::vector<std::vector<int>> out{{}};
  for (int d : degree) {
    std::vector<std::vector<int>> next;
    for (const auto& base : out)
      for (int e = 0; e <= d; ++e) {
        auto t = base;
        t.push_back(e);
        next.push_back(std::move(t));
      }
    out = std::move(next);
  }
  return out;
}

Rat monomial_value(const std::vector<int>& exps, const IntVec& values) {
  Rat v(1);
  for (std::size_t i = 0; i < exps.size(); ++i)
    for (int e = 0; e < exps[i]; ++e) v *= Rat(values[i]);
  return v;
}

}  // namespace

std::optional<QuasiPolynomial> fit_quasi_polynomial(
    const std::function<Int(const IntVec&)>& count, const FitOptions& opt) {
  const int m = static_cast<int>(opt.degree.size());
  DPGEN_CHECK(static_cast<int>(opt.periods.size()) == m &&
                  static_cast<int>(opt.base.size()) == m,
              "fit_quasi_polynomial: option vectors must have equal length");
  for (Int p : opt.periods) DPGEN_CHECK(p >= 1, "periods must be >= 1");

  const auto exps = exponent_tuples(opt.degree);
  const std::size_t nterms = exps.size();

  // Enumerate residue classes (tensor product of residues per variable).
  std::vector<IntVec> residue_classes{{}};
  for (int i = 0; i < m; ++i) {
    std::vector<IntVec> next;
    for (const auto& base : residue_classes)
      for (Int r = 0; r < opt.periods[static_cast<std::size_t>(i)]; ++r) {
        auto t = base;
        t.push_back(r);
        next.push_back(std::move(t));
      }
    residue_classes = std::move(next);
  }

  QuasiPolynomial qp(opt.periods);
  for (const auto& residues : residue_classes) {
    // Per-variable sample values in this residue class: the first value
    // >= base[i] congruent to residues[i], then strides of the period.
    auto sample_value = [&](int var, Int k) {
      auto v = static_cast<std::size_t>(var);
      Int p = opt.periods[v];
      Int first = opt.base[v] +
                  (((residues[v] - opt.base[v]) % p) + p) % p;
      return first + k * p;
    };

    // Tensor grid of (degree[i]+1) fitting samples per variable.
    std::vector<IntVec> grid{{}};
    for (int i = 0; i < m; ++i) {
      std::vector<IntVec> next;
      for (const auto& base : grid)
        for (int k = 0; k <= opt.degree[static_cast<std::size_t>(i)]; ++k) {
          auto t = base;
          t.push_back(sample_value(i, k));
          next.push_back(std::move(t));
        }
      grid = std::move(next);
    }
    DPGEN_ASSERT(grid.size() == nterms);

    std::vector<std::vector<Rat>> a(nterms, std::vector<Rat>(nterms));
    std::vector<Rat> b(nterms);
    for (std::size_t row = 0; row < nterms; ++row) {
      for (std::size_t col = 0; col < nterms; ++col)
        a[row][col] = monomial_value(exps[col], grid[row]);
      b[row] = Rat(count(grid[row]));
    }
    std::vector<Rat> coefs = solve_linear_system(std::move(a), std::move(b));

    Polynomial poly(m);
    for (std::size_t t = 0; t < nterms; ++t) poly.add_term(exps[t], coefs[t]);

    // Held-out validation: diagonal samples past the fitting grid.
    for (int v = 1; v <= opt.validation_samples; ++v) {
      IntVec probe(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i)
        probe[static_cast<std::size_t>(i)] = sample_value(
            i, opt.degree[static_cast<std::size_t>(i)] + v);
      if (poly.eval(probe) != Rat(count(probe))) return std::nullopt;
    }
    qp.set_class(residues, std::move(poly));
  }
  return qp;
}

}  // namespace dpgen::poly
