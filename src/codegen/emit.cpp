#include "codegen/emit.hpp"

#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::codegen {

void Writer::line(const std::string& text) {
  for (int i = 0; i < indent_; ++i) out_ += "  ";
  out_ += text;
  out_ += '\n';
}

void Writer::blank() { out_ += '\n'; }

void Writer::raw_block(const std::string& text) {
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      line(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) line(cur);
}

std::string expr_cpp(const poly::LinExpr& e,
                     const std::vector<std::string>& names) {
  DPGEN_ASSERT(e.coeffs.size() == names.size());
  std::string out;
  for (int i = 0; i < e.nvars(); ++i) {
    Int a = e.coef(i);
    if (a == 0) continue;
    const std::string& name = names[static_cast<std::size_t>(i)];
    if (out.empty()) {
      if (a == 1)
        out = name;
      else if (a == -1)
        out = "-" + name;
      else
        out = std::to_string(a) + "LL*" + name;
    } else {
      Int m = a > 0 ? a : neg_ck(a);
      out += a > 0 ? " + " : " - ";
      if (m != 1) out += std::to_string(m) + "LL*";
      out += name;
    }
  }
  if (e.c != 0 || out.empty()) {
    if (out.empty()) {
      out = std::to_string(e.c) + "LL";
    } else {
      out += e.c > 0 ? " + " : " - ";
      out += std::to_string(e.c > 0 ? e.c : neg_ck(e.c)) + "LL";
    }
  }
  return out;
}

namespace {

/// True when `div` divides every coefficient and the constant of `e` —
/// the rounding in ceil/floor division is then vacuous.
bool exactly_divisible(const poly::LinExpr& e, Int div) {
  for (Int a : e.coeffs)
    if (a % div != 0) return false;
  return e.c % div == 0;
}

poly::LinExpr divided(poly::LinExpr e, Int div) {
  for (auto& a : e.coeffs) a /= div;
  e.c /= div;
  return e;
}

}  // namespace

std::string bound_cpp(const poly::Bound& b,
                      const std::vector<std::string>& names) {
  if (b.coef > 0) {
    // coef*v + rest >= 0  ->  v >= ceil(-rest / coef).  Unit coefficients
    // and exact divisors fold to the plain expression: no dp_ceildiv call
    // (and nothing opaque to the vectorizer) in the emitted bound.
    if (b.coef == 1) return cat("(", expr_cpp(-b.rest, names), ")");
    if (exactly_divisible(b.rest, b.coef))
      return cat("(", expr_cpp(divided(-b.rest, b.coef), names), ")");
    return cat("dp_ceildiv(", expr_cpp(-b.rest, names), ", ", b.coef, "LL)");
  }
  // coef*v + rest >= 0 with coef < 0  ->  v <= floor(rest / -coef)
  Int div = neg_ck(b.coef);
  if (div == 1) return cat("(", expr_cpp(b.rest, names), ")");
  if (exactly_divisible(b.rest, div))
    return cat("(", expr_cpp(divided(b.rest, div), names), ")");
  return cat("dp_floordiv(", expr_cpp(b.rest, names), ", ", div, "LL)");
}

namespace {

std::string fold_minmax(const std::vector<poly::Bound>& bounds,
                        const std::vector<std::string>& names,
                        const char* fn) {
  DPGEN_ASSERT(!bounds.empty());
  std::string out = bound_cpp(bounds[0], names);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    out = cat(fn, "(", out, ", ", bound_cpp(bounds[i], names), ")");
  return out;
}

}  // namespace

std::string level_lo_cpp(const poly::LoopNest& nest, int level,
                         const std::vector<std::string>& names) {
  return fold_minmax(nest.lowers(level), names, "dp_max");
}

std::string level_hi_cpp(const poly::LoopNest& nest, int level,
                         const std::vector<std::string>& names) {
  return fold_minmax(nest.uppers(level), names, "dp_min");
}

namespace {

void emit_scan_level(Writer& w, const poly::LoopNest& nest, int level,
                     const std::vector<std::string>& names,
                     const std::function<void(Writer&)>& body) {
  if (level == nest.levels()) {
    body(w);
    return;
  }
  const std::string& v = names[static_cast<std::size_t>(nest.var_at(level))];
  std::string lo = level_lo_cpp(nest, level, names);
  std::string hi = level_hi_cpp(nest, level, names);
  w.line(cat("const long long dp_lo_", v, " = ", lo, ";"));
  w.line(cat("const long long dp_hi_", v, " = ", hi, ";"));
  std::string header =
      nest.dir(level) >= 0
          ? cat("for (long long ", v, " = dp_lo_", v, "; ", v, " <= dp_hi_",
                v, "; ++", v, ")")
          : cat("for (long long ", v, " = dp_hi_", v, "; ", v, " >= dp_lo_",
                v, "; --", v, ")");
  Block loop(w, header);
  emit_scan_level(w, nest, level + 1, names, body);
}

}  // namespace

void emit_scan(Writer& w, const poly::LoopNest& nest,
               const std::vector<std::string>& names,
               const std::function<void(Writer&)>& body) {
  emit_scan_level(w, nest, 0, names, body);
}

void emit_count(Writer& w, const poly::LoopNest& nest,
                const std::vector<std::string>& names,
                const std::string& accum) {
  DPGEN_CHECK(nest.levels() >= 1, "emit_count needs at least one level");
  const int last = nest.levels() - 1;

  std::function<void(Writer&, int)> rec = [&](Writer& ww, int level) {
    const std::string& v =
        names[static_cast<std::size_t>(nest.var_at(level))];
    std::string lo = level_lo_cpp(nest, level, names);
    std::string hi = level_hi_cpp(nest, level, names);
    if (level == last) {
      ww.line(cat("{ const long long dp_l = ", lo, ", dp_h = ", hi,
                  "; if (dp_h >= dp_l) ", accum, " += dp_h - dp_l + 1; }"));
      return;
    }
    ww.line(cat("const long long dp_lo_", v, " = ", lo, ";"));
    ww.line(cat("const long long dp_hi_", v, " = ", hi, ";"));
    Block loop(ww, cat("for (long long ", v, " = dp_lo_", v, "; ", v,
                       " <= dp_hi_", v, "; ++", v, ")"));
    rec(ww, level + 1);
  };
  rec(w, 0);
}

void emit_scan_coalesced(
    Writer& w, const poly::LoopNest& nest,
    const std::vector<std::string>& names,
    const std::function<void(Writer&, const std::string&)>& body) {
  DPGEN_CHECK(nest.levels() >= 1,
              "emit_scan_coalesced needs at least one level");
  const int last = nest.levels() - 1;

  std::function<void(Writer&, int)> rec = [&](Writer& ww, int level) {
    const std::string& v =
        names[static_cast<std::size_t>(nest.var_at(level))];
    ww.line(cat("const long long dp_lo_", v, " = ",
                level_lo_cpp(nest, level, names), ";"));
    ww.line(cat("const long long dp_hi_", v, " = ",
                level_hi_cpp(nest, level, names), ";"));
    if (level == last) {
      body(ww, v);
      return;
    }
    Block loop(ww, cat("for (long long ", v, " = dp_lo_", v, "; ", v,
                       " <= dp_hi_", v, "; ++", v, ")"));
    rec(ww, level + 1);
  };
  rec(w, 0);
}

std::string system_test_cpp(const poly::System& sys,
                            const std::vector<std::string>& names) {
  if (sys.empty()) return "true";
  std::vector<std::string> parts;
  for (const auto& c : sys.constraints()) {
    std::string e = expr_cpp(c.e, names);
    parts.push_back(cat("(", e, c.rel == poly::Rel::Ge ? ") >= 0" : ") == 0"));
  }
  return join(parts, " && ");
}

}  // namespace dpgen::codegen
