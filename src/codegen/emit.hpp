#pragma once
// Low-level C++ emission helpers: affine expressions, loop bounds (the
// ub_k/lb_k functions of the paper's Figure 3) and whole scan/counting loop
// nests, rendered against a chosen naming of the extended variables.

#include <functional>
#include <string>
#include <vector>

#include "poly/loopnest.hpp"
#include "poly/system.hpp"

namespace dpgen::codegen {

/// Accumulates indented source lines.
class Writer {
 public:
  void line(const std::string& text);
  void blank();
  /// Emits raw multi-line text at the current indent.
  void raw_block(const std::string& text);
  void indent() { indent_ += 1; }
  void dedent() { indent_ -= 1; }
  std::string str() const { return out_; }

 private:
  int indent_ = 0;
  std::string out_;
};

/// RAII indentation + braces: emits "header {" ... "}".
class Block {
 public:
  Block(Writer& w, const std::string& header) : w_(w) {
    w_.line(header + " {");
    w_.indent();
  }
  ~Block() {
    w_.dedent();
    w_.line("}");
  }

 private:
  Writer& w_;
};

/// Renders an affine expression as C code using `names[i]` for variable i.
/// Emits "0LL" for the zero expression; integer literals carry the LL
/// suffix so arithmetic stays 64-bit.
std::string expr_cpp(const poly::LinExpr& e,
                     const std::vector<std::string>& names);

/// Renders one loop bound: lower bounds become dp_ceildiv(-(rest), coef),
/// upper bounds dp_floordiv(rest, -coef); exact divisors are folded.
std::string bound_cpp(const poly::Bound& b,
                      const std::vector<std::string>& names);

/// Renders the max of all lower bounds (or min of all upper bounds) at one
/// nest level, chaining dp_max/dp_min.
std::string level_lo_cpp(const poly::LoopNest& nest, int level,
                         const std::vector<std::string>& names);
std::string level_hi_cpp(const poly::LoopNest& nest, int level,
                         const std::vector<std::string>& names);

/// Emits the nested for-loops of `nest` (paper Fig. 3 structure) and calls
/// `body(w)` at the innermost level.  Loop variables are declared as
/// `long long <names[var]>`; scan direction honours nest.dir().
void emit_scan(Writer& w, const poly::LoopNest& nest,
               const std::vector<std::string>& names,
               const std::function<void(Writer&)>& body);

/// Emits a counting loop nest: outer levels scan, the innermost level is
/// closed in constant time; the count accumulates into `accum` (an lvalue
/// expression in scope).
void emit_count(Writer& w, const poly::LoopNest& nest,
                const std::vector<std::string>& names,
                const std::string& accum);

/// Emits the outer loops of `nest` but leaves the innermost level as a
/// [dp_lo_v, dp_hi_v] range: `body(w, v)` runs with those two bounds
/// declared and `v` naming the innermost variable (not declared — the body
/// handles the whole range at once, e.g. as one memcpy).  This is the
/// emitted form of the run-coalesced pack/unpack: when the innermost
/// variable has buffer stride 1, each range is one contiguous run.
void emit_scan_coalesced(
    Writer& w, const poly::LoopNest& nest,
    const std::vector<std::string>& names,
    const std::function<void(Writer&, const std::string&)>& body);

/// Renders a conjunction testing every constraint of `sys` (1 when empty).
std::string system_test_cpp(const poly::System& sys,
                            const std::vector<std::string>& names);

}  // namespace dpgen::codegen
