// Sequence problems: exact multiple sequence alignment, longest common
// subsequence and edit distance (paper section I).
//
// All three use the suffix formulation so that every template vector is
// nonnegative: f(x) is the optimal score of aligning the sequence suffixes
// starting at positions x, and the objective lives at the origin.

#include <algorithm>
#include <vector>

#include "problems/problems.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::problems {

namespace {

constexpr double kInf = 1e300;

/// Flat row-major strides for dims (L_i + 1).
std::vector<std::size_t> strides_for(const IntVec& lens) {
  std::vector<std::size_t> s(lens.size());
  std::size_t acc = 1;
  for (std::size_t k = lens.size(); k-- > 0;) {
    s[k] = acc;
    acc *= static_cast<std::size_t>(lens[k] + 1);
  }
  return s;
}

/// Sum-of-pairs column cost for advancing the sequences in `mask` at
/// positions `pos`.
double sp_column_cost(const std::vector<std::string>& seqs, const Int* pos,
                      unsigned mask, double mismatch, double gap) {
  const int m = static_cast<int>(seqs.size());
  double cost = 0.0;
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      bool ai = (mask >> i) & 1u;
      bool aj = (mask >> j) & 1u;
      if (ai && aj) {
        char ci = seqs[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(pos[i])];
        char cj = seqs[static_cast<std::size_t>(j)]
                      [static_cast<std::size_t>(pos[j])];
        cost += (ci == cj) ? 0.0 : mismatch;
      } else if (ai != aj) {
        cost += gap;
      }
    }
  }
  return cost;
}

}  // namespace

IntVec sequence_params(const std::vector<std::string>& seqs) {
  IntVec lens;
  for (const auto& s : seqs) lens.push_back(static_cast<Int>(s.size()));
  return lens;
}

std::string random_dna(std::size_t length, unsigned seed) {
  static const char kBases[] = "ACGT";
  std::string out;
  out.reserve(length);
  std::uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (std::size_t i = 0; i < length; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    out += kBases[(state >> 33) & 3u];
  }
  return out;
}

Problem msa(const std::vector<std::string>& seqs, Int tile_width,
            double mismatch, double gap) {
  const int m = static_cast<int>(seqs.size());
  DPGEN_CHECK(m >= 2 && m <= 4, "msa supports 2 to 4 sequences");

  Problem p;
  std::vector<std::string> vars, params;
  for (int i = 1; i <= m; ++i) {
    vars.push_back(cat("x", i));
    params.push_back(cat("L", i));
  }
  p.spec.name(cat("msa", m)).params(params).vars(vars).array("V");
  for (int i = 1; i <= m; ++i) {
    p.spec.constraint(cat("x", i, " >= 0"));
    p.spec.constraint(cat("x", i, " <= L", i));
  }
  const unsigned nmasks = (1u << m) - 1u;
  for (unsigned mask = 1; mask <= nmasks; ++mask) {
    IntVec r(static_cast<std::size_t>(m), 0);
    for (int i = 0; i < m; ++i) r[static_cast<std::size_t>(i)] = (mask >> i) & 1u;
    p.spec.dep(cat("r", mask), r);
  }
  p.spec.load_balance({vars[0], vars[1]});
  p.spec.tile_widths(IntVec(static_cast<std::size_t>(m), tile_width));

  // Generated-code fragments: the sequences become global char arrays and
  // the center loop is the unrolled min over subsets.
  {
    std::string global;
    for (int i = 0; i < m; ++i)
      global += cat("static const char dp_seq", i, "[] = \"",
                    seqs[static_cast<std::size_t>(i)], "\";\n");
    std::string center = "double dp_best = 0.0; int dp_any = 0;\n";
    for (unsigned mask = 1; mask <= nmasks; ++mask) {
      std::string cost;
      for (int i = 0; i < m; ++i)
        for (int j = i + 1; j < m; ++j) {
          bool ai = (mask >> i) & 1u, aj = (mask >> j) & 1u;
          std::string term;
          if (ai && aj)
            term = cat("(dp_seq", i, "[x", i + 1, "] == dp_seq", j, "[x",
                       j + 1, "] ? 0.0 : ", mismatch, ")");
          else if (ai != aj)
            term = cat(gap);
          else
            continue;
          cost += (cost.empty() ? "" : " + ") + term;
        }
      center += cat("if (is_valid_r", mask, ") {\n  double dp_c = ", cost,
                    " + V[loc_r", mask,
                    "];\n  if (!dp_any || dp_c < dp_best) { dp_best = dp_c; "
                    "dp_any = 1; }\n}\n");
    }
    center += "V[loc] = dp_any ? dp_best : 0.0;\n";
    p.spec.global_code(global).center_code(center);
  }
  p.spec.validate();

  auto seqs_copy = seqs;
  p.kernel = [seqs_copy, m, nmasks, mismatch, gap](const engine::Cell& c) {
    double best = kInf;
    bool any = false;
    for (unsigned mask = 1; mask <= nmasks; ++mask) {
      unsigned j = mask - 1;  // dep index
      if (!c.valid[j]) continue;
      double cand =
          sp_column_cost(seqs_copy, c.x, mask, mismatch, gap) +
          c.V[c.loc_dep[j]];
      if (!any || cand < best) {
        best = cand;
        any = true;
      }
      (void)m;
    }
    c.V[c.loc] = any ? best : 0.0;
  };

  p.objective = IntVec(static_cast<std::size_t>(m), 0);

  p.reference = [seqs_copy, m, nmasks, mismatch, gap](const IntVec& lens) {
    auto strides = strides_for(lens);
    std::size_t total = 1;
    for (Int l : lens) total *= static_cast<std::size_t>(l + 1);
    std::vector<double> D(total, 0.0);
    std::vector<Int> pos(static_cast<std::size_t>(m));
    for (std::size_t flat = total; flat-- > 0;) {
      std::size_t rem = flat;
      for (int k = 0; k < m; ++k) {
        auto ks = static_cast<std::size_t>(k);
        pos[ks] = static_cast<Int>(rem / strides[ks]);
        rem %= strides[ks];
      }
      double best = kInf;
      bool any = false;
      for (unsigned mask = 1; mask <= nmasks; ++mask) {
        bool ok = true;
        std::size_t nflat = flat;
        for (int i = 0; i < m && ok; ++i) {
          if (!((mask >> i) & 1u)) continue;
          if (pos[static_cast<std::size_t>(i)] >=
              lens[static_cast<std::size_t>(i)])
            ok = false;
          else
            nflat += strides[static_cast<std::size_t>(i)];
        }
        if (!ok) continue;
        double cand =
            sp_column_cost(seqs_copy, pos.data(), mask, mismatch, gap) +
            D[nflat];
        if (!any || cand < best) {
          best = cand;
          any = true;
        }
      }
      D[flat] = any ? best : 0.0;
    }
    return D[0];
  };
  return p;
}

Problem lcs(const std::vector<std::string>& seqs, Int tile_width) {
  const int m = static_cast<int>(seqs.size());
  DPGEN_CHECK(m >= 2 && m <= 3, "lcs supports 2 or 3 strings");

  Problem p;
  std::vector<std::string> vars, params;
  for (int i = 1; i <= m; ++i) {
    vars.push_back(cat("x", i));
    params.push_back(cat("L", i));
  }
  p.spec.name(cat("lcs", m)).params(params).vars(vars).array("V");
  for (int i = 1; i <= m; ++i) {
    p.spec.constraint(cat("x", i, " >= 0"));
    p.spec.constraint(cat("x", i, " <= L", i));
  }
  for (int i = 0; i < m; ++i) {
    IntVec r(static_cast<std::size_t>(m), 0);
    r[static_cast<std::size_t>(i)] = 1;
    p.spec.dep(cat("r", i + 1), r);
  }
  p.spec.dep("rall", IntVec(static_cast<std::size_t>(m), 1));
  p.spec.load_balance({vars[0]});
  p.spec.tile_widths(IntVec(static_cast<std::size_t>(m), tile_width));

  {
    std::string global;
    for (int i = 0; i < m; ++i)
      global += cat("static const char dp_seq", i, "[] = \"",
                    seqs[static_cast<std::size_t>(i)], "\";\n");
    std::string center = "double dp_best = 0.0;\n";
    for (int i = 1; i <= m; ++i)
      center += cat("if (is_valid_r", i, " && V[loc_r", i,
                    "] > dp_best) dp_best = V[loc_r", i, "];\n");
    std::string eq;
    for (int i = 1; i < m; ++i)
      eq += cat(i > 1 ? " && " : "", "dp_seq0[x1] == dp_seq", i, "[x", i + 1,
                "]");
    center += cat("if (is_valid_rall && (", eq,
                  ") && 1.0 + V[loc_rall] > dp_best) dp_best = 1.0 + "
                  "V[loc_rall];\n");
    center += "V[loc] = dp_best;\n";
    p.spec.global_code(global).center_code(center);
  }
  p.spec.validate();

  auto seqs_copy = seqs;
  p.kernel = [seqs_copy, m](const engine::Cell& c) {
    double best = 0.0;
    for (int i = 0; i < m; ++i)
      if (c.valid[i]) best = std::max(best, c.V[c.loc_dep[i]]);
    if (c.valid[m]) {
      bool eq = true;
      char c0 = seqs_copy[0][static_cast<std::size_t>(c.x[0])];
      for (int i = 1; i < m; ++i)
        eq = eq && seqs_copy[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(c.x[i])] == c0;
      if (eq) best = std::max(best, 1.0 + c.V[c.loc_dep[m]]);
    }
    c.V[c.loc] = best;
  };

  p.objective = IntVec(static_cast<std::size_t>(m), 0);

  p.reference = [seqs_copy, m](const IntVec& lens) {
    auto strides = strides_for(lens);
    std::size_t total = 1;
    for (Int l : lens) total *= static_cast<std::size_t>(l + 1);
    std::vector<double> D(total, 0.0);
    std::vector<Int> pos(static_cast<std::size_t>(m));
    for (std::size_t flat = total; flat-- > 0;) {
      std::size_t rem = flat;
      for (int k = 0; k < m; ++k) {
        auto ks = static_cast<std::size_t>(k);
        pos[ks] = static_cast<Int>(rem / strides[ks]);
        rem %= strides[ks];
      }
      double best = 0.0;
      bool all_interior = true;
      for (int i = 0; i < m; ++i) {
        auto is = static_cast<std::size_t>(i);
        if (pos[is] < lens[is])
          best = std::max(best, D[flat + strides[is]]);
        else
          all_interior = false;
      }
      if (all_interior) {
        bool eq = true;
        char c0 = seqs_copy[0][static_cast<std::size_t>(pos[0])];
        for (int i = 1; i < m; ++i)
          eq = eq && seqs_copy[static_cast<std::size_t>(i)]
                              [static_cast<std::size_t>(pos[i])] == c0;
        if (eq) {
          std::size_t diag = flat;
          for (int i = 0; i < m; ++i) diag += strides[static_cast<std::size_t>(i)];
          best = std::max(best, 1.0 + D[diag]);
        }
      }
      D[flat] = best;
    }
    return D[0];
  };
  return p;
}

Problem edit_distance(const std::string& a, const std::string& b,
                      Int tile_width) {
  Problem p = msa({a, b}, tile_width, /*mismatch=*/1.0, /*gap=*/1.0);
  // Edit distance is exactly 2-sequence MSA with unit substitution and gap
  // costs; rebrand the spec for the quickstart example.
  p.spec.name("edit_distance");
  return p;
}

}  // namespace dpgen::problems
