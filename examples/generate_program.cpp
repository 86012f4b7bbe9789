// The generator command-line tool (the paper's deliverable): read a
// high-level problem description, write a complete hybrid OpenMP +
// message-passing C++ program.
//
//   $ ./generate_program --sample              # print a sample spec
//   $ ./generate_program spec.txt out.cpp      # generate a program
//   $ ./generate_program                       # demo: sample -> bandit2.gen.cpp
//
// Compile the output with (one command):
//   c++ -std=c++20 -O2 -fopenmp -DDPGEN_RUNTIME_USE_OPENMP
//       -I<repo>/src out.cpp libdpgen_runtime.a libdpgen_minimpi.a
//       libdpgen_obs.a libdpgen_support.a -lpthread -o solver
//   ./solver <params...> [--ranks=R] [--threads=T] [--trace=FILE]
//            [--metrics=FILE] [--report=FILE]
// --report writes the attributed performance report (critical path,
// Ehrhart-vs-measured load balance, comm matrix — docs/observability.md).

#include <cstdio>
#include <cstring>

#include "codegen/generator.hpp"
#include "spec/parser.hpp"

using namespace dpgen;

namespace {

constexpr const char* kSampleSpec = R"(# 2-arm Bernoulli bandit (paper Fig. 1)
problem bandit2
params N
vars s1 f1 s2 f2
array V double

constraints {
  s1 >= 0
  f1 >= 0
  s2 >= 0
  f2 >= 0
  s1 + f1 + s2 + f2 <= N
}

dep r1 = (1, 0, 0, 0)
dep r2 = (0, 1, 0, 0)
dep r3 = (0, 0, 1, 0)
dep r4 = (0, 0, 0, 1)

loadbalance s1 f1
tilewidths 8 8 8 8

center {{{
if (is_valid_r1 && is_valid_r2 && is_valid_r3 && is_valid_r4) {
  double p1 = (double)(s1 + 1) / (double)(s1 + f1 + 2);
  double p2 = (double)(s2 + 1) / (double)(s2 + f2 + 2);
  double v1 = p1 * (1.0 + V[loc_r1]) + (1.0 - p1) * V[loc_r2];
  double v2 = p2 * (1.0 + V[loc_r3]) + (1.0 - p2) * V[loc_r4];
  V[loc] = v1 > v2 ? v1 : v2;
} else {
  V[loc] = 0.0;
}
}}}
)";

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--sample") == 0) {
    std::fputs(kSampleSpec, stdout);
    return 0;
  }

  try {
    spec::ProblemSpec spec;
    std::string out_path;
    codegen::GenOptions gen_opt;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--passes=", 9) == 0) {
        // Codegen optimization pipeline (docs/codegen.md):
        //   --passes=none | full | canonicalize,unroll:4,layout
        gen_opt.passes = codegen::PassPipeline::parse(argv[i] + 9);
      } else if (std::strncmp(argv[i], "--probe=", 8) == 0) {
        // --probe=1,2,3 adds a location whose value the program prints.
        IntVec point;
        const char* p = argv[i] + 8;
        while (*p) {
          char* end = nullptr;
          point.push_back(std::strtoll(p, &end, 10));
          p = (*end == ',') ? end + 1 : end;
        }
        gen_opt.probes.push_back(std::move(point));
      } else {
        positional.emplace_back(argv[i]);
      }
    }
    if (positional.size() == 2) {
      spec = spec::parse_spec_file(positional[0]);
      out_path = positional[1];
    } else if (positional.empty()) {
      std::printf("no spec given; generating the sample 2-arm bandit\n");
      spec = spec::parse_spec(kSampleSpec);
      out_path = "bandit2.gen.cpp";
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sample | <spec.txt> <out.cpp> "
                   "[--probe=c1,c2,...] [--passes=none|full|LIST]]\n",
                   argv[0]);
      return 2;
    }

    tiling::TilingModel model(std::move(spec));
    codegen::write_program(model, out_path, gen_opt);
    std::printf("wrote %s (problem '%s', %d dimensions, %d tile edges)\n",
                out_path.c_str(), model.problem().problem_name().c_str(),
                model.dim(), model.num_edges());
    std::printf("compile: c++ -std=c++20 -O2 -fopenmp "
                "-DDPGEN_RUNTIME_USE_OPENMP -I<repo>/src %s "
                "libdpgen_runtime.a libdpgen_minimpi.a libdpgen_obs.a "
                "libdpgen_support.a -lpthread -o solver\n",
                out_path.c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
