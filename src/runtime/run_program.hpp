#pragma once
// The templates of runtime/program.hpp and runtime/run_state.hpp:
// run_program<S>, the generated program's main, and ResultSink<S>.  A
// double-precision program links the copies compiled into dpgen_runtime;
// a program of another scalar type includes this header, which
// instantiates them and, through launch.hpp, the driver.

#include <cstdio>

#include "runtime/launch.hpp"
#include "runtime/program.hpp"
#include "runtime/run_state.hpp"

namespace dpgen::runtime {

template <typename S>
ResultSink<S>::ResultSink(ProbeSet probes) : probes_(std::move(probes)) {}

template <typename S>
ResultSink<S>::~ResultSink() = default;

template <typename S>
void ResultSink<S>::record_probes(const IntVec& tile, const S* buffer) {
  for (const IntVec& probe : probes_.points) {
    Int idx = 0;
    bool inside = true;
    for (std::size_t k = 0; k < tile.size() && inside; ++k) {
      const Int local = probe[k] - probes_.widths[k] * tile[k];
      inside = local >= 0 && local < probes_.widths[k];
      idx += probes_.strides[k] * (local + probes_.ghost_lo[k]);
    }
    if (!inside) continue;
    std::lock_guard<std::mutex> lock(mu_);
    values_[probe] = buffer[idx];
  }
}

template <typename S>
void ResultSink<S>::merge_max(S value, const Int* point, int dim) {
  std::lock_guard<std::mutex> lock(mu_);
  if (have_max_ &&
      !max_beats(value, point, max_value_, max_point_.data(), dim))
    return;
  have_max_ = true;
  max_value_ = value;
  max_point_.assign(point, point + dim);
}

template <typename S>
void ResultSink<S>::print() const {
  auto line = [](const char* label, const IntVec& point, S value) {
    std::printf("%s (", label);
    for (std::size_t k = 0; k < point.size(); ++k)
      std::printf(k ? ", %lld" : "%lld", static_cast<long long>(point[k]));
    std::printf(") = %.17g\n", static_cast<double>(value));
  };
  for (const auto& [point, value] : values_) line("RESULT", point, value);
  if (have_max_) line("MAX", max_point_, max_value_);
}

template <typename S>
int run_program(const ProgramInfo<S>& info, int argc, char** argv) {
  const int nparams = info.params.size;
  if (argc < 1 + nparams) {
    std::string positional;
    for (const char* name : info.params) positional += cat(" <", name, ">");
    std::fprintf(stderr, "usage: %s%s %s%s\n", argv[0], positional.c_str(),
                 LaunchOptions::usage().c_str(),
                 info.loop_passes ? " [--passes=none|full]" : "");
    return 2;
  }
  try {
    std::vector<long long> params;
    for (int i = 1; i <= nparams; ++i)
      params.push_back(parse_int(argv[i], "parameter"));
    LaunchOptions options;
    LaunchLabels labels{.source = "generated",
                        .problem = info.name,
                        .params = IntVec(params.begin(), params.end()),
                        .profile_problem = {},
                        .passes = {info.passes.begin(), info.passes.end()}};
    bool loop_passes = true;
    for (int i = 1 + nparams; i < argc; ++i) {
      const std::string arg = argv[i];
      if (info.loop_passes && starts_with(arg, "--passes=")) {
        const std::string v = arg.substr(9);
        DPGEN_CHECK(v == "none" || v == "full",
                    cat("bad --passes value '", v, "' (expected none|full)"));
        loop_passes = v == "full";
      } else {
        DPGEN_CHECK(options.parse_flag(arg), cat("unknown option ", arg));
      }
    }
    if (info.loop_passes) {
      *info.loop_passes = loop_passes;
      // The layout pass is baked into the geometry: it stays in effect.
      if (!loop_passes)
        std::erase_if(labels.passes,
                      [](const std::string& p) { return p != "layout"; });
    }
    if (info.init) info.init(params.data());

    ResultSink<S> sink(probe_set(info.probes, info.dim));
    // The cells are scanned once; each attempt cuts them over the ranks
    // still alive.
    OwnerTable cells({info.lb_dims.begin(), info.lb_dims.end()});
    bool scanned = false;
    const LaunchResult run = launch<S>(
        [&](int alive) {
          if (!scanned) info.scan_cells(params.data(), cells);
          scanned = true;
          LaunchPlan<S> plan{
              .hooks = std::unique_ptr<ProblemHooks<S>>(
                  info.make_hooks(params.data())),
              .owners = cells,
              .sink = &sink,
              .order = TileOrder(
                  {info.priority_dims, info.priority_dims + info.dim},
                  {info.dep_signs, info.dep_signs + info.dim},
                  options.policy)};
          plan.owners.cut(alive);
          return plan;
        },
        options, labels);

    sink.print();
    print_summary(options, run, info.total_work(params.data()));
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "dpgen: error: %s\n", e.what());
    return 2;
  }
}

}  // namespace dpgen::runtime
