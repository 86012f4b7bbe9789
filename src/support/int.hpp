#pragma once
// The integer type every layer shares, on its own so that a generated
// program's view of the runtime (runtime/program.hpp) includes nothing
// beyond <cstdint>.

#include <cstdint>

namespace dpgen {

/// The integer type used throughout the exact-arithmetic layers.
using Int = std::int64_t;

}  // namespace dpgen
