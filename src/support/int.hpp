#pragma once
// The integer and integer-vector types every layer shares, on their own so
// that a generated program's view of the runtime (runtime/program.hpp)
// includes nothing beyond <cstdint> and <vector>.

#include <cstdint>
#include <vector>

namespace dpgen {

/// The integer type used throughout the exact-arithmetic layers.
using Int = std::int64_t;

/// A point / offset / coefficient row in Z^d.
using IntVec = std::vector<Int>;

}  // namespace dpgen
