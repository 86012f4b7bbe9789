// The one compiled copy of the double-precision driver: every generated
// program and the engine link these instantiations (declared extern in
// driver.hpp and checkpoint.hpp) instead of compiling their own.
#include "runtime/driver.hpp"

namespace dpgen::runtime {

template class CheckpointStore<double>;
template RunStats run_node<double>(ProblemHooks<double>&, minimpi::Comm&,
                                   const RunOptions&,
                                   CheckpointStore<double>*);

}  // namespace dpgen::runtime
