// The untraced binary keeps the standard operator new: no counting cost.
#include "bench.hpp"

namespace perfbench {

HeapTotals heap_totals() noexcept { return {}; }

}  // namespace perfbench
