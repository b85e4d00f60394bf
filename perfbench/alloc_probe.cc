#include "alloc_probe.h"

#include "alloc_counter.h"  // the one TU that defines operator new

namespace perfbench {

bool HeapAllocationsCounted() { return true; }

uint64_t HeapAllocations() { return rtr::bench::AllocCount(); }

}  // namespace perfbench
