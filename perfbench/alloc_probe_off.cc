#include "alloc_probe.h"

namespace perfbench {

bool HeapAllocationsCounted() { return false; }

uint64_t HeapAllocations() { return 0; }

}  // namespace perfbench
