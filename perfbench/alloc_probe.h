#ifndef PERFBENCH_ALLOC_PROBE_H_
#define PERFBENCH_ALLOC_PROBE_H_

#include <cstdint>

namespace perfbench {

// Whether this binary counts heap allocations. Only rtr_perfbench_traced
// does: alloc_probe.cc links bench/alloc_counter.h's operator-new
// interposer into it, while rtr_perfbench, which measures the end-to-end
// metrics, links alloc_probe_off.cc and keeps the standard operator new.
bool HeapAllocationsCounted();

// Heap allocations (any operator new, any thread) since process start; 0
// when they are not counted.
uint64_t HeapAllocations();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_PROBE_H_
