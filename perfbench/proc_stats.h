#ifndef PERFBENCH_PROC_STATS_H_
#define PERFBENCH_PROC_STATS_H_

// Process-level counters (getrusage) and the host fingerprint written
// into every result.

#include <cstdint>
#include <string>

namespace perfbench {

struct ProcUsage {
  double cpu_ms = 0.0;  // user + system, all threads
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
  uint64_t ctx_switches = 0;  // voluntary + involuntary
  // Host-wide CPU time in clock ticks (/proc/stat): all of it, and the
  // part the hypervisor gave to other guests (steal).
  uint64_t host_ticks = 0;
  uint64_t host_steal_ticks = 0;
};

ProcUsage ReadProcUsage();
ProcUsage operator-(const ProcUsage& a, const ProcUsage& b);

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// Returns freed heap to the system and restarts the peak count at the
// current resident size; false if the kernel refuses.
bool ResetPeakRss();

// Online CPUs this process may run on.
int NumCpus();

// One JSON object: CPU model, nproc, AVX2 support, compiler, build type.
std::string FingerprintJson();

}  // namespace perfbench

#endif  // PERFBENCH_PROC_STATS_H_
