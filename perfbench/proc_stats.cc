#include "proc_stats.h"

#include <sched.h>
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

ProcUsage ReadProcUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  ProcUsage u;
  u.cpu_ms = ms(ru.ru_utime) + ms(ru.ru_stime);
  u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
  u.major_faults = static_cast<uint64_t>(ru.ru_majflt);
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  // "cpu user nice system idle iowait irq softirq steal ..."
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long t[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                    &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) == 8) {
      for (unsigned long long x : t) u.host_ticks += x;
      u.host_steal_ticks = t[7];
    }
    std::fclose(f);
  }
  return u;
}

ProcUsage operator-(const ProcUsage& a, const ProcUsage& b) {
  return {a.cpu_ms - b.cpu_ms,
          a.minor_faults - b.minor_faults,
          a.major_faults - b.major_faults,
          a.ctx_switches - b.ctx_switches,
          a.host_ticks - b.host_ticks,
          a.host_steal_ticks - b.host_steal_ticks};
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  // "5" resets VmHWM (Documentation/filesystems/proc.rst).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

int NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string FingerprintJson() {
  bool avx2 = false;
#if defined(__x86_64__) || defined(__i386__)
  avx2 = __builtin_cpu_supports("avx2");
#endif
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu_model\": \"%s\", \"nproc\": %d, \"avx2\": %s, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
                JsonEscape(CpuModel()).c_str(), NumCpus(),
                avx2 ? "true" : "false", JsonEscape(__VERSION__).c_str(),
                PERFBENCH_BUILD_TYPE);
  return buf;
}

}  // namespace perfbench
