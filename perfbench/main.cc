// rtr_perfbench: the serving benchmark (see perfbench/README.md).
//
//   rtr_perfbench selftest
//   rtr_perfbench gen --dataset bibnet|qlog --dataset_seed N --out FILE
//   rtr_perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                     --graph FILE [--spans-out FILE] [--samples-out FILE]
//                     [workload keys...]
//
// `gen` writes the workload's graph snapshot; `run` measures one workload
// against it and prints a fingerprint line, a detail line and, last, the
// result object. rtr_perfbench_traced takes the same commands; only it can
// run the traced pass (--trace 1), because only it counts allocations.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "alloc_probe.h"
#include "datasets/bibnet.h"
#include "datasets/qlog.h"
#include "graph/snapshot.h"
#include "proc_stats.h"
#include "sample_stats.h"
#include "workload.h"

namespace {

// Library environment knobs that swap the code path under test. The
// benchmark measures the defaults, so it refuses to run with any set.
constexpr const char* kEnvKnobs[] = {"RTR_NUM_THREADS", "RTR_GRAPH_MMAP",
                                     "RTR_MMAP_VERIFY", "RTR_SIMD",
                                     "RTR_F32_KERNELS", "RTR_LOG_LEVEL"};

bool EnvKnobsUnset() {
  bool clean = true;
  for (const char* knob : kEnvKnobs) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "refusing to run: %s is set\n", knob);
      clean = false;
    }
  }
  return clean;
}

// --key value pairs after the subcommand.
bool ParseFlags(int argc, char** argv, std::map<std::string, std::string>* out) {
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "bad argument: %s\n", argv[i]);
      return false;
    }
    (*out)[argv[i] + 2] = argv[i + 1];
  }
  return true;
}

int Gen(const std::map<std::string, std::string>& flags) {
  auto get = [&](const char* key, const char* fallback) {
    auto it = flags.find(key);
    return it == flags.end() ? std::string(fallback) : it->second;
  };
  const std::string dataset = get("dataset", "");
  const std::string out = get("out", "");
  const uint64_t seed =
      std::strtoull(get("dataset_seed", "1").c_str(), nullptr, 10);
  if (out.empty()) {
    std::fprintf(stderr, "gen needs --out\n");
    return 2;
  }
  rtr::Status saved;
  if (dataset == "bibnet") {
    rtr::datasets::BibNetConfig config;
    config.seed = seed;
    config.num_papers = perfbench::kScale;
    config.num_authors = perfbench::kScale / 4;
    auto net = rtr::datasets::BibNet::Generate(config);
    if (!net.ok()) {
      std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
      return 2;
    }
    saved = rtr::SaveGraphSnapshotToFile(net.value().graph(), out);
  } else if (dataset == "qlog") {
    rtr::datasets::QLogConfig config;
    config.seed = seed;
    config.num_concepts = perfbench::kScale;
    config.num_portal_urls = 80;
    auto log = rtr::datasets::QLog::Generate(config);
    if (!log.ok()) {
      std::fprintf(stderr, "%s\n", log.status().ToString().c_str());
      return 2;
    }
    saved = rtr::SaveGraphSnapshotToFile(log.value().graph(), out);
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
    return 2;
  }
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 2;
  }
  return 0;
}

int Run(const std::map<std::string, std::string>& flags) {
  perfbench::Config c;
  // Each key maps onto one Config field.
  const std::map<std::string, std::function<void(const std::string&)>> keys = {
      {"workload", [&](const std::string& v) { c.workload = v; }},
      {"dataset", [&](const std::string& v) { c.dataset = v; }},
      {"backend", [&](const std::string& v) { c.backend = v; }},
      {"loader", [&](const std::string& v) { c.loader = v; }},
      {"seed", [&](const std::string& v) { c.seed = std::stoull(v); }},
      {"dataset_seed",
       [&](const std::string& v) { c.dataset_seed = std::stoull(v); }},
      {"seconds", [&](const std::string& v) { c.seconds = std::stod(v); }},
      {"trace", [&](const std::string& v) { c.trace = v == "1"; }},
      {"graph", [&](const std::string& v) { c.graph_path = v; }},
      {"spans-out", [&](const std::string& v) { c.spans_path = v; }},
      {"samples-out", [&](const std::string& v) { c.samples_path = v; }},
      {"lo_qps", [&](const std::string& v) { c.lo_qps = std::stod(v); }},
      {"hi_qps", [&](const std::string& v) { c.hi_qps = std::stod(v); }},
      {"delta_period_ms",
       [&](const std::string& v) { c.delta_period_ms = std::stod(v); }},
  };
  for (const auto& [key, value] : flags) {
    auto it = keys.find(key);
    if (it == keys.end()) {
      std::fprintf(stderr, "unknown key --%s\n", key.c_str());
      return 2;
    }
    try {
      it->second(value);
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for --%s: %s\n", key.c_str(),
                   value.c_str());
      return 2;
    }
  }
  if (c.graph_path.empty() || c.lo_qps <= 0 || c.hi_qps <= 0 ||
      c.seconds <= 0 || c.delta_period_ms < 0) {
    std::fprintf(stderr, "run: missing or out-of-range settings\n");
    return 2;
  }
  if (c.trace && !perfbench::HeapAllocationsCounted()) {
    std::fprintf(stderr, "run: the traced pass needs rtr_perfbench_traced\n");
    return 2;
  }
  std::printf("{\"fingerprint\": %s, \"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"env_knobs\": \"all unset\"}\n",
              perfbench::FingerprintJson().c_str(), c.workload.c_str(),
              static_cast<unsigned long long>(c.seed), c.trace ? 1 : 0);
  return perfbench::RunWorkload(c);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: rtr_perfbench selftest|gen|run [--key value]...\n");
    return 2;
  }
  std::string error;
  if (!perfbench::SelfTest(&error)) {
    std::fprintf(stderr, "percentile self-test failed: %s\n", error.c_str());
    return 3;
  }
  const std::string command = argv[1];
  if (command == "selftest") {
    std::printf("self-test passed\n");
    return 0;
  }
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, &flags) || !EnvKnobsUnset()) return 2;
  if (command == "gen") return Gen(flags);
  if (command == "run") return Run(flags);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
