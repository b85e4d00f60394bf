#include "workload.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "alloc_probe.h"
#include "core/twosbound.h"
#include "core/workspace.h"
#include "dist/distributed_topk.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "graph/store.h"
#include "loadgen.h"
#include "net/gp_server.h"
#include "net/remote_gp.h"
#include "obs/trace.h"
#include "proc_stats.h"
#include "sample_stats.h"
#include "serve/query_service.h"
#include "spans.h"
#include "util/random.h"

namespace perfbench {

using rtr::GraphDelta;
using rtr::GraphStore;
using rtr::NodeId;
using rtr::Status;
using rtr::StatusOr;
using rtr::serve::QueryService;

namespace {

// ---------------------------------------------------------------------------
// Inputs, all derived from the seed before any timed window opens.
// ---------------------------------------------------------------------------

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (purpose + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

template <typename T>
void Shuffle(std::vector<T>* v, rtr::Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.NextUint64(i)]);
  }
}

// Requests of the stream come in blocks of this many; a measured phase
// starts on a block boundary and serves whole blocks.
constexpr size_t kBlock = 32;

// The untraced pass runs its three measured phases in this many rounds of
// lo, hi, peak: the host's speed drifts over tens of seconds, and
// interleaving spreads every phase over the whole run.
constexpr int kRounds = 6;
// The timing metrics are taken from the rounds in which at most this share
// of the host's CPU time was stolen, or from the kMinRounds least stolen
// when fewer were that calm (see the untraced pass).
constexpr double kCalmSteal = 0.02;
constexpr size_t kMinRounds = 3;
static_assert(kMinRounds <= kRounds);

// Every node with an out-arc, each exactly once. The population order is
// fixed by the dataset: nodes are sorted by (type, degree) into kBlock
// strata, shuffled within each (dataset_seed), and taken one per stratum
// per round, so each block of kBlock consecutive requests has the graph's
// degree mix. The run seed then shuffles each block. A measured phase
// therefore serves the same queries under every seed, in a seed-dependent
// order: per-query cost is heavy-tailed (p99/p50 > 10 on BibNet; four
// nodes take over a second), and a p99 over a fresh draw of ~1000 queries
// moves by a third between draws, which would swamp any regression bound.
std::vector<NodeId> DistinctNodeStream(const rtr::Graph& g,
                                       uint64_t dataset_seed, uint64_t seed) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.out_degree(v) > 0) nodes.push_back(v);
  }
  std::sort(nodes.begin(), nodes.end(), [&g](NodeId a, NodeId b) {
    auto key = [&g](NodeId v) {
      return std::make_tuple(g.node_type(v), g.out_degree(v) + g.in_degree(v),
                             v);
    };
    return key(a) < key(b);
  });
  rtr::Rng rng(dataset_seed);
  const size_t strata = std::min(kBlock, nodes.size());
  std::vector<std::vector<NodeId>> stratum(strata);
  for (size_t i = 0; i < nodes.size(); ++i) {
    stratum[i * strata / nodes.size()].push_back(nodes[i]);
  }
  for (auto& s : stratum) Shuffle(&s, rng);
  std::vector<size_t> order(strata);
  std::iota(order.begin(), order.end(), 0);
  std::vector<NodeId> stream;
  stream.reserve(nodes.size());
  for (size_t round = 0; stream.size() < nodes.size(); ++round) {
    Shuffle(&order, rng);
    for (size_t s : order) {
      if (round < stratum[s].size()) stream.push_back(stratum[s][round]);
    }
  }
  rtr::Rng order_rng(seed);
  for (size_t begin = 0; begin < stream.size(); begin += kBlock) {
    std::vector<NodeId> block(
        stream.begin() + begin,
        stream.begin() + std::min(begin + kBlock, stream.size()));
    Shuffle(&block, order_rng);
    std::copy(block.begin(), block.end(), stream.begin() + begin);
  }
  return stream;
}

// The phrase pool of the live workload: `pool` random phrases in random
// popularity order, both fixed by the dataset (see DistinctNodeStream for
// why); the run seed draws the request sequence from it.
std::vector<NodeId> PhrasePool(const rtr::Graph& g, int pool, uint64_t seed) {
  std::vector<NodeId> phrases;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.type_name(g.node_type(v)) == "phrase" && g.out_degree(v) > 0) {
      phrases.push_back(v);
    }
  }
  rtr::Rng rng(seed);
  Shuffle(&phrases, rng);
  phrases.resize(std::min(phrases.size(), static_cast<size_t>(pool)));
  return phrases;
}

class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(rtr::Rng& rng) const {
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble()) -
        cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::vector<NodeId> ZipfStream(const std::vector<NodeId>& pool, double s,
                               size_t length, uint64_t seed) {
  ZipfSampler zipf(pool.size(), s);
  rtr::Rng rng(seed);
  std::vector<NodeId> stream(length);
  for (NodeId& v : stream) v = pool[zipf.Draw(rng)];
  return stream;
}

// Click-increment deltas: each adds one click (weight 1, both directions)
// to `clicks` existing phrase-URL arcs of Zipf-drawn pool phrases. The
// base generation is stamped when the delta is applied.
std::vector<GraphDelta> ClickDeltas(const rtr::Graph& g,
                                    const std::vector<NodeId>& pool, double s,
                                    size_t count, int clicks, uint64_t seed) {
  ZipfSampler zipf(pool.size(), s);
  rtr::Rng rng(seed);
  std::vector<GraphDelta> deltas(count);
  for (GraphDelta& d : deltas) {
    d.added_arcs.reserve(2 * static_cast<size_t>(clicks));
    for (int c = 0; c < clicks; ++c) {
      NodeId phrase = pool[zipf.Draw(rng)];
      auto urls = g.out_targets(phrase);
      NodeId url = urls[rng.NextUint64(urls.size())];
      d.added_arcs.push_back({phrase, url, 1.0});
      d.added_arcs.push_back({url, phrase, 1.0});
    }
  }
  return deltas;
}

// ---------------------------------------------------------------------------
// Traced-pass instrumentation of the net layer.
// ---------------------------------------------------------------------------

// Fetch latencies of every shard, reserved up front.
struct FetchLog {
  explicit FetchLog(size_t capacity) : ms(capacity) {}
  std::vector<double> ms;
  std::atomic<size_t> next{0};
  SpanLog* spans = nullptr;
  const LoadGenerator* generator = nullptr;  // parent span of a fetch

  void Record(int64_t start, int64_t end) {
    size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i < ms.size()) ms[i] = static_cast<double>(end - start) / 1e6;
    spans->Add("net.fetch", start, end,
               generator != nullptr ? generator->phase_span() : 0);
  }
  std::vector<double> Samples() const {
    return {ms.begin(), ms.begin() + std::min(next.load(), ms.size())};
  }
};

// Times each Fetch of the wrapped source; everything else passes through.
class TimedSource : public rtr::dist::RecordSource {
 public:
  TimedSource(std::unique_ptr<rtr::dist::RecordSource> inner, FetchLog* log)
      : inner_(std::move(inner)), log_(log) {}
  Status Fetch(const std::vector<NodeId>& nodes,
               std::vector<rtr::dist::NodeRecord>* out) const override {
    int64_t start = NowNanos();
    Status st = inner_->Fetch(nodes, out);
    log_->Record(start, NowNanos());
    return st;
  }
  uint64_t fetch_requests() const override {
    return inner_->fetch_requests();
  }
  uint64_t records_served() const override {
    return inner_->records_served();
  }
  uint64_t bytes_served() const override { return inner_->bytes_served(); }
  rtr::dist::WireTraffic wire() const override { return inner_->wire(); }

 private:
  std::unique_ptr<rtr::dist::RecordSource> inner_;
  FetchLog* log_;
};

// ---------------------------------------------------------------------------
// Set-up: from the snapshot on disk to the first answered query.
// ---------------------------------------------------------------------------

struct Deployment {
  std::vector<std::unique_ptr<rtr::net::GpServer>> servers;
  std::shared_ptr<const rtr::dist::Cluster> cluster;
  std::shared_ptr<GraphStore> store;  // local backends
  // Declared last so it is destroyed first: workers stop before the
  // cluster and the shard servers go away.
  std::unique_ptr<QueryService> service;
  double setup_s = 0.0;
  double load_ms = 0.0;
};

rtr::serve::ServiceOptions ServiceOptionsFor() {
  rtr::serve::ServiceOptions options;  // library defaults...
  options.num_workers = kWorkers;      // ...except the pool size
  return options;
}

StatusOr<Deployment> SetUp(const Config& c, NodeId first_query,
                           SpanLog* spans, FetchLog* fetch_log) {
  Deployment d;
  const int64_t root = spans->Open("setup");
  const int64_t t0 = NowNanos();
  auto timed = [&](const char* name, auto&& fn) {
    int64_t start = NowNanos();
    auto out = fn();
    spans->Add(name, start, NowNanos(), root);
    return out;
  };
  const rtr::serve::ServiceOptions options = ServiceOptionsFor();
  if (c.backend == "local" && c.loader == "bulk") {
    auto service = timed("graph.load", [&] {
      return QueryService::FromGraphFile(c.graph_path, options);
    });
    if (!service.ok()) return service.status();
    d.load_ms = static_cast<double>(NowNanos() - t0) / 1e6;
    d.service = std::move(service).value();
    d.store = d.service->store();
  } else if (c.backend == "local" && c.loader == "mmap") {
    auto store = timed("graph.load", [&] {
      return GraphStore::Open(c.graph_path, rtr::MapMode::kRequire);
    });
    if (!store.ok()) return store.status();
    d.load_ms = static_cast<double>(NowNanos() - t0) / 1e6;
    d.store = std::move(store).value();
    d.service = std::make_unique<QueryService>(d.store, options);
  } else if (c.backend == "tcp") {
    uint64_t generation = 0;
    auto loaded = timed("graph.load", [&] {
      return rtr::LoadGraphAuto(c.graph_path, &generation);
    });
    if (!loaded.ok()) return loaded.status();
    d.load_ms = static_cast<double>(NowNanos() - t0) / 1e6;
    auto graph = std::make_shared<const rtr::Graph>(std::move(loaded).value());
    std::vector<std::string> endpoints;
    for (int shard = 0; shard < kNumGps; ++shard) {
      auto server = timed("net.gp_server_start", [&] {
        return rtr::net::GpServer::Start(graph, shard, kNumGps, generation);
      });
      if (!server.ok()) return server.status();
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(server.value()->port()));
      d.servers.push_back(std::move(server).value());
    }
    if (fetch_log == nullptr) {
      auto cluster = timed("net.connect", [&] {
        return rtr::net::ConnectRemoteCluster(graph, generation, endpoints);
      });
      if (!cluster.ok()) return cluster.status();
      d.cluster = std::move(cluster).value();
    } else {
      // Traced pass: the same handshakes, with each shard's source wrapped
      // in the Fetch timer.
      std::vector<std::unique_ptr<rtr::dist::RecordSource>> sources;
      for (int shard = 0; shard < kNumGps; ++shard) {
        rtr::net::HelloPayload expected;
        expected.shard = static_cast<uint32_t>(shard);
        expected.num_gps = static_cast<uint32_t>(kNumGps);
        expected.num_nodes = graph->num_nodes();
        expected.generation = generation;
        auto remote = std::make_unique<rtr::net::RemoteGraphProcessor>(
            "127.0.0.1", d.servers[static_cast<size_t>(shard)]->port(),
            expected);
        Status st = timed("net.connect", [&] { return remote->Connect(); });
        if (!st.ok()) return st;
        sources.push_back(
            std::make_unique<TimedSource>(std::move(remote), fetch_log));
      }
      d.cluster = std::make_shared<const rtr::dist::Cluster>(
          graph, std::move(sources), generation);
    }
    d.service = std::make_unique<QueryService>(d.cluster, options);
  } else {
    return Status::InvalidArgument("unknown backend/loader: " + c.backend +
                                   "/" + c.loader);
  }
  Status started = timed("serve.start", [&] { return d.service->Start(); });
  if (!started.ok()) return started;
  rtr::serve::ServeRequest request;
  request.query = {first_query};
  request.params = QueryParams();
  auto first = timed("serve.first_query",
                     [&] { return d.service->Call(request); });
  if (!first.ok()) return first.status();
  if (!first.value().status.ok()) return first.value().status;
  d.setup_s = static_cast<double>(NowNanos() - t0) / 1e9;
  spans->Close(root);
  return d;
}

// ---------------------------------------------------------------------------
// The live workload's writer: one click delta per period, applied by the
// generator thread between submissions.
// ---------------------------------------------------------------------------

class LiveWriter : public Writer {
 public:
  LiveWriter(GraphStore* store, std::vector<GraphDelta>* deltas,
             double period_ms, SpanLog* spans, const LoadGenerator* generator)
      : store_(store),
        deltas_(deltas),
        period_ns_(static_cast<int64_t>(period_ms * 1e6)),
        spans_(spans),
        generator_(generator) {
    apply_ms_.reserve(deltas->size());
  }

  void Resume(int64_t now_ns) override { next_due_ns_ = now_ns + period_ns_; }

  void Poll(int64_t now_ns) override {
    if (now_ns < next_due_ns_ || applied_ >= deltas_->size()) return;
    GraphDelta& delta = (*deltas_)[applied_];
    delta.base_generation = store_->generation();
    const int64_t start = NowNanos();
    StatusOr<uint64_t> next = store_->Apply(delta);
    const int64_t end = NowNanos();
    spans_->Add("graph.apply", start, end, generator_->phase_span());
    if (!next.ok()) {
      ++failures_;
      std::fprintf(stderr, "delta apply failed: %s\n",
                   next.status().ToString().c_str());
    } else {
      ++applied_;
    }
    apply_ms_.push_back(static_cast<double>(end - start) / 1e6);
    live_max_ = std::max(live_max_, store_->live_generations());
    next_due_ns_ = std::max(next_due_ns_ + period_ns_, end);
  }

  size_t applied() const { return applied_; }
  uint64_t failures() const { return failures_; }
  const std::vector<double>& apply_ms() const { return apply_ms_; }
  size_t live_max() const { return live_max_; }

 private:
  GraphStore* store_;
  std::vector<GraphDelta>* deltas_;
  int64_t period_ns_;
  SpanLog* spans_;
  const LoadGenerator* generator_;
  int64_t next_due_ns_ = 0;
  size_t applied_ = 0;
  uint64_t failures_ = 0;
  std::vector<double> apply_ms_;
  size_t live_max_ = 0;
};

// ---------------------------------------------------------------------------
// Output check and answer quality.
// ---------------------------------------------------------------------------

bool SameEntries(const SampleRecord& served, const rtr::core::TopKResult& ref) {
  if (static_cast<size_t>(served.num_entries) != ref.entries.size()) {
    return false;
  }
  for (int i = 0; i < served.num_entries; ++i) {
    const auto& a = served.entries[static_cast<size_t>(i)];
    const auto& b = ref.entries[static_cast<size_t>(i)];
    if (a.node != b.node ||
        std::bit_cast<uint64_t>(a.lower) != std::bit_cast<uint64_t>(b.lower) ||
        std::bit_cast<uint64_t>(a.upper) != std::bit_cast<uint64_t>(b.upper)) {
      return false;
    }
  }
  return true;
}

// NDCG@k of the served ranking, graded by the exact RoundTripRank scores.
double NdcgAgainstExact(const rtr::Graph& g, const SampleRecord& served,
                        double alpha) {
  std::vector<double> exact =
      rtr::core::ExactRoundTripRankScores(g, {served.node}, alpha);
  const size_t k = static_cast<size_t>(served.num_entries);
  double dcg = 0.0;
  for (size_t i = 0; i < k; ++i) {
    dcg += exact[served.entries[i].node] / std::log2(static_cast<double>(i) + 2);
  }
  std::partial_sort(exact.begin(), exact.begin() + std::min(k, exact.size()),
                    exact.end(), std::greater<double>());
  double ideal = 0.0;
  for (size_t i = 0; i < k && i < exact.size(); ++i) {
    ideal += exact[i] / std::log2(static_cast<double>(i) + 2);
  }
  return ideal > 0.0 ? dcg / ideal : 1.0;
}

struct CheckResult {
  bool ok = true;
  size_t checked = 0;
  size_t cache_hits = 0;
  size_t after_swap = 0;
  size_t mismatches = 0;
  std::vector<double> ndcg;
};

// Every kept response must be OK and bit-identical to a direct
// TopKRoundTripRank on the generation that served it. Generations past the
// base are rebuilt by replaying the writer's deltas in order.
CheckResult CheckSamples(const Config& c, std::span<const SampleRecord> all,
                         const std::vector<GraphDelta>& deltas,
                         size_t applied) {
  CheckResult out;
  std::vector<const SampleRecord*> picked;
  for (const SampleRecord& s : all) picked.push_back(&s);
  std::stable_sort(picked.begin(), picked.end(),
                   [](const SampleRecord* a, const SampleRecord* b) {
                     return a->generation < b->generation;
                   });
  auto store = GraphStore::Open(c.graph_path, rtr::MapMode::kNever);
  if (!store.ok()) {
    std::fprintf(stderr, "check: cannot reload %s: %s\n", c.graph_path.c_str(),
                 store.status().ToString().c_str());
    out.ok = false;
    return out;
  }
  const uint64_t base = store.value()->generation();
  const rtr::core::TopKParams params = QueryParams();
  rtr::core::QueryWorkspace ws;
  size_t next_delta = 0;
  for (const SampleRecord* s : picked) {
    if (!s->ok) {
      std::fprintf(stderr, "check: request for node %u failed\n", s->node);
      out.ok = false;
      continue;
    }
    while (store.value()->generation() < s->generation &&
           next_delta < applied) {
      GraphDelta delta = deltas[next_delta++];
      delta.base_generation = store.value()->generation();
      if (!store.value()->Apply(delta).ok()) break;
    }
    if (store.value()->generation() != s->generation) {
      std::fprintf(stderr, "check: cannot rebuild generation %" PRIu64 "\n",
                   s->generation);
      out.ok = false;
      break;
    }
    auto graph = store.value()->Current();
    auto ref = rtr::core::TopKRoundTripRank(*graph, {s->node}, params, ws);
    ++out.checked;
    if (s->cache_hit) ++out.cache_hits;
    if (s->generation > base) ++out.after_swap;
    if (!ref.ok() || !SameEntries(*s, ref.value())) {
      ++out.mismatches;
      out.ok = false;
      std::fprintf(stderr, "check: node %u generation %" PRIu64
                   " differs from the direct engine\n",
                   s->node, s->generation);
      continue;
    }
    if (out.ndcg.size() < kNdcgQueries) {
      out.ndcg.push_back(NdcgAgainstExact(*graph, *s, params.alpha));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Direct replays of the engine and the loopback cluster (traced pass).
// ---------------------------------------------------------------------------

struct EngineReplay {
  std::vector<double> wall_ms, stage1_ms, stage2_ms, finalize_ms,
      unattributed_ms, rounds, active_nodes, active_arcs;
  size_t converged = 0;
  uint64_t allocs = 0;
  bool ok = true;
};

EngineReplay ReplayEngine(const rtr::Graph& g, const std::vector<NodeId>& nodes,
                          SpanLog* spans) {
  EngineReplay out;
  const rtr::core::TopKParams params = QueryParams();
  rtr::core::QueryWorkspace ws;
  rtr::obs::TraceRecorder recorder;
  ws.trace = &recorder;
  rtr::core::TopKResult result;
  // Warm the workspace (its first query sizes it at O(n)); untimed.
  if (!nodes.empty()) {
    rtr::Query q = {nodes.front()};
    recorder.BeginQuery(0);
    out.ok &= rtr::core::TopKRoundTripRank(g, q, params, ws, &result).ok();
  }
  const size_t n = nodes.size();
  for (auto* v : {&out.wall_ms, &out.stage1_ms, &out.stage2_ms,
                  &out.finalize_ms, &out.unattributed_ms, &out.rounds,
                  &out.active_nodes, &out.active_arcs}) {
    v->reserve(n);
  }
  rtr::Query query(1);
  const int64_t root = spans->Open("core.replay");
  const uint64_t allocs_before = HeapAllocations();
  for (size_t i = 0; i < n; ++i) {
    query[0] = nodes[i];
    recorder.BeginQuery(static_cast<int64_t>(i));
    const int64_t start = NowNanos();
    Status st = rtr::core::TopKRoundTripRank(g, query, params, ws, &result);
    const int64_t end = NowNanos();
    out.ok &= st.ok();
    using rtr::obs::Phase;
    const double wall = static_cast<double>(end - start) / 1e6;
    const double s1 = recorder.PhaseMillis(Phase::kStage1Expand);
    const double s2 = recorder.PhaseMillis(Phase::kStage2Refine);
    const double fin = recorder.PhaseMillis(Phase::kFinalize);
    out.wall_ms.push_back(wall);
    out.stage1_ms.push_back(s1);
    out.stage2_ms.push_back(s2);
    out.finalize_ms.push_back(fin);
    out.unattributed_ms.push_back(wall - s1 - s2 - fin);
    out.rounds.push_back(result.rounds);
    out.active_nodes.push_back(static_cast<double>(result.active_nodes));
    out.active_arcs.push_back(static_cast<double>(result.active_arcs));
    out.converged += result.converged ? 1 : 0;
    spans->Add("core.topk", start, end, root, static_cast<int64_t>(i));
  }
  out.allocs = HeapAllocations() - allocs_before;
  spans->Close(root);
  return out;
}

std::vector<double> ReplayLoopback(const std::shared_ptr<const rtr::Graph>& g,
                                   const std::vector<NodeId>& nodes,
                                   SpanLog* spans, bool* ok) {
  rtr::dist::Cluster cluster(g, kNumGps);
  const rtr::core::TopKParams params = QueryParams();
  rtr::core::QueryWorkspace ws;
  std::vector<double> ms;
  if (!nodes.empty()) {
    *ok &= rtr::dist::DistributedTopK(cluster, {nodes.front()}, params, &ws)
               .ok();
  }
  const int64_t root = spans->Open("dist.loopback_replay");
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int64_t start = NowNanos();
    auto r = rtr::dist::DistributedTopK(cluster, {nodes[i]}, params, &ws);
    const int64_t end = NowNanos();
    *ok &= r.ok();
    ms.push_back(static_cast<double>(end - start) / 1e6);
    spans->Add("dist.topk", start, end, root, static_cast<int64_t>(i));
  }
  spans->Close(root);
  return ms;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Median(std::vector<double> v) { return QuantileOf(std::move(v), 0.5).value; }

std::string QuantileJson(const char* name, const std::vector<double>& v,
                         double q) {
  Quantile x = QuantileOf(v, q);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"value\": %.6f, \"count\": %zu, \"beyond\": %zu, "
                "\"highest_supported\": %g}",
                name, x.value, x.count, x.beyond,
                HighestSupportedQuantile(v.size()));
  return buf;
}

// Shortest text that reads back as exactly `v`.
std::string ExactNumber(double v) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // A failed request makes a latency infinite; it prints as -1, and the
    // run is already marked incorrect.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           ExactNumber(v) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void AppendArray(std::string* out, const char* key,
                 const std::vector<double>& v) {
  *out += ", \"";
  *out += key;
  *out += "\": [";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", i == 0 ? "" : ",",
                  std::isfinite(v[i]) ? v[i] : -1.0);
    *out += buf;
  }
  *out += "]";
}

// One JSON line per phase with its raw samples (failed requests as -1).
bool WriteSamples(const std::string& path, const std::deque<PhaseResult>& phases) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const PhaseResult& p : phases) {
    std::string line = "{\"phase\": \"" + p.name + "\"";
    AppendArray(&line, "latency_ms", p.latency_ms);
    AppendArray(&line, "queue_ms", p.queue_ms);
    AppendArray(&line, "exec_ms", p.exec_ms);
    std::fprintf(f, "%s}\n", line.c_str());
  }
  return std::fclose(f) == 0;
}

double PerQuery(double total, uint64_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

}  // namespace

int RunWorkload(const Config& c) {
  // ----- Inputs (untimed) -------------------------------------------------
  std::shared_ptr<const rtr::Graph> input_graph;
  {
    auto loaded = rtr::LoadGraphAuto(c.graph_path, nullptr,
                                     rtr::MapMode::kNever);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", c.graph_path.c_str(),
                   loaded.status().ToString().c_str());
      return 2;
    }
    input_graph =
        std::make_shared<const rtr::Graph>(std::move(loaded).value());
  }
  const bool live = c.delta_period_ms > 0.0;
  std::vector<NodeId> stream;
  std::vector<NodeId> pool;
  if (c.dataset == "qlog") {
    pool = PhrasePool(*input_graph, kPool, SubSeed(c.dataset_seed, 1));
    stream = ZipfStream(pool, kZipf, 1u << 20, SubSeed(c.seed, 2));
  } else {
    stream = DistinctNodeStream(*input_graph, SubSeed(c.dataset_seed, 1),
                                SubSeed(c.seed, 1));
  }
  std::vector<GraphDelta> deltas;
  if (live) {
    // Enough deltas for every phase and warm-up at the fixed period.
    const double total_s = 2.0 * c.seconds + 8.0 * kWarmupSeconds + 4.0;
    deltas = ClickDeltas(*input_graph, pool, kZipf,
                         static_cast<size_t>(total_s * 1e3 / c.delta_period_ms),
                         kDeltaClicks, SubSeed(c.seed, 3));
  }
  // The copy used to build the inputs is not the served graph: drop it and
  // restart the peak-memory count, so rss_mb covers the deployment only.
  input_graph.reset();
  const bool rss_reset = ResetPeakRss();
  if (!rss_reset) {
    std::fprintf(stderr, "warning: cannot reset the peak RSS; rss_mb "
                         "includes the input copy of the graph\n");
  }

  // ----- The plan: every phase's place in the stream and its size ---------
  // Set-up queries come off the front of the stream. The warm-up takes
  // kWarmupSeconds at the low rate; measured phases take whole blocks, so
  // they serve the same queries under every seed.
  size_t next = kSetupReps;
  auto take = [&](const char* name, double qps, double requests,
                  bool measured) {
    PhaseSpec spec;
    spec.name = name;
    spec.qps = qps;
    spec.outstanding = kOutstanding;
    if (measured) {
      next = (next + kBlock - 1) / kBlock * kBlock;
      spec.count = kBlock * static_cast<size_t>(std::max<long long>(
                                1, std::llround(requests / kBlock)));
    } else {
      spec.count = static_cast<size_t>(
          std::max<long long>(kOutstanding, std::llround(requests)));
    }
    spec.first = next;
    next += spec.count;
    return spec;
  };
  // Untraced pass: kRounds rounds of lo (25% of --seconds), hi (20%) and a
  // closed loop over twice as many requests as both. Traced pass: lo
  // untraced, lo and hi traced (25% each), then the serial allocation probe
  // over one second's worth of the low rate.
  std::vector<PhaseSpec> plan;
  plan.push_back(take("warmup", c.lo_qps, c.lo_qps * kWarmupSeconds, false));
  if (!c.trace) {
    for (int r = 0; r < kRounds; ++r) {
      plan.push_back(
          take("lo", c.lo_qps, 0.25 * c.seconds * c.lo_qps / kRounds, true));
      plan.push_back(
          take("hi", c.hi_qps, 0.2 * c.seconds * c.hi_qps / kRounds, true));
      const size_t both = plan[plan.size() - 2].count + plan.back().count;
      plan.push_back(take("peak", 0, 2.0 * static_cast<double>(both), true));
    }
  } else {
    plan.push_back(
        take("lo_untraced", c.lo_qps, 0.25 * c.seconds * c.lo_qps, true));
    plan.push_back(
        take("lo_traced", c.lo_qps, 0.25 * c.seconds * c.lo_qps, true));
    plan.push_back(
        take("hi_traced", c.hi_qps, 0.25 * c.seconds * c.hi_qps, true));
    PhaseSpec probe = take("alloc_probe", 0, c.lo_qps, false);
    probe.outstanding = 1;
    probe.probe_allocs = true;
    plan.push_back(probe);
  }
  if (next > stream.size()) {
    std::fprintf(stderr, "query stream too short: %zu of %zu requests\n",
                 stream.size(), next);
    return 2;
  }
  // About one request in kCheckEvery is kept for the output check, at
  // least kCheckMin and at most kCheckMax of them.
  constexpr size_t kCheckEvery = 32, kCheckMin = 32, kCheckMax = 512;
  size_t planned = 0;
  for (const PhaseSpec& spec : plan) planned += spec.count;
  LoadGenerator::Options gen_options;
  gen_options.sample_every = std::max<size_t>(
      1, planned / std::clamp(planned / kCheckEvery, kCheckMin, kCheckMax));
  gen_options.sample_capacity = planned / gen_options.sample_every + 1;

  const bool remote = c.backend == "tcp";
  SpanLog spans(c.trace ? (1u << 18) : 0);
  FetchLog fetch_log(c.trace && remote ? (1u << 18) : 0);
  fetch_log.spans = &spans;

  // ----- Set-up, repeated; the last deployment serves the phases ----------
  std::vector<double> setup_s, load_ms;
  std::optional<Deployment> deployment;
  ProcUsage setup_usage_before;
  for (int r = 0; r < kSetupReps; ++r) {
    deployment.reset();  // tear the previous one down first
    setup_usage_before = ReadProcUsage();
    auto d = SetUp(c, stream[static_cast<size_t>(r)], &spans,
                   remote && c.trace ? &fetch_log : nullptr);
    if (!d.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   d.status().ToString().c_str());
      return 2;
    }
    deployment.emplace(std::move(d).value());
    setup_s.push_back(deployment->setup_s);
    load_ms.push_back(deployment->load_ms);
  }
  Deployment& dep = *deployment;
  QueryService& service = *dep.service;

  LoadGenerator gen(&service, &stream, gen_options, &spans);
  fetch_log.generator = &gen;
  std::unique_ptr<LiveWriter> writer;
  if (live) {
    writer = std::make_unique<LiveWriter>(dep.store.get(), &deltas,
                                          c.delta_period_ms, &spans, &gen);
    gen.set_writer(writer.get());
  }

  std::deque<PhaseResult> phases;  // every phase, warm-ups included
  size_t step = 0;
  // Runs the plan's next phase. The warm-up runs outside every metric but
  // under the same output check; it also sizes every worker's workspace.
  auto run = [&]() -> PhaseResult& {
    phases.push_back(gen.Run(plan[step++]));
    return phases.back();
  };
  // Every response OK, the sample bit-identical, and on the live workload
  // the sample must include cache hits and post-swap responses.
  auto check_outputs = [&](CheckResult* check) {
    *check = CheckSamples(c, gen.samples(), deltas,
                          writer ? writer->applied() : 0);
    bool ok = check->ok && (writer == nullptr || writer->failures() == 0);
    for (const auto& p : phases) ok &= p.ok == p.sent;
    if (live && (check->cache_hits == 0 || check->after_swap == 0)) {
      std::fprintf(stderr, "check: sample lacks cache hits or swapped "
                           "generations\n");
      ok = false;
    }
    return ok;
  };

  std::vector<Metric> metrics;
  bool correct = true;
  std::string detail;
  double late_max_ms = 0.0;
  auto note_late = [&](const PhaseResult& p) {
    late_max_ms = std::max(late_max_ms, p.late_max_ms);
  };

  run();  // warm-up
  const ProcUsage setup_usage = ReadProcUsage() - setup_usage_before;

  if (!c.trace) {
    // ----- Untraced pass: the end-to-end metrics ----------------------------
    // Timing figures come from the calm rounds, those in which the
    // hypervisor stole little CPU time from the host. On the shared virtual
    // machine the rates were set on, steal comes in bursts of tens of
    // seconds to minutes and takes up to 45% of the host's CPU time, slowing
    // every request alike. When the host is quiet every round counts, so a
    // figure always covers the same queries. peak_qps is the calm rounds'
    // completions over their busy time: a round's own throughput depends on
    // which of the second-long BibNet queries it holds. A latency is the
    // median of the calm rounds' figures, so one round spoilt by two of
    // those queries overlapping does not move it.
    struct Round {
      const PhaseResult* lo = nullptr;
      const PhaseResult* hi = nullptr;
      const PhaseResult* peak = nullptr;
      double steal = 0.0;  // share of the host's CPU time, all three phases
    };
    std::vector<Round> rounds(kRounds);
    double drain_seconds = 0.0;
    for (Round& r : rounds) {
      r.lo = &run();
      r.hi = &run();
      r.peak = &run();
      uint64_t ticks = 0, stolen = 0;
      for (const PhaseResult* p : {r.lo, r.hi, r.peak}) {
        note_late(*p);
        ticks += p->usage.host_ticks;
        stolen += p->usage.host_steal_ticks;
      }
      r.steal = ticks == 0 ? 0.0
                           : static_cast<double>(stolen) /
                                 static_cast<double>(ticks);
      drain_seconds += r.peak->seconds - r.peak->busy_seconds;
    }
    const double rss_mb = PeakRssMb();
    service.Shutdown();
    std::vector<double> sorted_steal;
    for (const Round& r : rounds) sorted_steal.push_back(r.steal);
    std::sort(sorted_steal.begin(), sorted_steal.end());
    const double steal_cap =
        std::max(kCalmSteal, sorted_steal[kMinRounds - 1]);
    std::vector<size_t> calm;
    for (size_t i = 0; i < rounds.size(); ++i) {
      if (rounds[i].steal <= steal_cap) calm.push_back(i);
    }
    // A figure of every round, and its median over the calm rounds.
    auto every = [&](auto&& figure) {
      std::vector<double> v;
      for (const Round& r : rounds) v.push_back(figure(r));
      return v;
    };
    auto calm_median = [&](const std::vector<double>& v) {
      std::vector<double> picked;
      for (size_t i : calm) picked.push_back(v[i]);
      return Median(picked);
    };
    uint64_t calm_completed = 0;
    double calm_busy_seconds = 0.0;
    for (size_t i : calm) {
      calm_completed += rounds[i].peak->busy_completed;
      calm_busy_seconds += rounds[i].peak->busy_seconds;
    }
    const double calm_peak_qps =
        static_cast<double>(calm_completed) / std::max(calm_busy_seconds, 1e-9);
    auto q_lo = [](double q) {
      return [q](const Round& r) { return QuantileOf(r.lo->latency_ms, q).value; };
    };
    auto q_hi = [](double q) {
      return [q](const Round& r) { return QuantileOf(r.hi->latency_ms, q).value; };
    };
    const std::vector<double> lo_p50 = every(q_lo(0.5)),
                              lo_p90 = every(q_lo(kTailQuantile)),
                              hi_p50 = every(q_hi(0.5)),
                              hi_p90 = every(q_hi(kTailQuantile)),
                              peak_qps = every([](const Round& r) {
                                return static_cast<double>(
                                           r.peak->busy_completed) /
                                       std::max(r.peak->busy_seconds, 1e-9);
                              }),
                              steal = every([](const Round& r) {
                                return r.steal;
                              });
    auto pooled = [&](bool low_rate) {
      std::vector<double> v;
      for (const Round& r : rounds) {
        const PhaseResult* p = low_rate ? r.lo : r.hi;
        v.insert(v.end(), p->latency_ms.begin(), p->latency_ms.end());
      }
      return v;
    };

    CheckResult check;
    correct = check_outputs(&check);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"rss_mb", rss_mb, "MiB"},
        {"ndcg_at_10", Mean(check.ndcg), "ratio"},
    };
    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "\"checked\": %zu, \"checked_cache_hits\": %zu, "
                  "\"checked_after_swap\": %zu, \"mismatches\": %zu, "
                  "\"ndcg_queries\": %zu, \"generations\": %zu, "
                  "\"rss_peak_reset\": %s, \"peak_drain_s\": %.3f, "
                  "\"round_requests\": [%zu, %zu, %zu], "
                  "\"peak_qps\": %.6f, \"p50_ms_lo\": %.6f, "
                  "\"p90_ms_lo\": %.6f, \"p50_ms_hi\": %.6f, "
                  "\"p90_ms_hi\": %.6f, ",
                  check.checked, check.cache_hits, check.after_swap,
                  check.mismatches, check.ndcg.size(),
                  writer ? writer->applied() : 0,
                  rss_reset ? "true" : "false", drain_seconds,
                  rounds[0].lo->sent, rounds[0].hi->sent, rounds[0].peak->sent,
                  calm_peak_qps, calm_median(lo_p50), calm_median(lo_p90),
                  calm_median(hi_p50), calm_median(hi_p90));
    detail += buf;
    std::string per_round = "\"rounds\": {\"calm\": [";
    for (size_t i : calm) {
      per_round += (i == calm.front() ? "" : ", ") + std::to_string(i);
    }
    per_round += "]";
    AppendArray(&per_round, "host_steal", steal);
    AppendArray(&per_round, "lo_p50_ms", lo_p50);
    AppendArray(&per_round, "lo_p90_ms", lo_p90);
    AppendArray(&per_round, "hi_p50_ms", hi_p50);
    AppendArray(&per_round, "hi_p90_ms", hi_p90);
    AppendArray(&per_round, "peak_qps", peak_qps);
    detail += per_round + "}, ";
    // Pooled over every round, with sample counts.
    for (double q : {0.5, 0.9, 0.99}) {
      char name[32];
      std::snprintf(name, sizeof(name), "lo_latency_ms_q%g", q);
      detail += QuantileJson(name, pooled(true), q) + ", ";
      std::snprintf(name, sizeof(name), "hi_latency_ms_q%g", q);
      detail += QuantileJson(name, pooled(false), q) + ", ";
    }
  } else {
    // ----- Traced pass: the per-layer metrics -------------------------------
    PhaseResult& plain = run();
    service.SetTracing(true);
    using rtr::obs::Phase;
    auto phase_snap = [&](Phase p) {
      return service.phase_latencies(p).TakeSnapshot();
    };
    const auto lookup0 = phase_snap(Phase::kCacheLookup);
    const auto pin0 = phase_snap(Phase::kGenerationPin);
    const rtr::serve::ServiceStats stats0 = service.stats();
    const uint64_t fetches0 = remote ? dep.cluster->total_fetch_requests() : 0;
    const uint64_t records0 = remote ? dep.cluster->total_records_served() : 0;
    const uint64_t rbytes0 = remote ? dep.cluster->total_bytes_served() : 0;
    const rtr::dist::WireTraffic wire0 =
        remote ? dep.cluster->total_wire() : rtr::dist::WireTraffic{};
    const size_t fetch_mark = fetch_log.Samples().size();
    PhaseResult& lo = run();
    PhaseResult& hi = run();
    const rtr::serve::ServiceStats stats1 = service.stats();
    const auto lookup1 = phase_snap(Phase::kCacheLookup);
    const auto pin1 = phase_snap(Phase::kGenerationPin);
    const rtr::dist::WireTraffic wire1 =
        remote ? dep.cluster->total_wire() : rtr::dist::WireTraffic{};
    const uint64_t fetches1 = remote ? dep.cluster->total_fetch_requests() : 0;
    const uint64_t records1 = remote ? dep.cluster->total_records_served() : 0;
    const uint64_t rbytes1 = remote ? dep.cluster->total_bytes_served() : 0;
    service.SetTracing(false);
    // Heap allocations per request, one request in flight at a time and
    // no delta applied meanwhile (the counter is process-wide).
    gen.set_writer(nullptr);
    PhaseResult& allocs = run();
    service.Shutdown();
    for (auto* p : {&plain, &lo, &hi}) note_late(*p);

    // Direct replays of the first quarter of the traced low-rate phase's
    // engine runs.
    std::vector<NodeId> misses = lo.miss_nodes;
    misses.resize(std::min(misses.size(), lo.latency_ms.size() / 4));
    std::shared_ptr<const rtr::Graph> served_graph =
        remote ? dep.cluster->graph_ptr() : dep.store->Current();
    EngineReplay engine = ReplayEngine(*served_graph, misses, &spans);
    bool loopback_ok = true;
    std::vector<double> loopback_ms;
    if (remote) {
      loopback_ms = ReplayLoopback(served_graph, misses, &spans,
                                   &loopback_ok);
    }
    CheckResult check;
    correct = check_outputs(&check) && engine.ok && loopback_ok;

    auto snap_mean = [](const auto& after, const auto& before) {
      uint64_t n = after.count - before.count;
      return n == 0 ? 0.0 : (after.sum_millis - before.sum_millis) /
                                static_cast<double>(n);
    };
    const uint64_t traced_q = stats1.completed - stats0.completed;
    const uint64_t lookups = (stats1.cache_hits - stats0.cache_hits) +
                             (stats1.cache_misses - stats0.cache_misses);
    const uint64_t engine_runs = stats1.cache_misses - stats0.cache_misses;
    const rtr::dist::WireTraffic wire = [&] {
      rtr::dist::WireTraffic w;
      w.frames_received = wire1.frames_received - wire0.frames_received;
      w.frames_sent = wire1.frames_sent - wire0.frames_sent;
      w.bytes_received = wire1.bytes_received - wire0.bytes_received;
      w.bytes_sent = wire1.bytes_sent - wire0.bytes_sent;
      return w;
    }();
    const rtr::dist::WireTraffic wire_total =
        remote ? dep.cluster->total_wire() : rtr::dist::WireTraffic{};
    std::vector<double> fetch_all = fetch_log.Samples();
    std::vector<double> fetch_ms(fetch_all.begin() + fetch_mark,
                                 fetch_all.end());
    const std::vector<double>& apply_ms =
        writer ? writer->apply_ms() : std::vector<double>{};
    const double untraced_p50 = QuantileOf(plain.latency_ms, 0.5).value;
    const double alloc_mean = Mean(allocs.allocs);
    metrics = {
        {"serve.queue_wait_ms.p50", QuantileOf(hi.queue_ms, 0.5).value, "ms"},
        {"serve.queue_wait_ms.p99", QuantileOf(hi.queue_ms, 0.99).value, "ms"},
        {"serve.exec_ms.p50", QuantileOf(lo.exec_ms, 0.5).value, "ms"},
        {"serve.exec_ms.p99", QuantileOf(lo.exec_ms, 0.99).value, "ms"},
        {"serve.cache_hit_ratio",
         PerQuery(static_cast<double>(stats1.cache_hits - stats0.cache_hits),
                  lookups),
         "ratio"},
        {"serve.cache_evictions_per_kq",
         1e3 * PerQuery(static_cast<double>(stats1.cache_evictions -
                                            stats0.cache_evictions),
                        traced_q),
         "count"},
        {"serve.cache_invalidations_per_kq",
         1e3 * PerQuery(static_cast<double>(stats1.cache_invalidations -
                                            stats0.cache_invalidations),
                        traced_q),
         "count"},
        {"serve.cache_lookup_ms.mean", snap_mean(lookup1, lookup0), "ms"},
        {"serve.rejected", static_cast<double>(service.stats().rejected),
         "count"},
        {"serve.allocs_per_query", alloc_mean, "count"},
        {"graph.load_ms", Median(load_ms), "ms"},
        {"graph.setup_minor_faults", static_cast<double>(setup_usage.minor_faults),
         "count"},
        {"graph.setup_major_faults", static_cast<double>(setup_usage.major_faults),
         "count"},
        {"graph.pin_ms.mean", snap_mean(pin1, pin0), "ms"},
        {"graph.delta_apply_ms.p50", QuantileOf(apply_ms, 0.5).value, "ms"},
        {"graph.delta_apply_ms.max", QuantileOf(apply_ms, 1.0).value, "ms"},
        {"graph.generations",
         static_cast<double>(writer ? writer->applied() : 0), "count"},
        {"graph.live_generations.max",
         static_cast<double>(writer ? writer->live_max()
                                    : dep.store ? dep.store->live_generations()
                                                : 1),
         "count"},
        {"core.engine_ms.p50", QuantileOf(engine.wall_ms, 0.5).value, "ms"},
        {"core.engine_ms.p99", QuantileOf(engine.wall_ms, 0.99).value, "ms"},
        {"core.stage1_ms.mean", Mean(engine.stage1_ms), "ms"},
        {"core.stage2_ms.mean", Mean(engine.stage2_ms), "ms"},
        {"core.finalize_ms.mean", Mean(engine.finalize_ms), "ms"},
        {"core.unattributed_ms.mean", Mean(engine.unattributed_ms), "ms"},
        {"core.rounds.mean", Mean(engine.rounds), "count"},
        {"core.active_nodes.p50", QuantileOf(engine.active_nodes, 0.5).value,
         "count"},
        {"core.active_nodes.p99", QuantileOf(engine.active_nodes, 0.99).value,
         "count"},
        {"core.active_arcs.mean", Mean(engine.active_arcs), "count"},
        {"core.converged_ratio",
         PerQuery(static_cast<double>(engine.converged), engine.wall_ms.size()),
         "ratio"},
        {"core.allocs_per_query",
         PerQuery(static_cast<double>(engine.allocs), engine.wall_ms.size()),
         "count"},
        {"dist.loopback_ms.p50", QuantileOf(loopback_ms, 0.5).value, "ms"},
        {"dist.loopback_ms.p99", QuantileOf(loopback_ms, 0.99).value, "ms"},
        {"dist.fetches_per_query",
         PerQuery(static_cast<double>(fetches1 - fetches0), engine_runs),
         "count"},
        {"dist.records_per_query",
         PerQuery(static_cast<double>(records1 - records0), engine_runs),
         "count"},
        {"dist.record_bytes_per_query",
         PerQuery(static_cast<double>(rbytes1 - rbytes0), engine_runs), "B"},
        {"net.fetch_ms.p50", QuantileOf(fetch_ms, 0.5).value, "ms"},
        {"net.fetch_ms.p99", QuantileOf(fetch_ms, 0.99).value, "ms"},
        {"net.rx_bytes_per_query",
         PerQuery(static_cast<double>(wire.bytes_received), engine_runs), "B"},
        {"net.tx_bytes_per_query",
         PerQuery(static_cast<double>(wire.bytes_sent), engine_runs), "B"},
        {"net.frames_per_query",
         PerQuery(static_cast<double>(wire.frames_received), engine_runs),
         "count"},
        {"net.wire_over_record_ratio",
         rbytes1 > rbytes0 ? static_cast<double>(wire.bytes_received) /
                                 static_cast<double>(rbytes1 - rbytes0)
                           : 0.0,
         "ratio"},
        {"net.retries", static_cast<double>(wire_total.retries), "count"},
        {"net.timeouts", static_cast<double>(wire_total.timeouts), "count"},
        {"net.reconnects", static_cast<double>(wire_total.reconnects), "count"},
        {"net.sheds", static_cast<double>(wire_total.sheds), "count"},
        {"obs.trace_overhead",
         untraced_p50 > 0 ? QuantileOf(lo.latency_ms, 0.5).value / untraced_p50
                          : 0.0,
         "ratio"},
        {"proc.cpu_ms_per_query", PerQuery(hi.usage.cpu_ms, hi.ok), "ms"},
        {"proc.ctx_switches_per_query",
         PerQuery(static_cast<double>(hi.usage.ctx_switches), hi.ok), "count"},
        {"gen.late_ms.max", late_max_ms, "ms"},
    };
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "\"checked\": %zu, \"checked_cache_hits\": %zu, "
                  "\"checked_after_swap\": %zu, \"mismatches\": %zu, "
                  "\"engine_replayed\": %zu, \"fetches_timed\": %zu, "
                  "\"spans\": %zu, \"spans_dropped\": %" PRIu64 ", ",
                  check.checked, check.cache_hits, check.after_swap,
                  check.mismatches, engine.wall_ms.size(), fetch_ms.size(),
                  spans.size(), spans.dropped());
    detail += buf;
    detail += QuantileJson("queue_wait_ms_p99", hi.queue_ms, 0.99) + ", ";
    detail += QuantileJson("engine_ms_p99", engine.wall_ms, 0.99) + ", ";
    if (!c.spans_path.empty() && !spans.WriteJsonLines(c.spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", c.spans_path.c_str());
    }
  }

  uint64_t attempted = 0, failed = 0;
  for (const auto& p : phases) {
    attempted += p.sent;
    failed += p.failed + p.rejected;
  }
  {
    std::string phase_json;
    for (const auto& p : phases) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"sent\": %" PRIu64 ", \"ok\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"rejected\": %" PRIu64
                    ", \"seconds\": %.3f, \"late_max_ms\": %.3f}",
                    phase_json.empty() ? "" : ", ", p.sent, p.ok, p.failed,
                    p.rejected, p.seconds, p.late_max_ms);
      phase_json += buf;
    }
    std::string setups;
    for (double s : setup_s) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.6f", setups.empty() ? "" : ", ", s);
      setups += buf;
    }
    std::printf("{\"detail\": {%s\"setup_s_samples\": [%s], \"phases\": [%s], "
                "\"gen_late_max_ms\": %.3f}}\n",
                detail.c_str(), setups.c_str(), phase_json.c_str(),
                late_max_ms);
  }
  if (!c.samples_path.empty() && !WriteSamples(c.samples_path, phases)) {
    std::fprintf(stderr, "cannot write %s\n", c.samples_path.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
