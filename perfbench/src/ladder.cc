// The traced run's per-layer pass. First a single-session ladder sends the
// same statements through each layer's public entry point in turn —
// VecClient::Execute, Session::Execute, sql::Parse, VectorIndex::Search on
// a replica index, and the distance kernels — so every layer's cost and
// work counts come from one deterministic pass. Then two 3-client timed
// passes, untraced and traced (one span per layer boundary the benchmark
// can see), give the contended counters and the tracing overhead.
//
// Trace file: one JSON object per span, {"engine", "client", "span",
// "parent", "name", "request", "start_ns", "end_ns"}; `parent` indexes
// the same engine/client log (-1 for a root). Self time is duration minus
// the time its children cover.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "common/timer.h"
#include "core/factory.h"
#include "datasets/registry.h"
#include "distance/kernels.h"
#include "obs/metrics.h"
#include "pgstub/bufmgr.h"
#include "pgstub/smgr.h"
#include "quantizer/sq8.h"
#include "sql/parser.h"

namespace perfbench {

using vecdb::NowNanos;
using vecdb::obs::Counter;
using vecdb::obs::Hist;
using vecdb::obs::MetricsRegistry;

namespace {

constexpr size_t kLadderQueries = 200;
constexpr size_t kLadderWarm = 20;
constexpr size_t kLadderInserts = 100;
constexpr int kLadderClient = kPartitions - 1;

/// An index built through the factory over the same rows and options as
/// the SQL index, with its own storage for the page-resident engine.
struct Replica {
  std::string dir;
  std::unique_ptr<vecdb::pgstub::StorageManager> smgr;
  std::unique_ptr<vecdb::pgstub::BufferManager> bufmgr;
  std::unique_ptr<vecdb::VectorIndex> index;
  Replica() = default;
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;
  ~Replica() {
    index.reset();
    bufmgr.reset();
    smgr.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<Replica> BuildReplica(const Options& opt, const Inputs& in,
                                      const std::string& engine) {
  const WorkloadConfig& w = *opt.workload;
  vecdb::IndexSpec spec;
  spec.method = w.method;
  spec.engine = engine;
  spec.dim = in.data.dim;
  for (const auto& [k, v] : w.index_options) spec.options[k] = v;
  if (spec.method.rfind("ivf", 0) == 0) {
    spec.options["clusters"] = vecdb::ScaledClusterCount(
        *vecdb::FindDataset("SIFT1M"), opt.scale > 0 ? opt.scale : w.scale);
  }
  spec.rel_prefix = "replica";
  auto r = std::make_unique<Replica>();
  r->dir = opt.data_dir + "/replica_" + engine;
  std::filesystem::remove_all(r->dir);
  std::filesystem::create_directories(r->dir);
  auto smgr = vecdb::pgstub::StorageManager::Open(r->dir, 8192);
  if (!smgr.ok()) throw std::runtime_error(smgr.status().ToString());
  r->smgr = std::make_unique<vecdb::pgstub::StorageManager>(std::move(*smgr));
  r->bufmgr = std::make_unique<vecdb::pgstub::BufferManager>(r->smgr.get(),
                                                             w.pool_pages);
  auto index = vecdb::CreateIndex(spec, {r->smgr.get(), r->bufmgr.get()});
  if (!index.ok()) throw std::runtime_error(index.status().ToString());
  r->index = std::move(*index);
  const vecdb::Status st = r->index->Build(in.data.base.data(), in.n_base);
  if (!st.ok()) throw std::runtime_error("replica build: " + st.ToString());
  return r;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Bytes of one stored vector as the index scans it.
double CodeBytes(const std::string& method, uint32_t dim) {
  return method == "ivfsq8" ? dim : dim * sizeof(float);
}

/// Nanoseconds per call of `fn`, median of five timed batches.
template <typename Fn>
double NanosPerCall(size_t calls, Fn&& fn) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const int64_t t0 = NowNanos();
    for (size_t i = 0; i < calls; ++i) fn(i);
    reps.push_back(static_cast<double>(NowNanos() - t0) /
                   static_cast<double>(calls));
  }
  return Median(reps);
}

void KernelMetrics(const Inputs& in, std::vector<Metric>* out) {
  const size_t d = in.data.dim;
  const float* a = in.data.base_vector(0);
  const float* b = in.data.base_vector(64);
  volatile float sink = 0;
  const double l2 = NanosPerCall(200000, [&](size_t i) {
    sink = sink + vecdb::L2Sqr(a + (i & 63) * d, b + ((i * 7) & 63) * d, d);
  });
  out->push_back({"kernel.l2sqr_ns", l2, "ns"});

  constexpr size_t kCodes = 256;
  auto sq = vecdb::ScalarQuantizer8::Train(a, 2048, d);
  if (!sq.ok()) throw std::runtime_error(sq.status().ToString());
  std::vector<uint8_t> codes(kCodes * d);
  for (size_t i = 0; i < kCodes; ++i) {
    sq->Encode(in.data.base_vector(i), codes.data() + i * d);
  }
  const vecdb::Sq8Query q = sq->PrepareQuery(in.data.query_vector(0));
  std::vector<float> dist(kCodes);
  const double per_batch = NanosPerCall(4000, [&](size_t) {
    sq->DistanceToCodesBatch(q, codes.data(), kCodes, dist.data());
    sink = sink + dist[kCodes - 1];
  });
  out->push_back({"kernel.sq8_ns_per_code", per_batch / kCodes, "ns"});
}

struct SpanStats {
  std::vector<double> statement_us, execute_us, self_us;
};

SpanStats Summarize(const std::vector<SpanLog>& logs) {
  SpanStats s;
  for (const SpanLog& log : logs) {
    std::vector<int64_t> child_ns(log.size(), 0);
    for (const Span& sp : log) {
      if (sp.parent >= 0) {
        child_ns[static_cast<size_t>(sp.parent)] += sp.end_ns - sp.start_ns;
      }
    }
    for (size_t i = 0; i < log.size(); ++i) {
      const Span& sp = log[i];
      const double us = (sp.end_ns - sp.start_ns) * 1e-3;
      if (sp.parent < 0) {
        s.statement_us.push_back(us);
        s.self_us.push_back(us - child_ns[i] * 1e-3);
      } else {
        s.execute_us.push_back(us);
      }
    }
  }
  return s;
}

void WriteSpans(const std::string& path, const PhaseResult& ph) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const char* names[2] = {"faiss", "pase"};
  for (int k = 0; k < 2; ++k) {
    for (size_t c = 0; c < ph.spans[k].size(); ++c) {
      const SpanLog& log = ph.spans[k][c];
      for (size_t i = 0; i < log.size(); ++i) {
        const Span& sp = log[i];
        std::fprintf(f,
                     "{\"engine\": \"%s\", \"client\": %zu, \"span\": %zu, "
                     "\"parent\": %d, \"name\": \"%s\", \"request\": %llu, "
                     "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                     names[k], c, i, sp.parent, sp.name,
                     static_cast<unsigned long long>(sp.request),
                     static_cast<long long>(sp.start_ns),
                     static_cast<long long>(sp.end_ns));
      }
    }
  }
  std::fclose(f);
}

}  // namespace

void RunTracedLadder(const Options& opt, Bed* bed,
                     std::vector<Metric>* metrics, uint64_t* attempted,
                     uint64_t* failed, bool* correct) {
  Inputs& in = bed->in;
  const WorkloadConfig& w = *opt.workload;
  MetricsRegistry& global = MetricsRegistry::Global();
  auto add = [&](const std::string& name, double value, const char* unit) {
    metrics->push_back({name, value, unit});
  };
  auto fail = [&](const std::string& why) {
    ++*failed;
    *correct = false;
    std::fprintf(stderr, "[perfbench] ladder: %s\n", why.c_str());
  };

  vecdb::SearchParams params;
  params.k = kTopK;
  for (const auto& [k, v] : w.select_options) {
    if (k == "nprobe") params.nprobe = static_cast<uint32_t>(v);
    if (k == "efs") params.efs = static_cast<uint32_t>(v);
  }
  MetricsRegistry local;
  local.SetEnabled(true);
  params.ctx.metrics = &local;

  std::vector<double> parse_select, parse_insert, bytes_per_stmt;
  const size_t nq = std::min(kLadderQueries, in.select_sql.size());
  for (int k = 0; k < 2; ++k) {
    Engine* e = bed->engines[k].get();
    const std::string& en = e->name;
    std::unique_ptr<Replica> replica = BuildReplica(opt, in, en);
    const bool faiss = en == "faiss";
    const Counter tc = faiss ? Counter::kFaissTuplesVisited
                             : Counter::kPaseTuplesVisited;
    const Counter bc = faiss ? Counter::kFaissBucketsProbed
                             : Counter::kPaseBucketsProbed;
    const Counter hc = faiss ? Counter::kFaissHeapPushes
                             : Counter::kPaseHeapPushes;
    // One block per layer over the same queries, so every layer sees the
    // same cache pattern; the first kLadderWarm statements are not timed.
    const size_t total = kLadderWarm + nq;
    std::vector<std::vector<int64_t>> ids[3];  // wire, session, replica
    auto keep = [&](int path, size_t i, std::vector<int64_t> got) {
      if (i >= kLadderWarm) ids[path].push_back(std::move(got));
    };
    auto row_ids = [](const vecdb::sql::QueryResult& r) {
      std::vector<int64_t> v;
      for (const auto& row : r.rows) v.push_back(row.id);
      return v;
    };

    std::vector<double> client_us, server_us, wire_us;
    for (size_t i = 0; i < total; ++i) {
      const uint64_t bytes0 = global.Value(Counter::kServerBytesIn) +
                              global.Value(Counter::kServerBytesOut);
      const uint64_t server0 =
          global.histogram(Hist::kServerStatementNanos).Sum();
      const int64_t t0 = NowNanos();
      auto r = e->clients[kLadderClient]->Execute(in.select_sql[i % nq]);
      const double c_us = (NowNanos() - t0) * 1e-3;
      const double s_us =
          (global.histogram(Hist::kServerStatementNanos).Sum() - server0) * 1e-3;
      const uint64_t bytes1 = global.Value(Counter::kServerBytesIn) +
                              global.Value(Counter::kServerBytesOut);
      ++*attempted;
      if (!r.ok()) {
        fail(en + ": wire SELECT: " + r.status().ToString());
        continue;
      }
      keep(0, i, row_ids(*r));
      if (i < kLadderWarm) continue;
      client_us.push_back(c_us);
      server_us.push_back(s_us);
      wire_us.push_back(c_us - s_us);
      bytes_per_stmt.push_back(static_cast<double>(bytes1 - bytes0));
    }

    std::vector<double> exec_us;
    uint64_t pins = 0, scanned = 0, returned = 0;
    for (size_t i = 0; i < total; ++i) {
      const uint64_t pins0 = e->db->bufmgr()->stats().pins;
      const int64_t t0 = NowNanos();
      auto r = e->sessions[kLadderClient]->Execute(in.select_sql[i % nq]);
      const double x_us = (NowNanos() - t0) * 1e-3;
      const uint64_t pins1 = e->db->bufmgr()->stats().pins;
      ++*attempted;
      if (!r.ok()) {
        fail(en + ": SELECT: " + r.status().ToString());
        continue;
      }
      keep(1, i, row_ids(*r));
      if (i < kLadderWarm) continue;
      exec_us.push_back(x_us);
      pins += pins1 - pins0;
      scanned += r->stats.rows_scanned;
      returned += r->stats.rows_returned;
    }

    for (size_t i = 0; i < total; ++i) {
      const int64_t t0 = NowNanos();
      auto parsed = vecdb::sql::Parse(in.select_sql[i % nq]);
      const double p_us = (NowNanos() - t0) * 1e-3;
      if (!parsed.ok()) fail(en + ": parse: " + parsed.status().ToString());
      if (i >= kLadderWarm) parse_select.push_back(p_us);
    }

    std::vector<double> search_us;
    double search_ns = 0, tuples = 0, buckets = 0, pushes = 0;
    for (size_t i = 0; i < total; ++i) {
      const uint64_t tu0 = local.Value(tc), bu0 = local.Value(bc),
                     pu0 = local.Value(hc);
      const int64_t t0 = NowNanos();
      auto found =
          replica->index->Search(in.data.query_vector(i % nq), params);
      const int64_t s_ns = NowNanos() - t0;
      if (!found.ok()) {
        fail(en + ": replica search: " + found.status().ToString());
        continue;
      }
      std::vector<int64_t> got;
      for (const auto& nb : *found) got.push_back(nb.id);
      keep(2, i, std::move(got));
      if (i < kLadderWarm) continue;
      search_us.push_back(s_ns * 1e-3);
      search_ns += static_cast<double>(s_ns);
      tuples += static_cast<double>(local.Value(tc) - tu0);
      buckets += static_cast<double>(local.Value(bc) - bu0);
      pushes += static_cast<double>(local.Value(hc) - pu0);
    }
    // The three paths run one index over the same rows: same answers.
    if (ids[0] != ids[1] || ids[1] != ids[2]) {
      fail(en + ": wire, session and replica answers differ");
    }

    const double n = static_cast<double>(nq);
    add("net.client_us_p50." + en, Median(client_us), "us");
    add("net.server_stmt_us_p50." + en, Median(server_us), "us");
    add("net.wire_us_p50." + en, Median(wire_us), "us");
    add("sql.exec_us." + en, Median(exec_us), "us");
    add("sql.overhead_us." + en, Median(exec_us) - Median(search_us), "us");
    add("sql.rows_examined_per_row." + en, Ratio(scanned, returned), "ratio");
    add("bufmgr.pins_per_stmt." + en, pins / n, "count");
    add("index.search_us." + en, Median(search_us), "us");
    add("index.tuples_per_query." + en, tuples / n, "count");
    add("index.buckets_per_query." + en, buckets / n, "count");
    add("index.ns_per_tuple." + en, Ratio(search_ns, tuples), "ns");
    add("index.gbps." + en,
        Ratio(tuples * CodeBytes(w.method, in.data.dim), search_ns), "GB/s");
    add("topk.heap_pushes_per_query." + en, pushes / n, "count");

    // Uncontended single-row INSERTs from the single-session partition.
    std::vector<double> insert_us;
    const uint64_t wal0 = global.Value(Counter::kWalBytes);
    for (size_t j = 0; j < kLadderInserts; ++j) {
      const size_t row = in.pool_row(kLadderClient, j);
      const std::string sql = InsertSql(in, row);
      int64_t t0 = NowNanos();
      auto parsed = vecdb::sql::Parse(sql);
      parse_insert.push_back((NowNanos() - t0) * 1e-3);
      t0 = NowNanos();
      auto r = e->sessions[kLadderClient]->Execute(sql);
      insert_us.push_back((NowNanos() - t0) * 1e-3);
      ++*attempted;
      if (!parsed.ok() || !r.ok() || r->message != "INSERT 1") {
        fail(en + ": ladder INSERT not acknowledged");
        continue;
      }
      e->live[row] = 1;
    }
    const double inserted_bytes = static_cast<double>(kLadderInserts) *
                                  (sizeof(int64_t) + sizeof(float) * in.data.dim);
    add("sql.insert_us_uncontended." + en, Median(insert_us), "us");
    add("wal.bytes_per_inserted_byte." + en,
        (global.Value(Counter::kWalBytes) - wal0) / inserted_bytes, "ratio");
  }
  add("sql.parse_us.select", Median(parse_select), "us");
  add("sql.parse_us.insert", Median(parse_insert), "us");
  add("net.bytes_per_stmt", Mean(bytes_per_stmt), "B");
  KernelMetrics(in, metrics);

  // Contended passes: untraced, then traced, same slicing.
  const PhaseResult plain = RunTimed(bed, opt.seconds / 2, false, 0);
  global.ResetAll();
  const PhaseResult traced = RunTimed(bed, opt.seconds / 2, true, 0);
  add("sql.admission_wait_us_p95",
      global.histogram(Hist::kSessionQueueWaitNanos).Percentile(0.95) * 1e-3,
      "us");
  double qps[2] = {0, 0};
  for (int k = 0; k < 2; ++k) {
    const std::string& en = bed->engines[k]->name;
    for (const PhaseResult* ph : {&plain, &traced}) {
      *attempted += ph->tally[k].attempted;
      *failed += ph->tally[k].failed;
      if (ph->tally[k].failed != 0) *correct = false;
      for (const auto& msg : ph->tally[k].errors) {
        std::fprintf(stderr, "[perfbench] %s\n", msg.c_str());
      }
    }
    const LayerCounters& c = traced.counters[k];
    const double stmts = static_cast<double>(traced.tally[k].attempted);
    add("bufmgr.hit_ratio." + en, Ratio(c.hits, c.hits + c.misses), "ratio");
    add("bufmgr.evictions_per_stmt." + en, Ratio(c.evictions, stmts), "count");
    add("wal.checkpoints_per_run." + en,
        static_cast<double>(c.checkpoints + plain.counters[k].checkpoints),
        "count");
    add("index.tombstones_skipped_per_query." + en,
        Ratio(c.tombstones, c.queries), "count");
    qps[k] = Ratio(plain.tally[k].selects, plain.tally[k].elapsed_s);
    const double traced_qps =
        Ratio(traced.tally[k].selects, traced.tally[k].elapsed_s);
    add("trace.overhead_pct." + en,
        100.0 * Ratio(qps[k] - traced_qps, qps[k]), "%");
    const SpanStats s = Summarize(traced.spans[k]);
    add("trace.statement_us_p50." + en, Median(s.statement_us), "us");
    add("trace.execute_us_p50." + en, Median(s.execute_us), "us");
    add("trace.client_self_us_p50." + en, Median(s.self_us), "us");
  }
  add("gap.qps_faiss_over_pase", Ratio(qps[0], qps[1]), "ratio");
  WriteSpans(opt.data_dir + "/trace-" + w.name + "-seed" +
                 std::to_string(opt.seed) + ".jsonl",
             traced);
}

}  // namespace perfbench
