// Set-up, the timed closed-loop phase, and the correctness checks.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "common/random.h"
#include "common/timer.h"
#include "datasets/registry.h"
#include "distance/kernels.h"
#include "obs/metrics.h"

namespace perfbench {

using vecdb::NowNanos;
using vecdb::obs::Counter;
using vecdb::obs::MetricsRegistry;

namespace {

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> kWorkloads = {
      {"ivf_flat_read", 0.05, "ivfflat", {{"sample_ratio", 0.1}},
       {{"nprobe", 20}}, 16384, false, false, 0.85},
      {"ivf_sq8_mixed", 0.05, "ivfsq8", {{"sample_ratio", 0.1}},
       {{"nprobe", 20}}, 2048, true, false, 0.80},
      {"hnsw_wire", 0.02, "hnsw", {}, {{"efs", 64}}, 16384, false, true,
       0.85},
  };
  return kWorkloads;
}

constexpr double kSelectShare = 0.90;
constexpr double kInsertShare = 0.09;  // DELETE takes the remaining 1%
constexpr double kPoolScale = 0.05;
constexpr uint64_t kCorpusSeed = 42;
constexpr size_t kReadSequence = 1000000;
constexpr size_t kLoadBatch = 250;
constexpr size_t kWarmQueries = 300;
constexpr size_t kMinSliceInserts = 20;
constexpr size_t kProbeWarmInserts = 2;

[[noreturn]] void Die(const std::string& what) {
  throw std::runtime_error(what);
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string RenderOptions(const KeyValues& kv) {
  std::string out;
  for (const auto& [k, v] : kv) {
    if (!out.empty()) out += ", ";
    out += k + "=" + Num(v);
  }
  return out;
}

void Must(Engine* e, const std::string& sql) {
  auto r = e->sessions[0]->Execute(sql);
  if (!r.ok()) {
    Die(e->name + ": " + sql.substr(0, 80) + ": " + r.status().ToString());
  }
}

Inputs MakeInputs(const Options& opt, double scale) {
  Inputs in;
  const vecdb::DatasetSpec* spec = vecdb::FindDataset("SIFT1M");
  if (spec == nullptr) Die("SIFT1M missing from the dataset registry");
  // One generated analog: its first n_base rows are loaded, the rest (at
  // least 50k rows, several times what a run inserts) is the insert pool.
  // The generator draws rows independently, so pool rows follow the base
  // distribution. The corpus is fixed, as SIFT1M is in the paper; the seed
  // drives the request stream (query order, operation mix, DELETE targets,
  // probe rows).
  in.n_base = static_cast<size_t>(std::llround(spec->paper_num_base * scale));
  in.data = vecdb::MakePaperAnalog(
      *spec, scale + std::max(0.2 * scale, kPoolScale), kCorpusSeed);
  if (in.data.num_base <= in.n_base) Die("insert pool is empty");
  in.pool_per_partition = (in.data.num_base - in.n_base) / kPartitions;

  const WorkloadConfig& w = *opt.workload;
  const std::string suffix =
      "' OPTIONS (" + RenderOptions(w.select_options) + ") LIMIT " +
      std::to_string(kTopK);
  for (size_t q = 0; q < in.data.num_queries; ++q) {
    in.select_sql.push_back(
        "SELECT id FROM t ORDER BY vec <-> '" +
        VectorLiteral(in.data.query_vector(q), in.data.dim) + suffix);
  }

  for (int c = 0; c < kClients; ++c) {
    vecdb::Rng rng(opt.seed * 1000003ull + static_cast<uint64_t>(c) + 1);
    std::vector<Op>& seq = in.sequences.emplace_back();
    const auto nq = static_cast<uint64_t>(in.data.num_queries);
    if (!w.mixed) {
      seq.reserve(kReadSequence);
      for (size_t i = 0; i < kReadSequence; ++i) {
        seq.push_back({OpKind::kSelect, static_cast<uint32_t>(rng.Uniform(nq))});
      }
      continue;
    }
    // Client c owns base ids = c (mod kPartitions) for its DELETEs and pool
    // partition c for its INSERTs; the sequence ends when the pool does.
    std::vector<uint32_t> deletable;
    for (size_t id = static_cast<size_t>(c); id < in.n_base; id += kPartitions) {
      deletable.push_back(static_cast<uint32_t>(id));
    }
    size_t inserted = 0;
    while (inserted < in.pool_per_partition) {
      const double u = rng.UniformDouble();
      if (u < kSelectShare) {
        seq.push_back({OpKind::kSelect, static_cast<uint32_t>(rng.Uniform(nq))});
      } else if (u < kSelectShare + kInsertShare) {
        seq.push_back({OpKind::kInsert,
                       static_cast<uint32_t>(in.pool_row(c, inserted++))});
      } else if (!deletable.empty()) {
        const size_t pick = rng.Uniform(deletable.size());
        seq.push_back({OpKind::kDelete, deletable[pick]});
        deletable[pick] = deletable.back();
        deletable.pop_back();
      }
    }
  }
  if (!w.mixed) {
    // Read-only workloads time single-row INSERTs between slices, from a
    // seeded order of the single-session partition's rows.
    vecdb::Rng rng(opt.seed * 1000003ull);
    for (const uint32_t j : rng.SampleWithoutReplacement(
             static_cast<uint32_t>(in.pool_per_partition),
             static_cast<uint32_t>(in.pool_per_partition))) {
      in.probe_rows.push_back(
          static_cast<uint32_t>(in.pool_row(kPartitions - 1, j)));
    }
  }
  return in;
}

std::unique_ptr<Engine> OpenEngine(const Options& opt, const char* name) {
  auto e = std::make_unique<Engine>();
  e->name = name;
  e->dir = opt.data_dir + "/" + name;
  std::filesystem::remove_all(e->dir);
  std::filesystem::create_directories(e->dir);
  vecdb::sql::DatabaseOptions db_options;
  db_options.pool_pages = opt.workload->pool_pages;
  auto db = vecdb::sql::MiniDatabase::Open(e->dir, db_options);
  if (!db.ok()) Die(e->dir + ": " + db.status().ToString());
  e->db = std::move(*db);
  for (int c = 0; c < kPartitions; ++c) {
    e->sessions.push_back(e->db->CreateSession());
  }
  return e;
}

void SyncFilesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) Die("open " + dir);
  const int rc = syncfs(fd);
  close(fd);
  if (rc != 0) Die("syncfs " + dir);
}

/// Runs fn(0) and fn(1) on two threads; rethrows the first failure.
template <typename Fn>
void ForBoth(Fn&& fn) {
  std::exception_ptr failure[2];
  auto guarded = [&](int k) {
    try {
      fn(k);
    } catch (...) {
      failure[k] = std::current_exception();
    }
  };
  std::thread other(guarded, 1);
  guarded(0);
  other.join();
  for (const auto& f : failure) {
    if (f) std::rethrow_exception(f);
  }
}

bool Acked(const vecdb::Result<vecdb::sql::QueryResult>& r, const char* msg) {
  return r.ok() && r->message == msg;
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string VectorLiteral(const float* v, size_t dim) {
  std::string out = "[";
  char buf[32];
  for (size_t t = 0; t < dim; ++t) {
    if (t > 0) out += ',';
    const auto res = std::to_chars(buf, buf + sizeof(buf), v[t]);
    out.append(buf, res.ptr);
  }
  out += ']';
  return out;
}

std::string InsertSql(const Inputs& in, size_t row) {
  return "INSERT INTO t VALUES (" + std::to_string(row) + ", '" +
         VectorLiteral(in.data.base_vector(row), in.data.dim) + "')";
}

vecdb::Result<vecdb::sql::QueryResult> Engine::Exec(int c,
                                                    const std::string& sql) {
  if (use_wire) return clients[static_cast<size_t>(c)]->Execute(sql);
  return sessions[static_cast<size_t>(c)]->Execute(sql);
}

Engine::~Engine() {
  clients.clear();
  server.reset();
  sessions.clear();
  db.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

namespace {

/// Starts a VecServer on `e` and connects kPartitions clients.
void StartWire(Engine* e) {
  if (e->server != nullptr) return;
  vecdb::net::ServerOptions so;
  auto server = vecdb::net::VecServer::Start(e->db.get(), so);
  if (!server.ok()) Die("server start: " + server.status().ToString());
  e->server = std::move(*server);
  for (int c = 0; c < kPartitions; ++c) {
    auto client = vecdb::net::VecClient::Connect("127.0.0.1", e->server->port());
    if (!client.ok()) Die("connect: " + client.status().ToString());
    e->clients.push_back(std::move(*client));
  }
}

}  // namespace

std::unique_ptr<Bed> SetUp(const Options& opt, bool want_wire) {
  const WorkloadConfig& w = *opt.workload;
  const double scale = opt.scale > 0 ? opt.scale : w.scale;
  auto bed = std::make_unique<Bed>();
  const int64_t t0 = NowNanos();
  bed->in = MakeInputs(opt, scale);
  const Inputs& in = bed->in;
  const int64_t t1 = NowNanos();
  bed->times.gen_s = (t1 - t0) * 1e-9;

  // Both engines load the same statements; the text is built once.
  std::vector<std::string> load_sql;
  for (size_t first = 0; first < in.n_base; first += kLoadBatch) {
    std::string sql = "INSERT INTO t VALUES ";
    for (size_t i = first; i < std::min(in.n_base, first + kLoadBatch); ++i) {
      if (i > first) sql += ", ";
      sql += "(" + std::to_string(i) + ", '" +
             VectorLiteral(in.data.base_vector(i), in.data.dim) + "')";
    }
    load_sql.push_back(std::move(sql));
  }
  // The engines are independent databases: set them up side by side.
  const char* names[2] = {"faiss", "pase"};
  ForBoth([&](int k) {
    bed->engines[k] = OpenEngine(opt, names[k]);
    Engine* e = bed->engines[k].get();
    Must(e, "CREATE TABLE t (id int, vec float[" + std::to_string(in.data.dim) +
                "])");
    for (const std::string& sql : load_sql) Must(e, sql);
    e->live.assign(in.total_rows(), 0);
    std::fill(e->live.begin(), e->live.begin() + in.n_base, 1);
  });
  const int64_t t2 = NowNanos();
  bed->times.load_s = (t2 - t1) * 1e-9;

  KeyValues index_options = w.index_options;
  if (std::string(w.method).rfind("ivf", 0) == 0) {
    index_options.insert(
        index_options.begin(),
        {"clusters", vecdb::ScaledClusterCount(*vecdb::FindDataset("SIFT1M"),
                                               scale)});
  }
  const std::string opts = RenderOptions(index_options);
  ForBoth([&](int k) {
    Engine* e = bed->engines[k].get();
    const int64_t b0 = NowNanos();
    Must(e, std::string("CREATE INDEX t_idx ON t USING ") + w.method +
                " (vec) WITH (" + opts + (opts.empty() ? "" : ", ") +
                "engine='" + names[k] + "')");
    bed->times.build_s[k] = (NowNanos() - b0) * 1e-9;
    // Write back what load and build left dirty in the page cache now, so
    // the kernel's delayed writeback cannot land inside the timed phase.
    SyncFilesystem(e->dir);
    if (want_wire) {
      StartWire(e);
      e->use_wire = w.wire;
    }
    // Warm caches (buffer pool, page cache, code paths) with read-only
    // statements that leave every sequence untouched.
    const size_t warm = std::min(kWarmQueries, in.select_sql.size());
    for (size_t q = 0; q < warm; ++q) {
      auto r = e->Exec(0, in.select_sql[q]);
      if (!r.ok()) Die(e->name + " warm-up: " + r.status().ToString());
    }
  });
  bed->times.total_s = (NowNanos() - t0) * 1e-9;
  return bed;
}

LayerCounters ReadCounters(const Engine& e) {
  const MetricsRegistry& m = MetricsRegistry::Global();
  const bool faiss = e.name == "faiss";
  const vecdb::pgstub::BufferStats b = e.db->bufmgr()->stats();
  return {m.Value(faiss ? Counter::kFaissQueries : Counter::kPaseQueries),
          m.Value(faiss ? Counter::kFaissTombstonesSkipped
                        : Counter::kPaseTombstonesSkipped),
          m.Value(Counter::kWalCheckpoints),
          b.hits,
          b.misses,
          b.evictions};
}

LayerCounters operator-(const LayerCounters& a, const LayerCounters& b) {
  return {a.queries - b.queries, a.tombstones - b.tombstones,
          a.checkpoints - b.checkpoints, a.hits - b.hits,
          a.misses - b.misses, a.evictions - b.evictions};
}

LayerCounters& operator+=(LayerCounters& a, const LayerCounters& b) {
  a.queries += b.queries;
  a.tombstones += b.tombstones;
  a.checkpoints += b.checkpoints;
  a.hits += b.hits;
  a.misses += b.misses;
  a.evictions += b.evictions;
  return a;
}

namespace {

/// One client's closed loop until `deadline`: the next statement is sent
/// only after the previous one's reply.
void ClientLoop(const Inputs& in, Engine* e, int c, int64_t deadline,
                EngineTally* tally, SpanLog* spans) {
  const std::vector<Op>& seq = in.sequences[static_cast<size_t>(c)];
  size_t& pos = e->cursor[static_cast<size_t>(c)];
  const auto total = static_cast<int64_t>(in.total_rows());
  const auto pool_first = static_cast<int64_t>(in.pool_row(c, 0));
  const auto pool_end = pool_first + static_cast<int64_t>(in.pool_per_partition);
  // Rows only this client writes: its base ids (DELETE) and its pool slice
  // (INSERT). Their live flags are exact here, so a SELECT must never
  // return one that is deleted or not yet inserted.
  auto owned = [&](int64_t id) {
    return (id < static_cast<int64_t>(in.n_base) && id % kPartitions == c) ||
           (id >= pool_first && id < pool_end);
  };
  auto fail = [&](const std::string& why) {
    ++tally->failed;
    if (tally->errors.size() < 4) tally->errors.push_back(e->name + ": " + why);
  };
  std::string sql;
  while (NowNanos() < deadline) {
    if (pos >= seq.size()) {
      ++tally->attempted;
      fail("client " + std::to_string(c) + " exhausted its sequence");
      return;
    }
    const uint64_t request = (static_cast<uint64_t>(c) << 32) | pos;
    const Op op = seq[pos++];
    const int64_t s0 = NowNanos();
    switch (op.kind) {
      case OpKind::kSelect:
        break;
      case OpKind::kInsert:
        sql = InsertSql(in, op.arg);
        break;
      case OpKind::kDelete:
        sql = "DELETE FROM t WHERE id = " + std::to_string(op.arg);
        break;
    }
    const std::string& text =
        op.kind == OpKind::kSelect ? in.select_sql[op.arg] : sql;
    const int64_t t0 = NowNanos();
    auto r = e->Exec(c, text);
    const int64_t t1 = NowNanos();
    ++tally->attempted;
    const double us = (t1 - t0) * 1e-3;
    bool ok = true;
    switch (op.kind) {
      case OpKind::kSelect:
        if (!r.ok()) {
          fail("SELECT: " + r.status().ToString());
          ok = false;
          break;
        }
        if (r->rows.size() != kTopK) {
          fail("SELECT returned " + std::to_string(r->rows.size()) + " rows");
          ok = false;
          break;
        }
        for (const auto& row : r->rows) {
          if (row.id < 0 || row.id >= total ||
              (owned(row.id) && !e->live[static_cast<size_t>(row.id)])) {
            fail("SELECT returned dead or unknown id " + std::to_string(row.id));
            ok = false;
            break;
          }
        }
        if (ok) {
          tally->select_us.push_back(us);
          ++tally->selects;
        }
        break;
      case OpKind::kInsert:
        if (!Acked(r, "INSERT 1")) {
          fail("INSERT not acknowledged: " +
               (r.ok() ? r->message : r.status().ToString()));
          ok = false;
          break;
        }
        e->live[op.arg] = 1;
        tally->insert_us.push_back(us);
        break;
      case OpKind::kDelete:
        if (!Acked(r, "DELETE 1")) {
          fail("DELETE not acknowledged: " +
               (r.ok() ? r->message : r.status().ToString()));
          ok = false;
          break;
        }
        e->live[op.arg] = 0;
        break;
    }
    if (spans != nullptr) {
      // The root covers the client's own work (statement text, result
      // checks); its one child is the call into the engine.
      const auto root = static_cast<int32_t>(spans->size());
      spans->push_back({"statement", s0, NowNanos(), -1, request});
      spans->push_back({e->use_wire ? "net.execute" : "session.execute", t0,
                        t1, root, request});
    }
  }
}


}  // namespace

void Merge(EngineTally* into, EngineTally&& from) {
  auto append = [](std::vector<double>* to, const std::vector<double>& v) {
    to->insert(to->end(), v.begin(), v.end());
  };
  append(&into->select_us, from.select_us);
  append(&into->insert_us, from.insert_us);
  append(&into->slice_qps, from.slice_qps);
  append(&into->slice_p50, from.slice_p50);
  append(&into->slice_p95, from.slice_p95);
  append(&into->slice_insert_p50, from.slice_insert_p50);
  into->min_slice_selects =
      std::min(into->min_slice_selects, from.min_slice_selects);
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->selects += from.selects;
  into->elapsed_s += from.elapsed_s;
  for (auto& msg : from.errors) {
    if (into->errors.size() < 8) into->errors.push_back(std::move(msg));
  }
}

namespace {

/// `n` single-session INSERTs of the next probe rows into `e`, outside any
/// slice's clock; their median is one slice's INSERT p50. The first
/// kProbeWarmInserts are not timed: right after a read burst the insert
/// path is cold, and the first one or two run 2-4x slower.
void ProbeInserts(const Inputs& in, Engine* e, size_t n, EngineTally* t) {
  std::vector<double> us;
  for (size_t j = 0; j < kProbeWarmInserts + n; ++j) {
    if (e->probe_cursor >= in.probe_rows.size()) Die("insert probe ran dry");
    const size_t row = in.probe_rows[e->probe_cursor++];
    const std::string sql = InsertSql(in, row);
    const int64_t t0 = NowNanos();
    auto r = e->Exec(kPartitions - 1, sql);
    const double elapsed_us = (NowNanos() - t0) * 1e-3;
    ++t->attempted;
    if (!Acked(r, "INSERT 1")) {
      ++t->failed;
      t->errors.push_back(e->name + ": probe INSERT: " +
                          (r.ok() ? r->message : r.status().ToString()));
      continue;
    }
    e->live[row] = 1;
    if (j >= kProbeWarmInserts) us.push_back(elapsed_us);
  }
  if (!us.empty()) t->slice_insert_p50.push_back(Median(us));
  t->insert_us.insert(t->insert_us.end(), us.begin(), us.end());
}

}  // namespace

PhaseResult RunTimed(Bed* bed, double seconds, bool traced,
                     size_t probe_per_slice) {
  PhaseResult out;
  // Alternate the engines in slices of about half a second, so a slow
  // stretch of the host lands on both engines rather than on one.
  const int per_engine = std::max(1, static_cast<int>(std::lround(seconds)));
  const auto slice_ns = static_cast<int64_t>(seconds / (2.0 * per_engine) * 1e9);
  for (int k = 0; k < 2; ++k) {
    out.spans[k].resize(traced ? kClients : 0);
  }
  for (int s = 0; s < 2 * per_engine; ++s) {
    const int k = s % 2;
    Engine* e = bed->engines[k].get();
    const LayerCounters before = ReadCounters(*e);
    std::vector<EngineTally> local(kClients);
    const int64_t start = NowNanos();
    const int64_t deadline = start + slice_ns;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      SpanLog* log = traced ? &out.spans[k][static_cast<size_t>(c)] : nullptr;
      threads.emplace_back(ClientLoop, std::cref(bed->in), e, c, deadline,
                           &local[static_cast<size_t>(c)], log);
    }
    for (auto& t : threads) t.join();
    const double elapsed = (NowNanos() - start) * 1e-9;
    out.tally[k].elapsed_s += elapsed;
    out.counters[k] += ReadCounters(*e) - before;
    // Per-slice figures; the end-to-end metrics are their medians, which a
    // brief stall of the host moves less than a pooled figure.
    EngineTally& t = out.tally[k];
    std::vector<double> selects, inserts;
    for (const EngineTally& l : local) {
      selects.insert(selects.end(), l.select_us.begin(), l.select_us.end());
      inserts.insert(inserts.end(), l.insert_us.begin(), l.insert_us.end());
    }
    t.slice_qps.push_back(static_cast<double>(selects.size()) / elapsed);
    t.slice_p50.push_back(Median(selects));
    t.slice_p95.push_back(Quantile(selects, 0.95));
    t.min_slice_selects = std::min(t.min_slice_selects, selects.size());
    if (inserts.size() >= kMinSliceInserts) {
      t.slice_insert_p50.push_back(Median(inserts));
    }
    for (auto& l : local) Merge(&t, std::move(l));
    if (probe_per_slice > 0) ProbeInserts(bed->in, e, probe_per_slice, &t);
  }
  for (int k = 0; k < 2; ++k) {
    Engine* e = bed->engines[k].get();
    e->live_rows = static_cast<size_t>(
        std::count(e->live.begin(), e->live.end(), uint8_t{1}));
  }
  return out;
}

RecallCheck CheckRecall(Bed* bed, Engine* e, uint64_t seed, size_t nq) {
  const Inputs& in = bed->in;
  const size_t dim = in.data.dim;
  RecallCheck out;
  vecdb::Rng rng(seed + 0x9e3779b97f4a7c15ull);
  const std::vector<uint32_t> picks = rng.SampleWithoutReplacement(
      static_cast<uint32_t>(in.select_sql.size()), static_cast<uint32_t>(nq));
  out.queries = picks.size();
  std::vector<std::pair<float, int64_t>> dist;
  size_t hits = 0;
  for (const uint32_t q : picks) {
    auto r = e->Exec(0, in.select_sql[q]);
    if (!r.ok()) {
      ++out.failed;
      continue;
    }
    dist.clear();
    for (size_t i = 0; i < in.total_rows(); ++i) {
      if (!e->live[i]) continue;
      dist.emplace_back(vecdb::L2Sqr(in.data.query_vector(q),
                                     in.data.base_vector(i), dim),
                        static_cast<int64_t>(i));
    }
    const size_t k = std::min(kTopK, dist.size());
    std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(k),
                      dist.end());
    std::unordered_set<int64_t> truth;
    for (size_t i = 0; i < k; ++i) truth.insert(dist[i].second);
    for (const auto& row : r->rows) {
      const bool known =
          row.id >= 0 && static_cast<size_t>(row.id) < in.total_rows();
      if (!known || !e->live[static_cast<size_t>(row.id)]) ++out.bad_ids;
      hits += truth.count(row.id);
    }
  }
  out.recall = out.queries == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(out.queries * kTopK);
  return out;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace perfbench
