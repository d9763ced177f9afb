// perfbench: the end-to-end benchmark. Each workload runs the faiss and
// pase engines side by side, each in its own MiniDatabase, over one
// generated SIFT1M analog, and measures every layer from outside through
// the engine's public API. See perfbench/README.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datasets/dataset.h"
#include "net/client.h"
#include "net/server.h"
#include "sql/database.h"
#include "sql/session.h"

namespace perfbench {

/// Closed-loop clients per engine in every timed phase.
constexpr int kClients = 3;
/// Pool partitions: one per client plus one for the single-session passes
/// (insert probe, layer ladder), so no two writers share an id.
constexpr int kPartitions = kClients + 1;
/// LIMIT of every SELECT and the k of recall@k.
constexpr size_t kTopK = 10;

using KeyValues = std::vector<std::pair<std::string, double>>;

struct WorkloadConfig {
  const char* name;
  double scale;              ///< fraction of SIFT1M's 1M base rows
  const char* method;        ///< CREATE INDEX ... USING <method>
  KeyValues index_options;   ///< WITH (...), shared by both engines
  KeyValues select_options;  ///< OPTIONS (...) on every SELECT
  size_t pool_pages;         ///< buffer pool frames per database
  bool mixed;                ///< 90% SELECT, 9% INSERT, 1% DELETE
  bool wire;                 ///< clients reach the engine over VecServer
  double recall_floor;       ///< minimum recall@10 for a correct run
};

/// The registered workloads, or null for an unknown name.
const WorkloadConfig* FindWorkload(const std::string& name);

struct Options {
  const WorkloadConfig* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 0.0;   ///< 0 keeps the workload's scale
  std::string data_dir;
};

enum class OpKind : uint8_t { kSelect, kInsert, kDelete };

/// One statement of a client's seeded sequence. `arg` is a query index
/// (SELECT), an insert-pool row (INSERT) or a base row id (DELETE).
struct Op {
  OpKind kind;
  uint32_t arg;
};

/// Everything generated from the seed: the rows, the SELECT texts, and one
/// statement sequence per client. Row i of `data` has id i; rows
/// [n_base, data.num_base) are the insert pool, split into kPartitions
/// equal slices.
struct Inputs {
  vecdb::Dataset data;
  size_t n_base = 0;
  size_t pool_per_partition = 0;
  std::vector<std::string> select_sql;
  std::vector<std::vector<Op>> sequences;  ///< kClients entries
  std::vector<uint32_t> probe_rows;  ///< read-only workloads: INSERT order

  size_t total_rows() const { return data.num_base; }
  size_t pool_row(int partition, size_t j) const {
    return n_base + static_cast<size_t>(partition) * pool_per_partition + j;
  }
};

/// SQL text of a single-row INSERT of dataset row `row` (id = row).
std::string InsertSql(const Inputs& in, size_t row);
/// Shortest round-trip text of a vector, bracketed.
std::string VectorLiteral(const float* v, size_t dim);

/// One engine under test: its database, in-process sessions, and (wire
/// workloads, and the traced ladder) a server with connected clients.
struct Engine {
  std::string name;  ///< "faiss" or "pase"
  std::string dir;
  std::unique_ptr<vecdb::sql::MiniDatabase> db;
  std::vector<std::shared_ptr<vecdb::sql::Session>> sessions;  ///< kPartitions
  std::unique_ptr<vecdb::net::VecServer> server;
  std::vector<std::unique_ptr<vecdb::net::VecClient>> clients;  ///< kPartitions
  bool use_wire = false;
  /// Next statement of each client's sequence.
  std::vector<size_t> cursor = std::vector<size_t>(kClients, 0);
  size_t probe_cursor = 0;  ///< next of Inputs::probe_rows
  /// Live-set bookkeeping from acknowledged writes.
  std::vector<uint8_t> live;  ///< per dataset row
  size_t live_rows = 0;

  /// Runs `sql` as client `c` (in process or over the wire).
  vecdb::Result<vecdb::sql::QueryResult> Exec(int c, const std::string& sql);
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();
};

/// Wall-clock breakdown of one set-up.
struct SetupTimes {
  double gen_s = 0, load_s = 0, total_s = 0;
  double build_s[2] = {0, 0};
};

/// A complete set-up: inputs plus both engines, ready for timed work.
struct Bed {
  Inputs in;
  std::unique_ptr<Engine> engines[2];
  SetupTimes times;
};

/// Generates inputs, loads both databases through SQL, builds the index,
/// starts servers when `want_wire`, and warms both engines.
std::unique_ptr<Bed> SetUp(const Options& opt, bool want_wire);

/// Per-engine outcome of statements run by the timed phase.
struct EngineTally {
  std::vector<double> select_us;
  std::vector<double> insert_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t selects = 0;
  double elapsed_s = 0;  ///< wall time of this engine's slices
  /// Per slice: SELECTs per second, SELECT p50 and p95, and INSERT p50
  /// (mixed slices with at least 20 INSERTs, or the probe after a slice).
  std::vector<double> slice_qps, slice_p50, slice_p95, slice_insert_p50;
  size_t min_slice_selects = SIZE_MAX;
  std::vector<std::string> errors;  ///< first few failure messages
};

/// Appends `from`'s samples, slices and counts to `into`.
void Merge(EngineTally* into, EngineTally&& from);

/// One recorded span (see ladder.cc for the trace file format).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;    ///< index in the same log, -1 for a root
  uint64_t request;  ///< client << 32 | sequence number
};
using SpanLog = std::vector<Span>;

/// Counter snapshot read at slice boundaries of a timed phase.
struct LayerCounters {
  uint64_t queries = 0, tombstones = 0, checkpoints = 0;
  uint64_t hits = 0, misses = 0, evictions = 0;
};
LayerCounters ReadCounters(const Engine& e);
LayerCounters operator-(const LayerCounters& a, const LayerCounters& b);
LayerCounters& operator+=(LayerCounters& a, const LayerCounters& b);

struct PhaseResult {
  EngineTally tally[2];
  LayerCounters counters[2];  ///< summed over the engine's slices
  /// Per engine and client, when traced.
  std::vector<SpanLog> spans[2];
};

/// Runs both engines for `seconds` in alternating slices, kClients closed
/// loops each, continuing every client's sequence where it stopped. After
/// each slice, outside its clock, `probe_per_slice` single-session INSERTs
/// of probe rows go to that slice's engine.
PhaseResult RunTimed(Bed* bed, double seconds, bool traced,
                     size_t probe_per_slice);


/// Recall@10 of `nq` seeded queries against brute force over the engine's
/// live rows, and the count of returned ids that are not live.
struct RecallCheck {
  double recall = 0;
  size_t queries = 0;
  uint64_t bad_ids = 0;
  uint64_t failed = 0;
};
RecallCheck CheckRecall(Bed* bed, Engine* e, uint64_t seed, size_t nq);

/// Bytes of regular files under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);

/// p-quantile (0..1) of `v` by nearest rank on a sorted copy.
double Quantile(std::vector<double> v, double p);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);  ///< 0 for an empty vector

/// An output metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The traced run's per-layer pass (ladder.cc). Appends per-layer metrics.
void RunTracedLadder(const Options& opt, Bed* bed,
                     std::vector<Metric>* metrics, uint64_t* attempted,
                     uint64_t* failed, bool* correct);

}  // namespace perfbench
