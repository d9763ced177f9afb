// perfbench entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir> [--scale <fraction>]
//
// Prints a report line (fingerprint, sample counts, failures) and, last,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits non-zero without the final line when the run cannot complete.

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "common/timer.h"
#include "distance/dispatch.h"
#include "distance/kernels.h"

namespace perfbench {
namespace {

constexpr size_t kRecallQueries = 300;
constexpr int kSetupReps = 5;  ///< setup_s is the median of these
constexpr size_t kProbeInsertsPerSlice = 20;

std::string FsType(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  static const std::map<unsigned long, const char*> kNames = {
      {0xEF53, "ext4"},        {0x01021994, "tmpfs"},
      {0x58465342, "xfs"},     {0x9123683E, "btrfs"},
      {0x794c7630, "overlay"}, {0x65735546, "fuse"},
      {0x6969, "nfs"}};
  auto it = kNames.find(static_cast<unsigned long>(fs.f_type));
  if (it != kNames.end()) return it->second;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(fs.f_type));
  return buf;
}

/// In-cache L2Sqr time at d = 128: a reading of the host's speed at the
/// start of the run, so a slow host shows in the report.
double HostReferenceNs() {
  std::vector<float> a(128 * 64), b(128 * 64);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i % 97) * 0.01f;
    b[i] = static_cast<float>(i % 89) * 0.02f;
  }
  volatile float sink = 0;
  constexpr size_t kCalls = 1000000;
  const int64_t t0 = vecdb::NowNanos();
  for (size_t i = 0; i < kCalls; ++i) {
    sink = sink + vecdb::L2Sqr(a.data() + (i & 63) * 128,
                               b.data() + ((i * 7) & 63) * 128, 128);
  }
  return static_cast<double>(vecdb::NowNanos() - t0) / kCalls;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out;
}

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --data-dir <dir> "
               "[--scale <f>]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = FindWorkload(value);
      if (opt.workload == nullptr) Usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--data-dir") {
      opt.data_dir = value;
    } else if (flag == "--scale") {
      opt.scale = std::stod(value);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload == nullptr || opt.data_dir.empty() || !have_trace) {
    Usage("--workload, --trace and --data-dir are required");
  }
  if (!(opt.seconds > 0)) Usage("--seconds must be positive");
  return opt;
}

struct Outcome {
  std::vector<Metric> metrics;
  std::map<std::string, uint64_t> samples;  ///< behind each percentile
  /// Per engine: each slice's throughput and INSERT p50, in run order.
  std::map<std::string, std::vector<double>> slice_qps, slice_insert_p50;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
};

void AddTally(Outcome* o, const EngineTally& t) {
  o->attempted += t.attempted;
  o->failed += t.failed;
  for (const auto& e : t.errors) o->errors.push_back(e);
}

/// Recall floor and dead-id check over `nq` queries drawn with `seed`, then
/// an explicit checkpoint; shared by both modes. Returns bytes_per_user_byte.
double FinalChecks(const Options& opt, Bed* bed, Outcome* o, uint64_t seed,
                   size_t nq, double recall[2], double checkpoint_ms[2]) {
  uint64_t user_bytes = 0, stored = 0;
  for (int k = 0; k < 2; ++k) {
    Engine* e = bed->engines[k].get();
    const RecallCheck rc = CheckRecall(bed, e, seed, nq);
    recall[k] = rc.recall;
    o->samples[e->name + "_recall_queries"] += rc.queries;
    o->attempted += rc.queries;
    o->failed += rc.failed;
    if (rc.failed != 0 || rc.bad_ids != 0 ||
        rc.recall < opt.workload->recall_floor) {
      o->correct = false;
      o->errors.push_back(e->name + ": recall@10 " + Fmt(rc.recall) +
                          " (floor " + Fmt(opt.workload->recall_floor) +
                          "), dead or unknown ids " +
                          std::to_string(rc.bad_ids) + ", failed " +
                          std::to_string(rc.failed));
    }
    const int64_t c0 = vecdb::NowNanos();
    const vecdb::Status st = e->db->Checkpoint();
    checkpoint_ms[k] = (vecdb::NowNanos() - c0) * 1e-6;
    if (!st.ok()) {
      o->correct = false;
      o->errors.push_back(e->name + ": checkpoint: " + st.ToString());
    }
    stored += DirBytes(e->dir);
    user_bytes += static_cast<uint64_t>(e->live_rows) *
                  (sizeof(int64_t) + sizeof(float) * bed->in.data.dim);
  }
  return static_cast<double>(stored) / static_cast<double>(user_bytes);
}

Outcome RunEndToEnd(const Options& opt) {
  Outcome o;
  const WorkloadConfig& w = *opt.workload;
  // Every set-up gets an equal share of the timed phase. A fresh set-up is
  // a fresh memory layout of both engines, which can move a run's figures
  // by 10% or more; the medians below pool every set-up's slices.
  std::vector<double> setups, amplification, recall[2];
  EngineTally timed[2];
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto bed = SetUp(opt, w.wire);
    setups.push_back(bed->times.total_s);
    std::fprintf(stderr, "[perfbench] setup %d: %.2fs\n", rep, setups.back());
    PhaseResult ph = RunTimed(bed.get(), opt.seconds / kSetupReps, false,
                              w.mixed ? 0 : kProbeInsertsPerSlice);
    double bed_recall[2], checkpoint_ms[2];
    amplification.push_back(FinalChecks(
        opt, bed.get(), &o, opt.seed * kSetupReps + rep,
        kRecallQueries / kSetupReps, bed_recall, checkpoint_ms));
    for (int k = 0; k < 2; ++k) {
      recall[k].push_back(bed_recall[k]);
      Merge(&timed[k], std::move(ph.tally[k]));
    }
  }

  o.metrics.push_back({"setup_s", Median(setups), "s"});
  o.samples["setup_s"] = setups.size();
  const char* names[2] = {"faiss", "pase"};
  for (int k = 0; k < 2; ++k) {
    const EngineTally& t = timed[k];
    AddTally(&o, t);
    const std::string e = names[k];
    // Timed-phase figures are medians over the engine's slices.
    o.metrics.push_back({e + "_qps", Median(t.slice_qps), "stmt/s"});
    o.metrics.push_back({e + "_p50_us", Median(t.slice_p50), "us"});
    o.metrics.push_back({e + "_p95_us", Median(t.slice_p95), "us"});
    // Every set-up checks an equal share of the queries: pool them.
    o.metrics.push_back({e + "_recall_at_10", Mean(recall[k]), "ratio"});
    // A slice's INSERT p50 flips between two levels (about 42 and 60 us on
    // ivf_flat_read), depending on which vCPU the single-session probe
    // lands on; a median over slices would jump between them, a mean
    // moves only with their mix.
    const double insert_p50 = Mean(t.slice_insert_p50);
    o.metrics.push_back({e + "_insert_p50_us", insert_p50, "us"});
    o.samples[e + "_slices"] = t.slice_qps.size();
    o.samples[e + "_select_samples"] = t.select_us.size();
    o.samples[e + "_min_select_samples_per_slice"] = t.min_slice_selects;
    o.samples[e + "_insert_samples"] = t.insert_us.size();
    o.samples[e + "_insert_slices"] = t.slice_insert_p50.size();
    o.slice_qps[e] = t.slice_qps;
    o.slice_insert_p50[e] = t.slice_insert_p50;
    // p95 of every slice must rest on at least 10 samples beyond it.
    if (t.min_slice_selects < 200 || insert_p50 <= 0) {
      o.correct = false;
      o.errors.push_back(e + ": too few samples for p95 or insert p50");
    }
  }
  o.metrics.push_back(
      {"bytes_per_user_byte", Median(amplification), "ratio"});
  o.metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return o;
}

Outcome RunTraced(const Options& opt) {
  Outcome o;
  auto bed = SetUp(opt, /*want_wire=*/true);
  const char* names[2] = {"faiss", "pase"};
  o.metrics.push_back({"setup.gen_s", bed->times.gen_s, "s"});
  o.metrics.push_back({"setup.load_s", bed->times.load_s, "s"});
  for (int k = 0; k < 2; ++k) {
    o.metrics.push_back({std::string("setup.build_s.") + names[k],
                         bed->times.build_s[k], "s"});
  }
  RunTracedLadder(opt, bed.get(), &o.metrics, &o.attempted, &o.failed,
                  &o.correct);
  double recall[2], checkpoint_ms[2];
  FinalChecks(opt, bed.get(), &o, opt.seed, kRecallQueries, recall,
              checkpoint_ms);
  for (int k = 0; k < 2; ++k) {
    o.metrics.push_back({std::string("wal.checkpoint_ms.") + names[k],
                         checkpoint_ms[k], "ms"});
  }
  return o;
}

void Print(const Options& opt, const Outcome& o, double host_ns) {
  const WorkloadConfig& w = *opt.workload;
  std::string report = "{\"report\": {\"workload\": \"" + std::string(w.name) +
                       "\", \"seed\": " + std::to_string(opt.seed) +
                       ", \"seconds\": " + Fmt(opt.seconds) +
                       ", \"trace\": " + (opt.trace ? "1" : "0");
  report += ", \"scale\": " + Fmt(opt.scale > 0 ? opt.scale : w.scale);
  report += ", \"isa\": \"" +
            std::string(vecdb::KernelIsaName(vecdb::ActiveKernelIsa())) + "\"";
  report += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  report += ", \"host_l2sqr_ns\": " + Fmt(host_ns);
  report += ", \"clients_per_engine\": " + std::to_string(kClients);
  report += ", \"pool_pages\": " + std::to_string(w.pool_pages);
  const vecdb::sql::DatabaseOptions defaults;
  report += std::string(", \"wal\": ") + (defaults.wal_enabled ? "true" : "false");
  report += ", \"sync\": \"fflush, no fsync\"";
  report += ", \"checkpoint_wal_bytes\": " +
            std::to_string(defaults.checkpoint_wal_bytes);
  report += ", \"data_dir_fs\": \"" + FsType(opt.data_dir) + "\"";
  report += ", \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : o.samples) {
    report += (first ? "\"" : ", \"") + name + "\": " + std::to_string(n);
    first = false;
  }
  for (const auto& [key, series] :
       {std::pair{"slice_qps", &o.slice_qps},
        std::pair{"slice_insert_p50_us", &o.slice_insert_p50}}) {
    report += std::string("}, \"") + key + "\": {";
    first = true;
    for (const auto& [name, v] : *series) {
      report += (first ? "\"" : ", \"") + name + "\": [";
      for (size_t i = 0; i < v.size(); ++i) report += (i ? ", " : "") + Fmt(v[i]);
      report += "]";
      first = false;
    }
  }
  report += "}, \"errors\": [";
  for (size_t i = 0; i < o.errors.size(); ++i) {
    report += (i ? ", \"" : "\"") + JsonEscape(o.errors[i]) + "\"";
  }
  report += "]}}";
  std::printf("%s\n", report.c_str());

  std::string out = std::string("{\"correct\": ") +
                    (o.correct && o.failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(o.attempted) +
                    ", \"failed\": " + std::to_string(o.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + Fmt(v) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = ParseArgs(argc, argv);
  try {
    std::filesystem::create_directories(opt.data_dir);
    const double host_ns = HostReferenceNs();
    const Outcome o = opt.trace ? RunTraced(opt) : RunEndToEnd(opt);
    for (const auto& e : o.errors) std::fprintf(stderr, "[perfbench] %s\n", e.c_str());
    Print(opt, o, host_ns);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
  return 0;
}
