// CourseRank request-mix benchmark: one closed-loop client over the
// paper-scale site. See README.md in this directory for the workloads, the
// metrics and how to run it (normally through run.py, which builds this
// binary and adds the host fingerprint).
//
//   site_bench --workload discover|recommend|social_write --seed N
//              --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints one JSON object (the full report) as the last line of stdout and
// exits 0; exits 1 on bad arguments or a failed set-up.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "storage/snapshot.h"
#include "workloads.h"
#include "world.h"

namespace sitebench {
namespace {

namespace cr = courserank;

/// The cross-run digest covers this many requests, which every run issues
/// whatever the host speed: two runs of one seed must agree on it.
constexpr uint64_t kDigestRequests = 60;
/// An untraced run never stops before this many requests (enough for a p90
/// with ten samples beyond it). A traced run's passes stop no earlier than
/// kDigestRequests: it reports no percentiles.
constexpr uint64_t kMinRequests = 100;

/// An untraced run sets up this many times and reports the median set-up
/// time: all but the last set-up run in child processes (SetupInChild); a
/// traced run sets up once per pass.
constexpr int kUntracedSetups = 2;

/// Tables the social_write writes touch; recovery must reproduce them.
constexpr const char* kDurableTables[] = {"Ratings",    "Comments",
                                          "CommentVotes", "Enrollment",
                                          "Students",   "Plans"};

struct Args {
  Workload workload = Workload::kDiscover;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_results";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      auto w = ParseWorkload(val);
      if (!w.has_value()) return false;
      args->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = val == "1";
    } else if (key == "--out-dir") {
      args->out_dir = val;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0 && argc % 2 == 1;
}

// ---- small JSON writer ------------------------------------------------------

class Json {
 public:
  Json& Key(const std::string& k) {
    Sep();
    out_ += cr::obs::JsonEscaped(k) + ":";
    fresh_ = true;
    return *this;
  }
  Json& Str(const std::string& v) {
    Sep();
    out_ += cr::obs::JsonEscaped(v);
    return *this;
  }
  Json& Num(double v) {
    Sep();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& Int(uint64_t v) {
    Sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& Null() {
    Sep();
    out_ += "null";
    return *this;
  }
  Json& Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// ---- statistics -------------------------------------------------------------

/// Linear interpolation between closest ranks (numpy's default).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void WriteLatency(Json& j, const std::string& name,
                  const std::vector<double>& ms) {
  j.Key(name).Open('{');
  j.Key("n").Int(ms.size());
  if (!ms.empty()) {
    double sum = 0;
    for (double x : ms) sum += x;
    j.Key("mean").Num(sum / static_cast<double>(ms.size()));
    j.Key("p50").Num(Quantile(ms, 0.5));
    j.Key("p90").Num(Quantile(ms, 0.9));
    // A percentile is reported only with at least ten samples beyond it.
    if (ms.size() >= 1000) {
      j.Key("p99").Num(Quantile(ms, 0.99));
    } else {
      j.Key("p99").Null();
    }
  }
  j.Close('}');
}

/// Fixed single-threaded work: a dependent random walk over 32 MiB, timed
/// kProbeReps times after one warm-up; the median in ms. It depends on the
/// host alone, so runs whose probes differ were made at different host
/// speeds and their timings do not compare.
double HostProbeMs() {
  constexpr size_t kSlots = size_t{1} << 23;
  constexpr size_t kSteps = size_t{1} << 20;
  constexpr int kProbeReps = 5;
  std::vector<uint32_t> next(kSlots);
  for (size_t i = 0; i < kSlots; ++i) next[i] = static_cast<uint32_t>(i);
  // Sattolo's shuffle: one cycle through every slot, so no short loops.
  uint64_t x = 0x2545f4914f6cdd1dULL;
  for (size_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  std::vector<double> ms;
  uint32_t at = 0;
  for (int rep = 0; rep <= kProbeReps; ++rep) {
    uint64_t t0 = NowNs();
    for (size_t s = 0; s < kSteps; ++s) at = next[at];
    if (rep > 0) ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  // Keeps the walk from being optimized away.
  if (at == kSlots) std::fprintf(stderr, "probe\n");
  return Quantile(ms, 0.5);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---- one pass of the closed loop -----------------------------------------

struct Pass {
  std::vector<RequestRecord> records;
  uint64_t digest = 0;
  uint64_t prefix_digest = 0;
  uint64_t result_rows = 0;
  double wall_s = 0;  ///< loop wall time, output checks included
};

/// Runs requests until `seconds` have passed at a mix boundary (and at least
/// kMinRequests), or exactly `fixed_requests` when that is non-zero.
Pass RunPass(World& world, const Args& args, Tracer& tracer, CheckLog& checks,
             uint64_t fixed_requests) {
  Pass pass;
  Runner runner(world, args.workload, args.seed, tracer, checks);
  uint64_t start = NowNs();
  const auto budget = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t min_requests = args.trace ? kDigestRequests : kMinRequests;
  while (true) {
    uint64_t n = pass.records.size();
    if (fixed_requests > 0) {
      if (n >= fixed_requests) break;
    } else if (n >= min_requests && runner.AtBoundary() &&
               NowNs() - start >= budget) {
      break;
    }
    pass.records.push_back(runner.Next());
    if (pass.records.size() == kDigestRequests) {
      pass.prefix_digest = runner.digest();
    }
  }
  pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  pass.digest = runner.digest();
  pass.result_rows = runner.result_rows();
  return pass;
}

// ---- output checks outside the loop ---------------------------------------

void CheckAmericanAtSetup(World& world, CheckLog& checks) {
  std::set<CourseId> expected;
  for (const auto& [phrase, ids] : world.artifacts.american_courses) {
    expected.insert(ids.begin(), ids.end());
  }
  auto rs = world.checker->Search("american");
  std::set<CourseId> found;
  if (rs.ok()) {
    for (const auto& hit : rs->hits) {
      found.insert(world.site->index().doc(hit.doc).key.AsInt());
    }
  }
  checks.Expect(rs.ok() && found == expected,
                "search 'american' returned " + std::to_string(found.size()) +
                    " courses, the generator's set has " +
                    std::to_string(expected.size()));
}

/// Fig. 4 equivalence on every run, whatever the workload: refining
/// "american" by each of its top cloud terms must equal the from-scratch
/// conjunctive SearchTerms, hits and scores. Uses the uncached searcher and
/// its own cloud builder, so the caches the requests measure stay cold.
void CheckRefineAtSetup(World& world, CheckLog& checks) {
  constexpr size_t kTermsChecked = 3;
  auto american = world.checker->Search("american");
  if (!american.ok()) return;  // CheckAmericanAtSetup reports it
  cr::cloud::DataCloud cloud =
      cr::cloud::CloudBuilder(&world.site->index()).Build(*american);
  checks.Expect(cloud.terms.size() >= kTermsChecked,
                "the data cloud of 'american' has too few terms to refine");
  for (size_t i = 0; i < std::min(kTermsChecked, cloud.terms.size()); ++i) {
    const std::string& term = cloud.terms[i].display;
    auto refined = world.checker->Refine(*american, term);
    auto direct = refined.ok() ? world.checker->SearchTerms(refined->terms)
                               : refined;
    bool same = refined.ok() && direct.ok() &&
                direct->hits.size() == refined->hits.size();
    for (size_t h = 0; same && h < refined->hits.size(); ++h) {
      same = direct->hits[h].doc == refined->hits[h].doc &&
             direct->hits[h].score == refined->hits[h].score;
    }
    checks.Expect(same, "refining 'american' by '" + term +
                            "' differs from the conjunctive SearchTerms");
  }
}

/// Recovers snapshot + WAL into a fresh Database and compares the tables
/// the writes touched, row for row, with the live ones.
void CheckDurability(World& world, CheckLog& checks) {
  auto recovered =
      cr::storage::RecoverDatabase(world.snapshot_dir, world.wal_path);
  checks.Expect(recovered.ok(),
                "RecoverDatabase failed: " + recovered.status().ToString());
  if (!recovered.ok()) return;
  for (const char* name : kDurableTables) {
    const cr::storage::Table* live = world.site->db().FindTable(name);
    const cr::storage::Table* back = recovered->db->FindTable(name);
    bool same = live != nullptr && back != nullptr &&
                live->LiveRowIds() == back->LiveRowIds();
    if (same) {
      for (cr::storage::RowId id : live->LiveRowIds()) {
        const cr::storage::Row& a = *live->Get(id);
        const cr::storage::Row& b = *back->Get(id);
        same = a.size() == b.size();
        for (size_t c = 0; same && c < a.size(); ++c) {
          same = a[c].type() == b[c].type() && a[c] == b[c];
        }
        if (!same) break;
      }
    }
    checks.Expect(same, std::string("recovered table ") + name +
                            " differs from the live one");
  }
}

// ---- metrics ----------------------------------------------------------------

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct LatencySplit {
  std::vector<double> all, read;
  std::vector<double> by_class[kNumClasses];
  std::map<std::string, std::vector<double>> by_kind;
  std::vector<double> window_ops;  ///< throughput of each full window
  uint64_t failed = 0;
  uint64_t writes = 0;
  double busy_s = 0;
};

/// Requests per throughput window: one mix cycle, or about twenty browsing
/// sessions, so every window has nearly the same composition.
size_t WindowOf(Workload w) {
  return w == Workload::kDiscover ? 100 : MixCycleLength(w);
}

LatencySplit Split(const Pass& pass, size_t window) {
  LatencySplit s;
  double window_s = 0;
  size_t window_ok = 0;
  for (size_t i = 0; i < pass.records.size(); ++i) {
    const RequestRecord& r = pass.records[i];
    double ms = Ms(r.latency_ns);
    s.busy_s += ms / 1e3;
    window_s += ms / 1e3;
    window_ok += r.ok ? 1 : 0;
    if ((i + 1) % window == 0) {
      s.window_ops.push_back(static_cast<double>(window_ok) / window_s);
      window_s = 0;
      window_ok = 0;
    }
    if (!r.ok) {
      ++s.failed;
      continue;
    }
    s.all.push_back(ms);
    s.by_class[static_cast<size_t>(r.cls)].push_back(ms);
    s.by_kind[r.kind].push_back(ms);
    if (r.cls == ReqClass::kWrite) {
      ++s.writes;
    } else {
      s.read.push_back(ms);
    }
  }
  return s;
}

void TrackProgramCounters(CounterDeltas& d) {
  for (const char* c : {
           "cr_search_result_cache_hits_total",
           "cr_search_result_cache_misses_total",
           "cr_cloud_cache_hits_total",
           "cr_cloud_cache_misses_total",
           "cr_search_postings_advanced_total",
           "cr_search_docs_examined_total",
           "cr_search_queries_intersection_total",
           "cr_search_refines_total",
           "cr_cloud_builds_total",
           "cr_cloud_terms_touched_total",
           "cr_exec_hash_probes_total",
           "cr_storage_rows_scanned_total",
           "cr_storage_scans_total",
           "cr_pool_tasks_total",
           "cr_wal_appends_total",
           "cr_wal_append_bytes_total",
           "cr_wal_fsyncs_total",
           "cr_sql_statements_total",
           "cr_flexrecs_runs_total",
       }) {
    d.TrackCounter(c);
  }
  for (const char* h : {
           "cr_exec_scan_ns", "cr_exec_join_ns", "cr_exec_join_parallel_ns",
           "cr_exec_aggregate_ns", "cr_exec_extend_ns",
           "cr_exec_extend_parallel_ns", "cr_exec_fused_ns",
           "cr_exec_recommend_ns", "cr_exec_sort_ns", "cr_exec_topk_ns",
           "cr_pool_task_ns", "cr_wal_append_ns", "cr_wal_fsync_ns",
           "cr_sql_parse_ns", "cr_sql_execute_ns", "cr_flexrecs_run_ns",
       }) {
    d.TrackHistogram(h);
  }
}

/// Per-layer metrics of the traced pass. Every metric is emitted on every
/// workload; a layer the workload leaves idle reads 0.
void WritePerLayer(Json& j, const Tracer& tracer, const Pass& traced,
                   const Pass& untraced, const LatencySplit& split) {
  const std::map<std::string, SpanStat> stats = tracer.span_stats();
  auto span_ms = [&](const char* name) {
    auto it = stats.find(name);
    if (it == stats.end() || it->second.count == 0) return 0.0;
    return Ms(it->second.total_ns) / static_cast<double>(it->second.count);
  };
  auto span_total_ns = [&](const char* name) -> double {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  const CounterDeltas& d = tracer.deltas();
  auto c = [&](const char* name) {
    return static_cast<double>(d.counter(name));
  };
  auto hsum = [&](const char* name) {
    return static_cast<double>(d.hist_sum(name));
  };
  const double requests = static_cast<double>(traced.records.size());
  const double writes = static_cast<double>(split.writes);
  const double query_requests =
      static_cast<double>(split.by_class[size_t(ReqClass::kRecommend)].size() +
                          split.by_class[size_t(ReqClass::kSql)].size());
  const double searches = c("cr_search_queries_intersection_total") +
                          c("cr_search_refines_total");

  LedgerRow total;
  for (const auto& [kind, row] : tracer.ledger()) total.Add(row);
  double untraced_busy = 0;
  for (const RequestRecord& r : untraced.records) untraced_busy += r.latency_ns;

  j.Key("metrics").Open('{');
  auto put = [&](const std::string& name, double v) { j.Key(name).Num(v); };
  put("search.query_ms", span_ms("search.query"));
  put("search.refine_ms", span_ms("search.refine"));
  put("search.cache_hit_ratio",
      Ratio(c("cr_search_result_cache_hits_total"),
            c("cr_search_result_cache_hits_total") +
                c("cr_search_result_cache_misses_total")));
  put("search.postings_per_query",
      Ratio(c("cr_search_postings_advanced_total"), searches));
  put("search.docs_examined_per_query",
      Ratio(c("cr_search_docs_examined_total"), searches));
  put("cloud.build_ms", span_ms("cloud.build"));
  put("cloud.cache_hit_ratio",
      Ratio(c("cr_cloud_cache_hits_total"),
            c("cr_cloud_cache_hits_total") + c("cr_cloud_cache_misses_total")));
  put("cloud.terms_touched_per_build",
      Ratio(c("cr_cloud_terms_touched_total"), c("cr_cloud_builds_total")));
  put("social.descriptor_ms", span_ms("social.descriptor"));
  put("social.rate_ms", span_ms("social.rate"));
  put("social.comment_ms", span_ms("social.comment"));
  put("social.vote_ms", span_ms("social.vote"));
  put("social.report_taken_ms", span_ms("social.report_taken"));
  put("planner.plan_validate_ms", span_ms("planner.plan_validate"));
  put("flexrecs.compile_ms", span_ms("flexrecs.compile"));
  put("flexrecs.execute_ms", span_ms("flexrecs.execute"));
  put("sql.parse_ms", span_ms("sql.parse"));
  put("sql.execute_ms", span_ms("sql.execute"));
  // Inclusive operator time per request from the program's histogram sums
  // (serial and morsel-parallel series added); not part of the ledger.
  const std::pair<const char*, std::vector<const char*>> ops[] = {
      {"scan", {"cr_exec_scan_ns"}},
      {"join", {"cr_exec_join_ns", "cr_exec_join_parallel_ns"}},
      {"aggregate", {"cr_exec_aggregate_ns"}},
      {"extend", {"cr_exec_extend_ns", "cr_exec_extend_parallel_ns"}},
      {"fused", {"cr_exec_fused_ns"}},
      {"recommend", {"cr_exec_recommend_ns"}},
      {"sort", {"cr_exec_sort_ns"}},
      {"topk", {"cr_exec_topk_ns"}},
  };
  for (const auto& [op, hists] : ops) {
    double ns = 0;
    for (const char* h : hists) ns += hsum(h);
    put(std::string("query.") + op + "_busy_ms", Ratio(ns / 1e6, requests));
  }
  put("query.hash_probes_per_request",
      Ratio(c("cr_exec_hash_probes_total"), query_requests));
  put("query.rows_scanned_per_result_row",
      Ratio(c("cr_storage_rows_scanned_total"),
            static_cast<double>(traced.result_rows)));
  put("pool.tasks_per_request", Ratio(c("cr_pool_tasks_total"), requests));
  put("pool.task_busy_ms", Ratio(hsum("cr_pool_task_ns") / 1e6, requests));
  put("pool.parallelism",
      Ratio(hsum("cr_pool_task_ns"), span_total_ns("flexrecs.execute")));
  put("storage.columnar_ms", span_ms("storage.columnar"));
  put("storage.wal_append_busy_ms",
      Ratio(hsum("cr_wal_append_ns") / 1e6, writes));
  put("storage.wal_fsync_busy_ms",
      Ratio(hsum("cr_wal_fsync_ns") / 1e6, writes));
  put("storage.wal_bytes_per_write",
      Ratio(c("cr_wal_append_bytes_total"), writes));
  put("storage.fsyncs_per_write", Ratio(c("cr_wal_fsyncs_total"), writes));
  for (size_t l = 0; l < kNumLayers; ++l) {
    put(std::string("ledger.") + LayerName(static_cast<Layer>(l)) + "_ms",
        Ratio(Ms(total.self_ns[l]), requests));
  }
  put("ledger.attributed_ratio",
      1.0 - Ratio(static_cast<double>(
                      total.self_ns[size_t(Layer::kUnattributed)]),
                  static_cast<double>(total.wall_ns)));
  put("trace.overhead_ratio",
      Ratio(static_cast<double>(total.wall_ns), untraced_busy) - 1.0);
  j.Close('}');

  // Bases of the ratios above, so each can be re-derived offline.
  j.Key("bases").Open('{');
  j.Key("requests").Num(requests);
  j.Key("writes").Num(writes);
  j.Key("query_requests").Num(query_requests);
  j.Key("executed_searches").Num(searches);
  j.Key("result_rows").Int(traced.result_rows);
  j.Key("traced_busy_ms").Num(Ms(total.wall_ns));
  j.Key("untraced_busy_ms").Num(untraced_busy / 1e6);
  j.Close('}');
}

void WriteLedger(Json& j, const Tracer& tracer) {
  auto row_json = [&](const LedgerRow& row) {
    j.Open('{');
    j.Key("requests").Int(row.requests);
    j.Key("wall_ms").Num(Ms(row.wall_ns));
    j.Key("self_ms").Open('{');
    for (size_t l = 0; l < kNumLayers; ++l) {
      j.Key(LayerName(static_cast<Layer>(l))).Num(Ms(row.self_ns[l]));
    }
    j.Close('}');
    j.Close('}');
  };
  LedgerRow total;
  j.Key("ledger").Open('{');
  j.Key("by_kind").Open('{');
  for (const auto& [kind, row] : tracer.ledger()) {
    j.Key(kind);
    row_json(row);
    total.Add(row);
  }
  j.Close('}');
  j.Key("total");
  row_json(total);
  j.Close('}');

  j.Key("spans").Open('{');
  for (const auto& [name, st] : tracer.span_stats()) {
    j.Key(name).Open('{');
    j.Key("count").Int(st.count);
    j.Key("total_ms").Num(Ms(st.total_ns));
    j.Close('}');
  }
  j.Close('}');
  j.Key("counter_deltas").Open('{');
  for (const auto& [name, v] : tracer.deltas().Totals()) j.Key(name).Int(v);
  j.Close('}');
}

void WriteSpans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  for (const SpanRecord& s : tracer.spans()) {
    out << "{\"request\":" << s.request << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"depth\":" << s.depth
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"dur_ns\":" << s.dur_ns << "}\n";
  }
}

Result<std::unique_ptr<World>> TimedSetup(const Args& args,
                                          std::vector<double>* setup_s) {
  auto world = BuildWorld(args.workload, args.seed, args.out_dir + "/work");
  if (world.ok()) setup_s->push_back((*world)->program_setup_s);
  return world;
}

/// Sets up a world in a child process and returns its program set-up time.
/// The child exits without tearing the world down, which saves the seconds
/// that destroying ~1 GB of site state takes, and the parent waits for it,
/// so only one world is ever resident. Call it before the process starts
/// any thread: a forked child keeps only the calling thread.
Result<double> SetupInChild(const Args& args) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    double s = -1;
    auto world = BuildWorld(args.workload, args.seed, args.out_dir + "/work");
    if (world.ok()) s = (*world)->program_setup_s;
    const bool sent = write(fds[1], &s, sizeof s) == sizeof s;
    _exit(sent && s >= 0 ? 0 : 1);
  }
  close(fds[1]);
  double s = -1;
  const bool got = read(fds[0], &s, sizeof s) == sizeof s;
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!got || s < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("set-up in a child process failed");
  }
  return s;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: site_bench --workload discover|recommend|"
                 "social_write --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 1;
  }
  std::filesystem::create_directories(args.out_dir);
  if (Status mix = CheckSocialWriteMix(); !mix.ok()) {
    std::fprintf(stderr, "%s\n", mix.ToString().c_str());
    return 1;
  }
  CheckLog checks;
  std::vector<double> setup_s;
  const double probe_ms = HostProbeMs();

  // Untraced pass; with --trace 0 the set-ups before the last are timed in
  // child processes, and the last world serves the run.
  const int child_setups = args.trace ? 0 : kUntracedSetups - 1;
  for (int i = 0; i < child_setups; ++i) {
    auto s = SetupInChild(args);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(*s);
  }
  std::unique_ptr<World> world;
  {
    auto built = TimedSetup(args, &setup_s);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    world = std::move(*built);
  }
  CheckAmericanAtSetup(*world, checks);
  CheckRefineAtSetup(*world, checks);
  Tracer off(false);
  // A traced run makes two passes, each over half the time.
  Args pass_args = args;
  if (args.trace) pass_args.seconds = args.seconds / 2;
  Pass untraced = RunPass(*world, pass_args, off, checks, 0);
  // Before recovery loads a second copy of the database.
  const double peak_rss_mb = PeakRssMb();
  // A traced run checks durability after its traced pass, which issues the
  // same requests.
  if (args.workload == Workload::kSocialWrite && !args.trace) {
    CheckDurability(*world, checks);
  }

  // Traced pass: a fresh world, the same requests.
  Tracer on(true);
  TrackProgramCounters(on.deltas());
  Pass traced;
  if (args.trace) {
    world.reset();
    auto built = TimedSetup(args, &setup_s);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    world = std::move(*built);
    traced = RunPass(*world, pass_args, on, checks, untraced.records.size());
    checks.Expect(traced.digest == untraced.digest,
                  "traced and untraced runs returned different responses");
    if (args.workload == Workload::kSocialWrite) {
      CheckDurability(*world, checks);
    }
    WriteSpans(args.out_dir + "/spans-" + WorkloadName(args.workload) +
                   "-seed" + std::to_string(args.seed) + ".jsonl",
               on);
  }
  const Pass& reported = args.trace ? traced : untraced;
  LatencySplit split = Split(reported, WindowOf(args.workload));

  Json j;
  j.Open('{');
  j.Key("workload").Str(WorkloadName(args.workload));
  j.Key("seed").Int(args.seed);
  j.Key("trace").Int(args.trace ? 1 : 0);
  j.Key("seconds").Num(args.seconds);
  j.Key("host").Open('{');
  j.Key("hardware_threads").Int(std::thread::hardware_concurrency());
  j.Key("pool_workers").Int(cr::SharedThreadPool().num_threads());
  j.Key("compiler").Str(SITE_BENCH_COMPILER);
  j.Key("build_type").Str(SITE_BENCH_BUILD_TYPE);
  j.Key("probe_ms").Num(probe_ms);
  j.Close('}');
  j.Key("correct").Bool(checks.failures == 0);
  j.Key("checks").Int(checks.checks);
  j.Key("problems").Open('[');
  for (const std::string& p : checks.problems) j.Str(p);
  j.Close(']');
  j.Key("attempted").Int(reported.records.size());
  j.Key("failed").Int(split.failed);
  j.Key("digest").Str(Hex(reported.digest));
  j.Key("digest_prefix").Str(Hex(reported.prefix_digest));
  j.Key("digest_prefix_requests").Int(kDigestRequests);
  j.Key("setup_s").Open('[');
  for (double s : setup_s) j.Num(s);
  j.Close(']');
  j.Key("wall_s").Num(reported.wall_s);
  j.Key("busy_s").Num(split.busy_s);
  j.Key("mean_ops_per_s")
      .Num(static_cast<double>(split.all.size()) / split.busy_s);
  j.Key("throughput_windows").Int(split.window_ops.size());
  j.Key("writes").Int(split.writes);
  j.Key("latency_ms").Open('{');
  WriteLatency(j, "all", split.all);
  WriteLatency(j, "read", split.read);
  for (size_t c = 0; c < kNumClasses; ++c) {
    WriteLatency(j, ReqClassName(static_cast<ReqClass>(c)), split.by_class[c]);
  }
  j.Close('}');
  j.Key("latency_ms_by_kind").Open('{');
  for (const auto& [kind, ms] : split.by_kind) WriteLatency(j, kind, ms);
  j.Close('}');
  if (!args.trace) {
    j.Key("metrics").Open('{');
    j.Key("setup_s").Num(Quantile(setup_s, 0.5));
    // Median over windows: a few very heavy requests (a course page with
    // thousands of comments) move it less than they move the mean.
    j.Key("ops_per_s").Num(Quantile(split.window_ops, 0.5));
    j.Key("p50_ms").Num(Quantile(split.all, 0.5));
    j.Key("p90_ms").Num(Quantile(split.all, 0.9));
    j.Key("read_p90_ms").Num(Quantile(split.read, 0.9));
    j.Key("peak_rss_mb").Num(peak_rss_mb);
    j.Close('}');
  } else {
    WritePerLayer(j, on, traced, untraced, split);
    WriteLedger(j, on);
  }
  j.Close('}');
  std::error_code ec;
  std::filesystem::remove_all(args.out_dir + "/work", ec);
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  // Tearing down ~1 GB of site state takes seconds and checks nothing; the
  // OS reclaims it at exit, and the pool's workers end with the process.
  std::_Exit(0);
}

}  // namespace
}  // namespace sitebench

int main(int argc, char** argv) { return sitebench::Main(argc, argv); }
