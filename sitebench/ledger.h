#ifndef SITEBENCH_LEDGER_H_
#define SITEBENCH_LEDGER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace sitebench {

/// The layers a request's wall time is split into. Every span the benchmark
/// opens around a call into the program names one of them; request time no
/// span covers (the benchmark's own glue) lands in kUnattributed.
enum class Layer : uint8_t {
  kSearch,
  kDataCloud,
  kSocial,
  kPlanner,
  kAnalysis,
  kFlexRecs,
  kQuery,
  kStorage,
  kUnattributed,
};
inline constexpr size_t kNumLayers = 9;

const char* LayerName(Layer layer);

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
uint64_t NowNs();

/// Calls and inclusive wall time of one span name.
struct SpanStat {
  uint64_t count = 0;
  uint64_t total_ns = 0;
};

/// Self time per layer for one group of requests. The layer columns sum to
/// wall_ns exactly: a span's self time is its duration minus its children,
/// and the request's own self time is the unattributed column.
struct LedgerRow {
  uint64_t requests = 0;
  uint64_t wall_ns = 0;
  std::array<uint64_t, kNumLayers> self_ns{};

  void Add(const LedgerRow& other);
};

/// One closed span, kept in memory and written out after the run.
struct SpanRecord {
  uint64_t request = 0;
  uint32_t id = 0;      ///< 1-based within its request, in opening order
  uint32_t parent = 0;  ///< id of the enclosing span; 0 = the request
  uint32_t depth = 0;
  const char* name = "";
  uint64_t start_ns = 0;  ///< relative to the start of its request
  uint64_t dur_ns = 0;
};

/// Exact deltas of program counters and of histogram `_sum`/`_count`
/// values from obs::MetricsRegistry, accumulated only while a request is
/// open — so output checks between requests never pollute them. Never
/// reads the log2 bucket quantiles.
class CounterDeltas {
 public:
  void TrackCounter(const std::string& name);
  void TrackHistogram(const std::string& name);

  void Begin();
  void End();

  /// Accumulated delta of a counter, or of a histogram's sum.
  uint64_t counter(const std::string& name) const;
  uint64_t hist_sum(const std::string& name) const;

  /// Every tracked value: counters by name, histograms as "<name>_sum"
  /// and "<name>_count".
  std::map<std::string, uint64_t> Totals() const;

 private:
  struct Source {
    std::string name;
    const courserank::obs::Counter* counter = nullptr;
    const courserank::obs::Histogram* hist = nullptr;
    uint64_t start_value = 0;
    uint64_t start_count = 0;
    uint64_t total_value = 0;  ///< counter value, or histogram sum
    uint64_t total_count = 0;  ///< histogram count
  };
  const Source* Find(const std::string& name) const;

  std::vector<Source> sources_;
};

/// Records spans placed in the benchmark's own code around each call into
/// a layer, and folds them into a per-request-kind ledger. When disabled
/// every call is one branch, so the untraced run pays nothing.
///
/// A span may name a program histogram to "carve": the increase of that
/// histogram's exact `_sum` while the span is open is booked as a derived
/// child (e.g. the WAL append time inside a RateCourse call goes to the
/// storage layer rather than to social). Single-threaded callers only — the
/// benchmark has one client thread, so every delta belongs to its span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// `kind` and every span name must outlive the tracer (string literals).
  void BeginRequest(const char* kind, uint64_t start_ns);
  void EndRequest(uint64_t end_ns);

  void Open(Layer layer, const char* name,
            const courserank::obs::Histogram* carve, Layer carve_layer,
            const char* carve_name);
  void Close();

  /// Ledger rows by request kind, and span totals by span name.
  std::map<std::string, LedgerRow> ledger() const;
  std::map<std::string, SpanStat> span_stats() const;
  const std::vector<SpanRecord>& spans() const { return spans_; }
  CounterDeltas& deltas() { return deltas_; }
  const CounterDeltas& deltas() const { return deltas_; }

 private:
  struct OpenSpan {
    uint32_t id;
    uint32_t parent;
    Layer layer;
    const char* name;
    uint64_t start_ns;
    uint64_t child_ns;
    const courserank::obs::Histogram* carve;
    Layer carve_layer;
    const char* carve_name;
    uint64_t carve_start;
  };

  void Book(Layer layer, uint64_t self_ns);

  bool enabled_;
  uint64_t request_id_ = 0;
  uint32_t span_seq_ = 0;  ///< spans opened in the current request
  const char* kind_ = "";
  uint64_t request_start_ = 0;
  uint64_t request_child_ns_ = 0;
  LedgerRow current_;
  std::vector<OpenSpan> stack_;
  // Kinds and span names are string literals, so the hot path keys by
  // pointer and never allocates.
  std::map<const char*, LedgerRow> ledger_;
  std::map<const char*, SpanStat> stats_;
  std::vector<SpanRecord> spans_;
  CounterDeltas deltas_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer, const char* name,
             const courserank::obs::Histogram* carve = nullptr,
             Layer carve_layer = Layer::kStorage,
             const char* carve_name = nullptr)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->Open(layer, name, carve, carve_layer, carve_name);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace sitebench

#endif  // SITEBENCH_LEDGER_H_
