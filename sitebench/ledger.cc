#include "ledger.h"

#include <algorithm>
#include <chrono>

namespace sitebench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSearch:
      return "search";
    case Layer::kDataCloud:
      return "data_cloud";
    case Layer::kSocial:
      return "social";
    case Layer::kPlanner:
      return "planner";
    case Layer::kAnalysis:
      return "analysis";
    case Layer::kFlexRecs:
      return "flexrecs";
    case Layer::kQuery:
      return "query";
    case Layer::kStorage:
      return "storage";
    case Layer::kUnattributed:
      return "unattributed";
  }
  return "?";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void LedgerRow::Add(const LedgerRow& other) {
  requests += other.requests;
  wall_ns += other.wall_ns;
  for (size_t i = 0; i < kNumLayers; ++i) self_ns[i] += other.self_ns[i];
}

void CounterDeltas::TrackCounter(const std::string& name) {
  Source s;
  s.name = name;
  s.counter = courserank::obs::MetricsRegistry::Default().GetCounter(name);
  sources_.push_back(s);
}

void CounterDeltas::TrackHistogram(const std::string& name) {
  Source s;
  s.name = name;
  s.hist = courserank::obs::MetricsRegistry::Default().GetHistogram(name);
  sources_.push_back(s);
}

void CounterDeltas::Begin() {
  for (Source& s : sources_) {
    if (s.counter != nullptr) {
      s.start_value = s.counter->value();
    } else {
      s.start_value = s.hist->sum();
      s.start_count = s.hist->count();
    }
  }
}

void CounterDeltas::End() {
  for (Source& s : sources_) {
    if (s.counter != nullptr) {
      s.total_value += s.counter->value() - s.start_value;
    } else {
      s.total_value += s.hist->sum() - s.start_value;
      s.total_count += s.hist->count() - s.start_count;
    }
  }
}

const CounterDeltas::Source* CounterDeltas::Find(
    const std::string& name) const {
  for (const Source& s : sources_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

uint64_t CounterDeltas::counter(const std::string& name) const {
  const Source* s = Find(name);
  return s == nullptr ? 0 : s->total_value;
}

uint64_t CounterDeltas::hist_sum(const std::string& name) const {
  return counter(name);
}

std::map<std::string, uint64_t> CounterDeltas::Totals() const {
  std::map<std::string, uint64_t> out;
  for (const Source& s : sources_) {
    if (s.counter != nullptr) {
      out[s.name] = s.total_value;
    } else {
      out[s.name + "_sum"] = s.total_value;
      out[s.name + "_count"] = s.total_count;
    }
  }
  return out;
}

std::map<std::string, LedgerRow> Tracer::ledger() const {
  std::map<std::string, LedgerRow> out;
  for (const auto& [kind, row] : ledger_) out[kind].Add(row);
  return out;
}

std::map<std::string, SpanStat> Tracer::span_stats() const {
  std::map<std::string, SpanStat> out;
  for (const auto& [name, st] : stats_) {
    out[name].count += st.count;
    out[name].total_ns += st.total_ns;
  }
  return out;
}

void Tracer::BeginRequest(const char* kind, uint64_t start_ns) {
  if (!enabled_) return;
  ++request_id_;
  kind_ = kind;
  request_start_ = start_ns;
  request_child_ns_ = 0;
  span_seq_ = 0;
  current_ = LedgerRow{};
  deltas_.Begin();
}

void Tracer::EndRequest(uint64_t end_ns) {
  if (!enabled_) return;
  deltas_.End();
  uint64_t wall = end_ns - request_start_;
  current_.requests = 1;
  current_.wall_ns = wall;
  Book(Layer::kUnattributed, wall - std::min(wall, request_child_ns_));
  ledger_[kind_].Add(current_);
}

void Tracer::Book(Layer layer, uint64_t self_ns) {
  current_.self_ns[static_cast<size_t>(layer)] += self_ns;
}

void Tracer::Open(Layer layer, const char* name,
                  const courserank::obs::Histogram* carve, Layer carve_layer,
                  const char* carve_name) {
  uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(OpenSpan{++span_seq_, parent, layer, name, 0, 0, carve,
                            carve_layer, carve_name,
                            carve != nullptr ? carve->sum() : 0});
  stack_.back().start_ns = NowNs();
}

void Tracer::Close() {
  uint64_t end = NowNs();
  OpenSpan span = stack_.back();
  stack_.pop_back();
  uint64_t dur = end - span.start_ns;
  uint64_t self = dur - std::min(dur, span.child_ns);
  if (span.carve != nullptr) {
    uint64_t carved = std::min(self, span.carve->sum() - span.carve_start);
    self -= carved;
    Book(span.carve_layer, carved);
    SpanStat& cs = stats_[span.carve_name];
    ++cs.count;
    cs.total_ns += carved;
  }
  Book(span.layer, self);
  SpanStat& st = stats_[span.name];
  ++st.count;
  st.total_ns += dur;
  if (stack_.empty()) {
    request_child_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  spans_.push_back(SpanRecord{request_id_, span.id, span.parent,
                              static_cast<uint32_t>(stack_.size()), span.name,
                              span.start_ns - request_start_, dur});
}

}  // namespace sitebench
