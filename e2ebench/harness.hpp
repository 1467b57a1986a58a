// Measurement plumbing of the end-to-end benchmark: sample statistics,
// metric naming and JSON output, and the span recorder of traced runs.
//
// Kept apart from the library on purpose: the numbers this file computes
// must not move when the library's own helpers (util/stats, ...) change,
// or a later change to them would read as a change in performance.
#pragma once

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Statistics

/// Percentile by linear interpolation between closest ranks (the method of
/// numpy's default and of Python's statistics.quantiles(method="inclusive")).
/// q in [0, 1]; an empty sample yields 0.
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= xs.size()) return xs.back();
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5);
}

/// Highest percentile in {0.999, 0.99, 0.9, 0.5} that has at least ten
/// samples beyond it in a sample of n (0.5 when none has).
inline double supportedPercentile(std::size_t n) {
  for (double q : {0.999, 0.99, 0.9})
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  return 0.5;
}

/// The q-percentile of each `windowS`-long window of a load's answers:
/// `lat[i]` was answered `at[i]` seconds after the load started. Windows
/// with fewer than `minCount` answers (the load's ragged end) are skipped.
inline std::vector<double> windowPercentiles(const std::vector<double>& lat,
                                             const std::vector<double>& at,
                                             double windowS, double q,
                                             std::size_t minCount) {
  std::map<long long, std::vector<double>> windows;
  for (std::size_t i = 0; i < lat.size() && i < at.size(); ++i)
    windows[static_cast<long long>(std::floor(at[i] / windowS))].push_back(lat[i]);
  std::vector<double> out;
  for (auto& [w, xs] : windows)
    if (xs.size() >= minCount) out.push_back(percentile(std::move(xs), q));
  return out;
}

/// Answers per second in each full `windowS`-long window of a load that ran
/// `elapsedS` seconds: answer i came `at[i]` seconds after the start.
inline std::vector<double> windowRates(const std::vector<double>& at,
                                       double windowS, double elapsedS) {
  std::vector<double> rate(static_cast<std::size_t>(elapsedS / windowS), 0.0);
  for (double t : at) {
    const auto w = static_cast<std::size_t>(t / windowS);
    if (w < rate.size()) rate[w] += 1.0 / windowS;
  }
  return rate;
}

// ---------------------------------------------------------------------------
// Metrics

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, '_', '.', '-'.
inline bool validMetricName(const std::string& s) {
  if (s.empty() || s.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(s[0]))) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

/// A unit: at most 16 characters of letters, digits, '_', '/', '%', '.', '-'.
inline bool validUnit(const std::string& s) {
  if (s.empty() || s.size() > 16) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// Named metrics in insertion order of first set.
class MetricSet {
 public:
  /// Records `name`; returns false (and records nothing) when the name or
  /// unit is malformed or the value is not finite.
  bool set(const std::string& name, double value, const std::string& unit) {
    if (!validMetricName(name) || !validUnit(unit) || !std::isfinite(value)) {
      bad_.push_back(name);
      return false;
    }
    if (!values_.count(name)) order_.push_back(name);
    values_[name] = Metric{value, unit};
    return true;
  }

  const std::vector<std::string>& names() const { return order_; }
  const Metric& at(const std::string& name) const { return values_.at(name); }
  bool has(const std::string& name) const { return values_.count(name) > 0; }
  /// Names rejected by set(): a harness bug, reported as a failed check.
  const std::vector<std::string>& rejected() const { return bad_; }

  /// `{"name": {"value": v, "unit": "u"}, ...}` restricted to `names`, in
  /// that order; names with no value are skipped.
  std::string json(const std::vector<std::string>& names) const {
    std::string out = "{";
    bool first = true;
    for (const std::string& n : names) {
      auto it = values_.find(n);
      if (it == values_.end()) continue;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.10g", it->second.value);
      out += (first ? "" : ", ") + std::string("\"") + n +
             "\": {\"value\": " + buf + ", \"unit\": \"" + it->second.unit +
             "\"}";
      first = false;
    }
    return out + "}";
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Metric> values_;
  std::vector<std::string> bad_;
};

// ---------------------------------------------------------------------------
// Spans

/// One timed call into a layer. `name` is "<layer>.<call>"; `parent` is the
/// index of the enclosing span (-1 at top level); spans of one client
/// request share `req` (0 = not a request).
struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int64_t parent = -1;
  std::uint64_t req = 0;
  std::uint32_t tid = 0;
};

/// In-memory span store. Disabled recorders cost one branch per call.
/// Thread-safe: begin/end take a mutex (callers on hot paths sample).
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  std::int64_t begin(const std::string& name, std::int64_t parent,
                     std::uint64_t req = 0, std::uint32_t tid = 0) {
    if (!enabled_) return -1;
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t, t, parent, req, tid});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void end(std::int64_t id) {
    if (id < 0) return;
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].endNs = t;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Layer of a span name: the text before the first '.', except that
/// "runtime.shard.*" is its own layer "runtime/shard".
inline std::string layerOf(const std::string& spanName) {
  if (spanName.rfind("runtime.shard.", 0) == 0) return "runtime/shard";
  return spanName.substr(0, spanName.find('.'));
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
inline std::vector<std::int64_t> selfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].push_back({s.startNs, s.endNs});
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].startNs, hi = spans[i].endNs;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, curLo = 0, curHi = -1;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= curHi) {
        curHi = std::max(curHi, b);
      } else {
        if (open) covered += curHi - curLo;
        curLo = a;
        curHi = b;
        open = true;
      }
    }
    if (open) covered += curHi - curLo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

struct LayerTime {
  std::size_t spans = 0;
  double totalS = 0;  // sum of span durations
  double selfS = 0;   // sum of span self times
};

inline std::map<std::string, LayerTime> layerTimes(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = selfTimesNs(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& lt = out[layerOf(spans[i].name)];
    ++lt.spans;
    lt.totalS += static_cast<double>(spans[i].endNs - spans[i].startNs) * 1e-9;
    lt.selfS += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

/// Chrome trace-event JSON ("X" complete events, microseconds).
inline bool writeChromeTrace(const std::vector<Span>& spans,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld, \"req\": %llu}}",
                 i ? ",\n" : "", s.name.c_str(), layerOf(s.name).c_str(),
                 static_cast<double>(s.startNs - t0) * 1e-3,
                 static_cast<double>(s.endNs - s.startNs) * 1e-3, s.tid, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.req));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
