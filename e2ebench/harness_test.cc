// Self-tests of the benchmark harness: percentiles, self times and metric
// names. Built and run by run.py before every benchmark run; exits nonzero
// on the first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace e2ebench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "harness_test FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void testPercentile() {
  expect(percentile({}, 0.5) == 0.0, "empty sample has percentile 0");
  expect(percentile({7}, 0.99) == 7.0, "single sample is every percentile");
  expect(near(median({3, 1, 2}), 2.0), "odd median is the middle value");
  expect(near(median({4, 1, 3, 2}), 2.5), "even median interpolates");
  // statistics.quantiles([1..10], n=4, method="inclusive") = 3.25, 5.5, 7.75
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  expect(near(percentile(ten, 0.25), 3.25), "p25 of 1..10 is 3.25");
  expect(near(percentile(ten, 0.75), 7.75), "p75 of 1..10 is 7.75");
  expect(near(percentile(ten, 0.0), 1.0) && near(percentile(ten, 1.0), 10.0),
         "p0 and p100 are the extremes");
  expect(near(percentile(ten, 2.0), 10.0), "q above 1 clamps");
  expect(supportedPercentile(1000) == 0.99, "p99 needs 1000 samples");
  expect(supportedPercentile(999) == 0.9, "999 samples support p90 only");
  expect(supportedPercentile(10000) == 0.999, "p999 needs 10000 samples");
  // Two full 1 s windows (latencies 1..4 and 10..40) and a 1-answer tail.
  const std::vector<double> lat = {1, 2, 3, 4, 10, 20, 30, 40, 99};
  const std::vector<double> at = {0.1, 0.2, 0.3, 0.9, 1.0, 1.1, 1.5, 1.9, 2.5};
  const std::vector<double> w = windowPercentiles(lat, at, 1.0, 0.5, 2);
  expect(w.size() == 2 && near(w[0], 2.5) && near(w[1], 25.0),
         "window percentiles bucket by answer time and skip short windows");
  const std::vector<double> r = windowRates(at, 1.0, 2.4);
  expect(r.size() == 2 && near(r[0], 4.0) && near(r[1], 4.0),
         "window rates count full windows only");
  expect(supportedPercentile(5) == 0.5, "tiny samples report the median");
}

Span span(const char* name, std::int64_t s, std::int64_t e,
          std::int64_t parent) {
  Span x;
  x.name = name;
  x.startNs = s;
  x.endNs = e;
  x.parent = parent;
  return x;
}

void testSelfTime() {
  // root [0,100) has children [10,30) and [20,50) (overlapping: union 40)
  // and [90,120) (clipped to the parent: 10); the grandchild [15,25) does
  // not count against the root.
  const std::vector<Span> spans = {
      span("query.build", 0, 100, -1), span("spanner.a", 10, 30, 0),
      span("apsp.b", 20, 50, 0),       span("query.save", 90, 120, 0),
      span("graph.c", 15, 25, 1),
  };
  const std::vector<std::int64_t> self = selfTimesNs(spans);
  expect(self[0] == 50, "self time subtracts the union of children");
  expect(self[1] == 10, "nested child is subtracted from its own parent");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 10,
         "leaf self time is its duration");
  const auto layers = layerTimes(spans);
  expect(layers.at("query").spans == 2, "layer groups spans by prefix");
  expect(near(layers.at("query").selfS, 80e-9), "layer self time sums spans");
  expect(layerOf("runtime.shard.shutdown") == "runtime/shard" &&
             layerOf("runtime.rounds") == "runtime" && layerOf("serve") == "serve",
         "layer names");
  expect(selfTimesNs({span("x.y", 5, 5, -1)})[0] == 0, "empty span");
}

void testMetricNames() {
  for (const char* ok : {"setup_s", "query.tier.spanner-cache.hits.floor",
                         "0abc", "a.b_c-d"})
    expect(validMetricName(ok), ok);
  for (const char* bad : {"", "_x", ".x", "-x", "a b", "a/b", "a\"b", "ü"})
    expect(!validMetricName(bad), bad);
  expect(validMetricName(std::string(64, 'a')), "64 characters are allowed");
  expect(!validMetricName(std::string(65, 'a')), "65 characters are not");
  for (const char* ok : {"s", "1/s", "%", "count", "MB", "fraction"})
    expect(validUnit(ok), ok);
  for (const char* bad : {"", "µs", "a b", "12345678901234567"})
    expect(!validUnit(bad), bad);

  MetricSet m;
  expect(m.set("a.b", 1.5, "s"), "valid metric accepted");
  expect(!m.set("a b", 1.0, "s"), "invalid name rejected");
  expect(!m.set("c", 0.0 / 0.0, "s"), "NaN rejected");
  expect(m.rejected().size() == 2, "rejections are reported");
  expect(m.json({"a.b", "missing"}) ==
             "{\"a.b\": {\"value\": 1.5, \"unit\": \"s\"}}",
         "json lists the requested metrics that exist");
}

}  // namespace

int main() {
  testPercentile();
  testSelfTime();
  testMetricNames();
  if (failures == 0) std::fprintf(stderr, "harness_test: all passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
