#include "omosbench/report.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace omosbench {

namespace {

constexpr int kSubBits = 8;
constexpr size_t kBuckets = (32 - kSubBits + 1) << kSubBits;

size_t Rank(double p, size_t n) {
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

double NearestRank(const std::vector<double>& sorted, double p) {
  return sorted[Rank(p, sorted.size()) - 1];
}

// Bucket e << kSubBits | sub holds [(256 + sub) << (e - 1), +2^(e-1)) for
// e >= 1, and the value sub itself for e == 0.
size_t Bucket(uint32_t ns) {
  if (ns < (1u << kSubBits)) {
    return ns;
  }
  int e = std::bit_width(ns) - kSubBits;
  return static_cast<size_t>(e) << kSubBits | ((ns >> (e - 1)) & ((1u << kSubBits) - 1));
}

// The value of the rank-th smallest sample when it is the k-th of the
// `count` samples in bucket `b`: spread evenly across the bucket.
double BucketValue(size_t b, uint64_t k, uint64_t count) {
  if (b < (2u << kSubBits)) {
    return static_cast<double>(b);  // one value per bucket
  }
  size_t e = b >> kSubBits;
  size_t sub = b & ((1u << kSubBits) - 1);
  double width = static_cast<double>(uint64_t{1} << (e - 1));
  double low = static_cast<double>((uint64_t{1} << kSubBits) + sub) * width;
  return low + width * (static_cast<double>(k) - 0.5) / static_cast<double>(count);
}

}  // namespace

Summary Summarize(std::vector<double> values) {
  Summary out;
  out.n = values.size();
  if (values.empty()) {
    return out;
  }
  std::sort(values.begin(), values.end());
  out.p50 = NearestRank(values, 50);
  out.p99 = NearestRank(values, 99);
  for (double v : values) {
    out.sum += v;
  }
  return out;
}

Histogram::Histogram() : counts_(kBuckets) {}

void Histogram::Add(uint32_t ns) {
  ++counts_[Bucket(ns)];
  ++n_;
  sum_ns_ += ns;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) {
    counts_[b] += other.counts_[b];
  }
  n_ += other.n_;
  sum_ns_ += other.sum_ns_;
}

Summary Histogram::SummaryUs() const {
  Summary out;
  out.n = n_;
  out.sum = static_cast<double>(sum_ns_) / 1e3;
  if (n_ == 0) {
    return out;
  }
  const size_t r50 = Rank(50, n_), r99 = Rank(99, n_);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets && seen < r99; ++b) {
    uint64_t before = seen;
    seen += counts_[b];
    if (before < r50 && seen >= r50) {
      out.p50 = BucketValue(b, r50 - before, counts_[b]) / 1e3;
    }
    if (seen >= r99) {
      out.p99 = BucketValue(b, r99 - before, counts_[b]) / 1e3;
    }
  }
  return out;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    // Non-finite values are not JSON; a metric that has none reads 0.
    double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.12g", value);
    out += i == 0 ? "" : ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace omosbench
