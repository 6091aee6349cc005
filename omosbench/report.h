// Statistics over the benchmark's own samples, and the result line.
#ifndef OMOSBENCH_REPORT_H_
#define OMOSBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace omosbench {

// Percentiles by nearest rank, p50/p99/sum in the values' unit.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  double sum = 0;
};
// Over every value given (small sets: set-up times, slice figures, updates).
Summary Summarize(std::vector<double> values);

// Host times in ns, bucketed log-linearly: exact below 512 ns, then 256
// buckets per power of two. A percentile is placed inside its bucket by
// rank, so it lies within 0.4% of the sample it stands for. The size is
// fixed, so the generator's memory does not grow with the number of
// invocations it records.
class Histogram {
 public:
  Histogram();
  void Add(uint32_t ns);
  void Merge(const Histogram& other);
  // n, and p50/p99/sum in microseconds.
  Summary SummaryUs() const;

 private:
  std::vector<uint32_t> counts_;
  uint64_t n_ = 0;
  uint64_t sum_ns_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The last stdout line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace omosbench

#endif  // OMOSBENCH_REPORT_H_
