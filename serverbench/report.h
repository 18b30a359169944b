#ifndef SERVERBENCH_REPORT_H_
#define SERVERBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace serverbench {

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
double Percentile(const std::vector<double>& sorted, double p);

/// Index range [first, last) of the samples within `points` percentile
/// points of percentile `p`, for the cost-class check.
std::pair<size_t, size_t> PercentileWindow(size_t n, double p, double points);

double Median(std::vector<double> values);

/// Minimal JSON object writer: keys in insertion order, doubles printed
/// in shortest round-trip form (every measured digit survives).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  JsonObject& StrList(const std::string& key,
                      const std::vector<std::string>& values);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonString(const std::string& s);

/// Process peak resident set size in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Machine facts recorded with every result: nproc, CPU model, and the
/// filesystem type holding `dir`.
int Nproc();
std::string CpuModel();
std::string FilesystemOf(const std::string& dir);

}  // namespace serverbench

#endif  // SERVERBENCH_REPORT_H_
