#include "report.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>

namespace serverbench {

double Percentile(const std::vector<double>& sorted, double p) {
  size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  return sorted[std::clamp<size_t>(rank, 1, n) - 1];
}

std::pair<size_t, size_t> PercentileWindow(size_t n, double p, double points) {
  double lo = std::max(0.0, (p - points) / 100.0 * n);
  double hi = std::min(static_cast<double>(n), (p + points) / 100.0 * n);
  return {static_cast<size_t>(std::floor(lo)),
          std::max(static_cast<size_t>(std::ceil(hi)),
                   static_cast<size_t>(std::floor(lo)) + 1)};
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  body_.append(buf, res.ptr);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  Key(key);
  body_ += value.str();
  return *this;
}

JsonObject& JsonObject::StrList(const std::string& key,
                                const std::vector<std::string>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    body_ += (i ? ", " : "") + JsonString(values[i]);
  }
  body_ += "]";
  return *this;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // Linux reports KiB.
}

int Nproc() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace serverbench
