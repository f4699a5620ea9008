#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("Quantile of no samples");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double TailPercentile(int64_t samples) {
  // Percentiles in tenths, so the "ten beyond" test is exact integer
  // arithmetic: samples * (100 - p) / 100 >= 10.
  static const int64_t kLadderTenths[] = {999, 990, 950, 900, 500};
  for (const int64_t tenths : kLadderTenths) {
    if (samples * (1000 - tenths) >= 10 * 1000) {
      return static_cast<double>(tenths) / 10.0;
    }
  }
  return 0.0;
}

namespace {

double LifetimePeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // value is in KiB
    }
  }
  return LifetimePeakRssMb();
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear.good()) return false;
  clear << "5";
  clear.flush();
  return clear.good();
}

void RunRounds(double seconds, int min_rounds,
               const std::function<void()>& round) {
  const Clock::time_point start = Clock::now();
  int rounds = 0;
  while (rounds < min_rounds || SecondsSince(start) < seconds) {
    round();
    ++rounds;
  }
}

void Ledger::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (notes_.size() < 8) notes_.push_back(what);
}

void Ledger::Count(int64_t attempted, int64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && notes_.size() < 8) notes_.push_back(what);
}

namespace {

void WriteString(const std::string& s, std::ostream& out) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void WriteNumber(double v, std::ostream& out) {
  if (!std::isfinite(v)) {
    out << "null";  // never a valid metric; run.py treats it as a failure
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

void WriteGroup(const std::map<std::string, Metric>& group,
                std::ostream& out) {
  out << '{';
  bool first = true;
  for (const auto& [name, metric] : group) {
    if (!first) out << ", ";
    first = false;
    WriteString(name, out);
    out << ": {\"value\": ";
    WriteNumber(metric.value, out);
    out << ", \"unit\": ";
    WriteString(metric.unit, out);
    out << ", \"samples\": " << metric.samples << '}';
  }
  out << '}';
}

}  // namespace

void WriteJson(const RunRecord& record, std::ostream& out) {
  out << "{\"workload\": ";
  WriteString(record.workload, out);
  out << ", \"seed\": " << record.seed
      << ", \"attempted\": " << record.ledger.attempted()
      << ", \"failed\": " << record.ledger.failed() << ", \"failures\": [";
  for (size_t i = 0; i < record.ledger.notes().size(); ++i) {
    if (i > 0) out << ", ";
    WriteString(record.ledger.notes()[i], out);
  }
  out << "], \"e2e\": ";
  WriteGroup(record.e2e, out);
  out << ", \"named\": ";
  WriteGroup(record.named, out);
  out << ", \"layers\": ";
  WriteGroup(record.layers, out);
  out << ", \"meta\": {";
  bool first = true;
  for (const auto& [key, value] : record.meta) {
    if (!first) out << ", ";
    first = false;
    WriteString(key, out);
    out << ": ";
    WriteString(value, out);
  }
  out << "}}\n";
}

}  // namespace perfbench
