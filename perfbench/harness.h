#ifndef LBR_PERFBENCH_HARNESS_H_
#define LBR_PERFBENCH_HARNESS_H_

// Shared pieces of the paper-workload benchmark (perfbench/README.md):
// result digests for the oracle check, the span recorder of the traced run,
// summary statistics, the process memory probes and the JSON writers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/row.h"
#include "rdf/term.h"

namespace lbr::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Result digests ---------------------------------------------------------

/// splitmix64 finalizer: a bijective 64-bit mixer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a over the bytes, then mixed. Deterministic across builds, unlike
/// std::hash.
inline uint64_t StringHash(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return Mix64(h);
}

/// A result multiset's fingerprint: the row count plus the wrapping sum of
/// 64-bit row hashes. A sum, unlike an XOR, does not cancel duplicate rows.
/// Each row hash sums its cells keyed by variable name, so the digest is
/// independent of row order and of column order.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void Add(uint64_t row_hash) {
    ++rows;
    sum += row_hash;
  }
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
};

inline uint64_t CellHash(uint64_t var_hash, uint64_t value_hash) {
  return Mix64(var_hash ^ Mix64(value_hash));
}

inline std::vector<uint64_t> VarHashes(const std::vector<std::string>& vars) {
  std::vector<uint64_t> out;
  out.reserve(vars.size());
  for (const std::string& v : vars) out.push_back(StringHash(v));
  return out;
}

/// Row hash over the engine's global-ID bindings (all 64 bits; the
/// kNullBinding marker hashes like any other value). `var_hashes` parallels
/// the row's columns.
inline uint64_t RawRowHash(const std::vector<uint64_t>& var_hashes,
                           const RawRow& row) {
  uint64_t s = 0;
  for (size_t i = 0; i < row.size(); ++i) s += CellHash(var_hashes[i], row[i]);
  return Mix64(s);
}

inline uint64_t TermHash(const std::optional<Term>& t) {
  if (!t.has_value()) return 0x6e756c6c2d2d2d2dull;  // unbound (OPTIONAL miss)
  return StringHash(t->value) ^ Mix64(static_cast<uint64_t>(t->kind) + 1);
}

/// Digest of a decoded table (the oracle's and ExecuteBatch's form).
inline Digest TableDigest(const ResultTable& table) {
  std::vector<uint64_t> vh = VarHashes(table.var_names);
  Digest d;
  for (const auto& row : table.rows) {
    uint64_t s = 0;
    for (size_t i = 0; i < row.size(); ++i) s += CellHash(vh[i], TermHash(row[i]));
    d.Add(Mix64(s));
  }
  return d;
}

// --- Summary statistics -----------------------------------------------------

/// Nearest-rank quantile, p in (0, 1]. Returns 0 for an empty sample.
inline double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Geometric mean of positive values.
inline double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- Process memory ---------------------------------------------------------

/// Resets the kernel's peak-resident counter (VmHWM) to the current RSS, so
/// a later PeakRssMb() covers only what ran after this call.
inline void ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

/// VmHWM in MiB, or 0 when /proc is unavailable.
inline double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// --- JSON -------------------------------------------------------------------

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Every digit of a double, so repeated runs never read as identical by
/// rounding.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's result: the last line of standard output.
inline void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                            const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << JsonString(metrics[i].name) << ": {\"value\": "
       << JsonNumber(metrics[i].value)
       << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// --- Traced run -------------------------------------------------------------

/// One timed interval of the traced run. `derived` marks spans placed from
/// an engine-reported duration rather than observed start/end clocks: the
/// engine reports plan/init/prune as durations, so they are laid end to end
/// from the query span's start. Names point at static strings or at query
/// ids that outlive the trace.
struct Span {
  const char* name = "";
  double start = 0;  ///< Seconds since the trace epoch.
  double end = 0;
  int parent = -1;   ///< Index into the span list; -1 for a root.
  int query = -1;    ///< Query execution this span belongs to; -1 for none.
  const char* query_id = "";
  bool derived = false;
};

/// In-memory span list, written out once when the run ends.
class Trace {
 public:
  int Add(const char* name, double start, double end, int parent, int query,
          const char* query_id, bool derived) {
    spans_.push_back(
        Span{name, start, std::max(start, end), parent, query, query_id, derived});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Writes {"context", "summary", "spans"}; the summary gives, per span
  /// name, the count, total time and self time (duration minus the union
  /// of its direct children's intervals).
  bool Write(const std::string& path, const std::string& context_json) const {
    std::vector<std::vector<int>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(static_cast<int>(i));
    }
    struct Sum {
      uint64_t count = 0;
      double total = 0;
      double self = 0;
    };
    std::map<std::string, Sum> summary;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>> iv;
      for (int c : children[i]) iv.emplace_back(spans_[c].start, spans_[c].end);
      std::sort(iv.begin(), iv.end());
      double covered = 0, cur_lo = 0, cur_hi = -1;
      for (const auto& [lo, hi] : iv) {
        double a = std::max(lo, s.start), b = std::min(hi, s.end);
        if (b <= a) continue;
        if (a > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = a;
          cur_hi = b;
        } else {
          cur_hi = std::max(cur_hi, b);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      Sum& sum = summary[s.name];
      ++sum.count;
      sum.total += s.end - s.start;
      sum.self += std::max(0.0, s.end - s.start - covered);
    }

    std::ofstream out(path);
    if (!out) return false;
    out << "{\"context\": " << context_json << ",\n \"summary\": {";
    bool first = true;
    for (const auto& [name, sum] : summary) {
      out << (first ? "" : ", ") << "\n  " << JsonString(name)
          << ": {\"count\": " << sum.count
          << ", \"total_ms\": " << JsonNumber(sum.total * 1e3)
          << ", \"self_ms\": " << JsonNumber(sum.self * 1e3) << "}";
      first = false;
    }
    out << "},\n \"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "\n  {\"name\": " << JsonString(s.name)
          << ", \"start_us\": " << JsonNumber(s.start * 1e6)
          << ", \"end_us\": " << JsonNumber(s.end * 1e6)
          << ", \"parent\": " << s.parent << ", \"query\": " << s.query
          << ", \"query_id\": " << JsonString(s.query_id)
          << ", \"derived\": " << (s.derived ? "true" : "false") << "}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace lbr::perfbench

#endif  // LBR_PERFBENCH_HARNESS_H_
