#include "bench_util.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "fedcons/util/mini_json.h"

namespace perfbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace


void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::sum() const noexcept {
  double s = 0.0;
  for (const double v : values_) s += v;
  return s;
}

double Samples::mean() const noexcept {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

Samples::Percentile Samples::percentile(double p) {
  Percentile out;
  out.count = values_.size();
  if (values_.empty()) return out;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(out.count));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(out.count))) - 1;
  out.value = values_[idx];
  out.beyond = count_above(out.value);
  return out;
}

std::size_t Samples::count_above(double v) {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  return static_cast<std::size_t>(
      values_.end() - std::upper_bound(values_.begin(), values_.end(), v));
}

double Samples::min() const noexcept {
  return values_.empty() ? 0.0
                         : *std::min_element(values_.begin(), values_.end());
}

WindowedSamples::WindowedSamples(Clock::time_point origin,
                                 Clock::time_point end, double window_s)
    : origin_(origin), window_s_(window_s) {
  const double span_s = us_between(origin, end) * 1e-6;
  std::size_t n = static_cast<std::size_t>(span_s / window_s);
  if (n == 0) {  // shorter than one window: a single window of the span
    n = 1;
    window_s_ = std::max(span_s, 1e-6);
  }
  windows_.resize(n);
}

void WindowedSamples::add(Clock::time_point at, double v) {
  const double offset_s = us_between(origin_, at) * 1e-6;
  if (offset_s < 0) return;
  const auto w = static_cast<std::size_t>(offset_s / window_s_);
  if (w < windows_.size()) windows_[w].add(v);
}

void WindowedSamples::append(const WindowedSamples& other) {
  if (windows_.size() < other.windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (std::size_t w = 0; w < other.windows_.size(); ++w) {
    windows_[w].append(other.windows_[w]);
  }
}

std::size_t WindowedSamples::count() const noexcept {
  std::size_t n = 0;
  for (const Samples& w : windows_) n += w.count();
  return n;
}

double WindowedSamples::mean() const noexcept {
  double sum = 0.0;
  for (const Samples& w : windows_) sum += w.sum();
  const std::size_t n = count();
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

Samples::Percentile WindowedSamples::percentile(double p) {
  Samples per_window;
  for (Samples& w : windows_) {
    const double beyond = static_cast<double>(w.count()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) per_window.add(w.percentile(p).value);
  }
  Samples::Percentile out;
  if (per_window.count() == 0) {
    Samples pooled;
    for (const Samples& w : windows_) pooled.append(w);
    return pooled.percentile(p);
  }
  out.value = per_window.percentile(10).value;
  for (Samples& w : windows_) {
    out.count += w.count();
    out.beyond += w.count_above(out.value);
  }
  return out;
}

double WindowedSamples::rate_per_s() const {
  std::size_t most = 0;
  for (const Samples& w : windows_) most = std::max(most, w.count());
  return static_cast<double>(most) / window_s_;
}

std::string WindowedSamples::rates_detail() const {
  std::string out = "fastest of " + std::to_string(windows_.size()) +
                    " windows:";
  for (const Samples& w : windows_) {
    out += ' ';
    out += number(static_cast<double>(w.count()) / window_s_);
  }
  return out;
}

void Report::add(std::string name, double value, std::string unit,
                 std::string detail) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(detail)});
}

void Report::add_percentile(std::string name, const Samples::Percentile& p,
                            std::string unit) {
  add(std::move(name), p.value, std::move(unit),
      "n=" + std::to_string(p.count) + " beyond=" + std::to_string(p.beyond));
}

void Report::stamp(std::string key, std::string value) {
  env.emplace_back(std::move(key), std::move(value));
}

void Report::print(std::ostream& out) const {
  out << "== perfbench " << workload << " ==\n";
  for (const auto& [key, value] : env) {
    out << "env." << key << " = " << value << "\n";
  }
  for (const Metric& m : metrics) {
    out << m.name << " = " << number(m.value) << " " << m.unit;
    if (!m.detail.empty()) out << "  [" << m.detail << "]";
    out << "\n";
  }
  const double failed_frac =
      attempted == 0 ? 0.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  out << "failed_frac = " << number(failed_frac) << " ratio  [attempted="
      << attempted << " failed=" << failed << " mismatches=" << mismatches
      << "]\n";
  for (const std::string& w : warnings) out << "WARNING: " << w << "\n";
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"workload\": \"" << fedcons::json_escape(workload)
     << "\", \"correct\": " << (mismatches == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << fedcons::json_escape(m.name)
       << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
       << fedcons::json_escape(m.unit) << "\"";
    if (!m.detail.empty()) {
      os << ", \"detail\": \"" << fedcons::json_escape(m.detail) << "\"";
    }
    os << "}";
  }
  os << "}, \"env\": {";
  for (std::size_t i = 0; i < env.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << fedcons::json_escape(env[i].first)
       << "\": \"" << fedcons::json_escape(env[i].second) << "\"";
  }
  os << "}, \"warnings\": [";
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << fedcons::json_escape(warnings[i])
       << "\"";
  }
  os << "]}";
  return os.str();
}

std::uint64_t SpanRecorder::next_id() noexcept {
  return (static_cast<std::uint64_t>(tid_) << 48) | ++counter_;
}

std::uint64_t SpanRecorder::record(const char* name, const char* category,
                                   Clock::time_point start,
                                   Clock::time_point end,
                                   std::uint64_t request_id,
                                   std::uint64_t parent_id) {
  if (!enabled_) return 0;
  const std::uint64_t id = next_id();
  record_with_id(id, name, category, start, end, request_id, parent_id);
  return id;
}

void SpanRecorder::record_with_id(std::uint64_t id, const char* name,
                                  const char* category,
                                  Clock::time_point start,
                                  Clock::time_point end,
                                  std::uint64_t request_id,
                                  std::uint64_t parent_id) {
  if (!enabled_) return;
  spans_.push_back(
      Span{name, category, start, end, id, parent_id, request_id, tid_});
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanRecorder*>& recorders) {
  Clock::time_point origin = Clock::time_point::max();
  for (const SpanRecorder* rec : recorders) {
    for (const Span& s : rec->spans()) origin = std::min(origin, s.start);
  }
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  for (const SpanRecorder* rec : recorders) {
    for (const Span& s : rec->spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"" << s.category
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
          << ", \"ts\": " << number(us_between(origin, s.start))
          << ", \"dur\": " << number(us_between(s.start, s.end))
          << ", \"args\": {\"span\": " << s.span_id
          << ", \"parent\": " << s.parent_id
          << ", \"id\": " << s.request_id << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

void Digest::bytes(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

double vm_hwm_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string mask_string(const cpu_set_t& mask) {
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask)) continue;
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &mask)) ++last;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
    if (last > cpu) {
      out += '-';
      out += std::to_string(last);
    }
    cpu = last;
  }
  return out;
}

}  // namespace perfbench
