#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "graph/coloring.hpp"

namespace urn::perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Samples samples(const std::vector<double>& xs) {
  Samples s;
  s.add_all(xs);
  return s;
}

Span::Span(obs::SpanSink* sink, const char* name, double* out)
    : sink_(sink), name_(name), out_(out), start_(Clock::now()) {
  if (sink_ != nullptr) start_ns_ = sink_->now_ns();
}

Span::~Span() {
  if (out_ != nullptr) *out_ = seconds_since(start_);
  if (sink_ != nullptr) {
    sink_->record(name_, kSpanTrack, start_ns_, sink_->now_ns() - start_ns_);
  }
}

std::vector<SpanStat> span_table(const std::vector<obs::SpanRecord>& spans) {
  std::vector<obs::SpanRecord> mine;
  for (const obs::SpanRecord& s : spans) {
    if (s.track == kSpanTrack) mine.push_back(s);
  }
  // Parents first: earlier start, then longer duration.
  std::sort(mine.begin(), mine.end(), [](const auto& a, const auto& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.dur_ns > b.dur_ns;
  });
  std::vector<std::uint64_t> covered(mine.size(), 0);
  std::vector<std::size_t> open;  // indices of spans enclosing the cursor
  for (std::size_t i = 0; i < mine.size(); ++i) {
    while (!open.empty() && mine[open.back()].start_ns +
                                    mine[open.back()].dur_ns <=
                                mine[i].start_ns) {
      open.pop_back();
    }
    if (!open.empty()) covered[open.back()] += mine[i].dur_ns;
    open.push_back(i);
  }
  std::map<std::string, SpanStat> by_name;
  std::vector<std::string> order;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    auto [it, fresh] = by_name.try_emplace(mine[i].name);
    if (fresh) order.push_back(mine[i].name);
    SpanStat& st = it->second;
    st.name = mine[i].name;
    ++st.count;
    st.total_s += static_cast<double>(mine[i].dur_ns) * 1e-9;
    st.self_s += static_cast<double>(mine[i].dur_ns - std::min(
                     covered[i], mine[i].dur_ns)) * 1e-9;
  }
  std::vector<SpanStat> out;
  for (const std::string& name : order) out.push_back(by_name[name]);
  return out;
}

void Report::metric(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    reject("metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::count(std::string name, double value) {
  counts.emplace_back(std::move(name), value);
}

void Report::op(const std::string& why) {
  ++attempted;
  if (!why.empty()) {
    ++failed;
    std::fprintf(stderr, "perfbench: op %llu failed: %s\n",
                 static_cast<unsigned long long>(attempted), why.c_str());
  }
}

void Report::reject(const std::string& why) {
  rejected = true;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

double peak_rss_mib() {
  // VmHWM is the high-water mark of this process image.  getrusage's
  // ru_maxrss is not: Linux carries the resident set the process had
  // before execve into it, so a Python parent's size leaks into it.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return std::nan("");  // Report::metric rejects it
}

std::int64_t color_bound(const core::Params& params) {
  const auto delta = static_cast<std::int64_t>(params.delta);
  const auto kappa2 = static_cast<std::int64_t>(params.kappa2);
  return delta * (kappa2 + 1) + kappa2;
}

std::string check_coloring(const graph::Graph& g, const core::Params& params,
                           const core::RunResult& run) {
  if (!run.all_decided) return "not every node decided within the budget";
  const graph::ColoringCheck check = graph::validate(g, run.colors);
  if (!check.complete) {
    return "coloring incomplete: node " +
           std::to_string(check.first_uncolored) + " has no color";
  }
  if (!check.correct) {
    return "coloring improper: neighbours " +
           std::to_string(check.conflict_u) + " and " +
           std::to_string(check.conflict_v) + " share a color";
  }
  if (graph::max_color(run.colors) > color_bound(params)) {
    return "Theorem 5: max color " +
           std::to_string(graph::max_color(run.colors)) +
           " exceeds Delta*(kappa2+1)+kappa2 = " +
           std::to_string(color_bound(params));
  }
  if (!core::check_locality(g, run.colors, params.kappa2).holds) {
    return "Theorem 4: locality bound phi_v <= (k2+1)*theta_v + k2 fails";
  }
  return {};
}

std::string same_run(const core::RunResult& a, const core::RunResult& b) {
  const radio::RunStats& x = a.medium;
  const radio::RunStats& y = b.medium;
  if (x.slots_run != y.slots_run) return "slots_run differs";
  if (x.transmissions != y.transmissions) return "transmissions differ";
  if (x.deliveries != y.deliveries) return "deliveries differ";
  if (x.collisions != y.collisions) return "collisions differ";
  if (x.dropped != y.dropped) return "drops differ";
  if (x.all_decided != y.all_decided) return "all_decided differs";
  if (a.colors != b.colors) return "per-node colors differ";
  if (a.decision_slot != b.decision_slot) return "decision slots differ";
  return {};
}

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace urn::perfbench
