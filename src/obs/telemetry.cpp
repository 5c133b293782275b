#include "obs/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "obs/json.hpp"

namespace urn::obs::telemetry {

namespace {

/// Binary search in a name-sorted pair vector.
template <typename V>
const V* find_in(const std::vector<std::pair<std::string, V>>& entries,
                 std::string_view name) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const std::pair<std::string, V>& e, std::string_view key) {
        return e.first < key;
      });
  if (it == entries.end() || it->first != name) return nullptr;
  return &it->second;
}

}  // namespace

// ---------------------------------------------------------------------------
// HistogramSnapshot

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based; q == 1 picks the last sample.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             q * static_cast<double>(count) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] >= rank) {
      const double lo = static_cast<double>(bucket_lower(b));
      const double hi = static_cast<double>(bucket_upper(b));
      // Interpolate within the bucket by the rank's position in it.
      const double frac = buckets[b] == 1
                              ? 0.0
                              : static_cast<double>(rank - seen - 1) /
                                    static_cast<double>(buckets[b] - 1);
      return lo + (hi - lo) * frac;
    }
    seen += buckets[b];
  }
  return static_cast<double>(max_bound());
}

std::uint64_t HistogramSnapshot::min_bound() const {
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] != 0) return bucket_lower(b);
  }
  return 0;
}

std::uint64_t HistogramSnapshot::max_bound() const {
  for (std::size_t b = kHistogramBuckets; b-- > 0;) {
    if (buckets[b] != 0) return bucket_upper(b);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Snapshot

const std::uint64_t* Snapshot::find_counter(std::string_view name) const {
  return find_in(counters, name);
}

const std::int64_t* Snapshot::find_gauge(std::string_view name) const {
  return find_in(gauges, name);
}

const HistogramSnapshot* Snapshot::find_histogram(
    std::string_view name) const {
  return find_in(histograms, name);
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_
      .emplace(std::piecewise_construct,
               std::forward_as_tuple(std::string(name)),
               std::forward_as_tuple())
      .first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_
      .emplace(std::piecewise_construct,
               std::forward_as_tuple(std::string(name)),
               std::forward_as_tuple())
      .first->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(std::piecewise_construct,
               std::forward_as_tuple(std::string(name)),
               std::forward_as_tuple())
      .first->second;
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  const std::lock_guard<std::mutex> lock(mu_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.counters.emplace_back(name, c.value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.gauges.emplace_back(name, g.value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.histograms.emplace_back(name, h.snapshot());
  }
  return out;
}

bool Registry::empty() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void Registry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

// ---------------------------------------------------------------------------
// Prometheus export

std::string prom_name(std::string_view name, std::string_view suffix) {
  std::string out = "urn_";
  out.reserve(out.size() + name.size() + suffix.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  out += suffix;
  return out;
}

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = prom_name(name, "_total");
    out += "# TYPE " + prom + " counter\n";
    out += prom + " ";
    json::append_uint(out, value);
    out += '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = prom_name(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    json::append_int(out, value);
    out += '\n';
  }
  for (const auto& [name, hist] : snap.histograms) {
    const std::string prom = prom_name(name);
    out += "# TYPE " + prom + " histogram\n";
    // Cumulative buckets; empty log buckets are elided (they add no
    // information — cumulative counts carry across gaps) but the +Inf
    // bucket is mandatory and always equals _count.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (hist.buckets[b] == 0) continue;
      cumulative += hist.buckets[b];
      out += prom + "_bucket{le=\"";
      json::append_g6(out, static_cast<double>(bucket_upper(b)));
      out += "\"} ";
      json::append_uint(out, cumulative);
      out += '\n';
    }
    out += prom + "_bucket{le=\"+Inf\"} ";
    json::append_uint(out, hist.count);
    out += '\n';
    out += prom + "_sum ";
    json::append_uint(out, hist.sum);
    out += '\n';
    out += prom + "_count ";
    json::append_uint(out, hist.count);
    out += '\n';
  }
  return out;
}

bool write_prometheus_file(const std::string& path, const Snapshot& snap) {
  const std::string body = to_prometheus(snap);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// JSONL export

std::string to_jsonl_line(const Snapshot& snap) {
  // %.6g (Doc::add(double)) is short enough to keep the stream readable
  // and precise enough for monitoring data.
  json::Doc doc;
  doc.add("telemetry.seq", snap.seq);
  doc.add("telemetry.wall_ms", snap.wall_ms);
  doc.add("telemetry.uptime_s", snap.uptime_s);
  for (const auto& [name, value] : snap.counters) doc.add(name, value);
  for (const auto& [name, value] : snap.gauges) doc.add(name, value);
  for (const auto& [name, hist] : snap.histograms) {
    doc.add(name + ".count", hist.count);
    doc.add(name + ".sum", hist.sum);
    doc.add(name + ".mean", hist.mean());
    doc.add(name + ".p50", hist.quantile(0.50));
    doc.add(name + ".p95", hist.quantile(0.95));
    doc.add(name + ".max", hist.max_bound());
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (hist.buckets[b] == 0) continue;
      doc.add(name + ".bucket" + std::to_string(b), hist.buckets[b]);
    }
  }
  return doc.render(json::Layout::kLine);
}

bool append_jsonl_file(const std::string& path, const Snapshot& snap) {
  const std::string line = to_jsonl_line(snap);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(line.data(), 1, line.size(), f) == line.size();
  // One snapshot per second at most — flush per line so tailers (urn_top)
  // see complete lines promptly.
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  return wrote && flushed && closed;
}

// ---------------------------------------------------------------------------
// Snapshotter

Snapshotter::Snapshotter(Registry& registry, SnapshotterOptions options)
    : registry_(registry),
      options_(std::move(options)),
      start_(std::chrono::steady_clock::now()) {
  if (options_.interval_ms == 0) options_.interval_ms = 1;
  if (!options_.jsonl_path.empty()) {
    if (std::FILE* f = std::fopen(options_.jsonl_path.c_str(), "wb")) {
      std::fclose(f);
    }
  }
  thread_ = std::thread([this] { loop(); });
}

Snapshotter::~Snapshotter() { stop(); }

void Snapshotter::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  take();  // final snapshot: the stream's last line is the final state
}

void Snapshotter::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    const bool woke = cv_.wait_for(
        lock, std::chrono::milliseconds(options_.interval_ms),
        [this] { return stopping_; });
    if (woke) break;
    lock.unlock();
    take();
    lock.lock();
  }
}

void Snapshotter::take() {
  Snapshot snap = registry_.snapshot();
  snap.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  snap.wall_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  snap.uptime_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  if (!options_.jsonl_path.empty()) {
    append_jsonl_file(options_.jsonl_path, snap);
  }
  if (!options_.prom_path.empty()) {
    write_prometheus_file(options_.prom_path, snap);
  }
  if (options_.on_snapshot) options_.on_snapshot(snap);
}

// ---------------------------------------------------------------------------
// PoolProbe

PoolProbe::PoolProbe(Registry& reg, std::size_t workers)
    : chunks_(&reg.counter("pool.chunks")),
      busy_ns_(&reg.counter("pool.busy.ns")),
      wait_ns_(&reg.counter("pool.wait.ns")),
      workers_(&reg.gauge("pool.workers")),
      wait_hist_(&reg.histogram("pool.chunk_wait.ns")) {
  workers_->set(static_cast<std::int64_t>(workers));
  per_worker_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::string prefix = "pool.worker" + std::to_string(w);
    per_worker_.push_back(PerWorker{&reg.counter(prefix + ".busy.ns"),
                                    &reg.counter(prefix + ".chunks")});
  }
}

void PoolProbe::worker_drained(std::size_t worker, std::uint64_t busy_ns,
                               std::uint64_t wait_ns, std::uint64_t chunks) {
  chunks_->add(chunks);
  busy_ns_->add(busy_ns);
  wait_ns_->add(wait_ns);
  wait_hist_->record(wait_ns);
  if (worker < per_worker_.size()) {
    per_worker_[worker].busy_ns->add(busy_ns);
    per_worker_[worker].chunks->add(chunks);
  }
}

}  // namespace urn::obs::telemetry
