/// \file profile.hpp
/// \brief Wall-clock profiling scopes and the runner's profile counters.
///
/// `profile_registry()` is a `telemetry::Registry` of its own.  The
/// runner adds its run counters there (`core.run_coloring.runs`, ...),
/// and a `ProfileScope` named `name` adds `<name>.ns` (wall-clock total)
/// and `<name>.calls` on destruction.  Bench binaries export it as the
/// `profile.*` keys of `BENCH_<name>.json`, whose counts the regression
/// diff gates exactly (it ignores `.ns`); keeping it apart from the live
/// `Registry::global()`, which binaries clear and snapshot threads
/// sample, keeps those keys to what the runner adds.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/telemetry.hpp"

namespace urn::obs {

/// The process-wide profile registry (see the file comment).
[[nodiscard]] inline telemetry::Registry& profile_registry() {
  static telemetry::Registry instance;
  return instance;
}

/// RAII wall-clock timer; records into the registry on destruction.
class ProfileScope {
 public:
  explicit ProfileScope(std::string_view name,
                        telemetry::Registry* registry = &profile_registry())
      : name_(name),
        registry_(registry),
        start_(std::chrono::steady_clock::now()) {}

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  ~ProfileScope() {
    registry_->counter(name_ + ".ns").add(elapsed_ns());
    registry_->counter(name_ + ".calls").add(1);
  }

  /// Nanoseconds since construction (scope still open).
  [[nodiscard]] std::uint64_t elapsed_ns() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  }

 private:
  std::string name_;
  telemetry::Registry* registry_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace urn::obs
