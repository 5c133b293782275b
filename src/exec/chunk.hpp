/// \file chunk.hpp
/// \brief Deterministic partition of a trial index space into ordered
///        chunks.
///
/// The parallel trial executor never lets scheduling decide *what* work
/// exists — only *who* runs it.  `chunk_plan` cuts [0, trials) into
/// consecutive half-open ranges purely from (trials, chunk); workers then
/// claim whole chunks dynamically, and per-chunk partial aggregates are
/// reduced in chunk order.  Because the plan is a pure function of its
/// inputs and the reduction order is the chunk order, results are
/// bit-identical to a serial loop for every thread count.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace urn::exec {

/// Half-open range [begin, end) of trial indices.
struct TrialRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool operator==(const TrialRange&) const = default;
};

/// Largest explicit jobs request: each worker beyond the caller is an OS
/// thread, so a request is bounded before any thread starts.  CLIs check
/// it first to print a clean error.
inline constexpr std::size_t kMaxJobs = 256;

/// Resolve a jobs request: 0 means "all hardware threads"; the result is
/// always at least 1.  Throws `CheckError` when `jobs > kMaxJobs` (a
/// Release-build check).
[[nodiscard]] std::size_t resolve_jobs(std::size_t jobs);

/// Default trials-per-chunk for a (trials, jobs) workload: several chunks
/// per worker for load balance, never 0.  Only wall-clock behavior — not
/// results — depends on this choice.
[[nodiscard]] std::size_t default_chunk(std::size_t trials,
                                        std::size_t jobs);

/// Cut [0, trials) into consecutive chunks of `chunk` trials (the last
/// chunk may be shorter).  Every index appears in exactly one range, in
/// increasing order.  \pre chunk > 0 unless trials == 0.
[[nodiscard]] std::vector<TrialRange> chunk_plan(std::size_t trials,
                                                 std::size_t chunk);

/// Canonical per-trial label for artifact paths produced under the
/// parallel executor (postmortem bundle subdirectories, per-trial logs):
/// "trial0007" — zero-padded to four digits so lexicographic order is
/// trial order for any realistic trial count.
[[nodiscard]] std::string trial_tag(std::size_t trial);

}  // namespace urn::exec
