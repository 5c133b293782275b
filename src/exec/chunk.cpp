#include "exec/chunk.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "support/check.hpp"

namespace urn::exec {

std::size_t resolve_jobs(std::size_t jobs) {
  URN_CHECK_MSG(jobs <= kMaxJobs,
                "jobs " << jobs << " exceeds the limit of " << kMaxJobs);
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t default_chunk(std::size_t trials, std::size_t jobs) {
  if (trials == 0) return 1;
  const std::size_t workers = std::max<std::size_t>(1, jobs);
  // Aim for ~4 chunks per worker so a slow chunk cannot straggle the
  // whole run, but never below one trial per chunk.
  return std::max<std::size_t>(1, trials / (4 * workers));
}

std::vector<TrialRange> chunk_plan(std::size_t trials, std::size_t chunk) {
  std::vector<TrialRange> plan;
  if (trials == 0) return plan;
  URN_CHECK(chunk > 0);
  plan.reserve((trials + chunk - 1) / chunk);
  for (std::size_t begin = 0; begin < trials; begin += chunk) {
    plan.push_back({begin, std::min(begin + chunk, trials)});
  }
  return plan;
}

std::string trial_tag(std::size_t trial) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "trial%04zu", trial);
  return buf;
}

}  // namespace urn::exec
