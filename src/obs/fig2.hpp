/// \file fig2.hpp
/// \brief The Fig. 2 transition table as an incremental per-node walker —
///        the one source of truth for phase legality, shared by the
///        offline replay validator (`validate_fig2` / `urn_trace`) and the
///        online `InvariantMonitorSink`.
///
/// The legal walk (Fig. 2):
///
///     Z → A₀;   A₀ → C₀ | R;   R → A_{tc(κ₂+1)}, tc ≥ 1;
///     A_i → C_i | A_{i+1}  (i > 0);   C_i terminal.
///
/// `Fig2Walker` consumes one node's events in stream order (`wake`, then
/// `advance` per kPhase event, `observe_decision` per kDecision event) and
/// reports each illegality as a human-readable description the moment it
/// happens, so a monitor can flag the offending (slot, node) online
/// instead of after the run.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace urn::obs {

/// Incremental Fig. 2 legality checker for a single node.
class Fig2Walker {
 public:
  /// \param kappa2 the run's κ₂; enables the R → A_{tc(κ₂+1)} lattice
  ///        check (pass 0 when κ₂ is unknown to skip it).
  explicit Fig2Walker(std::uint32_t kappa2 = 0) : kappa2_(kappa2) {}

  /// Record the node's wake slot (first wake wins; duplicates ignored).
  void wake(Slot s) {
    if (!woke_) {
      woke_ = true;
      wake_slot_ = s;
    }
  }

  /// Feed the next kPhase event.  Returns every violated rule as its own
  /// description (empty vector = the transition is legal).  The walker
  /// always advances to the new state, mirroring the offline validator:
  /// one illegal hop does not suppress checks on later hops.
  [[nodiscard]] std::vector<std::string> advance(const Event& e);

  /// Feed a kDecision event; checks color agreement against the decided
  /// transition (returns "" when consistent or no claim can be checked).
  [[nodiscard]] std::string observe_decision(const Event& e);

  [[nodiscard]] bool woke() const { return woke_; }
  [[nodiscard]] Slot wake_slot() const { return wake_slot_; }
  /// True once any phase transition has been consumed.
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool decided() const { return decided_; }
  /// The i of the decided C_i (-1 while undecided).
  [[nodiscard]] std::int32_t decided_color() const { return decided_color_; }
  /// Number of state-to-state hops checked (first entry excluded).
  [[nodiscard]] std::size_t transitions_checked() const {
    return transitions_checked_;
  }

 private:
  std::uint32_t kappa2_;
  bool woke_ = false;
  Slot wake_slot_ = -1;
  bool started_ = false;
  Event prev_;  ///< last phase event consumed (valid once started_)
  bool decided_ = false;
  std::int32_t decided_color_ = -1;
  /// Color claimed by a kDecision event that arrived before any decided
  /// transition (-1 = none pending).
  std::int32_t pending_decision_color_ = -1;
  std::size_t transitions_checked_ = 0;
};

}  // namespace urn::obs
