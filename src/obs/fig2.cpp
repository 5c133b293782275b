#include "obs/fig2.hpp"

#include <sstream>

namespace urn::obs {

namespace {

[[nodiscard]] bool is_verify(const Event& e) {
  return e.phase == static_cast<std::uint8_t>(PhaseCode::kVerify);
}
[[nodiscard]] bool is_request(const Event& e) {
  return e.phase == static_cast<std::uint8_t>(PhaseCode::kRequest);
}
[[nodiscard]] bool is_decided(const Event& e) {
  return e.phase == static_cast<std::uint8_t>(PhaseCode::kDecided);
}

[[nodiscard]] std::string describe(const Event& e) {
  std::ostringstream os;
  os << phase_name(e.phase);
  if (!is_request(e)) os << "(" << e.color << ")";
  return std::move(os).str();
}

}  // namespace

std::vector<std::string> Fig2Walker::advance(const Event& e) {
  std::vector<std::string> errors;

  if (!started_) {
    started_ = true;
    if (!is_verify(e) || e.color != 0) {
      errors.push_back("first transition is " + describe(e) +
                       ", expected verify(0) [Z -> A0]");
    }
    if (woke_ && e.slot < wake_slot_) {
      errors.push_back("entered A0 before the wake event");
    }
  } else {
    const Event& a = prev_;
    const Event& b = e;
    ++transitions_checked_;
    if (b.slot < a.slot) {
      errors.push_back("transition slots go backwards");
    }
    if (is_decided(a)) {
      errors.push_back("left terminal state " + describe(a) + " for " +
                       describe(b));
    } else if (is_verify(a) && a.color == 0) {
      // A0 -> C0 | R.
      const bool to_leader = is_decided(b) && b.color == 0;
      if (!to_leader && !is_request(b)) {
        errors.push_back("illegal A0 exit to " + describe(b) +
                         " (want decided(0) or request)");
      }
    } else if (is_request(a)) {
      // R -> A_{tc(k2+1)}, tc >= 1.
      if (!is_verify(b) || b.color <= 0) {
        errors.push_back("illegal R exit to " + describe(b) +
                         " (want verify(i), i > 0)");
      } else if (kappa2_ > 0 &&
                 b.color % (static_cast<std::int32_t>(kappa2_) + 1) != 0) {
        errors.push_back("R exit color " + std::to_string(b.color) +
                         " not a multiple of kappa2+1");
      }
    } else {
      // A_i (i > 0) -> C_i | A_{i+1}.
      if (is_decided(b)) {
        if (b.color != a.color) {
          errors.push_back("decided color " + std::to_string(b.color) +
                           " from verify(" + std::to_string(a.color) + ")");
        }
      } else if (!is_verify(b) || b.color != a.color + 1) {
        errors.push_back("illegal A_i exit to " + describe(b) + " from " +
                         describe(a));
      }
    }
  }

  if (is_decided(e) && !decided_) {
    decided_ = true;
    decided_color_ = e.color;
    if (pending_decision_color_ >= 0 &&
        pending_decision_color_ != decided_color_) {
      errors.push_back(
          "decision event color disagrees with the final decided "
          "transition");
    }
  }
  prev_ = e;
  return errors;
}

std::string Fig2Walker::observe_decision(const Event& e) {
  if (e.color < 0) return {};  // engine-level decision events carry no claim
  if (decided_) {
    if (e.color != decided_color_) {
      return "decision event color disagrees with the final decided "
             "transition";
    }
    return {};
  }
  pending_decision_color_ = e.color;
  return {};
}

}  // namespace urn::obs
