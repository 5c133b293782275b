/// \file mathutil.hpp
/// \brief Small integer/real helpers shared across modules.
///
/// The paper's quantities are of the form ⌈c · Δ · log n⌉; `ceil_log2` and
/// `ceil_mul_log` centralize the rounding conventions (Sect. 5: "we consider
/// all non-integer values to be implicitly rounded to the next higher
/// integer").  `fact1_lower`/`fact1_upper` implement Fact 1 of the paper,
/// used by tests to validate the analytical constants.

#pragma once

#include <cstdint>

namespace urn {

/// ⌈log2(n)⌉ for n ≥ 1; returns 0 for n ≤ 1.
[[nodiscard]] std::uint32_t ceil_log2(std::uint64_t n);

/// Natural logarithm of n, with log(n ≤ 1) pinned to 1.0 so that the
/// paper's ⌈c·Δ·log n⌉ quantities never collapse to zero on toy inputs.
[[nodiscard]] double safe_log(std::uint64_t n);

/// ⌈factor · log n⌉ as a positive integer (the paper's rounding rule).
/// Throws urn::CheckError for a negative factor or a result past int64.
[[nodiscard]] std::int64_t ceil_mul_log(double factor, std::uint64_t n);

/// ⌈a / b⌉ for positive integers.
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a,
                                               std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Fact 1 (lower): e^t (1 - t²/n) ≤ (1 + t/n)^n, valid for n ≥ 1, |t| ≤ n.
[[nodiscard]] double fact1_lower(double t, double n);

/// Fact 1 (upper): (1 + t/n)^n ≤ e^t.
[[nodiscard]] double fact1_upper(double t);

/// (1 + t/n)^n evaluated directly; the quantity Fact 1 brackets.
[[nodiscard]] double fact1_middle(double t, double n);

}  // namespace urn
