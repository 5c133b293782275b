#include "support/mathutil.hpp"

#include <cmath>

#include "support/check.hpp"

namespace urn {

std::uint32_t ceil_log2(std::uint64_t n) {
  if (n <= 1) return 0;
  std::uint32_t bits = 0;
  std::uint64_t value = n - 1;
  while (value > 0) {
    value >>= 1;
    ++bits;
  }
  return bits;
}

double safe_log(std::uint64_t n) {
  if (n <= 2) return 1.0;
  return std::log(static_cast<double>(n));
}

std::int64_t ceil_mul_log(double factor, std::uint64_t n) {
  URN_CHECK(factor >= 0.0);
  const double value = factor * safe_log(n);
  URN_CHECK(value < 0x1p63);  // representable (also rejects inf)
  return static_cast<std::int64_t>(std::ceil(value));
}

double fact1_lower(double t, double n) {
  URN_CHECK(n >= 1.0 && std::abs(t) <= n);
  return std::exp(t) * (1.0 - t * t / n);
}

double fact1_upper(double t) { return std::exp(t); }

double fact1_middle(double t, double n) {
  URN_CHECK(n >= 1.0);
  return std::pow(1.0 + t / n, n);
}

}  // namespace urn
