#pragma once
// Small integer helpers shared by the response-time analysis, the
// encoder and the command-line tools. All arithmetic in the library is
// over signed 64-bit integers; helpers assert against overflow in debug
// builds.

#include <cassert>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace optalloc {

/// ceil(a / b) for a >= 0, b > 0 — the ceiling term of response-time
/// analysis (paper eq. 1). Written quotient-plus-remainder instead of the
/// usual (a + b - 1) / b so the numerator cannot overflow for any valid
/// input (the fixed-point iterations feed near-INT64_MAX iterates here).
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  assert(a >= 0 && b > 0);
  return a / b + (a % b != 0 ? 1 : 0);
}

/// Number of bits needed to represent v (v >= 0) in an unsigned binary
/// encoding; bits_for(0) == 1 so every variable has at least one bit.
constexpr int bits_for(std::int64_t v) {
  assert(v >= 0);
  int bits = 1;
  while ((std::int64_t{1} << bits) <= v) ++bits;
  return bits;
}

/// Overflow guard: true iff a*b fits in int64 (no UB on overflow).
inline bool mul_fits(std::int64_t a, std::int64_t b) {
  std::int64_t out;
  return !__builtin_mul_overflow(a, b, &out);
}

/// a + b, or nullopt when the sum leaves int64. The fixed-point iterations
/// of the response-time analysis accumulate through these so a diverging
/// interference sum surfaces as "no bound" instead of wrapping (signed
/// overflow is UB, and a wrapped negative response time would silently
/// pass every deadline check).
inline std::optional<std::int64_t> checked_add(std::int64_t a,
                                               std::int64_t b) {
  std::int64_t out;
  if (__builtin_add_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// a * b, or nullopt when the product leaves int64.
inline std::optional<std::int64_t> checked_mul(std::int64_t a,
                                               std::int64_t b) {
  std::int64_t out;
  if (__builtin_mul_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// The whole of `text` as a base-10 integer in [lo, hi]; nullopt for an
/// empty string, trailing junk ("4x"), overflow or a value out of range.
/// Command-line counts go through this instead of atoi, which reads "4x"
/// as 4 and garbage as 0.
inline std::optional<std::int64_t> parse_int(std::string_view text,
                                             std::int64_t lo,
                                             std::int64_t hi) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || stop != end || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

}  // namespace optalloc
