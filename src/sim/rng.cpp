#include "sim/rng.hpp"

#include <cmath>
#include <numbers>

namespace pet::sim {

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  // Rejection to avoid modulo bias: accept r >= threshold = 2^64 mod n.
  // threshold < n, so any r >= n is accepted without computing it; the
  // second division runs only for the rare r < n. Same draws, same result.
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= n || r >= -n % n) return r % n;
  }
}

double Rng::exponential(double mean) {
  // 1 - uniform() is in (0, 1], so the log argument never hits zero.
  return -mean * std::log(1.0 - uniform());
}

double Rng::normal(double mean, double stddev) {
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * std::numbers::pi * u2);
  return mean + stddev * z;
}

std::uint64_t derive_seed(std::uint64_t parent, std::string_view stream_name) {
  // FNV-1a over the name, mixed with the parent through splitmix64.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : stream_name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  std::uint64_t state = parent ^ h;
  return splitmix64(state);
}

std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t index) {
  // Offset the index so child(0) differs from the parent's own stream and
  // from child("") by construction, then mix through splitmix64.
  std::uint64_t state = parent ^ (index + 0x9E3779B97F4A7C15ULL);
  return splitmix64(state);
}

}  // namespace pet::sim
