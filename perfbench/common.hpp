// Shared helpers of the perfbench binary: seeded input
// generation, timing, order statistics and a minimal JSON writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// SplitMix64. The benchmark owns its generator so that the inputs depend on
/// the seed alone, never on a generator inside the system under test.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0 (the modulo bias is < 2^-40 for the
  /// small bounds used here).
  uint64_t below(uint64_t bound) { return next() % bound; }

 private:
  uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in [0, 1].
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

/// Peak resident set size of this process (getrusage), in MB.
double peak_rss_mb();

/// Flat JSON object writer: numbers, booleans, strings and string lists.
class JsonObject {
 public:
  void number(const std::string& key, double value);
  void boolean(const std::string& key, bool value);
  void string(const std::string& key, const std::string& value);
  void strings(const std::string& key, const std::vector<std::string>& values);
  void raw(const std::string& key, const std::string& json);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_escape(const std::string& s);

}  // namespace perfbench
