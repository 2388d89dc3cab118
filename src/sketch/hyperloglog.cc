#include "sketch/hyperloglog.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace habit::sketch {

namespace {

double AlphaM(size_t m) {
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

struct Register {
  uint64_t index;
  int rank;
};

Register ToRegister(uint64_t hash, int precision) {
  const uint64_t tail = hash << precision;
  // Rank = number of leading zeros in the remaining bits, + 1.
  return {hash >> (64 - precision),
          tail == 0 ? (64 - precision + 1) : (std::countl_zero(tail) + 1)};
}

// `sum` is the harmonic sum of 2^-register over all m registers, `zeros`
// the count of empty ones.
double FinishEstimate(size_t m, double sum, size_t zeros) {
  double estimate = AlphaM(m) * static_cast<double>(m) *
                    static_cast<double>(m) / sum;
  // Small-range (linear counting) correction.
  if (estimate <= 2.5 * static_cast<double>(m) && zeros > 0) {
    estimate = static_cast<double>(m) *
               std::log(static_cast<double>(m) / static_cast<double>(zeros));
  }
  return estimate;
}

}  // namespace

HyperLogLog::HyperLogLog(int precision)
    : precision_(std::clamp(precision, 4, 18)),
      registers_(1ULL << precision_, 0) {}

uint64_t HyperLogLog::Hash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void HyperLogLog::AddHash(uint64_t hash) {
  const Register r = ToRegister(hash, precision_);
  uint8_t& reg = registers_[r.index];
  reg = std::max<uint8_t>(reg, static_cast<uint8_t>(r.rank));
}

void HyperLogLog::AddInt(uint64_t key) { AddHash(Hash64(key)); }

void HyperLogLog::AddString(const std::string& key) {
  // FNV-1a, then avalanche.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  AddHash(Hash64(h));
}

double HyperLogLog::Estimate() const {
  const size_t m = registers_.size();
  double sum = 0.0;
  size_t zeros = 0;
  for (uint8_t r : registers_) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  return FinishEstimate(m, sum, zeros);
}

double HyperLogLog::EstimateSparse(std::span<uint64_t> hashes,
                                   int precision) {
  precision = std::clamp(precision, 4, 18);
  // Pack each hash as (index << 8 | rank): after sorting, the last entry of
  // each index run holds that register's value. Compact those to the front.
  for (uint64_t& h : hashes) {
    const Register r = ToRegister(h, precision);
    h = (r.index << 8) | static_cast<uint64_t>(r.rank);
  }
  std::sort(hashes.begin(), hashes.end());
  size_t touched = 0;
  int max_rank = 0;
  for (size_t i = 0; i < hashes.size(); ++i) {
    if (i + 1 < hashes.size() && (hashes[i + 1] >> 8) == (hashes[i] >> 8)) {
      continue;
    }
    hashes[touched++] = hashes[i];
    max_rank = std::max(max_rank, static_cast<int>(hashes[i] & 0xff));
  }
  const size_t m = size_t{1} << precision;
  // The dense loop adds 2^-r register by register. Every partial sum is a
  // multiple of 2^-max_rank no larger than m, so it is exact — and the sum
  // independent of order — while max_rank + precision + 1 <= 53. Past that,
  // replay the dense loop itself.
  if (max_rank + precision + 1 > 53) {
    HyperLogLog dense(precision);
    for (size_t i = 0; i < touched; ++i) {
      dense.registers_[hashes[i] >> 8] = static_cast<uint8_t>(hashes[i]);
    }
    return dense.Estimate();
  }
  double sum = static_cast<double>(m - touched);
  for (size_t i = 0; i < touched; ++i) {
    sum += std::ldexp(1.0, -static_cast<int>(hashes[i] & 0xff));
  }
  return FinishEstimate(m, sum, m - touched);
}

bool HyperLogLog::Merge(const HyperLogLog& other) {
  if (other.precision_ != precision_) return false;
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
  return true;
}

}  // namespace habit::sketch
