// HyperLogLog cardinality sketch, backing APPROX_COUNT_DISTINCT — the
// aggregate the paper uses for distinct-vessel and distinct-trip counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace habit::sketch {

/// \brief HyperLogLog distinct-count estimator (Flajolet et al. 2007) with
/// linear-counting correction for small cardinalities.
///
/// The precision parameter p in [4, 18] gives 2^p one-byte registers and a
/// relative standard error of roughly 1.04 / sqrt(2^p) (~1.6% at p=12).
class HyperLogLog {
 public:
  /// Creates a sketch with 2^precision registers. Precision is clamped into
  /// [4, 18].
  explicit HyperLogLog(int precision = 12);

  /// Adds a pre-hashed 64-bit value.
  void AddHash(uint64_t hash);

  /// Adds a 64-bit integer key (hashed internally).
  void AddInt(uint64_t key);

  /// Adds a string key (hashed internally).
  void AddString(const std::string& key);

  /// Current cardinality estimate.
  double Estimate() const;

  /// The Estimate() of a sketch of `precision` (clamped like the
  /// constructor's) after AddHash of every element of `hashes`, computed
  /// from the touched registers alone — the sparse representation of
  /// Heule et al., "HyperLogLog in Practice" (EDBT 2013) — so a group of k
  /// keys costs O(k log k), not 2^p. The result has the same bits as the
  /// dense estimate. Overwrites `hashes`.
  static double EstimateSparse(std::span<uint64_t> hashes, int precision);

  /// Merges another sketch of the same precision (register-wise max).
  /// Sketches of different precision cannot be merged; returns false.
  bool Merge(const HyperLogLog& other);

  int precision() const { return precision_; }
  size_t SizeBytes() const { return registers_.size(); }

  /// 64-bit avalanche hash used for all keys (SplitMix64 finalizer).
  static uint64_t Hash64(uint64_t x);

 private:
  int precision_;
  std::vector<uint8_t> registers_;
};

}  // namespace habit::sketch
