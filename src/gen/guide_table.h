#ifndef GNNPART_GEN_GUIDE_TABLE_H_
#define GNNPART_GEN_GUIDE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gnnpart {

/// Weighted sampling by indexed search (Chen & Asau 1974; Devroye,
/// *Non-Uniform Random Variate Generation*, §III.2.4). Holds a
/// non-decreasing, non-negative cumulative-weight array `cum` of B entries
/// and a guide of B buckets, where
///
///   bucket(x) = min(B - 1, floor(x * (B / total))),  total = cum[B - 1].
///
/// guide[b] is the first index i with bucket(cum[i]) >= b. Find(u) returns
/// exactly min(lower_bound(cum, u), B - 1) — the same index a binary
/// search returns for the same draw — in O(1) expected time: the scan from
/// guide[bucket(u)] visits about one entry on average.
class GuideTable {
 public:
  /// `cum` must be non-empty, non-decreasing, >= 0 and hold fewer than
  /// 2^32 entries.
  explicit GuideTable(std::vector<double> cum);

  /// min(lower_bound(cum, u) - cum.begin(), size() - 1), for u >= 0.
  size_t Find(double u) const {
    size_t i = guide_[Bucket(u)];
    while (i < last_ && cum_[i] < u) ++i;
    return i;
  }

  /// cum[size() - 1]: the draw range of Find is [0, total()].
  double total() const { return cum_.back(); }
  size_t size() const { return cum_.size(); }

 private:
  // The one bucket expression, shared by the guide build and Find, so that
  // x <= y implies Bucket(x) <= Bucket(y) under IEEE rounding.
  size_t Bucket(double x) const {
    const double t = x * scale_;
    return t < max_bucket_ ? static_cast<size_t>(t) : last_;
  }

  std::vector<double> cum_;
  std::vector<uint32_t> guide_;
  size_t last_;        // B - 1: the last index and the last bucket
  double max_bucket_;  // B - 1 as a double
  double scale_;       // B / total, or 0 when that is not finite
};

}  // namespace gnnpart

#endif  // GNNPART_GEN_GUIDE_TABLE_H_
