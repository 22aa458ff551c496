#include "gen/guide_table.h"

#include <cmath>
#include <utility>

namespace gnnpart {

GuideTable::GuideTable(std::vector<double> cum)
    : cum_(std::move(cum)),
      guide_(cum_.size()),
      last_(cum_.size() - 1),
      max_bucket_(static_cast<double>(last_)) {
  const double scale = static_cast<double>(cum_.size()) / cum_.back();
  // A zero or subnormal total puts every entry in bucket 0: the scan then
  // starts at index 0 and is still exact, only slower.
  scale_ = std::isfinite(scale) ? scale : 0.0;
  size_t i = 0;
  for (size_t b = 0; b < guide_.size(); ++b) {
    while (i < last_ && Bucket(cum_[i]) < b) ++i;
    guide_[b] = static_cast<uint32_t>(i);
  }
}

}  // namespace gnnpart
