#include "util/qsketch.h"

#include <climits>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/check.h"
#include "util/format.h"
#include "util/parse.h"

namespace ehdnn {
namespace {

// Values at or below this are folded into the zero bucket: latencies and
// energies this small are indistinguishable from zero at any accuracy the
// sketch offers, and ln(x) would otherwise produce extreme bin indices.
constexpr double kZeroThreshold = 1e-12;

}  // namespace

QuantileSketch::QuantileSketch(double rel_err) : rel_err_(rel_err) {
  check(rel_err > 0.0 && rel_err < 1.0, "qsketch: rel_err must be in (0, 1)");
  gamma_ = (1.0 + rel_err) / (1.0 - rel_err);
  log_gamma_ = std::log(gamma_);
}

int32_t QuantileSketch::bin_index(double x) const {
  return static_cast<int32_t>(std::ceil(std::log(x) / log_gamma_));
}

// Representative value of a bin: the geometric-mean-like midpoint
// 2*gamma^i / (gamma + 1), whose relative distance to any value in the bin
// (gamma^(i-1), gamma^i] is at most rel_err.
double QuantileSketch::bin_value(int32_t index) const {
  return 2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
}

void QuantileSketch::add(double x) {
  check(std::isfinite(x) && x >= 0.0, "qsketch: values must be finite and >= 0");
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  if (x <= kZeroThreshold) {
    ++zero_count_;
  } else {
    ++bins_[bin_index(x)];
  }
}

void QuantileSketch::merge(const QuantileSketch& other) {
  check(rel_err_ == other.rel_err_, "qsketch: cannot merge sketches with different rel_err");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  zero_count_ += other.zero_count_;
  for (const auto& [index, c] : other.bins_) bins_[index] += c;
}

double QuantileSketch::min() const {
  check(count_ > 0, "qsketch: min() on empty sketch");
  return min_;
}

double QuantileSketch::max() const {
  check(count_ > 0, "qsketch: max() on empty sketch");
  return max_;
}

double QuantileSketch::quantile(double q) const {
  check(count_ > 0, "qsketch: quantile() on empty sketch");
  check(q >= 0.0 && q <= 1.0, "qsketch: q must be in [0, 1]");
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Nearest-rank (1-based), matching the exact-percentile convention the
  // fleet report used before sketches.
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank < 1) rank = 1;
  std::uint64_t seen = zero_count_;
  double value = 0.0;
  if (rank > seen) {
    for (const auto& [index, c] : bins_) {
      seen += c;
      if (rank <= seen) {
        value = bin_value(index);
        break;
      }
    }
  }
  // Clamp into the exact observed range: q=0 / q=1 become exact, and bin
  // midpoints never stray outside the data.
  if (value < min_) value = min_;
  if (value > max_) value = max_;
  return value;
}

void QuantileSketch::serialize(std::ostream& os) const {
  os << "qsketch-v1 rel_err=" << g17(rel_err_) << " " << count_ << " " << zero_count_
     << " " << g17(count_ == 0 ? 0.0 : min_) << " "
     << g17(count_ == 0 ? 0.0 : max_);
  for (const auto& [index, c] : bins_) os << " " << index << ":" << c;
}

std::string QuantileSketch::serialize() const {
  std::ostringstream os;
  serialize(os);
  return os.str();
}

QuantileSketch QuantileSketch::deserialize(const std::string& line) {
  std::istringstream is(line);
  std::string magic, rel_field;
  is >> magic >> rel_field;
  check(magic == "qsketch-v1", "qsketch: bad magic in '" + line + "'");
  check(rel_field.rfind("rel_err=", 0) == 0, "qsketch: missing rel_err in '" + line + "'");
  const auto rel = parse_double(rel_field.substr(8));
  check(rel.has_value(), "qsketch: bad rel_err in '" + line + "'");
  QuantileSketch s(*rel);
  std::string count_s, zero_s, min_s, max_s;
  is >> count_s >> zero_s >> min_s >> max_s;
  check(!max_s.empty(), "qsketch: truncated header in '" + line + "'");
  const auto count = parse_integer(count_s, 0, LLONG_MAX);
  const auto zeros = parse_integer(zero_s, 0, LLONG_MAX);
  check(count.has_value() && zeros.has_value(), "qsketch: bad counts in '" + line + "'");
  s.count_ = static_cast<std::uint64_t>(*count);
  s.zero_count_ = static_cast<std::uint64_t>(*zeros);
  const auto mn = parse_double(min_s), mx = parse_double(max_s);
  check(mn.has_value() && mx.has_value(), "qsketch: bad min/max in '" + line + "'");
  s.min_ = *mn;
  s.max_ = *mx;
  std::string bin;
  std::uint64_t binned = 0;
  while (is >> bin) {
    const auto colon = bin.find(':');
    check(colon != std::string::npos, "qsketch: bad bin '" + bin + "'");
    const auto index = parse_integer(bin.substr(0, colon), INT32_MIN, INT32_MAX);
    const auto c = parse_integer(bin.substr(colon + 1), 1, LLONG_MAX);
    check(index.has_value() && c.has_value(), "qsketch: bad bin '" + bin + "'");
    check(s.bins_.find(static_cast<int32_t>(*index)) == s.bins_.end(),
          "qsketch: duplicate bin '" + bin + "'");
    s.bins_[static_cast<int32_t>(*index)] = static_cast<std::uint64_t>(*c);
    // Each term is below 2^63 and the running sum stays <= count_, so the
    // sum cannot wrap.
    binned += static_cast<std::uint64_t>(*c);
    check(binned <= s.count_, "qsketch: count mismatch in '" + line + "'");
  }
  check(s.zero_count_ + binned == s.count_, "qsketch: count mismatch in '" + line + "'");
  return s;
}

}  // namespace ehdnn
