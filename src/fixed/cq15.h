// Complex Q0.15 value, the element type of the LEA's complex FFT buffers.
//
// Stored interleaved (re, im) exactly as the LEA expects its working
// memory laid out; vector code treats a cq15 array as 2N q15 words.
#pragma once

#include "fixed/q15.h"

namespace ehdnn::fx {

struct cq15 {
  q15_t re = 0;
  q15_t im = 0;
};

// (a*b) complex multiply with fractional rounding; each component is a
// sum/difference of two Q30 products narrowed back to q15. The sums are
// 64-bit: (-1)(-1) + (-1)(-1) is 2^31, one past the q31 range.
inline cq15 cmul(cq15 a, cq15 b, SatStats* stats = nullptr) {
  const std::int64_t re = std::int64_t{mul_q30(a.re, b.re)} - mul_q30(a.im, b.im);
  const std::int64_t im = std::int64_t{mul_q30(a.re, b.im)} + mul_q30(a.im, b.re);
  const std::int64_t half = 1 << (kQ15Bits - 1);
  return {sat16((re + half) >> kQ15Bits, stats), sat16((im + half) >> kQ15Bits, stats)};
}

inline cq15 cadd_sat(cq15 a, cq15 b, SatStats* stats = nullptr) {
  return {add_sat(a.re, b.re, stats), add_sat(a.im, b.im, stats)};
}

inline cq15 csub_sat(cq15 a, cq15 b, SatStats* stats = nullptr) {
  return {sub_sat(a.re, b.re, stats), sub_sat(a.im, b.im, stats)};
}

inline cq15 conj(cq15 a) {
  // Note: -(-32768) saturates to 32767.
  const q31_t neg = -static_cast<q31_t>(a.im);
  return {a.re, sat16(neg)};
}

}  // namespace ehdnn::fx
