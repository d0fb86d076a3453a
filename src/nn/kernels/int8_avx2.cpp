// AVX2 int8 body: 32 int8 MACs per vpmaddubsw, widened exactly through
// vpmaddwd into int32 accumulators. Compiled only when the compiler
// targets AVX2; QuantizedMlp::forwardBatch then calls it.
//
// Signed x signed int8 through an unsigned x signed instruction: vpmaddubsw
// computes u8*s8 pairs. We feed |a| (fits u8: activations are clamped to
// +-127) against sign(w, a) so each product is exactly a*w, and the i16
// pair sums max out at 127*127*2 = 32258 < 32767 — no saturation, every
// intermediate exact, hence bit-equality with the scalar body for free.
#include "nn/kernels/int8_kernels.h"

#ifdef __AVX2__

#include <immintrin.h>

#include <cstring>

namespace darpa::nn::kernels {
namespace {

/// Exact std::round (half away from zero) for 8 floats. roundps only
/// offers nearest-even, so: t = trunc(q); step where |q - t| >= 0.5 by
/// +-1 with q's sign. q - trunc(q) is exact (Sterbenz for |q| >= 1,
/// trivially for |q| < 1), so the comparison is exact too.
inline __m256 roundHalfAway(__m256 q) {
  const __m256 signMask = _mm256_set1_ps(-0.0f);
  const __m256 t =
      _mm256_round_ps(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256 diff = _mm256_sub_ps(q, t);
  const __m256 absDiff = _mm256_andnot_ps(signMask, diff);
  const __m256 needStep =
      _mm256_cmp_ps(absDiff, _mm256_set1_ps(0.5f), _CMP_GE_OQ);
  const __m256 one = _mm256_and_ps(needStep, _mm256_set1_ps(1.0f));
  const __m256 step = _mm256_or_ps(one, _mm256_and_ps(q, signMask));
  return _mm256_add_ps(t, step);
}

/// Horizontal-sums four int32 accumulators into one __m128i lane each:
/// [sum(acc0), sum(acc1), sum(acc2), sum(acc3)].
inline __m128i hsum4x8(__m256i acc0, __m256i acc1, __m256i acc2,
                       __m256i acc3) {
  const __m256i h01 = _mm256_hadd_epi32(acc0, acc1);
  const __m256i h23 = _mm256_hadd_epi32(acc2, acc3);
  const __m256i h = _mm256_hadd_epi32(h01, h23);
  return _mm_add_epi32(_mm256_castsi256_si128(h),
                       _mm256_extracti128_si256(h, 1));
}

inline std::int32_t hsum8(__m256i acc) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// One weight row's contribution for 32 activation bytes.
inline __m256i dot32(__m256i absA, __m256i a, const std::int8_t* w,
                     __m256i acc, __m256i ones16) {
  const __m256i wv =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
  const __m256i signedW = _mm256_sign_epi8(wv, a);
  const __m256i pairs = _mm256_maddubs_epi16(absA, signedW);
  return _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones16));
}

}  // namespace

void quantizeRowsAvx2(const float* in, int rows, int inSize, int rowStride,
                      float scale, std::int8_t* out) {
  const __m256 vScale = _mm256_set1_ps(scale);
  const __m256 vLo = _mm256_set1_ps(-127.0f);
  const __m256 vHi = _mm256_set1_ps(127.0f);
  for (int n = 0; n < rows; ++n) {
    const float* x = in + static_cast<std::size_t>(n) * inSize;
    std::int8_t* q = out + static_cast<std::size_t>(n) * rowStride;
    int i = 0;
    for (; i + 8 <= inSize; i += 8) {
      const __m256 v = _mm256_div_ps(_mm256_loadu_ps(x + i), vScale);
      __m256 r = roundHalfAway(v);
      r = _mm256_min_ps(_mm256_max_ps(r, vLo), vHi);
      const __m256i qi = _mm256_cvttps_epi32(r);
      const __m128i packed16 = _mm_packs_epi32(
          _mm256_castsi256_si128(qi), _mm256_extracti128_si256(qi, 1));
      const __m128i packed8 = _mm_packs_epi16(packed16, packed16);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i), packed8);
    }
    for (; i < inSize; ++i) q[i] = quantizeOne(x[i], scale);
    if (i < rowStride) {
      std::memset(q + i, 0, static_cast<std::size_t>(rowStride - i));
    }
  }
}

void gemmAvx2(const std::int8_t* act, const std::int8_t* weights,
              const float* bias, float dequantScale, int rows, int rowStride,
              int outSize, bool relu, float* out) {
  const __m256i ones16 = _mm256_set1_epi16(1);
  const __m128 vDequant = _mm_set1_ps(dequantScale);
  const __m128 vZero = _mm_setzero_ps();
  for (int n = 0; n < rows; ++n) {
    const std::int8_t* a = act + static_cast<std::size_t>(n) * rowStride;
    float* o = out + static_cast<std::size_t>(n) * outSize;
    int j = 0;
    for (; j + 4 <= outSize; j += 4) {
      const std::int8_t* w0 =
          weights + static_cast<std::size_t>(j) * rowStride;
      const std::int8_t* w1 = w0 + rowStride;
      const std::int8_t* w2 = w1 + rowStride;
      const std::int8_t* w3 = w2 + rowStride;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (int i = 0; i < rowStride; i += 32) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i absA = _mm256_abs_epi8(av);
        acc0 = dot32(absA, av, w0 + i, acc0, ones16);
        acc1 = dot32(absA, av, w1 + i, acc1, ones16);
        acc2 = dot32(absA, av, w2 + i, acc2, ones16);
        acc3 = dot32(absA, av, w3 + i, acc3, ones16);
      }
      // Dequant epilogue, 4 outputs wide: cvt, mul, add — exactly the
      // scalar int8Epilogue sequence — then the sign-exact ReLU blend
      // (andnot keeps a -0.0 sum as -0.0, where maxps would not).
      __m128 f = _mm_cvtepi32_ps(hsum4x8(acc0, acc1, acc2, acc3));
      f = _mm_add_ps(_mm_mul_ps(f, vDequant), _mm_loadu_ps(bias + j));
      if (relu) f = _mm_andnot_ps(_mm_cmplt_ps(f, vZero), f);
      _mm_storeu_ps(o + j, f);
    }
    for (; j < outSize; ++j) {
      const std::int8_t* w =
          weights + static_cast<std::size_t>(j) * rowStride;
      __m256i acc = _mm256_setzero_si256();
      for (int i = 0; i < rowStride; i += 32) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        acc = dot32(_mm256_abs_epi8(av), av, w + i, acc, ones16);
      }
      o[j] = int8Epilogue(hsum8(acc), dequantScale, bias[j], relu);
    }
  }
}

}  // namespace darpa::nn::kernels

#endif  // __AVX2__
