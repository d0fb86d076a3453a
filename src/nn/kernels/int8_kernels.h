// Hand-vectorized int8 GEMM for the quantized head, one body per build.
//
// The paper ships its YOLOv5 detector through ncnn's int8 conversion
// because on-device inference lives or dies on the quantized inner loop.
// This directory is the analogous move for our QuantizedMlp: an AVX2
// dot-product body (vpmaddubsw/vpmaddwd) next to a portable scalar body.
// The compile target picks the one QuantizedMlp::forwardBatch runs, the
// way it picks the fp32 head's vector width (src/nn/mlp.cpp): the AVX2
// body when the compiler targets AVX2 (the default -march=native on an
// AVX2 host), the scalar body otherwise. There is no runtime dispatch.
// The scalar body is compiled into every build: it is the served body
// without AVX2, and the reference the parity test and the hot-path bench
// compare the AVX2 body with in the same binary.
//
// Bit-equality contract. The int8 path accumulates dot products in exact
// int32 arithmetic, so both bodies compute the same accumulator no matter
// how the multiplies are grouped — unlike fp32, reassociation is free.
// The float stages around the core are kept bit-equal by construction:
//
//  * activation quantize: round(x / scale) uses an exact SIMD emulation
//    of std::round's half-away-from-zero (trunc + |frac| >= 0.5 step;
//    x - trunc(x) is exact in IEEE floats), the same divps as the scalar
//    division, and the same +-127 clamp;
//  * dequant epilogue: float(acc) * dequantScale + bias evaluates the
//    identical mul-then-add sequence (no FMA in either body), and ReLU is
//    a sign-exact `sum < 0 ? 0 : sum` blend, not max(sum, 0) — maxps
//    would flip the sign of a -0.0 sum.
//
// Both bodies therefore produce byte-identical outputs, so a build
// without AVX2 serves the same detections and digests, only slower.
// tests/nn_test.cpp MlpBatchTest.* enforces this.
//
// Layout contract. Activations are quantized into a row-major int8
// matrix whose rows are padded to kInt8KernelPad bytes with zeros, and
// QuantizedLayer pre-packs its weights the same way. Zero padding
// contributes exactly zero to every int32 dot product, so ragged inSize
// (1, width-1, width+1, anything) is handled inside the kernel with
// full-width vector loops — no wholesale fallback to scalar. Ragged
// outSize takes a narrow epilogue; ragged batch is just the row loop.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace darpa::nn::kernels {

/// Row padding (bytes) for quantized activations and packed weights.
/// 32 = one AVX2 register; the scalar body is indifferent. Padding bytes
/// are zero, contributing nothing to the exact int32 accumulation.
inline constexpr int kInt8KernelPad = 32;

/// Rounds `n` up to the kernel row padding.
[[nodiscard]] inline int padInt8RowSize(int n) {
  return (n + kInt8KernelPad - 1) / kInt8KernelPad * kInt8KernelPad;
}

/// The shared scalar quantizer — the definition of correctness for the
/// AVX2 body's vectorized equivalent (and its tail path).
[[nodiscard]] inline std::int8_t quantizeOne(float x, float scale) {
  const float q = std::round(x / scale);
  return static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
}

/// The exact dequant+activation epilogue both bodies evaluate: cast,
/// multiply, add (never fused), then a sign-exact ReLU compare.
[[nodiscard]] inline float int8Epilogue(std::int32_t acc, float dequantScale,
                                        float bias, bool relu) {
  const float sum = static_cast<float>(acc) * dequantScale + bias;
  return relu && sum < 0.0f ? 0.0f : sum;
}

/// Quantizes `rows` rows of `inSize` floats (contiguous, stride inSize)
/// into row-major int8 with row stride `rowStride` (>= inSize, a multiple
/// of kInt8KernelPad); bytes [inSize, rowStride) of each row are zeroed.
void quantizeRowsScalar(const float* in, int rows, int inSize, int rowStride,
                        float scale, std::int8_t* out);

/// out[n][j] = relu?(float(sum_i act[n][i] * weights[j][i]) * dequantScale
///             + bias[j]) over `rowStride`-wide zero-padded int8 rows.
/// `out` is row-major rows x outSize (unpadded).
void gemmScalar(const std::int8_t* act, const std::int8_t* weights,
                const float* bias, float dequantScale, int rows, int rowStride,
                int outSize, bool relu, float* out);

#ifdef __AVX2__
/// AVX2 bodies of quantizeRowsScalar and gemmScalar, bit-equal to them.
void quantizeRowsAvx2(const float* in, int rows, int inSize, int rowStride,
                      float scale, std::int8_t* out);
void gemmAvx2(const std::int8_t* act, const std::int8_t* weights,
              const float* bias, float dequantScale, int rows, int rowStride,
              int outSize, bool relu, float* out);

/// Name of the body QuantizedMlp::forwardBatch runs in this build.
inline constexpr char kCompiledInt8Body[] = "avx2";
#else
inline constexpr char kCompiledInt8Body[] = "scalar";
#endif

}  // namespace darpa::nn::kernels
