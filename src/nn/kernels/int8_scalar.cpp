// Scalar int8 body — the semantic ground truth the AVX2 body is bit-equal
// to, and the body a build without AVX2 serves. This is the original
// cache-blocked kernel reshaped onto the padded row-major layout: the
// int32 accumulation is exact, so the loop order change is invisible in
// the results; four independent accumulator chains per activation row
// keep the ILP the old batch-transposed tile bought, without the
// transpose.
#include "nn/kernels/int8_kernels.h"

namespace darpa::nn::kernels {

void quantizeRowsScalar(const float* in, int rows, int inSize, int rowStride,
                        float scale, std::int8_t* out) {
  for (int n = 0; n < rows; ++n) {
    const float* x = in + static_cast<std::size_t>(n) * inSize;
    std::int8_t* q = out + static_cast<std::size_t>(n) * rowStride;
    for (int i = 0; i < inSize; ++i) q[i] = quantizeOne(x[i], scale);
    for (int i = inSize; i < rowStride; ++i) q[i] = 0;
  }
}

void gemmScalar(const std::int8_t* act, const std::int8_t* weights,
                const float* bias, float dequantScale, int rows, int rowStride,
                int outSize, bool relu, float* out) {
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
      std::int32_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
      for (int i = 0; i < rowStride; ++i) {
        const std::int32_t ai = a[i];
        acc0 += ai * w0[i];
        acc1 += ai * w1[i];
        acc2 += ai * w2[i];
        acc3 += ai * w3[i];
      }
      o[j] = int8Epilogue(acc0, dequantScale, bias[j], relu);
      o[j + 1] = int8Epilogue(acc1, dequantScale, bias[j + 1], relu);
      o[j + 2] = int8Epilogue(acc2, dequantScale, bias[j + 2], relu);
      o[j + 3] = int8Epilogue(acc3, dequantScale, bias[j + 3], relu);
    }
    for (; j < outSize; ++j) {
      const std::int8_t* w =
          weights + static_cast<std::size_t>(j) * rowStride;
      std::int32_t acc = 0;
      for (int i = 0; i < rowStride; ++i) {
        acc += static_cast<std::int32_t>(a[i]) * w[i];
      }
      o[j] = int8Epilogue(acc, dequantScale, bias[j], relu);
    }
  }
}

}  // namespace darpa::nn::kernels
