// Post-training int8 quantization — the "ncnn port" of the reproduction.
//
// The paper converts the trained YOLOv5 model PyTorch → ONNX → ncnn,
// replacing redundant calculations with constants, to run on an ARM phone.
// This module performs the analogous transformation on our Mlp heads:
//
//  * weights: per-layer symmetric int8 (scale = max|w| / 127);
//  * activations: per-layer dynamic-range int8, scales calibrated by running
//    the float model over a calibration set and recording per-layer input
//    maxima;
//  * constant folding: the weight scale and input scale of a layer are
//    folded into a single per-layer dequantization multiplier at conversion
//    time, so the inference inner loop is pure int8*int8→int32 accumulation
//    followed by one multiply-add per output.
//
// The observable effect matches Table IV: a model ~4x smaller with a small
// (~1-2 %) F1 loss relative to the fp32 "server" model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/kernels/int8_kernels.h"
#include "nn/mlp.h"

namespace darpa::nn {

struct QuantizedLayer {
  int inSize = 0;
  int outSize = 0;
  std::vector<float> bias;           ///< Kept fp32 (as ncnn does).
  float inputScale = 1.0f;           ///< Activation quantization step.
  float dequantScale = 1.0f;         ///< Folded weightScale * inputScale.
  /// inSize rounded up to kernels::kInt8KernelPad — the row stride of
  /// packedWeights and of the quantized-activation scratch matrix.
  int paddedInSize = 0;
  /// The int8 weights, kernel-ready: outSize rows of paddedInSize, the
  /// tail of each row zero-filled. Zeros add exactly zero to the int32
  /// dot product, so ragged inSize costs no in-kernel edge handling.
  std::vector<std::int8_t> packedWeights;
};

class QuantizedMlp {
 public:
  /// Converts a trained float model. `calibrationInputs` should be a
  /// representative sample of real inputs; activation scales are taken from
  /// the maxima observed while running them through the float model. An
  /// empty calibration set falls back to scale 1 (poor accuracy — tests
  /// cover this contrast deliberately).
  static QuantizedMlp fromMlp(
      const Mlp& model,
      std::span<const std::vector<float>> calibrationInputs);

  [[nodiscard]] int inputSize() const {
    return layers_.empty() ? 0 : layers_.front().inSize;
  }
  [[nodiscard]] int outputSize() const {
    return layers_.empty() ? 0 : layers_.back().outSize;
  }

  /// Int8 inference, forwardBatch over one row; same output contract as
  /// Mlp::forward.
  [[nodiscard]] std::vector<float> forward(std::span<const float> x) const;

  /// Batched int8 inference, same layout contract as Mlp::forwardBatch.
  /// Runs the body the build compiles in (kernels::kCompiledInt8Body):
  /// AVX2 when the compiler targets it, scalar otherwise. Int32
  /// accumulation is exact, so either body — and any batch size — is
  /// bit-equal to per-row forward().
  void forwardBatch(std::span<const float> inputs, int batch,
                    std::span<float> outputs, ForwardScratch& scratch) const;

  /// forwardBatch through the scalar body in every build: the reference
  /// the parity test and the hot-path bench compare forwardBatch with.
  void forwardBatchScalar(std::span<const float> inputs, int batch,
                          std::span<float> outputs,
                          ForwardScratch& scratch) const;

  /// Serialized parameter footprint in bytes (int8 weights + fp32 biases +
  /// two scales per layer) — compare with 4 bytes/weight for the fp32 model.
  [[nodiscard]] std::size_t modelBytes() const;

  [[nodiscard]] std::span<const QuantizedLayer> layers() const {
    return layers_;
  }

 private:
  /// The batched layer walk around one body's quantizeRows and gemm.
  template <typename QuantizeRows, typename Gemm>
  void forwardLayers(std::span<const float> inputs, int batch,
                     std::span<float> outputs, ForwardScratch& scratch,
                     QuantizeRows quantizeRows, Gemm gemm) const;

  std::vector<QuantizedLayer> layers_;
};

}  // namespace darpa::nn
