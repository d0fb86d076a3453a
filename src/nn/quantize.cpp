#include "nn/quantize.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels/int8_kernels.h"

namespace darpa::nn {

namespace {
std::int8_t quantizeValue(float x, float scale) {
  return kernels::quantizeOne(x, scale);
}
}  // namespace

QuantizedMlp QuantizedMlp::fromMlp(
    const Mlp& model, std::span<const std::vector<float>> calibrationInputs) {
  const auto layers = model.layers();

  // Calibration: track the max |input| seen at each layer while replaying
  // the float forward pass over the calibration set. The cache holds each
  // layer's input, activations[l] for layer l.
  std::vector<float> inputMax(layers.size(), 0.0f);
  Mlp::Cache cache;
  for (const std::vector<float>& sample : calibrationInputs) {
    model.forwardCachedInto(sample, cache);
    for (std::size_t l = 0; l < layers.size(); ++l) {
      for (float v : cache.activations[l]) {
        inputMax[l] = std::max(inputMax[l], std::fabs(v));
      }
    }
  }

  QuantizedMlp out;
  out.layers_.reserve(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const DenseLayer& layer = layers[l];
    QuantizedLayer q;
    q.inSize = layer.inSize;
    q.outSize = layer.outSize;
    float weightMax = 0.0f;
    for (float w : layer.weights) weightMax = std::max(weightMax, std::fabs(w));
    const float weightScale = weightMax > 0.0f ? weightMax / 127.0f : 1.0f;
    q.bias = layer.bias;
    q.inputScale = inputMax[l] > 0.0f ? inputMax[l] / 127.0f : 1.0f;
    // Constant folding: one multiplier per layer instead of two.
    q.dequantScale = weightScale * q.inputScale;
    // Pack for the GEMM: pad each weight row to the kernel stride with
    // zeros once at conversion time, so the kernel runs full-width vector
    // loops over arbitrary inSize.
    q.paddedInSize = kernels::padInt8RowSize(layer.inSize);
    q.packedWeights.assign(
        static_cast<std::size_t>(layer.outSize) * q.paddedInSize, 0);
    for (int j = 0; j < layer.outSize; ++j) {
      for (int i = 0; i < layer.inSize; ++i) {
        q.packedWeights[static_cast<std::size_t>(j) * q.paddedInSize + i] =
            quantizeValue(
                layer.weights[static_cast<std::size_t>(j) * layer.inSize + i],
                weightScale);
      }
    }
    out.layers_.push_back(std::move(q));
  }
  return out;
}

// The batched int8 layer walk: quantize the whole batch into a padded
// row-major int8 matrix, then run one GEMM per layer. Exact int32
// accumulation makes both bodies — and the old tile kernel — bit-equal.
template <typename QuantizeRows, typename Gemm>
void QuantizedMlp::forwardLayers(std::span<const float> inputs, int batch,
                                 std::span<float> outputs,
                                 ForwardScratch& scratch,
                                 QuantizeRows quantizeRows, Gemm gemm) const {
  if (batch <= 0 || layers_.empty()) return;
  const float* cur = inputs.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const QuantizedLayer& layer = layers_[l];
    std::int8_t* qact = scratch.ensureInt8(static_cast<std::size_t>(batch) *
                                           layer.paddedInSize);
    quantizeRows(cur, batch, layer.inSize, layer.paddedInSize,
                 layer.inputScale, qact);
    const bool hidden = l + 1 < layers_.size();
    float* dst = hidden ? scratch.ensureFloats(
                              l % 2 != 0, static_cast<std::size_t>(batch) *
                                              layer.outSize)
                        : outputs.data();
    gemm(qact, layer.packedWeights.data(), layer.bias.data(),
         layer.dequantScale, batch, layer.paddedInSize, layer.outSize, hidden,
         dst);
    cur = dst;
  }
}

void QuantizedMlp::forwardBatch(std::span<const float> inputs, int batch,
                                std::span<float> outputs,
                                ForwardScratch& scratch) const {
#ifdef __AVX2__
  forwardLayers(inputs, batch, outputs, scratch, kernels::quantizeRowsAvx2,
                kernels::gemmAvx2);
#else
  forwardBatchScalar(inputs, batch, outputs, scratch);
#endif
}

void QuantizedMlp::forwardBatchScalar(std::span<const float> inputs,
                                      int batch, std::span<float> outputs,
                                      ForwardScratch& scratch) const {
  forwardLayers(inputs, batch, outputs, scratch, kernels::quantizeRowsScalar,
                kernels::gemmScalar);
}

std::vector<float> QuantizedMlp::forward(std::span<const float> x) const {
  std::vector<float> out(static_cast<std::size_t>(outputSize()));
  thread_local ForwardScratch scratch;
  forwardBatch(x, 1, out, scratch);
  return out;
}

std::size_t QuantizedMlp::modelBytes() const {
  std::size_t bytes = 0;
  for (const QuantizedLayer& layer : layers_) {
    // Unpadded: the row padding is kernel layout, not model data.
    bytes += static_cast<std::size_t>(layer.outSize) * layer.inSize *
             sizeof(std::int8_t);
    bytes += layer.bias.size() * sizeof(float);
    bytes += 2 * sizeof(float);  // inputScale + dequantScale
  }
  return bytes;
}

}  // namespace darpa::nn
