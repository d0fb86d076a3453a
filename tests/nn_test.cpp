// Unit tests for the NN substrate: MLP forward/backward, Adam training,
// losses, and int8 quantization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "nn/kernels/int8_kernels.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/quantize.h"
#include "util/rng.h"

namespace darpa::nn {
namespace {

TEST(LossesTest, SigmoidRangeAndSymmetry) {
  EXPECT_NEAR(sigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_GT(sigmoid(10.0f), 0.9999f);
  EXPECT_LT(sigmoid(-10.0f), 0.0001f);
  EXPECT_NEAR(sigmoid(2.0f) + sigmoid(-2.0f), 1.0f, 1e-6f);
}

TEST(LossesTest, BceMatchesDefinition) {
  // BCE(logit, 1) = -log(sigmoid(logit))
  const float logit = 0.7f;
  EXPECT_NEAR(bceWithLogits(logit, 1.0f), -std::log(sigmoid(logit)), 1e-5f);
  EXPECT_NEAR(bceWithLogits(logit, 0.0f), -std::log(1.0f - sigmoid(logit)),
              1e-5f);
}

TEST(LossesTest, BceStableForExtremeLogits) {
  EXPECT_TRUE(std::isfinite(bceWithLogits(100.0f, 0.0f)));
  EXPECT_TRUE(std::isfinite(bceWithLogits(-100.0f, 1.0f)));
  EXPECT_NEAR(bceWithLogits(100.0f, 1.0f), 0.0f, 1e-5f);
}

TEST(LossesTest, BceGradientIsSigmoidMinusTarget) {
  EXPECT_NEAR(bceWithLogitsGrad(0.0f, 1.0f), -0.5f, 1e-6f);
  EXPECT_NEAR(bceWithLogitsGrad(0.0f, 0.0f), 0.5f, 1e-6f);
}

TEST(LossesTest, SmoothL1QuadraticNearZeroLinearFar) {
  EXPECT_NEAR(smoothL1(0.5f, 0.0f), 0.125f, 1e-6f);  // 0.5 * 0.25
  EXPECT_NEAR(smoothL1(3.0f, 0.0f), 2.5f, 1e-6f);    // |3| - 0.5
  EXPECT_NEAR(smoothL1Grad(0.5f, 0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(smoothL1Grad(3.0f, 0.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(smoothL1Grad(-3.0f, 0.0f), -1.0f, 1e-6f);
}

TEST(MlpTest, ShapesAndParameterCount) {
  Rng rng(1);
  const Mlp mlp({4, 8, 3}, rng);
  EXPECT_EQ(mlp.inputSize(), 4);
  EXPECT_EQ(mlp.outputSize(), 3);
  EXPECT_EQ(mlp.parameterCount(), 4u * 8 + 8 + 8u * 3 + 3);
  const std::vector<float> out = mlp.forward(std::vector<float>{1, 2, 3, 4});
  EXPECT_EQ(out.size(), 3u);
}

TEST(MlpTest, DeterministicGivenSeed) {
  Rng rngA(42);
  Rng rngB(42);
  const Mlp a({5, 6, 2}, rngA);
  const Mlp b({5, 6, 2}, rngB);
  const std::vector<float> x{0.1f, -0.2f, 0.3f, 0.5f, -0.9f};
  EXPECT_EQ(a.forward(x), b.forward(x));
}

TEST(MlpTest, ForwardCachedMatchesForward) {
  Rng rng(3);
  const Mlp mlp({3, 4, 4, 2}, rng);
  const std::vector<float> x{0.5f, -1.0f, 2.0f};
  Mlp::Cache cache;
  mlp.forwardCachedInto(x, cache);
  EXPECT_EQ(std::vector<float>(cache.output().begin(), cache.output().end()),
            mlp.forward(x));
  EXPECT_EQ(cache.activations.size(), 4u);  // input + 3 layers
}

TEST(MlpTest, GradientMatchesFiniteDifference) {
  Rng rng(7);
  Mlp mlp({2, 3, 1}, rng);
  const std::vector<float> x{0.4f, -0.6f};
  const float target = 1.0f;

  // Analytic gradient via BCE on the single output.
  Mlp::Cache cache;
  mlp.forwardCachedInto(x, cache);
  mlp.accumulateGradient(cache, std::vector<float>{bceWithLogitsGrad(
                                    cache.output()[0], target)});
  // Perturb the first weight of layer 0 and compare numeric gradient.
  const float analytic = mlp.layers()[0].gradWeights[0];
  // Rebuild identical model and evaluate loss at w +- eps.
  const float eps = 1e-3f;
  auto lossWithDelta = [&](float delta) {
    Rng rng2(7);
    Mlp probe({2, 3, 1}, rng2);
    const_cast<DenseLayer&>(probe.layers()[0]).weights[0] += delta;
    return bceWithLogits(probe.forward(x)[0], target);
  };
  const float numeric = (lossWithDelta(eps) - lossWithDelta(-eps)) / (2 * eps);
  EXPECT_NEAR(analytic, numeric, 5e-3f);
}

TEST(MlpTest, LearnsXor) {
  Rng rng(5);
  Mlp mlp({2, 8, 1}, rng);
  const float inputs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const float targets[4] = {0, 1, 1, 0};
  AdamConfig adam;
  adam.learningRate = 0.05f;
  for (int epoch = 0; epoch < 400; ++epoch) {
    for (int i = 0; i < 4; ++i) {
      Mlp::Cache cache;
      mlp.forwardCachedInto(std::vector<float>{inputs[i][0], inputs[i][1]},
                            cache);
      mlp.accumulateGradient(cache, std::vector<float>{bceWithLogitsGrad(
                                        cache.output()[0], targets[i])});
    }
    mlp.applyAdam(adam, 4);
  }
  for (int i = 0; i < 4; ++i) {
    const float prob = sigmoid(
        mlp.forward(std::vector<float>{inputs[i][0], inputs[i][1]})[0]);
    if (targets[i] > 0.5f) {
      EXPECT_GT(prob, 0.8f) << "case " << i;
    } else {
      EXPECT_LT(prob, 0.2f) << "case " << i;
    }
  }
}

TEST(MlpTest, ApplyAdamZeroesAccumulators) {
  Rng rng(9);
  Mlp mlp({2, 2, 1}, rng);
  Mlp::Cache cache;
  mlp.forwardCachedInto(std::vector<float>{1.0f, 1.0f}, cache);
  mlp.accumulateGradient(cache, std::vector<float>{1.0f});
  ASSERT_EQ(mlp.layers().back().gradBias[0], 1.0f);
  mlp.applyAdam(AdamConfig{}, 1);
  for (const DenseLayer& layer : mlp.layers()) {
    for (float g : layer.gradWeights) EXPECT_EQ(g, 0.0f);
    for (float g : layer.gradBias) EXPECT_EQ(g, 0.0f);
  }
}

TEST(QuantizeTest, QuantizedCloselyTracksFloatModel) {
  Rng rng(11);
  const Mlp mlp({6, 12, 4}, rng);
  // Calibration inputs spanning the input range.
  std::vector<std::vector<float>> calibration;
  Rng dataRng(13);
  for (int i = 0; i < 64; ++i) {
    std::vector<float> x(6);
    for (float& v : x) v = static_cast<float>(dataRng.uniform(-1.0, 1.0));
    calibration.push_back(std::move(x));
  }
  const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, calibration);
  EXPECT_EQ(quantized.inputSize(), 6);
  EXPECT_EQ(quantized.outputSize(), 4);

  double maxErr = 0.0;
  double maxMag = 0.0;
  for (const std::vector<float>& x : calibration) {
    const std::vector<float> a = mlp.forward(x);
    const std::vector<float> b = quantized.forward(x);
    for (std::size_t i = 0; i < a.size(); ++i) {
      maxErr = std::max(maxErr, std::fabs(static_cast<double>(a[i]) - b[i]));
      maxMag = std::max(maxMag, std::fabs(static_cast<double>(a[i])));
    }
  }
  EXPECT_LT(maxErr, 0.1 * maxMag + 0.05);  // small relative error
}

TEST(QuantizeTest, ModelShrinksRoughly4x) {
  Rng rng(17);
  const Mlp mlp({20, 32, 16, 6}, rng);
  const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, {});
  const std::size_t floatBytes = mlp.parameterCount() * sizeof(float);
  EXPECT_LT(quantized.modelBytes(), floatBytes / 3);
}

TEST(QuantizeTest, EmptyCalibrationStillRuns) {
  Rng rng(19);
  const Mlp mlp({3, 4, 2}, rng);
  const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, {});
  const std::vector<float> out =
      quantized.forward(std::vector<float>{0.1f, 0.2f, 0.3f});
  EXPECT_EQ(out.size(), 2u);
  for (float v : out) EXPECT_TRUE(std::isfinite(v));
}

// --- batched-forward parity -------------------------------------------------
// The tentpole contract: forwardBatch is a pure throughput transform. The
// batched GEMM keeps the scalar kernel's per-(row, unit) accumulation order,
// so its logits must be BIT-equal to looping forward() — EXPECT_EQ on
// floats, no tolerance.

std::vector<std::vector<float>> randomInputs(int count, int dim,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> inputs(count);
  for (std::vector<float>& x : inputs) {
    x.resize(dim);
    for (float& v : x) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  return inputs;
}

TEST(MlpBatchTest, ForwardBatchBitEqualsLoopedForward) {
  Rng rng(31);
  const Mlp mlp({13, 24, 17, 6}, rng);
  // Batch sizes straddling the GEMM row tile, including 1 and a non-multiple.
  for (const int batch : {1, 3, 64, 65, 130}) {
    const std::vector<std::vector<float>> inputs =
        randomInputs(batch, mlp.inputSize(), 100 + batch);
    std::vector<float> packed;
    for (const std::vector<float>& x : inputs) {
      packed.insert(packed.end(), x.begin(), x.end());
    }
    std::vector<float> logits(
        static_cast<std::size_t>(batch) * mlp.outputSize());
    ForwardScratch scratch;
    mlp.forwardBatch(packed, batch, logits, scratch);
    for (int n = 0; n < batch; ++n) {
      const std::vector<float> expected = mlp.forward(inputs[n]);
      for (int j = 0; j < mlp.outputSize(); ++j) {
        EXPECT_EQ(logits[static_cast<std::size_t>(n) * mlp.outputSize() + j],
                  expected[j])
            << "batch=" << batch << " row=" << n << " unit=" << j;
      }
    }
  }
}

// --- tile kernel vs a textbook dense layer ----------------------------------
// The reference every fp32 path must equal byte for byte: out[j] starts at
// bias[j] and adds w[j][i] * x[i] for ascending i, one multiply and one add
// per term; hidden layers apply ReLU as a select, so a -0.0 sum stays -0.0.
// memcmp, not EXPECT_EQ: +0.0 == -0.0 compares equal as floats.

std::vector<float> textbookForward(const Mlp& mlp, const float* x) {
  std::vector<float> cur(x, x + mlp.inputSize());
  const std::span<const DenseLayer> layers = mlp.layers();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const DenseLayer& layer = layers[l];
    const bool hidden = l + 1 < layers.size();
    std::vector<float> next(static_cast<std::size_t>(layer.outSize));
    for (int j = 0; j < layer.outSize; ++j) {
      float sum = layer.bias[static_cast<std::size_t>(j)];
      for (int i = 0; i < layer.inSize; ++i) {
        const float product =
            layer.weights[static_cast<std::size_t>(j) * layer.inSize + i] *
            cur[static_cast<std::size_t>(i)];
        sum = sum + product;
      }
      next[static_cast<std::size_t>(j)] = hidden && sum < 0.0f ? 0.0f : sum;
    }
    cur.swap(next);
  }
  return cur;
}

/// `mlp` with every bias set to -0.0, through the save format (magic, layer
/// count, sizes, then each layer's weights and biases). With a -0.0 bias, a
/// unit whose products are all -0.0 sums to -0.0, which ReLU must keep.
Mlp withNegativeZeroBiases(const Mlp& mlp) {
  std::ostringstream out;
  mlp.save(out);
  std::string blob = out.str();
  std::size_t offset = 2 * sizeof(std::uint32_t) +
                       (mlp.layers().size() + 1) * sizeof(std::int32_t);
  const float negativeZero = -0.0f;
  for (const DenseLayer& layer : mlp.layers()) {
    offset += layer.weights.size() * sizeof(float);
    for (std::size_t j = 0; j < layer.bias.size(); ++j) {
      std::memcpy(blob.data() + offset, &negativeZero, sizeof(float));
      offset += sizeof(float);
    }
  }
  std::istringstream in(blob);
  std::optional<Mlp> patched = Mlp::load(in);
  EXPECT_TRUE(patched.has_value());
  return std::move(*patched);
}

TEST(MlpBatchTest, TileKernelBitEqualsTextbookDenseLayer) {
  // Unit counts and batch sizes leave every remainder on 4-unit and
  // 16/32/64-row blocks; {24, 48, 24, 6} is the paper head; {1, 9, 6} with
  // -0.0 biases makes about half its hidden sums -0.0.
  const std::vector<std::vector<int>> shapes = {
      {13, 24, 17, 6}, {7, 3, 5, 1}, {24, 48, 24, 6}, {1, 9, 6}};
  constexpr int kRows = 6484;  // the paper anchor grid at 360x720
  std::uint64_t seed = 900;
  for (const std::vector<int>& shape : shapes) {
    Rng rng(++seed);
    const Mlp heInit(shape, rng);
    for (const Mlp& mlp : {heInit, withNegativeZeroBiases(heInit)}) {
      const int in = mlp.inputSize();
      const int out = mlp.outputSize();
      std::vector<float> inputs(static_cast<std::size_t>(kRows) * in);
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        const std::size_t row = k / static_cast<std::size_t>(in);
        if (row % 13 == 0) {
          inputs[k] = -0.0f;
        } else if (row % 17 == 0 || k % 7 == 0) {
          inputs[k] = 0.0f;
        } else if (k % 11 == 0) {
          inputs[k] = -0.0f;
        } else {
          inputs[k] = static_cast<float>(rng.uniform(-2.0, 2.0));
        }
      }
      std::vector<float> reference;
      for (int n = 0; n < kRows; ++n) {
        const std::vector<float> y = textbookForward(
            mlp, inputs.data() + static_cast<std::size_t>(n) * in);
        reference.insert(reference.end(), y.begin(), y.end());
      }
      const std::string label = "shape[0]=" + std::to_string(shape[0]) +
                                " layers=" + std::to_string(shape.size()) +
                                " bias[0]=" +
                                std::to_string(mlp.layers()[0].bias[0]);
      for (const int batch : {1, 2, 15, 16, 17, 63, 64, 65, 129, kRows}) {
        std::vector<float> logits(static_cast<std::size_t>(batch) * out,
                                  -1.0f);
        ForwardScratch scratch;
        mlp.forwardBatch(
            {inputs.data(), static_cast<std::size_t>(batch) * in}, batch,
            logits, scratch);
        EXPECT_EQ(std::memcmp(logits.data(), reference.data(),
                              logits.size() * sizeof(float)),
                  0)
            << label << " batch=" << batch;
      }
      Mlp::Cache cache;
      for (int n = 0; n < kRows; ++n) {
        const std::span<const float> x(
            inputs.data() + static_cast<std::size_t>(n) * in,
            static_cast<std::size_t>(in));
        const float* expected =
            reference.data() + static_cast<std::size_t>(n) * out;
        ASSERT_EQ(std::memcmp(mlp.forward(x).data(), expected,
                              static_cast<std::size_t>(out) * sizeof(float)),
                  0)
            << label << " forward() row=" << n;
        if (n % 97 != 0) continue;
        mlp.forwardCachedInto(x, cache);
        ASSERT_EQ(std::memcmp(cache.output().data(), expected,
                              static_cast<std::size_t>(out) * sizeof(float)),
                  0)
            << label << " forwardCachedInto() row=" << n;
      }
    }
  }
}

TEST(MlpBatchTest, ScratchDoesNotScaleWithBatch) {
  // The fp32 head works through one 64-row tile at a time, so a scratch
  // warmed at one tile scores the whole anchor grid without growing.
  Rng rng(71);
  const Mlp mlp({24, 48, 24, 6}, rng);
  constexpr int kRows = 6484;
  const std::vector<std::vector<float>> rows = randomInputs(kRows, 24, 73);
  std::vector<float> packed;
  for (const std::vector<float>& x : rows) {
    packed.insert(packed.end(), x.begin(), x.end());
  }
  std::vector<float> logits(static_cast<std::size_t>(kRows) * 6);
  ForwardScratch scratch;
  mlp.forwardBatch({packed.data(), 64 * 24}, 64, {logits.data(), 64 * 6},
                   scratch);
  scratch.resetStats();
  mlp.forwardBatch(packed, kRows, logits, scratch);
  EXPECT_EQ(scratch.growths(), 0);
  EXPECT_EQ(scratch.grownBytes(), 0);
}

TEST(MlpBatchTest, QuantizedForwardBatchBitEqualsLoopedForward) {
  Rng rng(37);
  const Mlp mlp({9, 16, 6}, rng);
  const QuantizedMlp quantized =
      QuantizedMlp::fromMlp(mlp, randomInputs(32, 9, 41));
  for (const int batch : {1, 7, 64, 100}) {
    const std::vector<std::vector<float>> inputs =
        randomInputs(batch, quantized.inputSize(), 200 + batch);
    std::vector<float> packed;
    for (const std::vector<float>& x : inputs) {
      packed.insert(packed.end(), x.begin(), x.end());
    }
    std::vector<float> logits(
        static_cast<std::size_t>(batch) * quantized.outputSize());
    ForwardScratch scratch;
    quantized.forwardBatch(packed, batch, logits, scratch);
    for (int n = 0; n < batch; ++n) {
      const std::vector<float> expected = quantized.forward(inputs[n]);
      for (int j = 0; j < quantized.outputSize(); ++j) {
        EXPECT_EQ(
            logits[static_cast<std::size_t>(n) * quantized.outputSize() + j],
            expected[j])
            << "batch=" << batch << " row=" << n << " unit=" << j;
      }
    }
  }
}

TEST(MlpBatchTest, ForwardCachedIntoMatchesAndReusesCapacity) {
  Rng rng(53);
  const Mlp mlp({6, 10, 10, 4}, rng);
  const std::vector<std::vector<float>> inputs = randomInputs(8, 6, 59);
  Mlp::Cache cache;
  for (const std::vector<float>& x : inputs) {
    mlp.forwardCachedInto(x, cache);
    const std::span<const float> out = cache.output();
    const std::vector<float> expected = mlp.forward(x);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(out[j], expected[j]);
    }
  }
}

TEST(MlpBatchTest, ScratchStopsGrowingAfterWarmup) {
  Rng rng(61);
  const Mlp mlp({16, 32, 16, 6}, rng);
  const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, {});
  constexpr int kBatch = 96;
  const std::vector<std::vector<float>> inputs =
      randomInputs(kBatch, 16, 67);
  std::vector<float> packed;
  for (const std::vector<float>& x : inputs) {
    packed.insert(packed.end(), x.begin(), x.end());
  }
  std::vector<float> logits(static_cast<std::size_t>(kBatch) * 6);

  ForwardScratch scratch;
  // Warm-up pass sizes the arena (growth expected)...
  mlp.forwardBatch(packed, kBatch, logits, scratch);
  quantized.forwardBatch(packed, kBatch, logits, scratch);
  EXPECT_GT(scratch.growths(), 0);
  scratch.resetStats();
  // ...after which repeated batched forwards — full size and smaller —
  // must never touch the heap again.
  for (const int batch : {kBatch, kBatch / 2, 1, kBatch}) {
    mlp.forwardBatch(
        std::span<const float>(packed.data(),
                               static_cast<std::size_t>(batch) * 16),
        batch, logits, scratch);
    quantized.forwardBatch(
        std::span<const float>(packed.data(),
                               static_cast<std::size_t>(batch) * 16),
        batch, logits, scratch);
  }
  EXPECT_EQ(scratch.growths(), 0);
  EXPECT_EQ(scratch.grownBytes(), 0);
}

// --- int8 body parity suite -------------------------------------------------
// The compiled int8 body (AVX2 when the build targets it) must be
// BIT-equal to the scalar body: the int8 core accumulates in exact int32
// and the float quantize/dequant stages are written to evaluate identical
// IEEE sequences (see src/nn/kernels/int8_kernels.h). EXPECT_EQ on
// floats, no tolerance — this is what lets a build without AVX2 serve
// byte-identical fleet digests. In such a build both sides run the scalar
// body.

TEST(MlpBatchTest, KernelLanesBitEqualToScalarLane) {
  // Layer widths straddling the kernel pad (32): 1, width-1, width+1,
  // plus the production head shape. Batches straddle the old row tile.
  const std::vector<std::vector<int>> shapes = {
      {1, 4, 1}, {31, 33, 5}, {33, 31, 4}, {24, 48, 24, 6}};
  std::uint64_t seed = 500;
  for (const std::vector<int>& shape : shapes) {
    Rng rng(++seed);
    const Mlp mlp(shape, rng);
    // Calibrated and the empty-calibration scale-1 edge case both count.
    for (const bool calibrated : {true, false}) {
      const QuantizedMlp quantized = QuantizedMlp::fromMlp(
          mlp, calibrated
                   ? randomInputs(32, mlp.inputSize(), ++seed)
                   : std::vector<std::vector<float>>{});
      for (const int batch : {1, 31, 64, 65, 130}) {
        const std::vector<std::vector<float>> inputs =
            randomInputs(batch, mlp.inputSize(), ++seed);
        std::vector<float> packed;
        for (const std::vector<float>& x : inputs) {
          packed.insert(packed.end(), x.begin(), x.end());
        }
        const std::size_t outCount =
            static_cast<std::size_t>(batch) * quantized.outputSize();
        std::vector<float> reference(outCount);
        ForwardScratch scratch;
        quantized.forwardBatchScalar(packed, batch, reference, scratch);
        std::vector<float> compiled(outCount, -1.0f);
        quantized.forwardBatch(packed, batch, compiled, scratch);
        for (std::size_t i = 0; i < outCount; ++i) {
          EXPECT_EQ(compiled[i], reference[i])
              << "body=" << kernels::kCompiledInt8Body
              << " shape[0]=" << shape[0] << " calibrated=" << calibrated
              << " batch=" << batch << " out=" << i;
        }
      }
    }
  }
}

TEST(QuantizeTest, PaddingIsKernelSized) {
  EXPECT_EQ(kernels::padInt8RowSize(1), kernels::kInt8KernelPad);
  EXPECT_EQ(kernels::padInt8RowSize(kernels::kInt8KernelPad),
            kernels::kInt8KernelPad);
  EXPECT_EQ(kernels::padInt8RowSize(kernels::kInt8KernelPad + 1),
            2 * kernels::kInt8KernelPad);
  Rng rng(71);
  const Mlp mlp({33, 31, 4}, rng);
  const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, {});
  ASSERT_EQ(quantized.layers().size(), mlp.layers().size());
  for (std::size_t l = 0; l < mlp.layers().size(); ++l) {
    const DenseLayer& dense = mlp.layers()[l];
    const QuantizedLayer& layer = quantized.layers()[l];
    EXPECT_EQ(layer.paddedInSize, kernels::padInt8RowSize(layer.inSize));
    ASSERT_EQ(layer.packedWeights.size(),
              static_cast<std::size_t>(layer.outSize) * layer.paddedInSize);
    // Per-layer symmetric scale: max |w| maps to 127.
    float weightMax = 0.0f;
    for (float w : dense.weights) weightMax = std::max(weightMax, std::fabs(w));
    const float weightScale = weightMax / 127.0f;
    for (int j = 0; j < layer.outSize; ++j) {
      const std::int8_t* packed =
          layer.packedWeights.data() +
          static_cast<std::size_t>(j) * layer.paddedInSize;
      for (int i = 0; i < layer.inSize; ++i) {
        EXPECT_EQ(packed[i],
                  kernels::quantizeOne(
                      dense.weights[static_cast<std::size_t>(j) *
                                        layer.inSize +
                                    i],
                      weightScale));
      }
      for (int i = layer.inSize; i < layer.paddedInSize; ++i) {
        EXPECT_EQ(packed[i], 0) << "padding must be zero (exactness)";
      }
    }
  }
}

TEST(QuantizeTest, WeightsAreInt8Range) {
  Rng rng(23);
  const Mlp mlp({4, 8, 2}, rng);
  const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, {});
  for (const QuantizedLayer& layer : quantized.layers()) {
    for (std::int8_t w : layer.packedWeights) {
      EXPECT_GE(w, -127);
      EXPECT_LE(w, 127);
    }
    EXPECT_GT(layer.dequantScale, 0.0f);
  }
}

// --- calibration scales ------------------------------------------------------
// fromMlp takes each layer's activation scale from the largest |input| that
// layer sees while the float model replays the calibration set. The
// reference replays it with a textbook layer loop: bias first, then + w * x
// for ascending input index, ReLU as a select on hidden layers.

TEST(QuantizeTest, CalibrationScalesMatchTextbookReplay) {
  Rng rng(83);
  const Mlp mlp({5, 12, 7, 3}, rng);
  const std::span<const DenseLayer> layers = mlp.layers();
  for (const int count : {48, 0}) {
    // Inputs of both signs in [-2, 2], and one at -3 so that the largest
    // |input| is a negative one.
    std::vector<std::vector<float>> calibration =
        randomInputs(count, mlp.inputSize(), 89);
    if (count > 0) calibration[0][2] = -3.0f;
    std::vector<float> inputMax(layers.size(), 0.0f);
    int clamped = 0;
    for (const std::vector<float>& sample : calibration) {
      std::vector<float> current = sample;
      for (std::size_t l = 0; l < layers.size(); ++l) {
        for (const float v : current) {
          inputMax[l] = std::max(inputMax[l], std::fabs(v));
        }
        const DenseLayer& layer = layers[l];
        const bool hidden = l + 1 < layers.size();
        std::vector<float> next(static_cast<std::size_t>(layer.outSize));
        for (int j = 0; j < layer.outSize; ++j) {
          const float* row = layer.weights.data() +
                             static_cast<std::size_t>(j) * layer.inSize;
          float sum = layer.bias[static_cast<std::size_t>(j)];
          for (int i = 0; i < layer.inSize; ++i) {
            sum += row[i] * current[static_cast<std::size_t>(i)];
          }
          clamped += hidden && sum < 0.0f ? 1 : 0;
          next[static_cast<std::size_t>(j)] = hidden && sum < 0.0f ? 0.0f : sum;
        }
        current.swap(next);
      }
    }
    // Hidden units that ReLU zeroes.
    if (count > 0) {
      EXPECT_GT(clamped, 0);
    }

    const QuantizedMlp quantized = QuantizedMlp::fromMlp(mlp, calibration);
    ASSERT_EQ(quantized.layers().size(), layers.size());
    for (std::size_t l = 0; l < layers.size(); ++l) {
      float weightMax = 0.0f;
      for (const float w : layers[l].weights) {
        weightMax = std::max(weightMax, std::fabs(w));
      }
      const float inputScale =
          inputMax[l] > 0.0f ? inputMax[l] / 127.0f : 1.0f;
      const QuantizedLayer& q = quantized.layers()[l];
      EXPECT_EQ(q.inputScale, inputScale)
          << "calibration=" << count << " layer=" << l;
      EXPECT_EQ(q.dequantScale, weightMax / 127.0f * inputScale)
          << "calibration=" << count << " layer=" << l;
    }
  }
}

}  // namespace
}  // namespace darpa::nn
