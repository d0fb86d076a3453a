#include "nn/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace darpa::nn {

Mlp::Mlp(std::vector<int> layerSizes, Rng& rng)
    : layerSizes_(std::move(layerSizes)) {
  assert(layerSizes_.size() >= 2);
  layers_.reserve(layerSizes_.size() - 1);
  for (std::size_t i = 0; i + 1 < layerSizes_.size(); ++i) {
    DenseLayer layer;
    layer.inSize = layerSizes_[i];
    layer.outSize = layerSizes_[i + 1];
    const std::size_t n =
        static_cast<std::size_t>(layer.inSize) * layer.outSize;
    layer.weights.resize(n);
    // He initialization: suited to the ReLU hidden activations.
    const float stddev = std::sqrt(2.0f / static_cast<float>(layer.inSize));
    for (float& w : layer.weights) {
      w = static_cast<float>(rng.normal(0.0, stddev));
    }
    layer.bias.assign(layer.outSize, 0.0f);
    layer.gradWeights.assign(n, 0.0f);
    layer.gradBias.assign(layer.outSize, 0.0f);
    layer.mWeights.assign(n, 0.0f);
    layer.vWeights.assign(n, 0.0f);
    layer.mBias.assign(layer.outSize, 0.0f);
    layer.vBias.assign(layer.outSize, 0.0f);
    layers_.push_back(std::move(layer));
  }
}

std::size_t Mlp::parameterCount() const {
  std::size_t n = 0;
  for (const DenseLayer& layer : layers_) {
    n += layer.weights.size() + layer.bias.size();
  }
  return n;
}

namespace {

// The fp32 head kernel. forwardBatch walks the batch in tiles of
// kForwardTileRows rows: it transposes a tile once into column-major
// tile[i][n], runs every layer on it (each layer writes its output tile
// column-major, which is the next layer's input tile) and writes only the
// logits back row-major. A partial last tile pads its unused rows with zero
// lanes whose results are dropped. Within a layer a register block holds U
// output units x V row vectors, U * V = 8 accumulators, so one load of a
// tile column feeds U units: 4 units, then 2 and 1 for unit counts that are
// not a multiple of 4 (4 x 16, 2 x 32 and 1 x 64 rows with 256-bit vectors).
//
// Bit-exactness: every SIMD lane carries one (row, unit) chain in the
// scalar order of denseRow() -- bias first, then + w[j][i] * x[i] for
// ascending i, one multiply and one add (FMA stays off, see CMakeLists.txt)
// -- and ReLU is a select that keeps -0.0. Blocking, tiling and the vector
// width only reorder independent chains, so every output is bit-identical
// to forward().
//
// 256-bit vectors where the target has AVX (the default -march=native
// build); 128-bit ones elsewhere, e.g. a -DDARPA_NATIVE_SIMD=OFF x86-64
// build, where GCC would keep 256-bit vectors in memory.
#ifdef __AVX__
constexpr int kLanes = 8;
#else
constexpr int kLanes = 4;
#endif
using Vec = float __attribute__((vector_size(kLanes * sizeof(float))));

/// Units [j0, j0 + U) over every row of a tile, V vectors of rows at a time.
/// The unroll pragmas matter: GCC at -O2 leaves these constant-trip loops
/// rolled, and then the accumulators live on the stack.
template <int U, int V>
void denseBlock(const DenseLayer& layer, int j0, const float* in, float* out,
                bool relu) {
  const std::size_t inSize = static_cast<std::size_t>(layer.inSize);
  const float* w =
      layer.weights.data() + static_cast<std::size_t>(j0) * inSize;
  Vec bias[U];
#pragma GCC unroll 8
  for (int u = 0; u < U; ++u) {
    float lanes[kLanes];
    std::fill_n(lanes, kLanes, layer.bias[static_cast<std::size_t>(j0 + u)]);
    std::memcpy(&bias[u], lanes, sizeof(Vec));
  }
  for (int n0 = 0; n0 < kForwardTileRows; n0 += V * kLanes) {
    Vec acc[U][V];
#pragma GCC unroll 8
    for (int u = 0; u < U; ++u) {
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) acc[u][v] = bias[u];
    }
    for (std::size_t i = 0; i < inSize; ++i) {
      const float* col = in + i * kForwardTileRows + n0;
      Vec x[V];
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        std::memcpy(&x[v], col + v * kLanes, sizeof(Vec));
      }
#pragma GCC unroll 8
      for (int u = 0; u < U; ++u) {
        const float wi = w[static_cast<std::size_t>(u) * inSize + i];
#pragma GCC unroll 8
        for (int v = 0; v < V; ++v) acc[u][v] += wi * x[v];
      }
    }
#pragma GCC unroll 8
    for (int u = 0; u < U; ++u) {
      float* unit =
          out + static_cast<std::size_t>(j0 + u) * kForwardTileRows + n0;
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        Vec y = acc[u][v];
        if (relu) y = y < 0.0f ? Vec{} : y;
        std::memcpy(unit + v * kLanes, &y, sizeof(Vec));
      }
    }
  }
}

/// One dense layer over column-major tiles: `in` holds inSize columns of
/// kForwardTileRows floats, `out` outSize columns.
void denseTile(const DenseLayer& layer, const float* in, float* out,
               bool relu) {
  int j = 0;
  for (; j + 4 <= layer.outSize; j += 4) {
    denseBlock<4, 2>(layer, j, in, out, relu);
  }
  if (j + 2 <= layer.outSize) {
    denseBlock<2, 4>(layer, j, in, out, relu);
    j += 2;
  }
  if (j < layer.outSize) denseBlock<1, 8>(layer, j, in, out, relu);
}

/// One row through a dense layer, the plain dot product in the order each
/// lane of denseBlock keeps.
void denseRow(const DenseLayer& layer, const float* x, float* out, bool relu) {
  for (int j = 0; j < layer.outSize; ++j) {
    const float* w =
        layer.weights.data() + static_cast<std::size_t>(j) * layer.inSize;
    float sum = layer.bias[static_cast<std::size_t>(j)];
    for (int i = 0; i < layer.inSize; ++i) sum += w[i] * x[i];
    out[j] = relu && sum < 0.0f ? 0.0f : sum;
  }
}

ForwardScratch& threadScratch() {
  thread_local ForwardScratch scratch;
  return scratch;
}

}  // namespace

float* ForwardScratch::ensureFloats(bool second, std::size_t n) {
  std::vector<float>& v = second ? b_ : a_;
  const std::size_t before = v.capacity();
  if (n > before) {
    v.reserve(n);
    ++growths_;
    grownBytes_ +=
        static_cast<std::int64_t>((v.capacity() - before) * sizeof(float));
  }
  if (v.size() < n) v.resize(n);
  return v.data();
}

std::int8_t* ForwardScratch::ensureInt8(std::size_t n) {
  const std::size_t before = q_.capacity();
  if (n > before) {
    q_.reserve(n);
    ++growths_;
    grownBytes_ += static_cast<std::int64_t>(q_.capacity() - before);
  }
  if (q_.size() < n) q_.resize(n);
  return q_.data();
}

void Mlp::forwardBatch(std::span<const float> inputs, int batch,
                       std::span<float> outputs,
                       ForwardScratch& scratch) const {
  assert(inputs.size() ==
         static_cast<std::size_t>(batch) * static_cast<std::size_t>(inputSize()));
  assert(outputs.size() ==
         static_cast<std::size_t>(batch) * static_cast<std::size_t>(outputSize()));
  if (batch <= 0) return;
  const std::size_t widest = static_cast<std::size_t>(
      *std::max_element(layerSizes_.begin(), layerSizes_.end()));
  if (batch == 1) {
    const float* cur = inputs.data();
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const bool hidden = l + 1 < layers_.size();
      float* dst =
          hidden ? scratch.ensureFloats(l % 2 != 0, widest) : outputs.data();
      denseRow(layers_[l], cur, dst, hidden);
      cur = dst;
    }
    return;
  }
  float* a = scratch.ensureFloats(false, widest * kForwardTileRows);
  float* b = scratch.ensureFloats(true, widest * kForwardTileRows);
  const int in = inputSize();
  const int out = outputSize();
  for (int n0 = 0; n0 < batch; n0 += kForwardTileRows) {
    const int nt = std::min(kForwardTileRows, batch - n0);
    for (int n = 0; n < nt; ++n) {
      const float* x = inputs.data() + static_cast<std::size_t>(n0 + n) * in;
      for (int i = 0; i < in; ++i) {
        a[static_cast<std::size_t>(i) * kForwardTileRows + n] = x[i];
      }
    }
    if (nt < kForwardTileRows) {
      for (int i = 0; i < in; ++i) {
        float* col = a + static_cast<std::size_t>(i) * kForwardTileRows;
        std::fill(col + nt, col + kForwardTileRows, 0.0f);
      }
    }
    float* cur = a;
    float* next = b;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      denseTile(layers_[l], cur, next, l + 1 < layers_.size());
      std::swap(cur, next);
    }
    for (int n = 0; n < nt; ++n) {
      float* y = outputs.data() + static_cast<std::size_t>(n0 + n) * out;
      for (int j = 0; j < out; ++j) {
        y[j] = cur[static_cast<std::size_t>(j) * kForwardTileRows + n];
      }
    }
  }
}

std::vector<float> Mlp::forward(std::span<const float> x) const {
  assert(static_cast<int>(x.size()) == inputSize());
  std::vector<float> out(static_cast<std::size_t>(outputSize()));
  forwardBatch(x, 1, out, threadScratch());
  return out;
}

void Mlp::forwardCachedInto(std::span<const float> x, Cache& cache) const {
  assert(static_cast<int>(x.size()) == inputSize());
  // Resize without releasing capacity: a hoisted Cache stops allocating
  // after its first use.
  if (cache.activations.size() != layers_.size() + 1) {
    cache.activations.resize(layers_.size() + 1);
  }
  cache.activations[0].assign(x.begin(), x.end());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    std::vector<float>& out = cache.activations[l + 1];
    out.resize(static_cast<std::size_t>(layers_[l].outSize));
    denseRow(layers_[l], cache.activations[l].data(), out.data(),
             l + 1 < layers_.size());
  }
}

void Mlp::accumulateGradient(const Cache& cache, std::span<const float> dOut) {
  assert(cache.activations.size() == layers_.size() + 1);
  // Backprop work buffers: thread-local so per-example calls in the training
  // inner loops stop churning the heap. assign/resize reuse capacity.
  thread_local std::vector<float> delta;
  thread_local std::vector<float> prevDelta;
  delta.assign(dOut.begin(), dOut.end());
  for (std::size_t l = layers_.size(); l-- > 0;) {
    DenseLayer& layer = layers_[l];
    const std::vector<float>& input = cache.activations[l];
    const std::vector<float>& output = cache.activations[l + 1];
    const bool hidden = l + 1 < layers_.size();
    // ReLU gradient gate on hidden layers (output layer is linear).
    if (hidden) {
      for (int j = 0; j < layer.outSize; ++j) {
        if (output[static_cast<std::size_t>(j)] <= 0.0f) {
          delta[static_cast<std::size_t>(j)] = 0.0f;
        }
      }
    }
    for (int j = 0; j < layer.outSize; ++j) {
      const float d = delta[static_cast<std::size_t>(j)];
      if (d == 0.0f) continue;
      float* gRow = layer.gradWeights.data() +
                    static_cast<std::size_t>(j) * layer.inSize;
      for (int i = 0; i < layer.inSize; ++i) {
        gRow[i] += d * input[static_cast<std::size_t>(i)];
      }
      layer.gradBias[static_cast<std::size_t>(j)] += d;
    }
    if (l == 0) break;  // No need to propagate into the raw input.
    prevDelta.assign(static_cast<std::size_t>(layer.inSize), 0.0f);
    for (int j = 0; j < layer.outSize; ++j) {
      const float d = delta[static_cast<std::size_t>(j)];
      if (d == 0.0f) continue;
      const float* row =
          layer.weights.data() + static_cast<std::size_t>(j) * layer.inSize;
      for (int i = 0; i < layer.inSize; ++i) {
        prevDelta[static_cast<std::size_t>(i)] += d * row[i];
      }
    }
    delta.swap(prevDelta);
  }
}

void Mlp::applyAdam(const AdamConfig& config, int batchSize) {
  if (batchSize <= 0) batchSize = 1;
  ++adamStep_;
  const float t = static_cast<float>(adamStep_);
  const float correction1 = 1.0f - std::pow(config.beta1, t);
  const float correction2 = 1.0f - std::pow(config.beta2, t);
  const float invBatch = 1.0f / static_cast<float>(batchSize);
  auto update = [&](std::vector<float>& params, std::vector<float>& grads,
                    std::vector<float>& m, std::vector<float>& v) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      const float g = grads[i] * invBatch;
      m[i] = config.beta1 * m[i] + (1.0f - config.beta1) * g;
      v[i] = config.beta2 * v[i] + (1.0f - config.beta2) * g * g;
      const float mHat = m[i] / correction1;
      const float vHat = v[i] / correction2;
      params[i] -=
          config.learningRate * mHat / (std::sqrt(vHat) + config.epsilon);
      grads[i] = 0.0f;
    }
  };
  for (DenseLayer& layer : layers_) {
    update(layer.weights, layer.gradWeights, layer.mWeights, layer.vWeights);
    update(layer.bias, layer.gradBias, layer.mBias, layer.vBias);
  }
}

namespace {
constexpr std::uint32_t kMagic = 0x44415250;  // "DARP"

template <typename T>
void writePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}
template <typename T>
bool readPod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}
}  // namespace

void Mlp::save(std::ostream& out) const {
  writePod(out, kMagic);
  writePod(out, static_cast<std::uint32_t>(layerSizes_.size()));
  for (int s : layerSizes_) writePod(out, static_cast<std::int32_t>(s));
  for (const DenseLayer& layer : layers_) {
    out.write(reinterpret_cast<const char*>(layer.weights.data()),
              static_cast<std::streamsize>(layer.weights.size() * sizeof(float)));
    out.write(reinterpret_cast<const char*>(layer.bias.data()),
              static_cast<std::streamsize>(layer.bias.size() * sizeof(float)));
  }
}

std::optional<Mlp> Mlp::load(std::istream& in) {
  std::uint32_t magic = 0;
  if (!readPod(in, magic) || magic != kMagic) return std::nullopt;
  std::uint32_t layerCount = 0;
  if (!readPod(in, layerCount) || layerCount < 2 || layerCount > 64) {
    return std::nullopt;
  }
  std::vector<int> sizes;
  for (std::uint32_t i = 0; i < layerCount; ++i) {
    std::int32_t s = 0;
    if (!readPod(in, s) || s <= 0 || s > 1 << 20) return std::nullopt;
    sizes.push_back(s);
  }
  Rng rng(0);  // weights are overwritten below
  Mlp model(sizes, rng);
  for (DenseLayer& layer : model.layers_) {
    in.read(reinterpret_cast<char*>(layer.weights.data()),
            static_cast<std::streamsize>(layer.weights.size() * sizeof(float)));
    in.read(reinterpret_cast<char*>(layer.bias.data()),
            static_cast<std::streamsize>(layer.bias.size() * sizeof(float)));
    if (!in) return std::nullopt;
  }
  return model;
}

}  // namespace darpa::nn
