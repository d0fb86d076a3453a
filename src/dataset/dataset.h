// The D_aui dataset builder.
//
// Reproduces the paper's ground-truth dataset (§III-A, Table I, Table II):
// 1,072 AUI screenshots with COCO-style AGO/UPO box annotations, split
// 6:2:2 into train/validation/test. Exact-quota assignment reproduces the
// Table I type counts (696/179/131/43/16/4/3), the 744-AGO / 1,103-UPO box
// cardinalities of Table II, and the §III-A layout statistics (94.6 %
// central AGOs, 73.1 % corner UPOs).
//
// Samples are stored as *descriptors* (a seed plus an AuiSpec); the actual
// screenshot is re-rendered deterministically on demand by materialize().
// This keeps a 1,072-sample dataset at a few hundred KB instead of a
// gigabyte of pixels, at the cost of re-rendering — exactly the right trade
// for a simulator whose renderer is deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/screen_generator.h"
#include "gfx/bitmap.h"
#include "util/geometry.h"

namespace darpa::dataset {

enum class BoxLabel { kAgo = 0, kUpo = 1 };

/// One annotated box, COCO-style: label + axis-aligned box in screen pixels.
struct Annotation {
  Rect box;
  BoxLabel label = BoxLabel::kUpo;
};

/// A materialized sample: the rendered screenshot plus its annotations.
struct Sample {
  int id = 0;
  gfx::Bitmap image;
  std::vector<Annotation> annotations;
  apps::AuiSpec spec;
  bool fullscreen = false;
};

/// Deterministic descriptor from which a Sample can be re-rendered.
struct SampleSpec {
  int id = 0;
  std::uint64_t seed = 0;
  apps::AuiSpec spec;
  bool fullscreen = false;
};

struct DatasetConfig {
  int totalScreenshots = 1072;
  std::uint64_t seed = 2023;
  Size screenSize{360, 720};
  /// Fraction of AUIs shown full-screen (splash ads etc.).
  double fullscreenProb = 0.4;
  double ghostUpoProb = 0.08;
  /// Fraction of *advertisement* samples delivered through a WebView
  /// (AuiHost::kWebView: virtual accessibility nodes, no resource ids).
  /// 0 keeps the build's RNG draw sequence — and thus every sample seed —
  /// bit-identical to the pre-WebView builder.
  double webViewFrac = 0.0;
};

class AuiDataset {
 public:
  /// Builds descriptors with exact Table I/II quotas and a 6:2:2 split.
  static AuiDataset build(const DatasetConfig& config);

  [[nodiscard]] const DatasetConfig& config() const { return config_; }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] const std::vector<SampleSpec>& specs() const { return specs_; }
  [[nodiscard]] const std::vector<std::size_t>& trainIndices() const {
    return train_;
  }
  [[nodiscard]] const std::vector<std::size_t>& valIndices() const {
    return val_;
  }
  [[nodiscard]] const std::vector<std::size_t>& testIndices() const {
    return test_;
  }

  /// Re-renders sample `idx`. With `maskText` the Fig.-7 transform is
  /// applied: every text region on the screenshot is blurred beyond
  /// recognition before the sample is returned.
  [[nodiscard]] Sample materialize(std::size_t idx, bool maskText = false) const;

  /// Box-count statistics for a set of sample indices (Table II rows).
  struct BoxCounts {
    int screenshots = 0;
    int ago = 0;
    int upo = 0;
  };
  [[nodiscard]] BoxCounts countBoxes(const std::vector<std::size_t>& indices) const;

 private:
  DatasetConfig config_;
  std::vector<SampleSpec> specs_;
  std::vector<std::size_t> train_, val_, test_;
};

/// Renders a benign (non-AUI) screen as a negative sample; `hardNegative`
/// yields the footnote-4 symmetric dialog with a small close button.
[[nodiscard]] Sample materializeBenign(std::uint64_t seed, Size screenSize,
                                       bool hardNegative);

/// Collects the screen-space rects of all text-bearing views (TextView,
/// Button) in a window for the text-masking transform.
[[nodiscard]] std::vector<Rect> collectTextRects(const android::View& root,
                                                 Point windowOrigin);

}  // namespace darpa::dataset
