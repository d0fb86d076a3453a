// Source-compatibility stub. Detection has no executor seam any more: the
// detect step of DarpaService::analyzeNow() calls Detector::detect
// synchronously on the session's thread. This header, the tag type and
// defaultInlineExecutor() remain only because perfbench/main.cpp builds
// its fleets as Fleet(detector, core::defaultInlineExecutor(), config).
// Nothing in src/ uses them.
#pragma once

namespace darpa::core {

/// Empty tag; see the header comment.
class DetectionExecutor {};

/// Kept for perfbench/main.cpp's Fleet(detector, defaultInlineExecutor(),
/// config) call.
[[nodiscard]] inline DetectionExecutor& defaultInlineExecutor() {
  static DetectionExecutor tag;
  return tag;
}

}  // namespace darpa::core
