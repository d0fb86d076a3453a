// A small layout system: LinearLayout and FrameLayout.
//
// Android apps rarely position views at absolute coordinates; they nest
// layout containers that measure and place children. This module gives the
// simulated substrate the same vocabulary: per-child layout specs
// (match-parent / wrap-content / fixed, margins, gravity, weight) and
// containers that resolve them into concrete frames in one layout pass.
// The screen generator's structured screens (settings, forms, dialogs) are
// built on these, so the ADB-style dumps the FraudDroid baseline sees have
// realistic container/child structure.
#pragma once

#include <memory>

#include "android/view.h"

namespace darpa::android {

/// Size request for one dimension.
struct SizeSpec {
  enum class Mode { kFixed, kMatchParent, kWrapContent };
  Mode mode = Mode::kWrapContent;
  int value = 0;  ///< Used when kFixed.

  [[nodiscard]] static SizeSpec fixed(int px) {
    return {Mode::kFixed, px};
  }
  [[nodiscard]] static SizeSpec matchParent() {
    return {Mode::kMatchParent, 0};
  }
};

/// Placement of a child inside leftover space.
enum class Gravity { kStart, kCenter, kEnd };

/// Per-child layout parameters consumed by the containers.
struct ChildLayout {
  SizeSpec width;
  SizeSpec height;
  int margin = 0;          ///< Uniform margin on all sides.
  Gravity gravity = Gravity::kStart;  ///< Cross-axis (Linear) / both (Frame).
  double weight = 0.0;     ///< Linear only: share of leftover main axis.
};

/// Base for layout containers: owns per-child ChildLayout records and
/// resolves them into child frames when performLayout() runs.
class LayoutContainer : public View {
 public:
  /// Adds a child with layout parameters; returns the non-owning pointer.
  View* addLayoutChild(std::unique_ptr<View> child, const ChildLayout& layout);

  /// Recomputes every child frame from the container's current frame.
  /// Nested containers are laid out recursively.
  virtual void performLayout() = 0;

  [[nodiscard]] int padding() const { return padding_; }
  void setPadding(int p) {
    padding_ = p;
    touch();
  }

 protected:
  /// Default (wrap-content) size of a child, before layout resolution:
  /// its current frame size.
  [[nodiscard]] static Size naturalSize(const View& child) {
    return {child.frame().width, child.frame().height};
  }
  [[nodiscard]] const std::vector<ChildLayout>& childLayouts() const {
    return layouts_;
  }
  /// Lays out nested containers after their frame was assigned.
  static void layoutNested(View& child);

 private:
  std::vector<ChildLayout> layouts_;
  int padding_ = 0;
};

/// Stacks children along one axis; cross-axis per-child gravity; weights
/// distribute the leftover main-axis space.
class LinearLayout : public LayoutContainer {
 public:
  enum class Orientation { kVertical, kHorizontal };

  [[nodiscard]] std::string_view className() const override {
    return "LinearLayout";
  }

  explicit LinearLayout(Orientation orientation = Orientation::kVertical)
      : orientation_(orientation) {}

  [[nodiscard]] Orientation orientation() const { return orientation_; }
  [[nodiscard]] int spacing() const { return spacing_; }
  void setSpacing(int s) {
    spacing_ = s;
    touch();
  }

  void performLayout() override;

 private:
  Orientation orientation_;
  int spacing_ = 0;
};

/// Overlays children; each positioned independently by gravity + margin.
class FrameLayout : public LayoutContainer {
 public:
  [[nodiscard]] std::string_view className() const override {
    return "FrameLayout";
  }

  void performLayout() override;
};

}  // namespace darpa::android
