// FraudDroid-like AUI detector — the string/placement baseline of §VI-C.
//
// FraudDroid (Dong et al., FSE'18) identifies ad views from UI metadata:
// resource-id string features plus size/placement heuristics. The paper
// reimplements it (AdViewDetector is closed source), extends the id list to
// the AUI vocabulary, and shows it collapses on real apps because ids are
// obfuscated or generated dynamically. This module consumes the ADB-style
// UiDump of the window manager — exactly the metadata a FraudDroid-like
// tool would get — and applies the same two feature families.
#pragma once

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "android/window_manager.h"
#include "util/geometry.h"

namespace darpa::baselines {

struct FraudDroidResult {
  bool isAui = false;
  std::vector<Rect> upoBoxes;  ///< Screen coords of flagged user options.
  std::vector<Rect> agoBoxes;
  /// Id-coverage telemetry: how much of the screen's metadata the
  /// string features could even see. WebView-hosted screens (virtual
  /// accessibility nodes, no resource ids at all) drive coverage toward
  /// zero — the collapse Table VI's hybrid row quantifies.
  int nodesSeen = 0;    ///< Nodes with non-empty bounds inspected.
  int nodesWithId = 0;  ///< ...of which carried a non-empty resource id.
  [[nodiscard]] double idCoverage() const {
    return nodesSeen == 0
               ? 0.0
               : static_cast<double>(nodesWithId) / static_cast<double>(nodesSeen);
  }
};

/// Resource-id substrings marking a user-preferred (dismiss) option.
inline constexpr std::array<std::string_view, 7> kUpoIdTokens = {
    "close", "skip", "cancel", "later", "dismiss", "deny", "no_thanks"};
/// Resource-id substrings marking an app-guided option.
inline constexpr std::array<std::string_view, 11> kAgoIdTokens = {
    "cta",     "ad",    "creative", "open",  "buy", "promo",
    "upgrade", "allow", "rate",     "claim", "pay"};
/// Placement heuristics: a UPO is small (at most this on each side)...
inline constexpr int kMaxUpoSide = 90;
/// ...and an AGO is large relative to the screen.
inline constexpr double kMinAgoAreaFrac = 0.01;

class FraudDroidDetector {
 public:
  /// Analyzes one UI dump. A screen is flagged as AUI when an id-matched
  /// small UPO co-occurs with an id-matched prominent AGO (or a dominant
  /// clickable surface). Empty ids never match, and nodes sharing both a
  /// duplicated id and identical bounds (web pages reuse DOM ids freely)
  /// collapse to one flagged box instead of inflating the result.
  [[nodiscard]] FraudDroidResult analyze(const android::UiDump& dump,
                                         Size screenSize) const;

  /// Substring match of a resource id against a token vocabulary. Public so
  /// other metadata analyzers (the static lint's id-hint rule) share exactly
  /// the FraudDroid matching semantics.
  [[nodiscard]] static bool idMatchesAny(
      std::string_view resourceId, std::span<const std::string_view> tokens);
};

}  // namespace darpa::baselines
