// The staged run-time analysis pipeline.
//
// The seed implemented the Fig.-5 life-cycle as one monolithic
// DarpaService::analyzeNow(). This module decomposes it into explicit,
// individually meterable, individually skippable stages:
//
//   LintStage -> ScreenshotStage -> DetectStage -> VerdictStage -> ActStage
//
// An AnalysisContext flows through the stages carrying everything one pass
// produces (UI dump, fingerprint, detections, verdict); every stage prices
// its work into the shared WorkLedger, and a stage the routing skips is
// recorded as skipped — so Table VII/VIII accounting, the lint-vs-CV
// comparison, and the cache experiments all read from one substrate.
//
// The pipeline also owns the **screen-fingerprint verdict cache**: before
// any stage runs, the top window's UI dump is fingerprinted (64-bit hash
// over node geometry/style — DARPA's own overlays never enter the dump)
// and looked up in a bounded LRU. A re-stabilized identical screen (app
// switch back, dialog re-show, taps that changed nothing) short-circuits
// lint, screenshot, AND CV: the cached verdict feeds straight into
// ActStage, which is the dominant modeled-CPU win on repeat-screen
// workloads. Trusted-package screens never reach the pipeline, so the
// cache cannot serve them either.
//
// Detection is synchronous, as on the paper's phone (Fig. 5): the detect
// stage calls Detector::detect on the session's own thread, and run()
// returns with the pass complete.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "android/window_manager.h"
#include "core/screen_frame.h"
#include "core/work_ledger.h"
#include "cv/detector.h"
#include "util/thread_annotations.h"

namespace darpa::core {

class DarpaService;
struct DarpaConfig;
struct DarpaStats;
class ScreenshotVault;
class SharedVerdictTier;

/// Everything one analysis pass carries between stages.
struct AnalysisContext {
  // Wiring, borrowed for the duration of the pass.
  DarpaService* service = nullptr;          ///< Capabilities + act helpers.
  const DarpaConfig* config = nullptr;
  const cv::Detector* detector = nullptr;
  android::WindowManager* wm = nullptr;     ///< May be null (disconnected).
  ScreenshotVault* vault = nullptr;
  DarpaStats* stats = nullptr;
  Millis now{0};

  // Flowing state, filled in stage by stage.
  /// The pass's perception evidence, captured exactly once: UI dump +
  /// memoized fingerprint at pipeline entry, pixels attached by the
  /// screenshot stage. Shared (not copied) with the vault; immutable once
  /// the screenshot stage attached the pixels.
  std::shared_ptr<ScreenFrame> frame;
  std::vector<cv::Detection> detections;
  bool fromCache = false;          ///< Verdict served by the fingerprint cache.
  bool fromSharedTier = false;     ///< The serving cache was the fleet L2
                                   ///< (implies fromCache).
  bool resolvedByLint = false;     ///< Confident lint verdict; CV skipped.
  bool screenshotOk = false;       ///< A usable capture reached the vault.
  bool isAui = false;              ///< Final screen verdict.

  /// The screen fingerprint (package mixed in); 0 when no window manager.
  [[nodiscard]] std::uint64_t fingerprint() const {
    return frame != nullptr ? frame->fingerprint() : 0;
  }
};

/// One stage of the pipeline. Stages are stateless between passes; all
/// per-pass state lives in the AnalysisContext.
class AnalysisStage {
 public:
  virtual ~AnalysisStage() = default;
  /// Which ledger stage this prices its work under.
  [[nodiscard]] virtual Stage kind() const = 0;
  /// Whether the routing wants this stage for the current pass. A stage
  /// that returns false is recorded as skipped in the ledger.
  [[nodiscard]] virtual bool shouldRun(const AnalysisContext& ctx) const = 0;
  virtual void run(AnalysisContext& ctx, WorkLedger& ledger) = 0;
};

/// Bounded LRU of screen-fingerprint -> verdict. find() refreshes recency;
/// put() evicts the least recently used entry beyond capacity.
///
/// Session-confined, like the pipeline that owns it (CONFINED_TO below):
/// one cache per DeviceSession, touched only by the thread advancing that
/// session — which is why there is no lock here. This is the L1 of the
/// two-tier hierarchy: the fleet-wide SharedVerdictTier (verdict_tier.h)
/// is the striped L2 behind it, probed on L1 miss and refilled by
/// promotion; this structure stays confined either way.
class VerdictCache {
 public:
  struct Entry {
    bool isAui = false;
    std::vector<cv::Detection> detections;
  };

  explicit VerdictCache(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  [[nodiscard]] std::int64_t evictions() const { return evictions_; }

  /// Cached entry for `key`, refreshed to most-recently-used; nullptr on
  /// miss. The pointer is valid until the next put()/clear().
  [[nodiscard]] const Entry* find(std::uint64_t key);
  void put(std::uint64_t key, Entry entry);
  void clear();

 private:
  using LruList = std::list<std::pair<std::uint64_t, Entry>>;
  std::size_t capacity_;
  LruList lru_ CONFINED_TO("owning session");  ///< Front = most recently used.
  /// Lookup index only (find/erase/assign) — never iterated, so its
  /// unordered order cannot leak into eviction order (the LRU list is the
  /// only ordering authority; detlint guards the no-iteration contract).
  std::unordered_map<std::uint64_t, LruList::iterator> index_
      CONFINED_TO("owning session");
  std::int64_t evictions_ CONFINED_TO("owning session") = 0;
};

// --------------------------------------------------------------- stages

/// Static lint pre-filter over the UI dump (no pixels). A confident
/// verdict resolves the pass; lint option boxes stand in for detections.
class LintStage : public AnalysisStage {
 public:
  [[nodiscard]] Stage kind() const override { return Stage::kLint; }
  [[nodiscard]] bool shouldRun(const AnalysisContext& ctx) const override;
  void run(AnalysisContext& ctx, WorkLedger& ledger) override;
};

/// takeScreenshot, attached to the pass's ScreenFrame and shared with the
/// vault. Only a usable (non-empty) capture is counted and priced; a
/// failed capture skips detection downstream. The capture's size feeds
/// the ledger's peakFrameBytes here.
class ScreenshotStage : public AnalysisStage {
 public:
  [[nodiscard]] Stage kind() const override { return Stage::kScreenshot; }
  [[nodiscard]] bool shouldRun(const AnalysisContext& ctx) const override;
  void run(AnalysisContext& ctx, WorkLedger& ledger) override;
};

/// CV detection over the held frame, on the session's thread. Custody of
/// the frame moves out of the vault for the model run and is dropped the
/// moment the model returns (§IV-E scrubbing happens in the frame's
/// destructor on last release).
class DetectStage : public AnalysisStage {
 public:
  [[nodiscard]] Stage kind() const override { return Stage::kDetect; }
  [[nodiscard]] bool shouldRun(const AnalysisContext& ctx) const override;
  void run(AnalysisContext& ctx, WorkLedger& ledger) override;
};

/// Merges detections into the screen verdict and stores it in the cache —
/// both tiers: the session L1 unconditionally (its historical seeding
/// rule), and the fleet L2, where the same rule acts as the poisoning
/// guard (publish carries the evidence grade; the tier drops kNone).
class VerdictStage : public AnalysisStage {
 public:
  VerdictStage(VerdictCache& cache, SharedVerdictTier* tier)
      : cache_(&cache), tier_(tier) {}
  [[nodiscard]] Stage kind() const override { return Stage::kVerdict; }
  [[nodiscard]] bool shouldRun(const AnalysisContext& ctx) const override;
  void run(AnalysisContext& ctx, WorkLedger& ledger) override;

 private:
  VerdictCache* cache_;
  SharedVerdictTier* tier_;  ///< Borrowed shared L2; null = no tier.
};

/// Acts on an AUI verdict: auto-bypass click or decoration overlays. The
/// §IV-D anchor-view offset is measured here — only on the decoration
/// path, where it is actually consumed.
class ActStage : public AnalysisStage {
 public:
  [[nodiscard]] Stage kind() const override { return Stage::kAct; }
  [[nodiscard]] bool shouldRun(const AnalysisContext& ctx) const override;
  void run(AnalysisContext& ctx, WorkLedger& ledger) override;
};

// -------------------------------------------------------------- pipeline

class AnalysisPipeline {
 public:
  /// `cacheCapacity` bounds the session L1 verdict cache; 0 disables it.
  /// `tier` is the optional fleet-wide L2 (borrowed; must outlive the
  /// pipeline): probed on L1 miss, refilled by promotion, published to by
  /// the verdict stage. Null (the default) keeps every code path
  /// byte-identical to the tier-less build.
  explicit AnalysisPipeline(std::size_t cacheCapacity,
                            SharedVerdictTier* tier = nullptr);

  /// Runs one analysis pass: fingerprint + cache probe, then every stage in
  /// order (skipped stages are recorded as such in the ledger). The pass
  /// is complete when this returns.
  void run(AnalysisContext& ctx, WorkLedger& ledger);

  [[nodiscard]] const VerdictCache& cache() const { return cache_; }
  [[nodiscard]] VerdictCache& cache() { return cache_; }
  [[nodiscard]] std::span<const std::unique_ptr<AnalysisStage>> stages()
      const {
    return stages_;
  }

 private:
  VerdictCache cache_;
  SharedVerdictTier* tier_;  ///< Borrowed fleet L2; null = no tier.
  std::vector<std::unique_ptr<AnalysisStage>> stages_;
};

}  // namespace darpa::core
