#include "core/work_ledger.h"

#include <algorithm>

namespace darpa::core {

std::string_view stageName(Stage stage) {
  switch (stage) {
    case Stage::kEvent: return "event";
    case Stage::kLint: return "lint";
    case Stage::kScreenshot: return "screenshot";
    case Stage::kDetect: return "detect";
    case Stage::kVerdict: return "verdict";
    case Stage::kAct: return "act";
  }
  return "?";
}

void WorkLedger::recordEvent() { recordRun(Stage::kEvent, costs_.eventCpuMs); }

void WorkLedger::beginAnalysis(Millis debounceLatency) {
  ++analyses_;
  if (debounceLatency.count > 0) {
    totalDebounceLatency_ = totalDebounceLatency_ + debounceLatency;
  }
}

void WorkLedger::recordRun(Stage stage, double cpuMs) {
  StageTally& tally = tallies_[static_cast<std::size_t>(stage)];
  ++tally.runs;
  tally.cpuMs += cpuMs;
}

void WorkLedger::recordRuns(Stage stage, std::int64_t n, double cpuMsEach) {
  for (std::int64_t i = 0; i < n; ++i) recordRun(stage, cpuMsEach);
}

void WorkLedger::recordSkip(Stage stage) {
  ++tallies_[static_cast<std::size_t>(stage)].skips;
}

void WorkLedger::recordDecoration() {
  ++decorations_;
  recordRun(Stage::kAct, costs_.decorationCpuMs);
}

void WorkLedger::recordBypass() {
  ++bypassClicks_;
  recordRun(Stage::kAct, costs_.bypassClickCpuMs);
}

void WorkLedger::recordCacheHit() { ++cacheHits_; }
void WorkLedger::recordCacheMiss() { ++cacheMisses_; }

void WorkLedger::recordActual(Stage stage, double actualUs) {
  tallies_[static_cast<std::size_t>(stage)].actualUs += actualUs;
}

void WorkLedger::recordFrameBytes(std::size_t bytes) {
  peakFrameBytes_ =
      std::max(peakFrameBytes_, static_cast<std::int64_t>(bytes));
}

double WorkLedger::totalCpuMs() const {
  double total = 0.0;
  for (const StageTally& tally : tallies_) total += tally.cpuMs;
  return total;
}

double WorkLedger::analysisCpuMs() const {
  return totalCpuMs() - tally(Stage::kEvent).cpuMs;
}

WorkLedger& WorkLedger::operator+=(const WorkLedger& o) {
  for (std::size_t i = 0; i < tallies_.size(); ++i) tallies_[i] += o.tallies_[i];
  analyses_ += o.analyses_;
  decorations_ += o.decorations_;
  bypassClicks_ += o.bypassClicks_;
  cacheHits_ += o.cacheHits_;
  cacheMisses_ += o.cacheMisses_;
  totalDebounceLatency_ = totalDebounceLatency_ + o.totalDebounceLatency_;
  // The peak is a max, not a sum: sessions share one frame size.
  peakFrameBytes_ = std::max(peakFrameBytes_, o.peakFrameBytes_);
  return *this;
}

}  // namespace darpa::core
