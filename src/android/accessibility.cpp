#include "android/accessibility.h"

#include <algorithm>

namespace darpa::android {

gfx::Bitmap AccessibilityService::takeScreenshot() const {
  if (manager_ == nullptr) return {};
  return manager_->windowManager().composite();
}

bool AccessibilityService::dispatchClick(Point screen) const {
  if (manager_ == nullptr) return false;
  return manager_->windowManager().clickAt(screen) != nullptr;
}

WindowManager* AccessibilityService::windowManager() const {
  return manager_ ? &manager_->windowManager() : nullptr;
}

Looper* AccessibilityService::looper() const {
  return manager_ ? &manager_->looper() : nullptr;
}

AccessibilityManager::AccessibilityManager(Looper& looper, WindowManager& wm)
    : looper_(&looper), wm_(&wm) {
  wm_->setEventSink(this);
  wm_->setClock(&looper.clock());
}

AccessibilityManager::~AccessibilityManager() { wm_->setEventSink(nullptr); }

void AccessibilityManager::connect(AccessibilityService& service) {
  const bool already =
      std::any_of(connections_.begin(), connections_.end(),
                  [&](const Connection& c) { return c.service == &service; });
  if (already) return;
  connections_.push_back(Connection{&service, Millis{-1'000'000}, 0, {}});
  service.manager_ = this;
  service.onServiceConnected();
}

void AccessibilityManager::disconnect(AccessibilityService& service) {
  const auto it =
      std::find_if(connections_.begin(), connections_.end(),
                   [&](const Connection& c) { return c.service == &service; });
  if (it == connections_.end()) return;
  if (it->pendingTask != 0) looper_->cancel(it->pendingTask);
  connections_.erase(it);
  service.manager_ = nullptr;
}

void AccessibilityManager::onUiEvent(const AccessibilityEvent& event) {
  ++totalEmitted_;
  for (Connection& conn : connections_) {
    if ((conn.service->eventTypesMask() & eventCode(event.type)) == 0) continue;
    const Millis timeout = conn.service->notificationTimeout();
    if (timeout.count <= 0) {
      // Immediate delivery path. The task re-finds its connection, like the
      // delayed path: a service disconnected before the looper runs (and
      // possibly destroyed) must not receive the event.
      AccessibilityService* service = conn.service;
      looper_->post([this, service, copy = event] {
        const auto it = std::find_if(
            connections_.begin(), connections_.end(),
            [&](const Connection& c) { return c.service == service; });
        if (it == connections_.end()) return;
        it->lastDelivery = looper_->now();
        ++totalDelivered_;
        service->onAccessibilityEvent(copy);
      });
      continue;
    }
    if (conn.pendingTask != 0) {
      // A delivery is already scheduled: coalesce to the newest event,
      // exactly like the framework batches events within the timeout.
      conn.pendingEvent = event;
      ++totalCoalesced_;
      continue;
    }
    conn.pendingEvent = event;
    const Millis earliest = conn.lastDelivery + timeout;
    const Millis delay = earliest > looper_->now()
                             ? earliest - looper_->now()
                             : Millis{0};
    AccessibilityService* service = conn.service;
    conn.pendingTask = looper_->postDelayed(
        [this, service] {
          const auto it = std::find_if(
              connections_.begin(), connections_.end(),
              [&](const Connection& c) { return c.service == service; });
          if (it == connections_.end()) return;
          deliver(*it);
        },
        delay);
  }
}

void AccessibilityManager::deliver(Connection& conn) {
  conn.pendingTask = 0;
  if (!conn.pendingEvent) return;
  const AccessibilityEvent event = *conn.pendingEvent;
  conn.pendingEvent.reset();
  conn.lastDelivery = looper_->now();
  ++totalDelivered_;
  conn.service->onAccessibilityEvent(event);
}

}  // namespace darpa::android
