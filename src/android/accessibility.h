// Accessibility Service framework.
//
// Models the Android Accessibility stack the way DARPA consumes it:
//
//  * AccessibilityService — base class a client derives from; it declares an
//    event-type mask and a notification timeout, receives events through
//    onAccessibilityEvent(), and gets the privileged capabilities DARPA
//    needs: takeScreenshot() (API 30+, the feature that makes the paper's
//    design possible on Android 11+) and dispatchClick() (gesture
//    dispatch, used by the auto-bypass option).
//  * AccessibilityManager — routes window-manager UI events to connected
//    services, honoring each service's mask and coalescing events within the
//    notification timeout exactly like the real framework batches them
//    (the paper's "200 ms delay for event notification", §V).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "android/accessibility_event.h"
#include "android/looper.h"
#include "android/window_manager.h"
#include "gfx/bitmap.h"

namespace darpa::android {

class AccessibilityManager;

class AccessibilityService {
 public:
  virtual ~AccessibilityService() = default;

  /// Bitmask of EventType codes this service subscribes to.
  [[nodiscard]] std::uint32_t eventTypesMask() const { return mask_; }
  void setEventTypesMask(std::uint32_t mask) { mask_ = mask; }

  /// Minimum period between event deliveries; events arriving faster are
  /// coalesced to the latest one (android:notificationTimeout).
  [[nodiscard]] Millis notificationTimeout() const { return timeout_; }
  void setNotificationTimeout(Millis t) { timeout_ = t; }

  /// Event callback, invoked on the looper.
  virtual void onAccessibilityEvent(const AccessibilityEvent& event) = 0;

  /// Called when the service is connected and capabilities become available.
  virtual void onServiceConnected() {}

  // --- capabilities (valid only while connected) ---------------------------
  [[nodiscard]] bool connected() const { return manager_ != nullptr; }
  /// AccessibilityService.takeScreenshot(): composites the current screen.
  [[nodiscard]] gfx::Bitmap takeScreenshot() const;
  /// Dispatches a tap gesture at screen coordinates; returns whether any
  /// view consumed it.
  bool dispatchClick(Point screen) const;
  /// Access to WindowManager.addView & friends for overlay decorations.
  [[nodiscard]] WindowManager* windowManager() const;
  [[nodiscard]] Looper* looper() const;

 private:
  friend class AccessibilityManager;
  std::uint32_t mask_ = kAllEventTypesMask;
  Millis timeout_{0};
  AccessibilityManager* manager_ = nullptr;
};

class AccessibilityManager : public UiEventSink {
 public:
  /// Borrows the looper and window manager; both must outlive the manager.
  /// Registers itself as the window manager's event sink.
  AccessibilityManager(Looper& looper, WindowManager& wm);
  ~AccessibilityManager() override;

  AccessibilityManager(const AccessibilityManager&) = delete;
  AccessibilityManager& operator=(const AccessibilityManager&) = delete;

  /// Connects a service (the user enabling it in Settings). The service must
  /// outlive the manager or disconnect first.
  void connect(AccessibilityService& service);
  void disconnect(AccessibilityService& service);

  void onUiEvent(const AccessibilityEvent& event) override;

  // --- statistics (used by the ct-sweep experiments) ------------------------
  [[nodiscard]] std::int64_t totalEmitted() const { return totalEmitted_; }
  [[nodiscard]] std::int64_t totalDelivered() const { return totalDelivered_; }
  [[nodiscard]] std::int64_t totalCoalesced() const { return totalCoalesced_; }

  [[nodiscard]] Looper& looper() { return *looper_; }
  [[nodiscard]] WindowManager& windowManager() { return *wm_; }

 private:
  struct Connection {
    AccessibilityService* service;
    Millis lastDelivery{-1'000'000};
    TaskId pendingTask = 0;
    std::optional<AccessibilityEvent> pendingEvent;
  };

  void deliver(Connection& conn);

  Looper* looper_;
  WindowManager* wm_;
  std::vector<Connection> connections_;
  std::int64_t totalEmitted_ = 0;
  std::int64_t totalDelivered_ = 0;
  std::int64_t totalCoalesced_ = 0;
};

}  // namespace darpa::android
