// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into the system's public entry points
// (nothing inside the system is traced) and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;   // index of the enclosing span, -1 for a root
    int64_t request = -1;  // replayed request or module, -1 for set-up
  };

  /// Closes its span when it goes out of scope (or at end()). A scope of a
  /// null or disabled recorder does nothing, not even read the clock.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, int64_t request = -1)
        : recorder_(recorder != nullptr && recorder->enabled_ ? recorder
                                                              : nullptr) {
      if (recorder_ != nullptr) index_ = recorder_->open(name, request);
    }
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void end() {
      if (recorder_ != nullptr) recorder_->close(index_);
      recorder_ = nullptr;
    }

   private:
    SpanRecorder* recorder_;
    int32_t index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  int32_t open(const char* name, int64_t request) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request < 0 && span.parent >= 0
                       ? spans_[static_cast<size_t>(span.parent)].request
                       : request;
    span.start_ns = now_ns();
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void close(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  bool enabled_ = true;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench
