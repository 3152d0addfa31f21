// In-memory span recorder for the traced ladder run. Each thread appends to
// its own vector; at the end of the run the recorder writes them as Chrome
// trace_event JSON ("ph":"X" complete events).
#ifndef SSBENCH_SRC_SPANS_H_
#define SSBENCH_SRC_SPANS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ssbench/src/stats.h"

namespace ssbench {

struct Span {
  const char* name;  // string literal
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t parent;  // index in the same thread's buffer + 1; 0 = root
  uint64_t op_id;
};

class SpanRecorder {
 public:
  // Per-thread buffer; the recorder owns it and keeps it until written.
  class Buffer {
   public:
    explicit Buffer(uint32_t tid) : tid_(tid) {}
    uint32_t Begin(const char* name, uint32_t parent, uint64_t op_id) {
      spans_.push_back({name, NowNs(), 0, parent, op_id});
      return static_cast<uint32_t>(spans_.size());
    }
    void End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }
    uint32_t tid() const { return tid_; }
    const std::vector<Span>& spans() const { return spans_; }

   private:
    uint32_t tid_;
    std::vector<Span> spans_;
  };

  Buffer* NewBuffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>(static_cast<uint32_t>(buffers_.size() + 1)));
    return buffers_.back().get();
  }

  size_t TotalSpans() const {
    size_t n = 0;
    for (const auto& b : buffers_) {
      n += b->spans().size();
    }
    return n;
  }

  // Chrome trace_event JSON; open in chrome://tracing or Perfetto. Writes
  // at most `per_buffer` spans of each thread buffer (its first ones, which
  // include the rung's root span) and returns how many were written.
  size_t WriteChromeJson(const std::string& path, size_t per_buffer) const {
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return 0;
    }
    uint64_t origin = ~uint64_t{0};
    for (const auto& b : buffers_) {
      for (const Span& s : b->spans()) {
        origin = std::min(origin, s.start_ns);
      }
    }
    std::fputs("{\"traceEvents\":[\n", f);
    size_t written = 0;
    for (const auto& b : buffers_) {
      for (size_t i = 0; i < std::min(b->spans().size(), per_buffer); ++i) {
        const Span& s = b->spans()[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"args\":{\"op\":%llu,\"id\":%zu,\"parent\":%u}}",
                     written == 0 ? "" : ",\n", s.name, b->tid(),
                     static_cast<double>(s.start_ns - origin) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.op_id), i + 1, s.parent);
        ++written;
      }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0 ? written : 0;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span; a null buffer records nothing (the untraced pass).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder::Buffer* buf, const char* name, uint32_t parent, uint64_t op_id)
      : buf_(buf), id_(buf != nullptr ? buf->Begin(name, parent, op_id) : 0) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) {
      buf_->End(id_);
    }
  }
  uint32_t id() const { return id_; }

 private:
  SpanRecorder::Buffer* buf_;
  uint32_t id_;
};

}  // namespace ssbench

#endif  // SSBENCH_SRC_SPANS_H_
