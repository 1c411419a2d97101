#ifndef TPA_BENCH_SERVING_TRACE_H_
#define TPA_BENCH_SERVING_TRACE_H_

/// Span recorder of the serving benchmark's traced runs.  Spans wrap the
/// calls the benchmark makes into the library's layers; they are kept in
/// memory and written once, at exit, as Chrome trace-event JSON (open it
/// at ui.perfetto.dev).  With a null Tracer every span is a no-op.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace tpa::bench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1); }

  /// Records one finished span.  `name` must be a string literal.  A
  /// request span (`request` set) may overlap other spans of its thread —
  /// it runs from the intended send to the completion callback — so it is
  /// written as an async slice keyed by its id.
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              uint64_t id, uint64_t parent, bool request = false) {
    const Span span{name,   Micros(start), Micros(end), id,
                    parent, ThreadIndex(), request};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    bool first = true;
    for (const Span& s : spans_) {
      const char* sep = first ? "" : ",\n";
      first = false;
      if (s.request) {
        std::fprintf(out,
                     "%s{\"name\": \"%s\", \"cat\": \"request\", \"ph\": "
                     "\"b\", \"id\": %llu, \"ts\": %.3f, \"pid\": 1, "
                     "\"tid\": %u},\n{\"name\": \"%s\", \"cat\": "
                     "\"request\", \"ph\": \"e\", \"id\": %llu, \"ts\": "
                     "%.3f, \"pid\": 1, \"tid\": %u}",
                     sep, s.name, static_cast<unsigned long long>(s.id),
                     s.start_us, s.tid, s.name,
                     static_cast<unsigned long long>(s.id), s.end_us, s.tid);
      } else {
        std::fprintf(out,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                     "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": "
                     "{\"id\": %llu, \"parent\": %llu}}",
                     sep, s.name, s.start_us, s.end_us - s.start_us, s.tid,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
      }
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    uint64_t id;
    uint64_t parent;  // 0 = root
    uint32_t tid;
    bool request;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Small stable per-thread index, so trace viewers get one track per
  /// thread instead of hashed thread ids.
  static uint32_t ThreadIndex() {
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t index = next.fetch_add(1);
    return index;
  }

  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call into a layer; records nothing when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        id_(tracer != nullptr ? tracer->NewId() : 0),
        start_(tracer != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(name_, start_, Clock::now(), id_, parent_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_;
  Clock::time_point start_;
};

}  // namespace tpa::bench

#endif  // TPA_BENCH_SERVING_TRACE_H_
