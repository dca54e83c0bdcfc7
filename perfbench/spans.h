// In-memory span log of the benchmark harness (traced runs only).
//
// Every span the harness records wraps one of its own calls into a liod
// layer's public API (client Call, ShardedEngine::Execute, ExecuteOnIndex,
// Bulkload, DropCaches, FlushUpdates, FlushBuffers, StatsJson). Each thread
// appends to its own SpanLog without locking; the logs are merged and written
// out once, after every measured window has ended.
#ifndef LIOD_PERFBENCH_SPANS_H_
#define LIOD_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
inline std::uint64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

struct Span {
  const char* name;         ///< string literal: the API the span wraps
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t id;         ///< unique: (thread << 40) | sequence
  std::uint64_t parent;     ///< id of the enclosing span, 0 for a root
  std::uint64_t request;    ///< request id the span belongs to, 0 for none
};

/// One thread's spans. A disabled log records nothing. A log keeps its first
/// kMaxSpans spans (memory and the output file stay bounded on long runs) and
/// counts the rest as dropped.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 16;

  SpanLog(std::uint32_t thread, bool enabled) : thread_(thread), enabled_(enabled) {}

  /// Records a finished span and returns its id (0 when disabled).
  std::uint64_t Add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t parent = 0, std::uint64_t request = 0) {
    if (!enabled_) return 0;
    const std::uint64_t id = (static_cast<std::uint64_t>(thread_) << 40) | ++seq_;
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{name, start_ns, end_ns, id, parent, request});
    } else {
      ++dropped_;
    }
    return id;
  }

  /// Reserves an id for a span whose children finish before it does; the
  /// span itself is added later with AddWithId.
  std::uint64_t ReserveId() {
    return enabled_ ? (static_cast<std::uint64_t>(thread_) << 40) | ++seq_ : 0;
  }
  void AddWithId(std::uint64_t id, const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t parent = 0) {
    if (!enabled_) return;
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{name, start_ns, end_ns, id, parent, 0});
    } else {
      ++dropped_;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }
  void Reserve() {
    if (enabled_) spans_.reserve(kMaxSpans);
  }

 private:
  std::uint32_t thread_;
  bool enabled_;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Times one call and records it in `log` on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t parent = 0)
      : log_(log), name_(name), parent_(parent), start_ns_(NowNs()) {}
  ~ScopedSpan() { log_->Add(name_, start_ns_, NowNs(), parent_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t start_ns_;
};

/// Writes every span of `logs` as CSV (name,start_ns,end_ns,id,parent,request).
/// Returns false when the file cannot be written.
inline bool WriteSpansCsv(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,id,parent,request\n");
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%s,%llu,%llu,%llu,%llu,%llu\n", s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // LIOD_PERFBENCH_SPANS_H_
