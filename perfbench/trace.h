// In-memory span and counter recorder for the traced campaign replay.
//
// A span is (id, parent, name, start, end, thread).  Spans nest per thread
// through a thread-local stack; a task handed to a pool worker names its
// parent explicitly (the stage span that submitted it), so the trace keeps
// the causal tree across threads.  Counters are per-thread sums merged at
// write time.  Nothing leaves memory until write() runs at the end of the
// replay, so tracing costs two clock reads and a vector append per span.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Sentinel parent: "the innermost span open on this thread" (or none).
inline constexpr std::uint64_t kCurrentParent = ~std::uint64_t{0};

class Span {
 public:
  explicit Span(const char* name, std::uint64_t parent = kCurrentParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::int64_t start_ns_;
};

/// Add `n` to the named counter (summed across threads at write time).
void count(const char* name, std::uint64_t n);

/// Write every recorded span as TSV (id, parent, name, start_ns, end_ns,
/// thread, workload) to `spans_path` and the counters as a JSON object to
/// `counters_path`.  Parent 0 marks a root span.
void write(const std::string& spans_path, const std::string& counters_path,
           const std::string& workload);

}  // namespace perfbench
