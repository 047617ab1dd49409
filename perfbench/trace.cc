#include "trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

struct Record {
  std::uint64_t id;
  std::uint64_t parent;
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Record> spans;
  std::vector<std::uint64_t> open;  ///< this thread's span stack
  std::map<std::string, std::uint64_t> counters;
};

std::mutex g_mutex;
// Buffers outlive their threads: pool workers exit before write() runs.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
std::atomic<std::uint64_t> g_next_id{1};

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
  }
  return *buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Span::Span(const char* name, std::uint64_t parent)
    : name_(name), id_(g_next_id.fetch_add(1, std::memory_order_relaxed)) {
  ThreadBuffer& buffer = local_buffer();
  if (parent == kCurrentParent) {
    parent = buffer.open.empty() ? 0 : buffer.open.back();
  }
  parent_ = parent;
  buffer.open.push_back(id_);
  start_ns_ = now_ns();
}

Span::~Span() {
  const std::int64_t end = now_ns();
  ThreadBuffer& buffer = local_buffer();
  buffer.open.pop_back();
  buffer.spans.push_back({id_, parent_, name_, start_ns_, end});
}

void count(const char* name, std::uint64_t n) {
  local_buffer().counters[name] += n;
}

void write(const std::string& spans_path, const std::string& counters_path,
           const std::string& workload) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::ofstream spans(spans_path);
  std::map<std::string, std::uint64_t> totals;
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->spans) {
      spans << r.id << '\t' << r.parent << '\t' << r.name << '\t'
            << r.start_ns << '\t' << r.end_ns << '\t' << buffer->thread
            << '\t' << workload << '\n';
    }
    for (const auto& [name, n] : buffer->counters) totals[name] += n;
  }
  std::ofstream counters(counters_path);
  counters << '{';
  bool first = true;
  for (const auto& [name, n] : totals) {
    counters << (first ? "" : ",") << '"' << name << "\":" << n;
    first = false;
  }
  counters << "}\n";
  if (!spans || !counters) {
    throw std::runtime_error("cannot write trace to " + spans_path);
  }
}

}  // namespace perfbench
