#include "common.hpp"

#include <sys/resource.h>

#include <fstream>
#include <iomanip>

#include "obs/tracer.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {
struct OpenSpan {
  const SpanRecorder* rec;
  int index;
  std::uint64_t group;
};
thread_local std::vector<OpenSpan> t_stack;  // open spans of this thread, innermost last

/// The innermost span `rec` has open on this thread, or nullptr.
const OpenSpan* innermost(const SpanRecorder* rec) {
  for (auto it = t_stack.rbegin(); it != t_stack.rend(); ++it) {
    if (it->rec == rec) return &*it;
  }
  return nullptr;
}
}  // namespace

int SpanRecorder::open(const std::string& name, std::uint64_t group) {
  const double now = std::chrono::duration<double>(Clock::now() - origin_).count();
  const OpenSpan* up = innermost(this);
  const int parent = up != nullptr ? up->index : -1;
  if (group == 0 && up != nullptr) group = up->group;
  int index = 0;
  {
    const std::lock_guard lock(mu_);
    index = static_cast<int>(spans_.size());
    spans_.push_back({name, now, now, parent, group});
  }
  t_stack.push_back({this, index, group});
  return index;
}

void SpanRecorder::close(int index) {
  const double now = std::chrono::duration<double>(Clock::now() - origin_).count();
  for (auto it = t_stack.rbegin(); it != t_stack.rend(); ++it) {
    if (it->rec == this && it->index == index) {
      t_stack.erase(std::next(it).base());
      break;
    }
  }
  const std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_s = now;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  const std::lock_guard lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::self_times(const std::vector<SpanRecord>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_s - spans[i].start_s;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  }
  return self;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  out << std::setprecision(9);
  for (const SpanRecord& s : spans()) {
    out << "{\"name\":\"" << nw::obs::json_escape(s.name) << "\",\"start_s\":" << s.start_s
        << ",\"end_s\":" << s.end_s << ",\"parent\":" << s.parent
        << ",\"group\":" << s.group << "}\n";
  }
}

Scope::Scope(SpanRecorder& rec, const char* name, std::uint64_t group) : rec_(rec) {
  if (rec_.enabled()) index_ = rec_.open(name, group);
}

Scope::~Scope() {
  if (index_ >= 0) rec_.close(index_);
}

}  // namespace perfbench
