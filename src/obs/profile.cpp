#include "obs/profile.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <utility>

#include "obs/tracer.hpp"

namespace nw::obs {

namespace {

/// Folded stacks below a root: ";frame;frame..." -> self nanoseconds.
using FoldedNs = std::unordered_map<std::string, std::int64_t>;

/// One thread's call tree, stored flat: one entry per distinct stack, keyed
/// by its frame path. Only the owner thread touches `path` and `open`;
/// `mutex` guards `name` and `self_ns` against snapshot(), start() and
/// renames from other threads.
struct ThreadTree {
  struct Open {
    std::size_t path_len;  ///< `path` length before this frame was pushed
    std::int64_t child_ns;  ///< summed durations of closed child spans
  };
  std::mutex mutex;
  std::string name;  ///< root frame
  FoldedNs self_ns;
  std::string path;  ///< the open frames, each prefixed by ';'
  std::vector<Open> open;
};

struct Registry {
  std::mutex mutex;  ///< guards everything below; taken before a tree's mutex
  std::vector<ThreadTree*> live;
  FoldedNs exited;  ///< full stacks (root included) of exited threads
  int next_tid = 0;  ///< numbers unnamed threads' roots
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: threads may fold at exit
  return *r;
}

/// Owns the calling thread's tree; at thread exit folds it into the
/// registry's exited map and frees it.
struct LocalTree {
  std::unique_ptr<ThreadTree> tree;
  ~LocalTree() {
    if (!tree) return;
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.live.erase(std::find(reg.live.begin(), reg.live.end(), tree.get()));
    for (const auto& [stack, ns] : tree->self_ns) reg.exited[tree->name + stack] += ns;
  }
};

thread_local LocalTree t_tree;

ThreadTree& local_tree() {
  if (!t_tree.tree) {
    auto tree = std::make_unique<ThreadTree>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    const std::string& name = detail::thread_name();
    tree->name = name.empty() ? "thread " + std::to_string(reg.next_tid++) : name;
    reg.live.push_back(tree.get());
    t_tree.tree = std::move(tree);
  }
  return *t_tree.tree;
}

/// Bytes of one folded map: hash nodes (key, value, next pointer, cached
/// hash), heap key storage beyond the SSO buffer, and the bucket array.
std::uint64_t folded_bytes(const FoldedNs& m) {
  std::uint64_t bytes = m.bucket_count() * sizeof(void*);
  for (const auto& [stack, ns] : m) {
    bytes += sizeof(FoldedNs::value_type) + 2 * sizeof(void*);
    if (stack.capacity() > sizeof(std::string)) bytes += stack.capacity();
  }
  return bytes;
}

/// True when `stack` (frames each prefixed by ';') has a frame `frame`;
/// an empty `frame` matches every stack.
bool passes_through(std::string_view stack, std::string_view frame) {
  if (frame.empty()) return true;
  for (std::size_t at = stack.find(frame); at != std::string_view::npos;
       at = stack.find(frame, at + 1)) {
    const std::size_t end = at + frame.size();
    if (at > 0 && stack[at - 1] == ';' && (end == stack.size() || stack[end] == ';')) {
      return true;
    }
  }
  return false;
}

}  // namespace

namespace detail {

void push_frame(std::string_view name) {
  ThreadTree& t = local_tree();
  t.open.push_back({t.path.size(), 0});
  t.path += ';';
  t.path += name;
}

void pop_frame(std::int64_t dur_ns) {
  ThreadTree& t = *t_tree.tree;  // the matching push created it
  const ThreadTree::Open top = t.open.back();
  t.open.pop_back();
  {
    std::lock_guard<std::mutex> lock(t.mutex);
    t.self_ns[t.path] += dur_ns - top.child_ns;
  }
  t.path.resize(top.path_len);
  if (!t.open.empty()) t.open.back().child_ns += dur_ns;
}

void rename_frame_root(std::string_view name) {
  if (!t_tree.tree) return;  // a tree created later reads thread_name()
  std::lock_guard<std::mutex> lock(t_tree.tree->mutex);
  t_tree.tree->name.assign(name);
}

}  // namespace detail

bool Profiler::start() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (running()) return false;
  reg.exited.clear();
  for (ThreadTree* t : reg.live) {
    std::lock_guard<std::mutex> tlock(t->mutex);
    t->self_ns.clear();
  }
  detail::g_span_mask.fetch_or(detail::kSpanProfileBit, std::memory_order_relaxed);
  return true;
}

void Profiler::stop() {
  std::lock_guard<std::mutex> lock(registry().mutex);
  detail::g_span_mask.fetch_and(~detail::kSpanProfileBit, std::memory_order_relaxed);
}

bool Profiler::running() noexcept {
  return profile_enabled();
}

std::uint64_t Profiler::total_us() {
  std::uint64_t total = 0;
  for (const FoldedEntry& e : snapshot()) total += e.us;
  return total;
}

std::uint64_t Profiler::approx_bytes() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t bytes = folded_bytes(reg.exited);
  for (ThreadTree* t : reg.live) {
    std::lock_guard<std::mutex> tlock(t->mutex);
    bytes += sizeof(ThreadTree) + t->name.capacity() + folded_bytes(t->self_ns);
  }
  return bytes;
}

std::vector<FoldedEntry> Profiler::snapshot(std::string_view frame) {
  std::map<std::string, std::int64_t> folded;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& [stack, ns] : reg.exited) {
      if (passes_through(stack, frame)) folded[stack] += ns;
    }
    for (ThreadTree* t : reg.live) {
      std::lock_guard<std::mutex> tlock(t->mutex);
      for (const auto& [stack, ns] : t->self_ns) {
        if (passes_through(stack, frame)) folded[t->name + stack] += ns;
      }
    }
  }
  std::vector<FoldedEntry> out;
  out.reserve(folded.size());
  for (const auto& [stack, ns] : folded) {
    if (ns > 0) out.push_back({stack, static_cast<std::uint64_t>(ns + 999) / 1000});
  }
  return out;  // std::map iteration is already stack-sorted
}

void Profiler::write_folded(std::ostream& os) {
  for (const FoldedEntry& e : snapshot()) os << e.stack << ' ' << e.us << '\n';
}

std::vector<FoldedEntry> folded_delta(const std::vector<FoldedEntry>& before,
                                      const std::vector<FoldedEntry>& now,
                                      std::size_t limit) {
  std::map<std::string, std::uint64_t> base;
  for (const FoldedEntry& e : before) base[e.stack] = e.us;
  std::vector<FoldedEntry> delta;
  for (const FoldedEntry& e : now) {
    const auto it = base.find(e.stack);
    const std::uint64_t prev = it == base.end() ? 0 : it->second;
    if (e.us > prev) delta.push_back({e.stack, e.us - prev});
  }
  std::sort(delta.begin(), delta.end(), [](const FoldedEntry& a, const FoldedEntry& b) {
    return a.us != b.us ? a.us > b.us : a.stack < b.stack;
  });
  if (delta.size() > limit) delta.resize(limit);
  return delta;
}

}  // namespace nw::obs
