// Span-time profiler: the tracer's RAII spans folded into collapsed stacks
// (no sampling, no native unwinding).
//
// While the profiler runs, every obs::Span that arms pushes its name onto
// the calling thread's call tree, and at destruction adds its *self* time to
// that stack: its duration minus the durations of the spans it enclosed on
// the same thread. The duration is the span's own clock pair — the one its
// trace event and duration sink use — so a frame's inclusive time (its own
// stack plus every stack below it) is exactly the time its spans measured.
// Aggregated per distinct stack, in microseconds:
//
//   main;iteration 1;propagate;propagate-level 412 183
//   worker 3;propagate-level 388 97
//
// which is the format standard flamegraph tooling consumes directly
// (flamegraph.pl, speedscope, inferno).
//
// Why this is deterministic-safe: folding only reads the spans' own clocks.
// It never touches the metrics registry or the executor, so results,
// violations, provenance and deterministic counters are byte-identical with
// profiling on or off (property-tested in tests/test_profile.cpp). The set
// of stacks is the set of spans that ran: no phase is missed for being
// short.
//
// Threads: a thread's tree is created at its first push, updated by that
// thread under its own (uncontended) mutex, read by snapshot() under the
// same mutex, and folded into one process-wide map when the thread exits.
// Memory is one entry per distinct stack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace nw::obs {

/// One aggregated collapsed-stack line: `stack` is the semicolon-joined
/// frame path (root frame = thread name), `us` the self time folded into
/// exactly that stack, in microseconds (rounded up, so never 0).
struct FoldedEntry {
  std::string stack;
  std::uint64_t us = 0;
};

/// Process-wide span-time profiler (static-only interface, like Tracer).
/// start/stop are cheap and may bracket a single request (the session
/// `profile` protocol command) or a whole CLI run (--profile-out).
class Profiler {
 public:
  Profiler() = delete;

  /// Drop the previous aggregate and start folding span time. Returns
  /// false (and changes nothing) if the profiler is already running. Spans
  /// opened *before* start never pushed a frame, so a mid-run start only
  /// sees spans opened after it.
  [[nodiscard]] static bool start();

  /// Stop pushing new frames (idempotent). Spans already pushed still fold
  /// their time when they close. The aggregate is kept until the next
  /// start() so it can be dumped after stopping.
  static void stop();

  [[nodiscard]] static bool running() noexcept;

  /// Sum of every FoldedEntry::us in snapshot().
  [[nodiscard]] static std::uint64_t total_us();

  /// Approximate bytes held by the exited threads' folded map and the live
  /// threads' trees (string storage + hash nodes). Feeds the memtrack
  /// "trace_buffers" sampled account.
  [[nodiscard]] static std::uint64_t approx_bytes();

  /// Aggregated folded stacks, sorted by stack string; with a `frame`,
  /// only the stacks that pass through a frame of that name. Safe while
  /// spans run on other threads.
  [[nodiscard]] static std::vector<FoldedEntry> snapshot(std::string_view frame = {});

  /// Write `stack us` lines (the collapsed-stack format), sorted.
  static void write_folded(std::ostream& os);
};

/// Top-`limit` stacks of `now - before` by descending time delta (ties by
/// stack string) — the bounded one-shot capture attached to slow-request
/// slowlog entries. Entries whose time did not grow are dropped.
[[nodiscard]] std::vector<FoldedEntry> folded_delta(
    const std::vector<FoldedEntry>& before, const std::vector<FoldedEntry>& now,
    std::size_t limit);

}  // namespace nw::obs
