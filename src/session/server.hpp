// Session transports: the line-serving engine behind both JSONL servers,
// the stdio server loop, and the human shell REPL.
//
// One engine (LineEngine) serves every machine-protocol client, over stdio
// (`serve`) or a daemon socket connection (net/daemon.hpp). A reader thread
// pushes request lines into its queue; the worker pops them, runs each
// through Protocol::handle_line, and writes the response. The engine is
// also the session's progress sink, so the analyzer's own checkpoints take
// a `cancel` queued behind the analyzing request, ack it out-of-band with
// {"cancelled":true}, and abort the analysis (its request then fails with
// error code "cancelled"). Transports differ only in the values they hand
// the engine: queue bound, event flag, and the meters to bump.
//
// `shell` is a line-oriented REPL for a person poking at a design. Neither
// transport owns the session: the caller builds it (and can export its
// metrics afterwards — per-session counters accumulate across the whole
// conversation).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "noise/progress.hpp"
#include "obs/metrics.hpp"
#include "session/json.hpp"
#include "session/reqobs.hpp"
#include "session/session.hpp"

namespace nw::session {

class Protocol;

/// Next request line from `in`: strips a CRLF client's '\r' and skips blank
/// keep-alive lines (they get no response). False at EOF.
bool read_request_line(std::istream& in, std::string& line);

/// The request's "id" member; null when absent or the line is not an object.
[[nodiscard]] Json request_id_of(std::string_view line);

/// Load meters an engine bumps. Every member is optional: the daemon points
/// them at its fleet-wide metrics, stdio `serve` leaves them null.
struct ServeMeters {
  std::atomic<std::int64_t>* queue_depth = nullptr;  ///< queued lines, all engines
  obs::Gauge* queue_depth_gauge = nullptr;           ///< mirrors *queue_depth
  obs::Counter* handled = nullptr;                   ///< requests answered
};

/// One client's line-serving engine: the request-line queue between its
/// reader and worker, the progress sink, and the worker loop. Queued line
/// bytes are charged to the "daemon_queues" memory account.
class LineEngine final : public noise::ProgressSink {
 public:
  /// `max_queued` bounds the queued lines (0 = unbounded); `progress_events`
  /// streams {"event":"progress"} lines. Cancel interception is always on.
  LineEngine(std::ostream& out, std::size_t max_queued, bool progress_events,
             ServeMeters meters = {});
  ~LineEngine() override;
  LineEngine(const LineEngine&) = delete;
  LineEngine& operator=(const LineEngine&) = delete;

  /// Reader side. `cancel` lines bypass the bound, so a client can always
  /// cancel the analysis that is filling its own queue. False when the
  /// queue is full (the line is left untouched for the caller's reject
  /// response); after close() lines are swallowed.
  bool push(std::string& line);

  /// Reader side: no more lines. run() returns once the queue drains.
  void close();

  [[nodiscard]] std::size_t depth() const;

  /// Worker loop: pop → re-arm cancel → Protocol::handle_line → write,
  /// until closed and drained. Installs this engine as `session`'s progress
  /// sink for the duration. Returns the number of requests answered.
  std::size_t run(Session& session, Protocol& proto);

  /// Write one line and flush. Responses, events and reader-side rejects
  /// come from different threads; a mutex keeps each line whole.
  void write_line(const std::string& line);

  // noise::ProgressSink — called from the checkpoints of analyses run()
  // dispatches, i.e. on the worker thread.
  void on_progress(const noise::Progress& p) override;
  bool cancel_requested() override;

 private:
  bool pop(std::string& line);
  std::optional<std::string> take_cancel();
  /// Queue bookkeeping under mutex_: one line of `bytes` joined (+1) or
  /// left (-1) the queue.
  void account(int delta, std::size_t bytes);

  std::ostream& out_;
  std::mutex write_mu_;
  const std::size_t max_queued_;
  const bool progress_events_;
  const ServeMeters meters_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::string> lines_;
  std::size_t charged_ = 0;  ///< queued-line bytes currently charged
  bool closed_ = false;
  bool cancelled_ = false;  ///< worker thread only
};

/// Read JSONL requests from `in` until EOF, writing exactly one JSON
/// response line per input line to `out` (flushed per line, so a pipe
/// client can converse synchronously). Returns the number of requests.
/// A reader thread feeds a LineEngine; the calling thread is the worker,
/// so its trace/profile thread encloses every request span. With a
/// RequestContext every command gets a request id, a trace span, a
/// latency-histogram sample, and slow-log coverage (see
/// session/reqobs.hpp). With `progress_events`, {"event":"progress"} lines
/// interleave with the responses; clients must then skip "event" lines
/// when matching responses.
std::size_t serve(Session& session, std::istream& in, std::ostream& out,
                  RequestContext* reqobs = nullptr, bool progress_events = false);

/// Interactive REPL: whitespace-tokenized commands, human-readable
/// answers, `help` for the command list, `quit` (or EOF) to leave.
/// Returns the number of commands executed.
std::size_t shell(Session& session, std::istream& in, std::ostream& out);

}  // namespace nw::session
