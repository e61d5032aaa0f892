// Long-lived analysis session: persistent design state + incremental ECO loop.
//
// The CLI is one-shot: read, analyze, print, exit. A Session instead owns
// the Design + Parasitics + STA results + the last noise Result and
// answers many queries against them — the paper's actual workflow (run an
// analyzer once, then inspect violations, patch the design, re-check)
// served from memory.
//
// Edits accumulate a dirty net set; the next query that needs noise
// results re-times the design with sta::run_incremental from the last
// analyzed state's timing — it replays only what the edits reach and
// returns the nets whose timing moved, so nothing is diffed — and feeds the
// union of both sets to analyze_incremental, which re-estimates, propagates
// and checks only their cone. An arrival-window edit marks no net: the
// incremental STA re-seeds every input port and finds the re-timed one
// itself. A full analyze() happens only for the first result or when
// analysis *options* change (mode/model/constraints/...). Results are
// bit-identical to a fresh full run of the edited design (tested property).
//
// State identity: every state-changing edit bumps a monotonically
// allocated epoch; undo restores the pre-edit epoch along with the exact
// pre-edit bytes (the journal stores captured state, not recomputed
// inverses). A bounded LRU cache keyed by options-digest + epoch makes
// repeated identical queries — including query→edit→undo→query — O(1):
// each entry's bytes are summed once on insert, so neither a hit nor an
// edit walks the cached results to refresh the memory accounts.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netlist/design.hpp"
#include "noise/analyzer.hpp"
#include "obs/metrics.hpp"
#include "parasitics/rcnet.hpp"
#include "sta/sta.hpp"
#include "util/interval.hpp"

namespace nw::session {

/// Lookup failure on a user-supplied name (net/instance/port). The
/// protocol layer maps this to a structured "not_found" error; it is an
/// std::invalid_argument so non-protocol callers need no special casing.
class NotFound : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

inline constexpr std::size_t kUndoCapacity = 64;   ///< journal depth (oldest edits fall off)
inline constexpr std::size_t kCacheCapacity = 16;  ///< cached (digest, epoch) results

struct SessionConfig {
  noise::Options noise;          ///< analysis options (mutable via set_option)
  sta::Options sta;              ///< base STA options (arrivals mutable via edits)
};

/// A completed base analysis exported from one session and adopted by
/// another that shares the same design state — the daemon prewarms one full
/// analysis and every new connection starts from it, so connect→query never
/// pays a full analyze. Shared immutably; adopt never copies.
struct AnalysisSeed {
  std::shared_ptr<const noise::Result> result;
  std::shared_ptr<const sta::Result> sta;
  std::string digest;  ///< canonical options digest the result was computed under
};

/// Per-endpoint noise slack with its identity (the Result only stores the
/// slack values; the session re-derives the deterministic endpoint order).
struct EndpointSlack {
  std::string endpoint;  ///< "inst/PIN" or port name
  std::string net;
  double slack = 0.0;
};

class Session {
 public:
  /// Takes ownership of the design state. The library must outlive the
  /// session (same contract as Design itself).
  Session(net::Design design, para::Parasitics para, SessionConfig config = {});

  /// Shares an immutable design state with other sessions (the daemon's
  /// per-connection mode): reads go to the shared base, and the first
  /// mutating ECO edit copies the touched half (design or parasitics) into
  /// a private overlay — copy-on-write at object granularity. Sessions
  /// that never edit never copy.
  Session(std::shared_ptr<const net::Design> design,
          std::shared_ptr<const para::Parasitics> para, SessionConfig config = {});

  /// Releases this session's share of the "session_cache"/"undo_journal"
  /// memory accounts (each session delta-charges only its own footprint, so
  /// concurrent daemon sessions never fight over the global accounts).
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- queries (analysis runs lazily on first need) -----------------------

  /// Current noise result; triggers STA + (usually incremental) noise
  /// analysis if edits or option changes are pending.
  [[nodiscard]] const noise::Result& result();

  /// The most recent analysis result *without* triggering one — nullptr
  /// until the session has analyzed at least once. The pointed-to Result
  /// may be stale with respect to pending edits; exporters (the server's
  /// exit stats) use it to report the last run's executor utilization.
  [[nodiscard]] const noise::Result* last_result() const noexcept {
    return base_result_.get();
  }

  /// All endpoint noise slacks, ascending (worst first).
  [[nodiscard]] std::vector<EndpointSlack> endpoint_slacks();

  [[nodiscard]] const net::Design& design() const noexcept {
    return own_design_ ? *own_design_ : *base_design_;
  }
  [[nodiscard]] const para::Parasitics& parasitics() const noexcept {
    return own_para_ ? *own_para_ : *base_para_;
  }
  /// True while the session still reads the shared base design AND the
  /// shared base parasitics (no COW copy materialized yet).
  [[nodiscard]] bool shares_base() const noexcept {
    return base_design_ != nullptr && !own_design_ && !own_para_;
  }

  /// Would the next result() call run an analysis? False when the current
  /// (digest, epoch) key is the base result or sits in the cache. Pure
  /// query: no LRU reordering, no analysis. The daemon's admission gate
  /// uses this to charge only requests that will actually occupy a slot.
  [[nodiscard]] bool needs_analysis() const;

  /// Export the current base analysis for seeding sibling sessions;
  /// triggers an analysis if none ran yet.
  [[nodiscard]] AnalysisSeed export_seed();

  /// Adopt a seed as this session's base analysis. Only a pristine session
  /// accepts (no edits, no prior analysis) and only when the seed's options
  /// digest matches this session's — otherwise returns false and the
  /// session is unchanged.
  bool adopt_seed(const AnalysisSeed& seed);
  [[nodiscard]] const noise::Options& noise_options() const noexcept {
    return cfg_.noise;
  }
  /// Current STA options (arrival-window edits land here). The clock
  /// period is synced from the noise options at analysis time.
  [[nodiscard]] const sta::Options& sta_options() const noexcept { return cfg_.sta; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t undo_depth() const noexcept { return journal_.size(); }

  /// Resolve names; throw NotFound with the offending name otherwise.
  [[nodiscard]] NetId require_net(const std::string& name) const;
  [[nodiscard]] InstId require_instance(const std::string& name) const;

  // ---- ECO edits ----------------------------------------------------------
  // Each edit validates its inputs (throwing std::invalid_argument /
  // NotFound before any mutation, and before a session sharing a base
  // copies it), applies, records a bit-exact restore in the undo journal,
  // and marks the affected nets dirty. No analysis runs until the next
  // query.

  /// Swap a driver (or any instance) onto a footprint-compatible cell.
  void set_driver_cell(const std::string& inst, const std::string& cell);

  /// Scale a net's grounded caps and wire resistances (respacing what-if).
  /// Both factors must be positive and finite.
  void scale_net_parasitics(const std::string& net, double cap_factor,
                            double res_factor);

  /// Set the total coupling capacitance between two nets [F], positive and
  /// finite. Existing caps between the pair are scaled to the new total; if
  /// none exist a single cap is added between the driver roots.
  void set_coupling_cap(const std::string& net_a, const std::string& net_b, double cap);

  /// Override an input port's arrival window (re-timed input). Throws
  /// std::invalid_argument naming the port for a non-finite or empty
  /// window.
  void set_arrival_window(const std::string& port, Interval window);

  /// Declare a mutual-exclusion constraint group (an *options* edit: the
  /// next query re-analyzes fully under the new digest). Returns group id.
  int set_constraint_group(std::span<const std::string> nets);

  /// Change an analysis option: "mode", "model", "threads", "refine",
  /// "period" (a positive, finite number of seconds). Options other than
  /// "threads" change the options digest, so the next query runs fully (or
  /// hits the cache if seen before).
  void set_option(const std::string& name, const std::string& value);

  /// Revert the most recent edit (bit-exact). False when the journal is
  /// empty. Restores the pre-edit epoch, so a post-undo query served from
  /// the cache returns the *same* Result object as before the edit.
  bool undo();

  // ---- observability ------------------------------------------------------

  /// Install (or clear, with nullptr) a ProgressSink passed to every
  /// analyze/analyze_incremental this session runs. The sink may cancel:
  /// noise::Cancelled then propagates out of the querying call and the
  /// session keeps its pre-analyze state bit-exactly — ensure_current()
  /// only commits results after analyze returns (epoch, journal, cache
  /// and base result are untouched by a cancelled run).
  void set_progress_sink(noise::ProgressSink* sink) noexcept { progress_ = sink; }

  /// Wall-time phase breakdown of the most recent analysis this session
  /// ran (from its Telemetry). All zeros until the first analysis.
  struct AnalysisPhases {
    double context_s = 0.0;
    double estimate_s = 0.0;
    double propagate_s = 0.0;
    double endpoints_s = 0.0;
  };
  [[nodiscard]] const AnalysisPhases& last_phases() const noexcept {
    return last_phases_;
  }
  /// Total analyses run (full + incremental); lets a caller detect whether
  /// a given request triggered an analysis (the slowlog phase breakdown).
  [[nodiscard]] std::uint64_t analyses() const noexcept {
    return full_analyses() + incremental_analyses();
  }

  /// The session's metrics registry: analysis/cache/edit counters live
  /// here, and the transport layer registers its request counters into the
  /// same registry so one snapshot covers the whole server.
  [[nodiscard]] obs::Registry& registry() noexcept { return reg_; }
  /// Snapshot with the resource gauges (RSS, cache/journal/trace-buffer
  /// bytes) refreshed first — they are sampled, not event-driven.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot();
  /// Identity block for the session stats JSON export.
  [[nodiscard]] obs::RunMeta meta() const;

  /// The result-cache footprint recomputed by walking every cached result:
  /// what the memoized session_cache_bytes gauge must equal.
  [[nodiscard]] std::size_t cache_bytes_recount() const noexcept;

  [[nodiscard]] std::uint64_t full_analyses() const noexcept;
  [[nodiscard]] std::uint64_t incremental_analyses() const noexcept;
  [[nodiscard]] std::uint64_t cache_hits() const noexcept;
  [[nodiscard]] std::uint64_t cache_misses() const noexcept;

  // Metric names (shared with tests and tools/validate_obs.py consumers).
  static constexpr const char* kMetricEdits = "session_edits";
  static constexpr const char* kMetricUndos = "session_undos";
  static constexpr const char* kMetricFullAnalyses = "session_full_analyses";
  static constexpr const char* kMetricIncrementalAnalyses =
      "session_incremental_analyses";
  static constexpr const char* kMetricCacheHits = "session_cache_hits";
  static constexpr const char* kMetricCacheMisses = "session_cache_misses";
  static constexpr const char* kMetricCowCopies = "session_cow_copies";
  static constexpr const char* kMetricDirtyNets = "session_dirty_nets";
  static constexpr const char* kMetricEpoch = "session_epoch";
  static constexpr const char* kMetricCachedResults = "session_cached_results";
  // Resource gauges ("resources" section of the stats JSON), refreshed by
  // metrics_snapshot().
  static constexpr const char* kMetricRssBytes = "rss_bytes";
  static constexpr const char* kMetricPeakRssBytes = "peak_rss_bytes";
  static constexpr const char* kMetricCacheBytes = "session_cache_bytes";
  static constexpr const char* kMetricJournalBytes = "session_journal_bytes";
  static constexpr const char* kMetricTraceBufferBytes = "trace_buffer_bytes";

 private:
  struct UndoEntry {
    std::string what;                     ///< human-readable edit label
    std::function<void()> restore;        ///< bit-exact state restore
    std::vector<NetId> dirty;             ///< nets the edit (and its undo) touch
    std::uint64_t epoch_before = 0;
  };

  struct CacheEntry {
    std::string key;
    std::shared_ptr<const noise::Result> result;
    std::shared_ptr<const sta::Result> sta;
    std::size_t bytes = 0;  ///< retained bytes, set by cache_insert
  };

  /// Delegation target of both public ctors: exactly one of (base, own)
  /// pairs is populated per half.
  Session(std::shared_ptr<const net::Design> base_design,
          std::shared_ptr<const para::Parasitics> base_para,
          std::unique_ptr<net::Design> own_design,
          std::unique_ptr<para::Parasitics> own_para, SessionConfig config);

  /// Mutable design/parasitics for ECO edits: materializes the private
  /// copy-on-write overlay on first use when sharing a base.
  [[nodiscard]] net::Design& mut_design();
  [[nodiscard]] para::Parasitics& mut_para();

  /// Cache identity of the current (options, epoch) state.
  struct StateKey {
    std::string digest;  ///< canonical options digest (threads excluded)
    std::string key;     ///< digest + "#" + epoch
  };
  [[nodiscard]] StateKey current_key() const;

  /// Allocate a fresh epoch, record the journal entry, count the edit.
  void commit_edit(UndoEntry entry, bool bump_epoch);

  /// Re-analyze if the (digest, epoch) key moved; cache-aware.
  void ensure_current();

  [[nodiscard]] const CacheEntry* cache_find(const std::string& key) const;
  void cache_insert(CacheEntry entry);

  /// Re-sample the resource gauges (process RSS + estimated live bytes of
  /// the result cache, undo journal, and trace buffers).
  void refresh_resource_gauges();

  /// Estimated retained bytes of the result cache / undo journal (the
  /// gauge values and the memory-account charges share these).
  [[nodiscard]] std::size_t cache_bytes() const noexcept;
  /// Bytes one cache entry retains besides its slot.
  [[nodiscard]] static std::size_t entry_bytes(const CacheEntry& e) noexcept;
  [[nodiscard]] std::size_t journal_bytes() const noexcept;

  /// Delta-charge the global session_cache/undo_journal memory accounts to
  /// this session's current footprint. Called after every mutation of the
  /// cache or journal; the destructor releases the remainder.
  void update_memory_accounts() noexcept;

  // Design state: either owned outright (value ctor / after a COW copy) or
  // read from an immutable base shared across sessions. own_* wins when set.
  std::shared_ptr<const net::Design> base_design_;
  std::shared_ptr<const para::Parasitics> base_para_;
  std::unique_ptr<net::Design> own_design_;
  std::unique_ptr<para::Parasitics> own_para_;
  SessionConfig cfg_;

  std::uint64_t epoch_ = 0;       ///< identifies the current design state
  std::uint64_t next_epoch_ = 1;  ///< never reused (undo restores old values)
  std::vector<NetId> pending_dirty_;  ///< edits since the base result
  noise::ProgressSink* progress_ = nullptr;  ///< not owned; may be nullptr
  AnalysisPhases last_phases_;  ///< phase wall times of the latest analysis

  // The last analyzed state: result + the STA it was computed from.
  std::shared_ptr<const noise::Result> base_result_;
  std::shared_ptr<const sta::Result> base_sta_;
  std::string base_key_;     ///< digest#epoch of base_result_
  std::string base_digest_;

  std::deque<UndoEntry> journal_;
  std::vector<CacheEntry> cache_;  ///< LRU: back = most recent
  std::size_t mem_cache_charged_ = 0;    ///< bytes this session holds in the account
  std::size_t mem_journal_charged_ = 0;  ///< bytes this session holds in the account

  obs::Registry reg_;
  obs::Counter& edits_;
  obs::Counter& undos_;
  obs::Counter& full_analyses_;
  obs::Counter& incremental_analyses_;
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& cow_copies_;
  obs::Histogram& dirty_hist_;
};

}  // namespace nw::session
