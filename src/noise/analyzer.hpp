// Static noise analysis with noise windows (the paper's contribution).
//
// For every net (as victim) the analyzer:
//   1. identifies coupled aggressors above a capacitance threshold,
//   2. estimates each aggressor's injected glitch (noise/glitch_models),
//   3. combines contributions into the worst simultaneous glitch — under
//      three selectable filtering regimes (the experiment axes):
//
//      kNoFiltering       every aggressor switches at once, glitches always
//                         coincide, latches are always sampling. The
//                         pre-timing-window industry baseline.
//      kSwitchingWindows  aggressors only combine where their STA switching
//                         windows overlap (scan-line worst alignment).
//      kNoiseWindows      full noise-window propagation: every glitch
//                         carries the window of time it can exist; injected
//                         and gate-propagated noise combine only where
//                         windows overlap; sequential endpoints fail only
//                         if the noise window intersects the latch
//                         sensitivity window. The paper's contribution.
//
//   4. propagates glitches through gates (library noise-propagation
//      tables) in topological order, and
//   5. checks endpoints (sequential data pins, primary outputs) against
//      immunity curves, recording violations and noise slack.
//
// An optional refinement loop models noise-on-delay feedback: combined
// glitch widths inflate switching windows and the analysis repeats until
// the violation count stabilizes (experiment R-T5).
//
// Execution model: the analysis is a staged pipeline over one flat
// AnalysisContext (noise/context.hpp) — estimate_injected (parallel over
// victims), propagate (levelized, parallel within a level), and
// check_endpoints (parallel over endpoints) — run on a util::Executor of
// Options::threads threads. Full and incremental analysis are the same
// stages; incremental mode only narrows the estimation stage to dirty
// victims. Output is bit-identical for every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/design.hpp"
#include "noise/constraints.hpp"
#include "noise/glitch_models.hpp"
#include "noise/progress.hpp"
#include "noise/telemetry.hpp"
#include "obs/metrics.hpp"
#include "parasitics/rcnet.hpp"
#include "spice/transient.hpp"
#include "sta/sta.hpp"
#include "util/executor.hpp"
#include "util/interval.hpp"

namespace nw::noise {

enum class AnalysisMode { kNoFiltering, kSwitchingWindows, kNoiseWindows };

[[nodiscard]] const char* to_string(AnalysisMode m) noexcept;
/// The mode whose to_string is `s`; nullopt for any other string.
[[nodiscard]] std::optional<AnalysisMode> parse_mode(std::string_view s) noexcept;

/// Upper bounds every front end (CLI flags, session `set` options) applies
/// to Options::threads and Options::refine_iterations.
inline constexpr unsigned kMaxThreads = 1024;
inline constexpr unsigned kMaxRefineIterations = 64;

struct Options {
  AnalysisMode mode = AnalysisMode::kNoiseWindows;
  GlitchModel model = GlitchModel::kTwoPi;
  double min_coupling_cap = 0.05e-15;  ///< ignore weaker aggressor coupling [F]
  double min_peak = 1e-3;              ///< ignore contributions below [V]
  double clock_period = 1e-9;          ///< must match the STA run [s]
  double clock_uncertainty = 0.0;      ///< widens sensitivity windows by +-u [s]
  double latch_duty = 0.5;             ///< transparent fraction of the cycle (latches)
  double default_slew = 30e-12;        ///< aggressor slew when STA has none [s]
  double po_immunity_frac = 0.45;      ///< primary-output immunity (fraction of vdd)
  int refine_iterations = 0;           ///< extra noise-on-delay passes (0 = off)
  /// Analysis parallelism: 1 = serial (default), 0 = hardware_concurrency,
  /// n = a fixed pool of n threads. Results are bit-identical for every
  /// value — stages write to pre-sized per-index slots and reduce in index
  /// order (see DESIGN.md "Execution model").
  int threads = 1;
  /// kMnaExact timestep and shortest window: each pair's run extends to
  /// its victim's settle time (estimate_mna).
  spice::TranOptions mna_tran{2e-9, 0.5e-12};
  /// Functional filtering: mutual-exclusion groups of aggressor nets.
  /// Applies in every mode (it is orthogonal to temporal filtering).
  Constraints constraints;
};

/// One aggressor's (or the fanin-propagated) glitch contribution to a net.
struct Contribution {
  NetId aggressor;        ///< invalid id = propagated from fanin gate
  NetId from_net;         ///< propagated only: the fanin net it came through
  double peak = 0.0;      ///< [V]
  double width = 0.0;     ///< [s]
  IntervalSet window;     ///< when the glitch can exist (empty = never)
  bool in_worst = false;  ///< participates in the worst combination

  [[nodiscard]] bool is_propagated() const noexcept { return !aggressor.valid(); }
};

/// Combined noise state of a net.
struct NetNoise {
  double injected_peak = 0.0;    ///< worst simultaneous aggressor sum [V]
  double propagated_peak = 0.0;  ///< worst glitch arriving through the driver [V]
  double total_peak = 0.0;       ///< worst combination of both [V]
  double width = 0.0;            ///< width of the worst combined glitch [s]
  IntervalSet window;            ///< noise window of the combined glitch
  Interval worst_alignment;      ///< time interval achieving total_peak
  std::vector<Contribution> contributions;
  std::size_t aggressor_count = 0;  ///< aggressors above the cap threshold
  /// Aggressors dropped because they never switch (empty window). Tracked
  /// per net so incremental runs restore it for reused victims and the
  /// aggregate counter matches a full re-run exactly.
  std::size_t filtered_temporal = 0;
};

/// The first filtering regime that would have culled a violation's noise
/// below its immunity threshold, had the analysis been run under it.
/// Diagnostic only: a violation surviving the current mode has kNone when
/// even the strongest regime (sensitivity-window intersection) keeps the
/// noise above threshold, i.e. the violation is not a filtering artifact.
enum class FilterStage {
  kNone,                ///< survives every regime
  kSwitchingWindow,     ///< culled once injected windows are honoured
  kNoiseWindow,         ///< culled once propagated windows are honoured too
  kSensitivityWindow,   ///< culled once restricted to the sampling window
};

[[nodiscard]] const char* to_string(FilterStage s) noexcept;

/// The timing-window filter's verdict on one aggressor at the endpoint.
enum class WindowVerdict {
  kInWorst,             ///< participates in the worst combination
  kWindowDisjoint,      ///< its window misses the worst alignment
  kConstraintExcluded,  ///< overlaps, but its mutex group is represented
};

[[nodiscard]] const char* to_string(WindowVerdict v) noexcept;

/// One aggressor's share of a violation, ranked (see Provenance::shares).
struct AggressorShare {
  NetId aggressor;            ///< invalid = noise propagated through the driver
  NetId from_net;             ///< propagated shares: the fanin net it arrived on
  double peak = 0.0;          ///< injected (or arriving) glitch peak [V]
  double coupling_cap = 0.0;  ///< total coupling to the victim [F] (0 = propagated)
  /// Widest overlap of the share's noise window with the worst alignment
  /// (empty when disjoint). For in-worst shares this IS the alignment.
  Interval overlap;
  WindowVerdict verdict = WindowVerdict::kWindowDisjoint;

  [[nodiscard]] bool is_propagated() const noexcept { return !aggressor.valid(); }
};

/// One hop of a propagation path from a noisy net back to injection
/// (Provenance::path, NoiseTrace::path).
struct ProvenanceStep {
  NetId net;
  double peak = 0.0;   ///< combined glitch on the net [V]
  double width = 0.0;  ///< [s]
};

/// Why one violation fired: the aggressor shares of the worst combination,
/// the combined peak under each progressively stronger filtering regime
/// (recomputed from this run's contribution set — aggressors that never
/// switch are absent, their count is in NetNoise::filtered_temporal), and
/// the propagation path to the injection net. Built per violation during
/// check_endpoints; deterministic and bit-identical across thread counts.
struct Provenance {
  PinId endpoint;
  NetId net;
  /// Combined peak when every contribution coincides (no filtering) [V].
  double peak_unfiltered = 0.0;
  /// Injected windows honoured, propagated noise unconstrained [V].
  double peak_switching = 0.0;
  /// All noise windows honoured (the paper's combination) [V].
  double peak_noise_window = 0.0;
  /// Additionally restricted to the endpoint's sensitivity window [V].
  double peak_in_sensitivity = 0.0;
  FilterStage culled_by = FilterStage::kNone;
  Interval alignment;  ///< worst-alignment interval of the endpoint check
  /// Ranked: in-worst shares first, then peak descending, then net id.
  std::vector<AggressorShare> shares;
  /// Endpoint net first, injection net last (origin_path of the net).
  std::vector<ProvenanceStep> path;
};

/// A failing endpoint.
struct Violation {
  PinId endpoint;
  NetId net;
  double peak = 0.0;        ///< noise seen by the endpoint [V]
  double width = 0.0;       ///< [s]
  double threshold = 0.0;   ///< immunity at that width [V]
  Interval sensitivity;     ///< sampling window (sequential endpoints)
  bool temporal = true;     ///< noise window intersected the sensitivity window

  [[nodiscard]] double slack() const noexcept { return threshold - peak; }
};

/// Where analysis cost landed: the heaviest propagation levels by measured
/// wall time and the heaviest victims by evaluated aggressor count. The
/// level walls are timing data (nondeterministic, like every *_seconds
/// gauge); the net costs are deterministic work counts. Rendered into the
/// stats-JSON "executor" section and the dashboard's utilization panel.
struct WorkAttribution {
  struct LevelCost {
    std::size_t level = 0;
    std::size_t instances = 0;
    double wall_ms = 0.0;  ///< summed over refinement passes
  };
  struct NetCost {
    std::string net;
    std::size_t aggressors = 0;  ///< contributions evaluated for the victim
    double peak = 0.0;           ///< its combined glitch peak [V]
  };
  std::vector<LevelCost> top_levels;  ///< heaviest levels, wall descending
  std::vector<NetCost> top_nets;      ///< busiest victims, aggressors descending
};

struct Result {
  std::vector<NetNoise> nets;        ///< indexed by NetId
  std::vector<Violation> violations;
  /// Parallel to `violations`: provenance[i] explains violations[i].
  std::vector<Provenance> provenance;
  std::size_t endpoints_checked = 0;
  /// Per net: 1 when its glitch exceeds the weakest receiver immunity.
  std::vector<std::uint8_t> noisy;
  std::size_t noisy_nets = 0;        ///< nets flagged in `noisy`
  std::size_t aggressors_considered = 0;
  std::size_t aggressors_filtered_temporal = 0;  ///< dropped: empty/never-overlapping window
  int iterations = 1;
  std::vector<std::size_t> iteration_violations;  ///< per refinement pass
  /// Noise slack (threshold - peak) of every checked endpoint, violating or
  /// not — the input of the slack-histogram experiment.
  std::vector<double> endpoint_slacks;
  /// Phase wall times and work counters for this run — a typed view over
  /// `metrics` (see telemetry_from_metrics). Wall times are the only
  /// nondeterministic fields of a Result.
  Telemetry telemetry;
  /// Every metric the run registered (counters, gauges, histograms), for
  /// the --stats-json export and programmatic consumers. Metrics marked
  /// deterministic are bit-identical across thread counts.
  obs::MetricsSnapshot metrics;
  /// Run identity embedded in the stats JSON (design, mode, options hash,
  /// build id, resolved thread count).
  obs::RunMeta run_meta;
  /// Executor self-measurement for this run: per-worker busy/idle time and
  /// per-parallel_for-region wall/busy/imbalance aggregates. All timing
  /// (nondeterministic); the "executor" section of stats-JSON schema v3.
  util::UtilizationSnapshot executor;
  /// Top-K work attribution (see WorkAttribution).
  WorkAttribution attribution;
  /// Design-state generation this result was computed against. analyze()
  /// leaves it 0; a long-lived session (session::Session) stamps its
  /// edit epoch here so cached results can be matched to design state.
  std::uint64_t epoch = 0;

  [[nodiscard]] const NetNoise& net(NetId id) const { return nets.at(id.index()); }
};

/// The path of `net`'s worst glitch back to where it was injected: `net`
/// first, then at each hop the fanin net of the strongest in-worst
/// propagated contribution, ending at the first net with none (the
/// injection net). Stops at a net without noise and never revisits a net.
/// Empty when `net` carries no noise. `net` must lie inside `result.nets`.
[[nodiscard]] std::vector<ProvenanceStep> origin_path(const Result& result, NetId net);

/// Where the worst glitch on a net came from.
struct NoiseTrace {
  /// From the queried net (front) back to the injection net (back): the
  /// net's origin_path.
  std::vector<ProvenanceStep> path;
  /// Aggressors in the worst combination at the injection net — the nets a
  /// designer would respace, shield or retime to fix the glitch.
  std::vector<NetId> aggressors;
};

/// origin_path(result, net) plus the in-worst injected aggressors at its
/// last net. Empty when `net` carries no noise. Throws
/// std::invalid_argument for a net outside `result.nets`.
[[nodiscard]] NoiseTrace trace_origin(const Result& result, NetId net);

/// Stable hex digest of every analysis option (FNV-1a over a canonical
/// rendering) — two runs with equal digests analyzed under the same
/// settings. Embedded in the stats JSON meta for trajectory comparison.
[[nodiscard]] std::string options_digest(const Options& options);

/// Estimated heap footprint of a Result in bytes (capacity-based: vector
/// storage for per-net noise, contributions, windows, violations, and
/// slacks). Feeds the session's cache byte gauge; an estimate, not an
/// allocator-exact count.
[[nodiscard]] std::size_t memory_bytes(const Result& result) noexcept;

/// Run the analysis. `sta_result` must come from the same design/parasitics.
/// An optional ProgressSink (noise/progress.hpp) receives checkpoint
/// notifications and may cancel the run (throws Cancelled); installing one
/// never changes the computed Result.
[[nodiscard]] Result analyze(const net::Design& design, const para::Parasitics& para,
                             const sta::Result& sta_result, const Options& options = {},
                             ProgressSink* progress = nullptr);

/// Incremental re-analysis (ECO mode) after a change localized to
/// `changed_nets` (coupling edits, resized drivers, re-timed inputs):
/// injected glitches are re-estimated only for victims coupled to a
/// changed net (plus the changed nets themselves); unaffected victims
/// reuse `previous`'s estimates. Propagation is limited to the fanout cone
/// of the re-estimated nets, and the endpoint check to endpoints on a cone
/// net or on a cell touching a changed net (whose clock arrival, and so
/// sensitivity window, may have moved); every other net, endpoint outcome
/// and noisy flag is copied from `previous`. The result is identical to a
/// full analyze() provided `changed_nets` covers every net whose
/// parasitics, cells or timing changed and `previous` was computed under
/// the same options. `options.refine_iterations` is ignored (single pass).
/// Throws std::invalid_argument (naming the offending id and the valid
/// range) when a changed net lies outside the design, or when `previous`
/// does not cover this design's nets and endpoints — never indexes out of
/// bounds.
[[nodiscard]] Result analyze_incremental(const net::Design& design,
                                         const para::Parasitics& para,
                                         const sta::Result& sta_result,
                                         const Options& options, const Result& previous,
                                         std::span<const NetId> changed_nets,
                                         ProgressSink* progress = nullptr);

}  // namespace nw::noise
