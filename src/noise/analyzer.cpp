#include "noise/analyzer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "noise/context.hpp"
#include "noise/kernels.hpp"
#include "obs/log.hpp"
#include "obs/resource.hpp"
#include "obs/tracer.hpp"
#include "util/executor.hpp"

namespace nw::noise {

const char* to_string(AnalysisMode m) noexcept {
  switch (m) {
    case AnalysisMode::kNoFiltering: return "no-filtering";
    case AnalysisMode::kSwitchingWindows: return "switching-windows";
    case AnalysisMode::kNoiseWindows: return "noise-windows";
  }
  return "?";
}

std::optional<AnalysisMode> parse_mode(std::string_view s) noexcept {
  for (const AnalysisMode m : {AnalysisMode::kNoFiltering, AnalysisMode::kSwitchingWindows,
                               AnalysisMode::kNoiseWindows}) {
    if (s == to_string(m)) return m;
  }
  return std::nullopt;
}

const char* to_string(FilterStage s) noexcept {
  switch (s) {
    case FilterStage::kNone: return "none";
    case FilterStage::kSwitchingWindow: return "switching-window";
    case FilterStage::kNoiseWindow: return "noise-window";
    case FilterStage::kSensitivityWindow: return "sensitivity-window";
  }
  return "?";
}

const char* to_string(WindowVerdict v) noexcept {
  switch (v) {
    case WindowVerdict::kInWorst: return "in-worst";
    case WindowVerdict::kWindowDisjoint: return "window-disjoint";
    case WindowVerdict::kConstraintExcluded: return "constraint-excluded";
  }
  return "?";
}

namespace {

// Work-distribution granularity. Any value is determinism-safe (results
// are slot-addressed); these balance scheduling overhead against skew for
// cheap analytic models vs. per-pair MNA solves.
constexpr std::size_t kEstimateChunk = 8;
constexpr std::size_t kPropagateChunk = 16;
constexpr std::size_t kEndpointChunk = 32;

// Progress-checkpoint batch sizes. With a ProgressSink installed the
// estimate/endpoint loops run as a sequence of parallel_for batches with a
// checkpoint between each; batch sizes are exact multiples of the stage
// chunk sizes so the total chunk count — and with it the deterministic
// executor_tasks counter — is identical with and without a sink.
static_assert(512 % kEstimateChunk == 0);
static_assert(1024 % kEndpointChunk == 0);
constexpr std::size_t kEstimateBatch = 512;
constexpr std::size_t kEndpointBatch = 1024;

// Fixed histogram bounds. Stable across runs/designs so exported
// distributions are directly comparable (tools/validate_obs.py checks the
// bucket layout, not just totals).
const std::vector<double> kGlitchPeakBounds = {0.05, 0.1, 0.15, 0.2, 0.3,
                                               0.4,  0.5, 0.7,  1.0};
const std::vector<double> kAggressorsPerVictimBounds = {0, 1, 2, 4, 8, 16, 32, 64};
const std::vector<double> kLevelWidthBounds = {1, 2, 4, 8, 16, 32, 64, 128, 256};

/// What one endpoint check produced (slot-addressed so the parallel check
/// stage folds back into Result in deterministic endpoint order).
struct EndpointOutcome {
  double slack = 0.0;
  std::optional<Violation> violation;
  std::optional<Provenance> provenance;  ///< engaged iff `violation` is
};

/// What an incremental run recomputes (see analyze_incremental); the rest
/// it copies from the previous result.
struct Reach {
  std::vector<char> estimate;  ///< per net: victim re-estimated
  std::vector<char> net;       ///< per net: re-estimated or in their fanout cone
  /// Slab positions whose output nets are re-finalized, ascending (so
  /// level-major): a driver of a re-estimated net, or a combinational
  /// instance reading a cone net.
  std::vector<std::uint32_t> positions;
  std::vector<char> changed;   ///< per net: in the changed set
};

/// The staged pipeline: one analysis over a fixed design/parasitics/timing.
/// Full and incremental runs share every stage — estimate_injected,
/// propagate, check_endpoints; an incremental run limits each to its Reach
/// and copies everything else from the previous result. All stages run on
/// the shared executor and write to pre-sized per-index slots, so output is
/// bit-identical across thread counts.
class Pipeline {
 public:
  Pipeline(const net::Design& design, const para::Parasitics& para,
           const sta::Result& sta_result, const Options& opt, ProgressSink* progress)
      : design_(design),
        para_(para),
        sta_(sta_result),
        opt_(opt),
        progress_(progress),
        exec_(opt.threads),
        start_(std::chrono::steady_clock::now()),
        phase_start_(start_) {
    register_metrics();
    {
      obs::Span span("build-context", obs::SpanKind::kPhase, &times_.context);
      // Per-pair scenario operands pack lazily in estimate_injected.
      ctx_ = AnalysisContext::build(design, para, sta_result, opt);
    }
    reg_.counter(kMetricPairsFilteredCap, "").add(ctx_.pairs_filtered_cap);
    auto& level_width = reg_.histogram(kMetricLevelWidth, "", {});
    for (std::size_t li = 0; li < ctx_.level_count(); ++li) {
      level_width.observe(static_cast<double>(ctx_.level_width(li)));
    }
    // Utilization accounting never touches scheduling, so results stay
    // bit-identical (tested across profile rates in test_profile.cpp). Its
    // per-region chunk counts are ceil(n/chunk) regardless of thread count,
    // so the executor_tasks counter finish() derives from them is
    // deterministic.
    exec_.enable_utilization(true);
    level_walls_.assign(ctx_.level_count(), 0.0);
    checkpoint("build-context", 1, 1);
  }

  [[nodiscard]] Result run_full() {
    Result res;
    const int total_iters = 1 + std::max(opt_.refine_iterations, 0);
    for (int iter = 0; iter < total_iters; ++iter) {
      std::optional<obs::Span> span;
      if (obs::spans_active()) {
        span.emplace("iteration " + std::to_string(iter + 1),
                     obs::SpanKind::kIteration);
      }
      iteration_ = iter + 1;
      reset(res);
      estimate_injected(res);
      propagate(res);
      check_endpoints(res);
      res.iteration_violations.push_back(res.violations.size());
      res.iterations = iter + 1;
      NW_LOG(kDebug) << "pass " << (iter + 1) << "/" << total_iters << ": "
                     << res.violations.size() << " violations, " << res.noisy_nets
                     << " noisy nets";
      if (iter + 1 < total_iters && !inflate_windows(res)) {
        NW_LOG(kInfo) << "refinement converged after " << (iter + 1) << " passes";
        break;
      }
    }
    finish(res);
    return res;
  }

  [[nodiscard]] Result run_incremental(const Result& previous,
                                       std::span<const NetId> changed_nets) {
    if (previous.nets.size() != design_.net_count()) {
      throw std::invalid_argument(
          "analyze_incremental: previous result covers " +
          std::to_string(previous.nets.size()) + " nets but the design has " +
          std::to_string(design_.net_count()));
    }
    if (previous.noisy.size() != design_.net_count() ||
        previous.endpoint_slacks.size() != ctx_.endpoints.size() + output_endpoints()) {
      throw std::invalid_argument(
          "analyze_incremental: previous result does not cover this design's endpoints");
    }
    // Victims to re-estimate: the changed nets and everything coupled to
    // them (their injected noise depends on the changed net's parasitics,
    // timing, or drive). dirty_closure validates every changed id.
    Reach reach;
    reach.estimate.assign(design_.net_count(), 0);
    try {
      for (const NetId n : ctx_.dirty_closure(para_, changed_nets)) {
        reach.estimate[n.index()] = 1;
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("analyze_incremental: ") + e.what());
    }
    reach.changed.assign(design_.net_count(), 0);
    for (const NetId n : changed_nets) reach.changed[n.index()] = 1;
    // The fanout cone, in one pass: a level reads only nets that earlier
    // levels (or ports) finalize. A sequential cell does not propagate D.
    reach.net = reach.estimate;
    for (std::uint32_t pos = 0; pos < ctx_.slab_cell.size(); ++pos) {
      const auto outs = std::span(ctx_.out_net).subspan(
          ctx_.out_offsets[pos], ctx_.out_offsets[pos + 1] - ctx_.out_offsets[pos]);
      const auto ins = std::span(ctx_.in_net).subspan(
          ctx_.in_offsets[pos], ctx_.in_offsets[pos + 1] - ctx_.in_offsets[pos]);
      const auto in_reach = [&](NetId n) { return reach.net[n.index()] != 0; };
      const bool hit = std::any_of(outs.begin(), outs.end(),
                                   [&](NetId n) { return reach.estimate[n.index()] != 0; }) ||
                       (!ctx_.slab_seq[pos] && std::any_of(ins.begin(), ins.end(), in_reach));
      if (!hit) continue;
      reach.positions.push_back(pos);
      for (const NetId n : outs) reach.net[n.index()] = 1;
    }
    previous_ = &previous;
    reach_ = &reach;

    Result res;
    std::optional<obs::Span> span;
    if (obs::spans_active()) span.emplace("iteration 1", obs::SpanKind::kIteration);
    reset(res);
    estimate_injected(res);
    propagate(res);
    check_endpoints(res);
    res.iteration_violations.push_back(res.violations.size());
    res.iterations = 1;
    span.reset();
    finish(res);
    return res;
  }

 private:
  /// Opens a progress phase: restarts the phase clock and emits the
  /// zero-completed checkpoint (which also polls for cancellation before
  /// any of the phase's work runs).
  void begin_phase(const char* phase, std::size_t total) {
    phase_start_ = std::chrono::steady_clock::now();
    checkpoint(phase, 0, total);
  }

  /// One checkpoint: polls cancellation (throws Cancelled) then reports.
  /// Called only from the coordinating thread, never inside a parallel
  /// region — the ProgressSink contract (noise/progress.hpp).
  void checkpoint(const char* phase, std::size_t completed, std::size_t total,
                  std::size_t level = 0) {
    if (progress_ == nullptr) return;
    if (progress_->cancel_requested()) throw Cancelled();
    Progress p;
    p.phase = phase;
    p.iteration = iteration_;
    p.completed = completed;
    p.total = total;
    p.level = level;
    p.phase_elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - phase_start_)
            .count();
    if (completed > 0 && completed < total) {
      p.eta_s = p.phase_elapsed_s * static_cast<double>(total - completed) /
                static_cast<double>(completed);
    }
    progress_->on_progress(p);
  }

  /// Registers every metric up front so the snapshot (and the JSON export)
  /// has one fixed order and zero-valued metrics still appear. Later use
  /// sites re-look names up and get these same objects back.
  void register_metrics() {
    reg_.counter(kMetricExecutorTasks, "executor chunks run");
    reg_.counter(kMetricVictimsEstimated, "nets whose glitches were computed");
    reg_.counter(kMetricVictimsReused, "incremental: estimates carried over");
    reg_.counter(kMetricAggressorPairs, "victim/aggressor pairs evaluated");
    reg_.counter(kMetricPairsFilteredCap, "pairs dropped below min_coupling_cap");
    reg_.gauge(kMetricLevels, "propagation levels (last pass)");
    reg_.gauge(kMetricEndpoints, "endpoints checked (last pass)");
    reg_.gauge(kMetricViolations, "failing endpoints (last pass)");
    reg_.gauge(kMetricNoisyNets, "nets exceeding receiver immunity (last pass)");
    reg_.gauge(kMetricAggressorsConsidered, "aggressors above cap (last pass)");
    reg_.gauge(kMetricAggressorsFilteredTemporal,
               "aggressors dropped with empty windows (last pass)");
    reg_.histogram(kMetricGlitchPeak, "combined glitch peak per noisy net",
                   kGlitchPeakBounds, "V");
    reg_.histogram(kMetricAggressorsPerVictim, "aggressors above cap per victim",
                   kAggressorsPerVictimBounds);
    reg_.histogram(kMetricLevelWidth, "instances per propagation level",
                   kLevelWidthBounds);
    reg_.gauge(kMetricContextSeconds, "AnalysisContext build wall time", "s",
               /*deterministic=*/false);
    reg_.gauge(kMetricEstimateSeconds, "estimation wall time (all passes)", "s",
               /*deterministic=*/false);
    reg_.gauge(kMetricPropagateSeconds, "propagation wall time (all passes)", "s",
               /*deterministic=*/false);
    reg_.gauge(kMetricEndpointsSeconds, "endpoint-check wall time (all passes)", "s",
               /*deterministic=*/false);
    reg_.gauge(kMetricTotalSeconds, "whole analyze() wall time", "s",
               /*deterministic=*/false);
    reg_.gauge(kMetricRssBytes, "resident set size at finish", "B",
               /*deterministic=*/false, /*resource=*/true);
    reg_.gauge(kMetricPeakRssBytes, "peak resident set size", "B",
               /*deterministic=*/false, /*resource=*/true);
    reg_.gauge(kMetricResultBytes, "estimated Result heap footprint", "B",
               /*deterministic=*/false, /*resource=*/true);
  }

  /// Publishes the timing gauges and last-pass work gauges, observes the
  /// final glitch-peak distribution (index order), stamps the run identity,
  /// and snapshots the registry into the Result. Must run before returning.
  void finish(Result& res) {
    reg_.gauge(kMetricContextSeconds, "", "s", false).set(times_.context);
    reg_.gauge(kMetricEstimateSeconds, "", "s", false).set(times_.estimate);
    reg_.gauge(kMetricPropagateSeconds, "", "s", false).set(times_.propagate);
    reg_.gauge(kMetricEndpointsSeconds, "", "s", false).set(times_.endpoints);
    reg_.gauge(kMetricTotalSeconds, "", "s", false)
        .set(std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                 .count());
    reg_.gauge(kMetricLevels, "").set(static_cast<double>(ctx_.level_count()));
    reg_.gauge(kMetricEndpoints, "").set(static_cast<double>(res.endpoints_checked));
    reg_.gauge(kMetricViolations, "").set(static_cast<double>(res.violations.size()));
    reg_.gauge(kMetricNoisyNets, "").set(static_cast<double>(res.noisy_nets));
    reg_.gauge(kMetricAggressorsConsidered, "")
        .set(static_cast<double>(res.aggressors_considered));
    reg_.gauge(kMetricAggressorsFilteredTemporal, "")
        .set(static_cast<double>(res.aggressors_filtered_temporal));
    auto& glitch_peak = reg_.histogram(kMetricGlitchPeak, "", {});
    for (const NetNoise& nn : res.nets) {
      if (nn.total_peak > 0.0) glitch_peak.observe(nn.total_peak);
    }
    const obs::ResourceSample rs = obs::sample_resources();
    reg_.gauge(kMetricRssBytes, "", "B", false, true)
        .set(static_cast<double>(rs.rss_bytes));
    reg_.gauge(kMetricPeakRssBytes, "", "B", false, true)
        .set(static_cast<double>(rs.peak_rss_bytes));
    reg_.gauge(kMetricResultBytes, "", "B", false, true)
        .set(static_cast<double>(memory_bytes(res)));
    res.run_meta.design = design_.name();
    res.run_meta.mode = to_string(opt_.mode);
    res.run_meta.model = to_string(opt_.model);
    res.run_meta.options_digest = options_digest(opt_);
    res.run_meta.build = obs::build_version();
    res.run_meta.threads = exec_.thread_count();
    res.run_meta.iterations = res.iterations;
    res.executor = exec_.utilization();
    std::uint64_t chunks = 0;
    for (const util::RegionStats& region : res.executor.regions) chunks += region.chunks;
    reg_.counter(kMetricExecutorTasks, "").add(chunks);
    res.attribution = build_attribution(res);
    res.metrics = reg_.snapshot();
    res.telemetry = telemetry_from_metrics(res.run_meta, res.metrics);
  }

  /// Top-K heaviest propagation levels (by measured wall time — timing
  /// data) and busiest victims (by evaluated aggressor count —
  /// deterministic). K is small and fixed: this is a "where did the cost
  /// go" digest, not a full dump.
  [[nodiscard]] WorkAttribution build_attribution(const Result& res) const {
    constexpr std::size_t kTopK = 5;
    WorkAttribution attr;
    // Both rankings are total orders (ties fall to the index), so sorting
    // only the top K yields exactly the head of a full sort.
    std::vector<std::size_t> order(level_walls_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const auto top_levels = order.begin() + std::min(kTopK, order.size());
    std::partial_sort(order.begin(), top_levels, order.end(),
                      [&](std::size_t a, std::size_t b) {
      return level_walls_[a] != level_walls_[b] ? level_walls_[a] > level_walls_[b]
                                                : a < b;
    });
    for (std::size_t i = 0; i < order.size() && i < kTopK; ++i) {
      const std::size_t li = order[i];
      if (level_walls_[li] <= 0.0) break;
      attr.top_levels.push_back(
          {li, ctx_.level_width(li), level_walls_[li] * 1e3});
    }
    std::vector<std::size_t> nets(res.nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) nets[i] = i;
    const auto top_nets = nets.begin() + std::min(kTopK, nets.size());
    std::partial_sort(nets.begin(), top_nets, nets.end(), [&](std::size_t a, std::size_t b) {
      const std::size_t ca = res.nets[a].aggressor_count;
      const std::size_t cb = res.nets[b].aggressor_count;
      return ca != cb ? ca > cb : a < b;
    });
    for (std::size_t i = 0; i < nets.size() && i < kTopK; ++i) {
      const NetNoise& nn = res.nets[nets[i]];
      if (nn.aggressor_count == 0) break;
      attr.top_nets.push_back({design_.net(NetId{nets[i]}).name,
                               nn.aggressor_count, nn.total_peak});
    }
    return attr;
  }

  void reset(Result& res) const {
    res.nets.assign(design_.net_count(), NetNoise{});
    res.violations.clear();
    res.provenance.clear();
    res.endpoint_slacks.clear();
    res.endpoints_checked = 0;
    res.noisy.assign(design_.net_count(), 0);
    res.noisy_nets = 0;
    res.aggressors_considered = 0;
    res.aggressors_filtered_temporal = 0;
  }

  // ---- stage 1: injected glitch estimation, parallel over victims ----------
  // Shared-nothing: victim vi touches only res.nets[vi] and its slot in the
  // per-victim counter array; counters fold serially afterwards. An
  // incremental run estimates only its re-estimated victims; the rest of
  // its cone keeps the previous injected contributions (propagated ones are
  // rebuilt by propagate), and a net outside the cone is copied whole.
  void estimate_injected(Result& res) {
    const std::vector<char>* dirty = reach_ != nullptr ? &reach_->estimate : nullptr;
    obs::Span span("estimate-injected", obs::SpanKind::kPhase, &times_.estimate);
    const std::size_t n = design_.net_count();
    std::size_t estimated = 0;
    std::size_t reused = 0;
    // With a ProgressSink the range runs as checkpointed batches; batch
    // sizes are chunk multiples, so the chunk decomposition (and the
    // executor_tasks counter) is identical to the single-call layout.
    const std::size_t batch =
        progress_ != nullptr ? kEstimateBatch : std::max<std::size_t>(n, 1);
    begin_phase("estimate-injected", n);
    // Pack the per-pair estimation operands once per Pipeline (dirty rows
    // only on incremental runs — clean victims reuse previous contributions
    // and never read their slots). Refinement passes 2+ hit the packed
    // guard and reuse the slabs: the operands depend only on immutable
    // design/parasitics/STA state, never on the inflated windows.
    if (!ctx_.scenarios_packed()) {
      ctx_.pack_scenarios(design_, para_, sta_, opt_, dirty, exec_);
    }
    for (std::size_t base = 0; base < n; base += batch) {
      const std::size_t limit = std::min(n, base + batch);
      exec_.parallel_for("estimate-injected", limit - base, kEstimateChunk,
                         [&](std::size_t begin, std::size_t end) {
        const std::span<const GlitchEstimate> mna =
            estimate_transients(base + begin, base + end, dirty);
        std::size_t mna_next = 0;  // first pair of the next re-estimated victim
        for (std::size_t vi = base + begin; vi < base + end; ++vi) {
          if (dirty == nullptr || (*dirty)[vi]) {
            const std::size_t m = ctx_.agg_offsets[vi + 1] - ctx_.agg_offsets[vi];
            estimate_for_victim(res.nets[vi], vi,
                                mna.empty() ? mna : mna.subspan(mna_next, m));
            mna_next += m;
          } else if (!reach_->net[vi]) {
            res.nets[vi] = previous_->nets[vi];
          } else {
            // Reuse the previous injected contributions; aggressor
            // bookkeeping is restored with them.
            for (const auto& c : previous_->nets[vi].contributions) {
              if (c.is_propagated()) continue;
              Contribution copy = c;
              copy.in_worst = false;
              res.nets[vi].contributions.push_back(std::move(copy));
            }
            res.nets[vi].aggressor_count = previous_->nets[vi].aggressor_count;
            res.nets[vi].filtered_temporal = previous_->nets[vi].filtered_temporal;
          }
        }
      });
      checkpoint("estimate-injected", limit, n);
    }
    // Deterministic fold of the per-victim counters (index order, serial —
    // this is what keeps the metrics bit-identical across thread counts).
    auto& aggressor_pairs = reg_.counter(kMetricAggressorPairs, "");
    auto& per_victim = reg_.histogram(kMetricAggressorsPerVictim, "", {});
    for (std::size_t vi = 0; vi < n; ++vi) {
      res.aggressors_considered += res.nets[vi].aggressor_count;
      res.aggressors_filtered_temporal += res.nets[vi].filtered_temporal;
      per_victim.observe(static_cast<double>(res.nets[vi].aggressor_count));
      const bool recomputed = dirty == nullptr || (*dirty)[vi];
      if (recomputed) aggressor_pairs.add(res.nets[vi].aggressor_count);
      (recomputed ? estimated : reused) += 1;
    }
    reg_.counter(kMetricVictimsEstimated, "").add(estimated);
    reg_.counter(kMetricVictimsReused, "").add(reused);
  }

  /// Per-thread flat scratch for the estimation stage.
  struct EstimateScratch {
    std::vector<double> peak, width, delay;
    std::vector<double> win_lo, win_hi, ext_hi;
    std::vector<MnaPair> pairs;           ///< one chunk's re-estimated pairs
    std::vector<GlitchEstimate> mna;      ///< their estimates, in pair order
  };
  static EstimateScratch& estimate_scratch() {
    thread_local EstimateScratch s;
    return s;
  }
  static CombineScratch& combine_scratch() {
    thread_local CombineScratch s;
    return s;
  }
  static std::vector<Interval>& interval_scratch() {
    thread_local std::vector<Interval> s;
    return s;
  }

  /// Under the transient-backed models, estimates the pairs of every
  /// re-estimated victim in [v_begin, v_end) as one batch
  /// (estimate_mna_batch) and returns their estimates in CSR order, in a
  /// per-thread buffer; empty under the analytic models.
  std::span<const GlitchEstimate> estimate_transients(std::size_t v_begin,
                                                      std::size_t v_end,
                                                      const std::vector<char>* dirty) const {
    if (opt_.model != GlitchModel::kReducedMna && opt_.model != GlitchModel::kMnaExact) {
      return {};
    }
    EstimateScratch& es = estimate_scratch();
    es.pairs.clear();
    for (std::size_t vi = v_begin; vi < v_end; ++vi) {
      if (dirty != nullptr && !(*dirty)[vi]) continue;
      for (std::uint32_t r = ctx_.agg_offsets[vi]; r < ctx_.agg_offsets[vi + 1]; ++r) {
        es.pairs.push_back({NetId{vi}, ctx_.agg_net[r], ctx_.pair_slew[r]});
      }
    }
    es.mna.resize(es.pairs.size());
    estimate_mna_batch(opt_.model, design_, para_, es.pairs, ctx_.vdd, opt_.mna_tran,
                       es.mna);
    return es.mna;
  }

  /// Estimates victim vi's injected glitches over its CSR row: the analytic
  /// models run batched over the packed scenario slabs; the MNA models'
  /// estimates arrive in `mna`, one per row (estimate_transients). A
  /// contribution below min_peak is dropped; under temporal
  /// filtering an aggressor that never switches is dropped (and counted),
  /// and every other glitch gets the window [sw.lo, sw.hi + peak_delay +
  /// width] — the earliest aggressor transition to the latest one plus
  /// injection ramp plus glitch width. Emptiness is judged on the RAW
  /// switching window, before extension, so extension cannot revive a
  /// never-switching aggressor.
  void estimate_for_victim(NetNoise& nn, std::size_t vi,
                           std::span<const GlitchEstimate> mna) const {
    const std::uint32_t row = ctx_.agg_offsets[vi];
    const std::size_t m = ctx_.agg_offsets[vi + 1] - row;
    nn.aggressor_count += m;
    if (m == 0) return;
    EstimateScratch& es = estimate_scratch();
    es.peak.resize(m);
    es.width.resize(m);
    es.delay.resize(m);
    const auto sub = [&](const KbVec<double>& v) {
      return std::span<const double>(v).subspan(row, m);
    };
    switch (opt_.model) {
      case GlitchModel::kChargeSharing:
        peaks_charge_sharing(sub(ctx_.sc_r_hold), sub(ctx_.sc_c_ground),
                             sub(ctx_.sc_c_couple), sub(ctx_.sc_slew), ctx_.vdd,
                             es.peak, es.width, es.delay);
        break;
      case GlitchModel::kDevgan:
        peaks_devgan(sub(ctx_.sc_r_hold), sub(ctx_.sc_c_ground), sub(ctx_.sc_c_couple),
                     sub(ctx_.sc_slew), ctx_.vdd, es.peak, es.width, es.delay);
        break;
      case GlitchModel::kTwoPi:
        peaks_two_pi(sub(ctx_.sc_r_hold), sub(ctx_.sc_c_ground), sub(ctx_.sc_c_couple),
                     sub(ctx_.sc_slew), ctx_.vdd, es.peak, es.width, es.delay);
        break;
      default:
        for (std::size_t k = 0; k < m; ++k) {
          es.peak[k] = mna[k].peak;
          es.width[k] = mna[k].width;
          es.delay[k] = mna[k].peak_delay;
        }
        break;
    }
    if (opt_.mode == AnalysisMode::kNoFiltering) {
      for (std::size_t k = 0; k < m; ++k) {
        if (es.peak[k] < opt_.min_peak) continue;
        Contribution c;
        c.aggressor = ctx_.agg_net[row + k];
        c.peak = es.peak[k];
        c.width = es.width[k];
        c.window = IntervalSet::everything();
        nn.contributions.push_back(std::move(c));
      }
      return;
    }
    es.win_lo.resize(m);
    es.win_hi.resize(m);
    es.ext_hi.resize(m);
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t ai = ctx_.agg_net[row + k].index();
      es.win_lo[k] = ctx_.switch_lo[ai];
      es.win_hi[k] = ctx_.switch_hi[ai];
    }
    kernels::extend_right(es.win_hi, es.delay, es.width, es.ext_hi);
    for (std::size_t k = 0; k < m; ++k) {
      if (es.peak[k] < opt_.min_peak) continue;
      if (es.win_lo[k] > es.win_hi[k]) {
        // The aggressor never switches: temporally filtered out.
        ++nn.filtered_temporal;
        continue;
      }
      Contribution c;
      c.aggressor = ctx_.agg_net[row + k];
      c.peak = es.peak[k];
      c.width = es.width[k];
      c.window = IntervalSet(Interval{es.win_lo[k], es.ext_hi[k]});
      nn.contributions.push_back(std::move(c));
    }
  }

  // ---- stage 2: combination + gate propagation, levelized ------------------
  // Within a level no instance reads another's outputs and every net has a
  // single driver, so instances of a level run in parallel.

  /// Worst simultaneous combination of one view of a contribution set
  /// under the run's logic constraints.
  [[nodiscard]] Combined combine(const std::vector<Contribution>& cs, AnalysisMode mode,
                                 const Interval& restrict_to, CombineView view) const {
    return combine_flat(cs, mode, restrict_to, opt_.constraints, view,
                        combine_scratch());
  }

  void finalize_net(Result& res, NetId id) const {
    NetNoise& nn = res.nets[id.index()];
    // Injected-only combination (diagnostic; excludes fanin-propagated).
    nn.injected_peak = combine(nn.contributions, opt_.mode, Interval::everything(),
                               CombineView::kInjectedOnly)
                           .peak;
    const Combined total = combine(nn.contributions, opt_.mode, Interval::everything(),
                                   CombineView::kAll);
    nn.total_peak = total.peak;
    nn.width = total.width;
    nn.worst_alignment = total.alignment;
    for (const auto i : total.active) nn.contributions[i].in_worst = true;
    for (const auto& c : nn.contributions) {
      if (c.is_propagated()) nn.propagated_peak = std::max(nn.propagated_peak, c.peak);
    }
    if (opt_.mode == AnalysisMode::kNoFiltering) {
      nn.window = IntervalSet::everything();
    } else {
      // Batch union: one flat sort + sweep over every member instead of k
      // incremental add() rebalances — union_flat yields the same
      // canonical interval list add() converges to.
      auto& members = interval_scratch();
      members.clear();
      for (const auto& c : nn.contributions) {
        for (const Interval& iv : c.window.intervals()) members.push_back(iv);
      }
      nn.window = kernels::union_flat(members);
    }
  }

  /// Propagates the instance at level-major slab position `pos`: the
  /// worst input glitch goes through the cell's noise-propagation tables
  /// onto every output net, which is then finalized. The window transform
  /// is batched (uniform shift + right extension over the fanin members,
  /// then an already-sorted sweep merge).
  void propagate_instance(Result& res, std::size_t pos) const {
    const std::uint32_t out_b = ctx_.out_offsets[pos];
    const std::uint32_t out_e = ctx_.out_offsets[pos + 1];
    if (ctx_.slab_seq[pos]) {
      // Sequential cells do not propagate glitches from D to Q (a latched
      // upset is a functional failure, handled at the endpoint check).
      for (std::uint32_t k = out_b; k < out_e; ++k) finalize_net(res, ctx_.out_net[k]);
      return;
    }
    const lib::Cell& cell = *ctx_.slab_cell[pos];
    // Worst input glitch over the cell's input pins (slab pin order —
    // strict > keeps the first maximum).
    double in_peak = 0.0;
    double in_width = 0.0;
    const IntervalSet* in_window = nullptr;
    NetId in_net;
    for (std::uint32_t k = ctx_.in_offsets[pos]; k < ctx_.in_offsets[pos + 1]; ++k) {
      const NetNoise& fan = res.nets[ctx_.in_net[k].index()];
      if (fan.total_peak > in_peak) {
        in_peak = fan.total_peak;
        in_width = fan.width;
        in_window = &fan.window;
        in_net = ctx_.in_net[k];
      }
    }
    for (std::uint32_t k = out_b; k < out_e; ++k) {
      const NetId out = ctx_.out_net[k];
      if (in_peak >= opt_.min_peak && !cell.arcs.empty()) {
        const double out_peak = cell.propagation.out_peak.lookup(in_peak, in_width);
        if (out_peak >= opt_.min_peak) {
          const double out_width =
              cell.propagation.out_width.lookup(in_peak, in_width);
          const double load = ctx_.load_cap[out.index()];
          // Representative gate delay for the window shift: the first
          // arc's rise delay at (input width as slew proxy, load).
          const double gate_delay =
              cell.arcs.front().delay_rise.lookup(in_width, load);
          Contribution c;
          c.from_net = in_net;
          c.peak = out_peak;
          c.width = out_width;
          // Only full noise-window mode tracks *when* propagated noise
          // can exist; the weaker modes assume it coincides with anything.
          if (opt_.mode == AnalysisMode::kNoiseWindows) {
            // Flat shifted().dilated(0, after): a uniform shift keeps the
            // members sorted, so union_flat's sort is an identity
            // permutation and only the dilation-induced merges run.
            const double after = std::max(out_width - in_width, 0.0);
            auto& members = interval_scratch();
            members.clear();
            if (in_window != nullptr) {
              for (const Interval& iv : in_window->intervals()) {
                const double sl = iv.lo + gate_delay;
                const double sh = iv.hi + gate_delay;
                members.push_back({sl, sh + after});
              }
            }
            c.window = kernels::union_flat(members);
          } else {
            c.window = IntervalSet::everything();
          }
          res.nets[out.index()].contributions.push_back(std::move(c));
        }
      }
      finalize_net(res, out);
    }
  }

  void propagate(Result& res) {
    obs::Span span("propagate", obs::SpanKind::kPhase, &times_.propagate);
    // Port-driven nets first: every gate may read them. An incremental run
    // re-finalizes only re-estimated ones (nothing else reaches a port net).
    std::vector<NetId> port_nets(ctx_.port_nets.begin(), ctx_.port_nets.end());
    if (reach_ != nullptr) {
      std::erase_if(port_nets, [&](NetId n) { return !reach_->estimate[n.index()]; });
    }
    const std::size_t total = port_nets.size() + (reach_ != nullptr
                                                      ? reach_->positions.size()
                                                      : ctx_.slab_cell.size());
    begin_phase("propagate", total);
    exec_.parallel_for("propagate-ports", port_nets.size(), kPropagateChunk,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           finalize_net(res, port_nets[i]);
                         }
                       });
    std::size_t done = port_nets.size();
    checkpoint("propagate", done, total);
    // Level 0 (sequential outputs), then each combinational level: a level
    // only reads nets finalized by earlier levels. Each level boundary is
    // a progress checkpoint — the granularity at which `cancel` lands.
    std::size_t cursor = 0;  // into reach_->positions
    for (std::size_t li = 0; li < ctx_.level_count(); ++li) {
      std::size_t width = ctx_.level_width(li);
      const std::uint32_t* positions = nullptr;  // this level's, when limited
      if (reach_ != nullptr) {
        const std::size_t first = cursor;
        while (cursor < reach_->positions.size() &&
               reach_->positions[cursor] < ctx_.level_offsets[li + 1]) {
          ++cursor;
        }
        width = cursor - first;
        positions = reach_->positions.data() + first;
      }
      const std::size_t level_base = ctx_.level_offsets[li];
      {
        // Per-level wall attribution (accumulated over refinement passes;
        // timing data, so it lives next to the phase gauges, not counters).
        // The name is only formatted when a span consumer is listening.
        const obs::Span level_span(
            obs::spans_active() ? "level " + std::to_string(li) : std::string(),
            obs::SpanKind::kLevel, &level_walls_[li]);
        exec_.parallel_for("propagate-level", width, kPropagateChunk,
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               propagate_instance(res, positions != nullptr
                                                           ? positions[i]
                                                           : level_base + i);
                             }
                           });
      }
      done += width;
      checkpoint("propagate", done, total, li);
    }
  }

  // ---- stage 3: endpoint checks, parallel over endpoints -------------------
  // An incremental run re-checks an endpoint whose net is in its cone or
  // whose cell touches a changed net (a moved clock arrival moves the
  // sensitivity window; a swapped cell changes its immunity), and copies
  // every other outcome, and every noisy flag outside the cone, from the
  // previous result.
  void check_endpoints(Result& res) {
    obs::Span span("check-endpoints", obs::SpanKind::kPhase, &times_.endpoints);
    // Sequential data pins: immunity + (mode 3) sensitivity-window overlap.
    std::vector<std::uint32_t> todo;  // endpoints to check, ascending
    for (std::uint32_t ei = 0; ei < ctx_.endpoints.size(); ++ei) {
      if (reach_ == nullptr || rechecks(ctx_.endpoints[ei])) todo.push_back(ei);
    }
    // Batched like the estimate stage (batch % chunk == 0) so progress
    // checkpoints never perturb the chunk decomposition; outcomes land in
    // endpoint-indexed slots and fold in plain endpoint order.
    const std::size_t n_todo = todo.size();
    const std::size_t ep_batch =
        progress_ != nullptr ? kEndpointBatch : std::max<std::size_t>(n_todo, 1);
    std::vector<EndpointOutcome> outcomes(ctx_.endpoints.size());
    begin_phase("check-endpoints", n_todo);
    for (std::size_t base = 0; base < n_todo; base += ep_batch) {
      const std::size_t limit = std::min(n_todo, base + ep_batch);
      exec_.parallel_for("check-endpoints", limit - base, kEndpointChunk,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t i = base + begin; i < base + end; ++i) {
                             outcomes[todo[i]] = check_sequential(res, todo[i]);
                           }
                         });
      checkpoint("check-endpoints", limit, n_todo);
    }
    std::size_t prev_violation = 0;  // cursor into previous_->violations
    const auto keep = [&](PinId endpoint, std::size_t slot, bool checked,
                          EndpointOutcome outcome) {
      const bool had = previous_ != nullptr &&
                       prev_violation < previous_->violations.size() &&
                       previous_->violations[prev_violation].endpoint == endpoint;
      if (!checked) {
        outcome.slack = previous_->endpoint_slacks[slot];
        if (had) {
          outcome.violation = previous_->violations[prev_violation];
          outcome.provenance = previous_->provenance[prev_violation];
        }
      }
      if (had) ++prev_violation;
      ++res.endpoints_checked;
      res.endpoint_slacks.push_back(outcome.slack);
      if (outcome.violation) {
        res.violations.push_back(*outcome.violation);
        res.provenance.push_back(std::move(*outcome.provenance));
      }
    };
    for (std::size_t ei = 0, next = 0; ei < ctx_.endpoints.size(); ++ei) {
      const bool checked = next < n_todo && todo[next] == ei;
      if (checked) ++next;
      keep(ctx_.endpoints[ei].pin, ei, checked, std::move(outcomes[ei]));
    }

    // Primary outputs: always-sensitive receivers with a flat immunity.
    for (const PinId p : design_.output_ports()) {
      const net::Pin& pp = design_.pin(p);
      if (!pp.net.valid()) continue;
      const std::size_t slot = res.endpoint_slacks.size();
      if (reach_ != nullptr && !reach_->net[pp.net.index()]) {
        keep(p, slot, false, {});
        continue;
      }
      const NetNoise& nn = res.nets[pp.net.index()];
      const double threshold = opt_.po_immunity_frac * ctx_.vdd;
      EndpointOutcome outcome;
      outcome.slack = threshold - nn.total_peak;
      if (nn.total_peak >= threshold) {
        Violation v;
        v.endpoint = p;
        v.net = pp.net;
        v.peak = nn.total_peak;
        v.width = nn.width;
        v.threshold = threshold;
        v.sensitivity = Interval::everything();
        v.temporal = true;
        outcome.violation = v;
        outcome.provenance = build_provenance(res, p, pp.net, Interval::everything(),
                                              /*cell=*/nullptr, threshold);
      }
      keep(p, slot, true, std::move(outcome));
    }
    // Noisy nets: glitch exceeds the weakest receiver immunity.
    const std::size_t n = design_.net_count();
    if (reach_ != nullptr) res.noisy = previous_->noisy;
    exec_.parallel_for("noisy-scan", n, kEndpointChunk,
                       [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        if (reach_ != nullptr && !reach_->net[i]) continue;
        res.noisy[i] = is_noisy(res.nets[i], NetId{i}) ? 1 : 0;
      }
    });
    for (std::size_t i = 0; i < n; ++i) res.noisy_nets += res.noisy[i];
  }

  /// Whether a net's glitch reaches the weakest immunity of its receivers.
  [[nodiscard]] bool is_noisy(const NetNoise& nn, NetId id) const {
    if (nn.total_peak < opt_.min_peak) return false;
    double min_threshold = 1e30;
    for (const PinId load : design_.net(id).loads) {
      const net::Pin& lp = design_.pin(load);
      if (lp.kind != net::PinKind::kInstance) continue;
      min_threshold =
          std::min(min_threshold, design_.cell_of(lp.inst).immunity.threshold(nn.width));
    }
    return min_threshold < 1e30 && nn.total_peak >= min_threshold;
  }

  /// Incremental runs: whether a sequential endpoint needs a fresh check.
  [[nodiscard]] bool rechecks(const EndpointRef& ep) const {
    if (reach_->net[ep.net.index()]) return true;
    const net::Instance& inst = design_.instance(ep.inst);
    return std::any_of(inst.pins.begin(), inst.pins.end(), [&](PinId p) {
      const NetId n = design_.pin(p).net;
      return n.valid() && reach_->changed[n.index()];
    });
  }

  /// Primary outputs on a net: the endpoints after the sequential ones.
  [[nodiscard]] std::size_t output_endpoints() const {
    return static_cast<std::size_t>(
        std::count_if(design_.output_ports().begin(), design_.output_ports().end(),
                      [&](PinId p) { return design_.pin(p).net.valid(); }));
  }

  [[nodiscard]] EndpointOutcome check_sequential(const Result& res,
                                                 std::size_t ep_index) const {
    const EndpointRef& ep = ctx_.endpoints[ep_index];
    const Interval& sens = ep.sensitivity;
    const NetNoise& nn = res.nets[ep.net.index()];
    double peak = nn.total_peak;
    double width = nn.width;
    bool temporal = true;
    if (opt_.mode == AnalysisMode::kNoiseWindows) {
      // Worst combination *inside* the sampling window.
      const Combined in_sens =
          combine(nn.contributions, opt_.mode, sens, CombineView::kAll);
      peak = in_sens.peak;
      width = in_sens.width;
      temporal = peak > 0.0;
    }
    const lib::Cell& cell = design_.cell_of(ep.inst);
    const double threshold = cell.immunity.threshold(width);
    EndpointOutcome outcome;
    outcome.slack = threshold - peak;
    if (peak >= threshold && temporal) {
      Violation v;
      v.endpoint = ep.pin;
      v.net = ep.net;
      v.peak = peak;
      v.width = width;
      v.threshold = threshold;
      v.sensitivity = sens;
      v.temporal = temporal;
      outcome.violation = v;
      outcome.provenance = build_provenance(res, ep.pin, ep.net, sens, &cell, 0.0);
    }
    return outcome;
  }

  /// Explains one violation from the net's final contribution set: the
  /// combined peak under each progressively stronger filtering regime, the
  /// per-aggressor verdicts/overlaps against the worst alignment, and the
  /// propagation path back to the injection net. Pure function of Result
  /// state that propagate() already finalized, so it is safe from the
  /// parallel endpoint map and deterministic for every thread count.
  [[nodiscard]] Provenance build_provenance(const Result& res, PinId endpoint,
                                            NetId net, const Interval& sensitivity,
                                            const lib::Cell* cell,
                                            double po_threshold) const {
    const NetNoise& nn = res.nets[net.index()];
    Provenance p;
    p.endpoint = endpoint;
    p.net = net;

    // Stage peaks: same contributions, stronger regimes. Windows only ever
    // shrink left to right, so the peaks are monotone non-increasing. Under
    // weaker analysis modes the distinctions collapse (e.g. kNoFiltering
    // built every window as `everything`), which is exactly the diagnostic:
    // the stages show what the stronger regime would have concluded from
    // the evidence this run collected.
    const Combined unfiltered = combine(nn.contributions, AnalysisMode::kNoFiltering,
                                        Interval::everything(), CombineView::kAll);
    const Combined switching = combine(nn.contributions, AnalysisMode::kNoiseWindows,
                                       Interval::everything(),
                                       CombineView::kPropagatedOpen);
    const Combined noise_win = combine(nn.contributions, AnalysisMode::kNoiseWindows,
                                       Interval::everything(), CombineView::kAll);
    const Combined in_sens = combine(nn.contributions, AnalysisMode::kNoiseWindows,
                                     sensitivity, CombineView::kAll);
    p.peak_unfiltered = unfiltered.peak;
    p.peak_switching = switching.peak;
    p.peak_noise_window = noise_win.peak;
    p.peak_in_sensitivity = in_sens.peak;

    const auto threshold_for = [&](double width) {
      return cell != nullptr ? cell->immunity.threshold(width) : po_threshold;
    };
    if (switching.peak < threshold_for(switching.width)) {
      p.culled_by = FilterStage::kSwitchingWindow;
    } else if (noise_win.peak < threshold_for(noise_win.width)) {
      p.culled_by = FilterStage::kNoiseWindow;
    } else if (in_sens.peak < threshold_for(in_sens.width)) {
      p.culled_by = FilterStage::kSensitivityWindow;
    }

    // The combination that actually produced this violation: the
    // sensitivity-restricted one for sequential endpoints under full noise
    // windows, the net's mode-level combination everywhere else.
    const bool sens_check =
        cell != nullptr && opt_.mode == AnalysisMode::kNoiseWindows;
    const Combined total = combine(nn.contributions, opt_.mode, Interval::everything(),
                                   CombineView::kAll);
    const Combined& worst = sens_check ? in_sens : total;
    p.alignment = worst.alignment;

    std::vector<char> active(nn.contributions.size(), 0);
    for (const std::size_t i : worst.active) active[i] = 1;
    p.shares.reserve(nn.contributions.size());
    for (std::size_t i = 0; i < nn.contributions.size(); ++i) {
      const Contribution& c = nn.contributions[i];
      AggressorShare s;
      s.aggressor = c.aggressor;
      s.from_net = c.from_net;
      s.peak = c.peak;
      if (c.aggressor.valid()) {
        for (std::uint32_t k = ctx_.agg_offsets[net.index()];
             k < ctx_.agg_offsets[net.index() + 1]; ++k) {
          if (ctx_.agg_net[k] == c.aggressor) s.coupling_cap += ctx_.agg_cap[k];
        }
      }
      const IntervalSet& win = opt_.mode == AnalysisMode::kNoFiltering
                                   ? IntervalSet::everything()
                                   : c.window;
      // Widest piece of the window inside the worst alignment (for an
      // in-worst share this is the alignment itself). The intersection must
      // be a named local: intervals() is a span into it, and the range-for
      // would not keep a temporary set alive past the first iteration.
      const IntervalSet cut = win.intersect(p.alignment);
      for (const Interval& iv : cut.intervals()) {
        if (s.overlap.is_empty() || iv.length() > s.overlap.length()) s.overlap = iv;
      }
      if (active[i]) {
        s.verdict = WindowVerdict::kInWorst;
      } else if (!s.overlap.is_empty() && c.aggressor.valid() &&
                 opt_.constraints.group_of(c.aggressor) >= 0) {
        s.verdict = WindowVerdict::kConstraintExcluded;
      } else {
        s.verdict = WindowVerdict::kWindowDisjoint;
      }
      p.shares.push_back(std::move(s));
    }
    std::sort(p.shares.begin(), p.shares.end(),
              [](const AggressorShare& a, const AggressorShare& b) {
                const bool aw = a.verdict == WindowVerdict::kInWorst;
                const bool bw = b.verdict == WindowVerdict::kInWorst;
                if (aw != bw) return aw;
                if (a.peak != b.peak) return a.peak > b.peak;
                if (a.aggressor != b.aggressor) return a.aggressor < b.aggressor;
                return a.from_net < b.from_net;
              });

    p.path = origin_path(res, net);
    return p;
  }

  // ---- refinement: noise-on-delay window inflation --------------------------
  // Each pass re-derives the inflated window from the *original* STA window
  // plus the current glitch width (a glitch delays an edge by at most its
  // width — bounded, not cumulative), so the iteration has a fixpoint. The
  // context's window slabs are rewritten in place.
  bool inflate_windows(const Result& res) {
    bool changed = false;
    for (std::size_t i = 0; i < design_.net_count(); ++i) {
      const NetNoise& nn = res.nets[i];
      const Interval& base = sta_.nets[i].window;
      if (base.is_empty()) continue;
      const Interval inflated =
          (nn.total_peak < opt_.min_peak) ? base : base.dilated(0.0, nn.width);
      if (!(inflated == Interval{ctx_.switch_lo[i], ctx_.switch_hi[i]})) {
        ctx_.switch_lo[i] = inflated.lo;
        ctx_.switch_hi[i] = inflated.hi;
        changed = true;
      }
    }
    return changed;
  }

  const net::Design& design_;
  const para::Parasitics& para_;
  const sta::Result& sta_;
  const Options& opt_;
  ProgressSink* progress_;  ///< not owned; may be nullptr
  util::Executor exec_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point phase_start_;
  int iteration_ = 1;  ///< current refinement pass (for Progress records)
  obs::Registry reg_;
  /// Phase wall-time sinks of the phase spans (summed over passes;
  /// published as timing gauges by finish()).
  struct {
    double context = 0.0;
    double estimate = 0.0;
    double propagate = 0.0;
    double endpoints = 0.0;
  } times_;
  /// Slabs the stages stream; its window slabs are the refinement state.
  AnalysisContext ctx_;
  /// Incremental runs only: the result being updated and what to recompute.
  const Result* previous_ = nullptr;
  const Reach* reach_ = nullptr;
  /// Per-level propagate wall time [s], summed over refinement passes —
  /// the input of the top-levels work attribution.
  std::vector<double> level_walls_;
};

}  // namespace

std::vector<ProvenanceStep> origin_path(const Result& result, NetId net) {
  std::vector<ProvenanceStep> path;
  std::vector<char> visited(result.nets.size(), 0);
  NetId cur = net;
  while (cur.valid() && !visited[cur.index()]) {
    visited[cur.index()] = 1;
    const NetNoise& nn = result.nets[cur.index()];
    if (nn.total_peak <= 0.0) break;
    path.push_back({cur, nn.total_peak, nn.width});
    // Follow the strongest propagated member of the worst combination.
    NetId next;
    double best = 0.0;
    for (const auto& c : nn.contributions) {
      if (!c.in_worst || !c.is_propagated()) continue;
      if (c.peak > best) {
        best = c.peak;
        next = c.from_net;
      }
    }
    if (!next.valid()) break;
    cur = next;
  }
  return path;
}

NoiseTrace trace_origin(const Result& result, NetId net) {
  if (net.index() >= result.nets.size()) {
    throw std::invalid_argument("trace_origin: bad net id");
  }
  NoiseTrace trace;
  trace.path = origin_path(result, net);
  // The injection net is wherever the walk stopped: the chain's natural
  // end, the queried net itself, or a net the visited guard cut at.
  if (!trace.path.empty()) {
    const NetNoise& origin = result.nets[trace.path.back().net.index()];
    for (const auto& c : origin.contributions) {
      if (c.in_worst && !c.is_propagated()) trace.aggressors.push_back(c.aggressor);
    }
  }
  return trace;
}

std::string options_digest(const Options& o) {
  // Canonical rendering: exact doubles (hexfloat), every field in a fixed
  // order, constraints enumerated deterministically. `threads` is
  // deliberately excluded — results (and therefore digests) are identical
  // for every thread count, so caches keyed on the digest stay valid
  // across it.
  std::ostringstream os;
  os << std::hexfloat;
  os << "mode=" << to_string(o.mode) << ";model=" << to_string(o.model)
     << ";min_coupling_cap=" << o.min_coupling_cap << ";min_peak=" << o.min_peak
     << ";clock_period=" << o.clock_period
     << ";clock_uncertainty=" << o.clock_uncertainty
     << ";latch_duty=" << o.latch_duty << ";default_slew=" << o.default_slew
     << ";po_immunity_frac=" << o.po_immunity_frac
     << ";refine_iterations=" << o.refine_iterations
     << ";mna_t_stop=" << o.mna_tran.t_stop << ";mna_dt=" << o.mna_tran.dt
     << ";constraints=";
  for (const auto& [net, group] : o.constraints.entries()) {
    os << net << ":" << group << ",";
  }
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (const unsigned char c : os.str()) {
    h ^= c;
    h *= 1099511628211ull;
  }
  std::ostringstream hex;
  hex << std::hex << std::setfill('0') << std::setw(16) << h;
  return hex.str();
}

std::size_t memory_bytes(const Result& r) noexcept {
  std::size_t bytes = sizeof(Result);
  bytes += r.nets.capacity() * sizeof(NetNoise);
  for (const NetNoise& nn : r.nets) {
    bytes += nn.contributions.capacity() * sizeof(Contribution);
    bytes += nn.window.intervals().size() * sizeof(Interval);
    for (const Contribution& c : nn.contributions) {
      bytes += c.window.intervals().size() * sizeof(Interval);
    }
  }
  bytes += r.violations.capacity() * sizeof(Violation);
  bytes += r.provenance.capacity() * sizeof(Provenance);
  for (const Provenance& p : r.provenance) {
    bytes += p.shares.capacity() * sizeof(AggressorShare);
    bytes += p.path.capacity() * sizeof(ProvenanceStep);
  }
  bytes += r.endpoint_slacks.capacity() * sizeof(double);
  bytes += r.noisy.capacity();
  bytes += r.iteration_violations.capacity() * sizeof(std::size_t);
  bytes += r.metrics.samples.capacity() * sizeof(obs::MetricSample);
  return bytes;
}

Result analyze(const net::Design& design, const para::Parasitics& para,
               const sta::Result& sta_result, const Options& opt,
               ProgressSink* progress) {
  Pipeline pipeline(design, para, sta_result, opt, progress);
  return pipeline.run_full();
}

Result analyze_incremental(const net::Design& design, const para::Parasitics& para,
                           const sta::Result& sta_result, const Options& opt,
                           const Result& previous, std::span<const NetId> changed_nets,
                           ProgressSink* progress) {
  Pipeline pipeline(design, para, sta_result, opt, progress);
  return pipeline.run_incremental(previous, changed_nets);
}

}  // namespace nw::noise
