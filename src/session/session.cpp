#include "session/session.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "obs/memtrack.hpp"
#include "obs/resource.hpp"
#include "obs/tracer.hpp"
#include "util/strings.hpp"

namespace nw::session {

namespace {

constexpr const char* kUnit = "";

bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }

/// The value of integer option `name`, in [0, max].
int uint_option(const std::string& name, const std::string& value, unsigned max) {
  try {
    const unsigned long v = nw::parse_uint(value);
    if (v <= max) return static_cast<int>(v);
  } catch (const std::invalid_argument&) {
  }
  throw std::invalid_argument("set_option " + name + ": '" + value +
                              "' (expected an integer in [0, " + std::to_string(max) + "])");
}

/// The value of option `period`, positive and finite [s].
double period_option(const std::string& value) {
  try {
    const double v = nw::parse_double(value);
    if (positive_finite(v)) return v;
  } catch (const std::invalid_argument&) {
  }
  throw std::invalid_argument("set_option period: '" + value +
                              "' (expected a positive number of seconds)");
}

}  // namespace

Session::Session(net::Design design, para::Parasitics para, SessionConfig config)
    : Session(nullptr, nullptr, std::make_unique<net::Design>(std::move(design)),
              std::make_unique<para::Parasitics>(std::move(para)),
              std::move(config)) {}

Session::Session(std::shared_ptr<const net::Design> design,
                 std::shared_ptr<const para::Parasitics> para, SessionConfig config)
    : Session(std::move(design), std::move(para), nullptr, nullptr,
              std::move(config)) {}

Session::Session(std::shared_ptr<const net::Design> base_design,
                 std::shared_ptr<const para::Parasitics> base_para,
                 std::unique_ptr<net::Design> own_design,
                 std::unique_ptr<para::Parasitics> own_para, SessionConfig config)
    : base_design_(std::move(base_design)),
      base_para_(std::move(base_para)),
      own_design_(std::move(own_design)),
      own_para_(std::move(own_para)),
      cfg_(std::move(config)),
      edits_(reg_.counter(kMetricEdits, "ECO edits applied")),
      undos_(reg_.counter(kMetricUndos, "edits reverted")),
      full_analyses_(reg_.counter(kMetricFullAnalyses, "full analyze() runs")),
      incremental_analyses_(
          reg_.counter(kMetricIncrementalAnalyses, "incremental re-analyses")),
      cache_hits_(reg_.counter(kMetricCacheHits, "queries served from the result cache")),
      cache_misses_(reg_.counter(kMetricCacheMisses, "queries that ran analysis")),
      cow_copies_(reg_.counter(kMetricCowCopies,
                               "shared-base halves copied privately on first edit")),
      dirty_hist_(reg_.histogram(kMetricDirtyNets,
                                 "dirty-set size per incremental re-analysis",
                                 {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512})) {
  if ((own_design_ == nullptr && base_design_ == nullptr) ||
      (own_para_ == nullptr && base_para_ == nullptr)) {
    throw std::invalid_argument("Session: shared base design/parasitics are null");
  }
  if (parasitics().net_count() != design().net_count()) {
    throw std::invalid_argument("Session: parasitics cover " +
                                std::to_string(parasitics().net_count()) +
                                " nets but the design has " +
                                std::to_string(design().net_count()));
  }
  if (cfg_.undo_capacity == 0) cfg_.undo_capacity = 1;
  if (cfg_.cache_capacity == 0) cfg_.cache_capacity = 1;
  reg_.gauge(kMetricEpoch, "current design-state epoch", kUnit);
  reg_.gauge(kMetricCachedResults, "results held in the cache", kUnit);
  // Registered up front so the "resources" section has a fixed shape even
  // before the first snapshot refresh.
  reg_.gauge(kMetricRssBytes, "current resident set size", "B",
             /*deterministic=*/false, /*resource=*/true);
  reg_.gauge(kMetricPeakRssBytes, "peak resident set size", "B",
             /*deterministic=*/false, /*resource=*/true);
  reg_.gauge(kMetricCacheBytes, "estimated result-cache footprint", "B",
             /*deterministic=*/false, /*resource=*/true);
  reg_.gauge(kMetricJournalBytes, "estimated undo-journal footprint", "B",
             /*deterministic=*/false, /*resource=*/true);
  reg_.gauge(kMetricTraceBufferBytes, "trace event buffers across threads", "B",
             /*deterministic=*/false, /*resource=*/true);
}

Session::~Session() {
  cache_.clear();
  journal_.clear();
  update_memory_accounts();
}

// ---- name resolution ------------------------------------------------------

NetId Session::require_net(const std::string& name) const {
  if (const auto id = design().find_net(name)) return *id;
  throw NotFound("unknown net '" + name + "'");
}

InstId Session::require_instance(const std::string& name) const {
  if (const auto id = design().find_instance(name)) return *id;
  throw NotFound("unknown instance '" + name + "'");
}

// ---- copy-on-write overlay ------------------------------------------------

net::Design& Session::mut_design() {
  if (own_design_ == nullptr) {
    own_design_ = std::make_unique<net::Design>(*base_design_);
    cow_copies_.add();
  }
  return *own_design_;
}

para::Parasitics& Session::mut_para() {
  if (own_para_ == nullptr) {
    own_para_ = std::make_unique<para::Parasitics>(*base_para_);
    cow_copies_.add();
  }
  return *own_para_;
}

// ---- queries --------------------------------------------------------------

const noise::Result& Session::result() {
  ensure_current();
  return *base_result_;
}

std::vector<EndpointSlack> Session::endpoint_slacks() {
  const noise::Result& r = result();
  const net::Design& d = design();
  // Endpoint order mirrors the analyzer's: every sequential's data pins
  // (design.sequentials() order), then primary outputs.
  std::vector<EndpointSlack> out;
  out.reserve(r.endpoint_slacks.size());
  std::size_t k = 0;
  for (const InstId s : d.sequentials()) {
    const net::Instance& inst = d.instance(s);
    const lib::Cell& cell = d.cell_of(s);
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role != lib::PinRole::kData) continue;
      const PinId pid = inst.pins[pi];
      const net::Pin& p = d.pin(pid);
      if (!p.net.valid()) continue;
      if (k >= r.endpoint_slacks.size()) break;
      out.push_back({d.pin_name(pid), d.net(p.net).name, r.endpoint_slacks[k++]});
    }
  }
  for (const PinId pid : d.output_ports()) {
    const net::Pin& p = d.pin(pid);
    if (!p.net.valid()) continue;
    if (k >= r.endpoint_slacks.size()) break;
    out.push_back({p.port_name, d.net(p.net).name, r.endpoint_slacks[k++]});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const EndpointSlack& a, const EndpointSlack& b) {
                     return a.slack < b.slack;
                   });
  return out;
}

// ---- ECO edits ------------------------------------------------------------

void Session::commit_edit(UndoEntry entry, bool bump_epoch) {
  entry.epoch_before = epoch_;
  if (bump_epoch) epoch_ = next_epoch_++;
  pending_dirty_.insert(pending_dirty_.end(), entry.dirty.begin(), entry.dirty.end());
  journal_.push_back(std::move(entry));
  while (journal_.size() > cfg_.undo_capacity) journal_.pop_front();
  edits_.add();
  update_memory_accounts();
  reg_.gauge(kMetricEpoch, "current design-state epoch", kUnit)
      .set(static_cast<double>(epoch_));
}

void Session::set_driver_cell(const std::string& inst, const std::string& cell) {
  const InstId id = require_instance(inst);
  std::vector<NetId> touched;
  for (const PinId pid : design().instance(id).pins) {
    const net::Pin& p = design().pin(pid);
    if (p.net.valid()) touched.push_back(p.net);
  }
  // Validate before mut_design(): a rejected swap must not copy a shared base.
  (void)design().swappable_cell(id, cell);
  const std::string old_cell = mut_design().set_instance_cell(id, cell);
  UndoEntry e;
  e.what = "set_driver_cell " + inst + " " + cell;
  e.restore = [this, id, old_cell] { mut_design().set_instance_cell(id, old_cell); };
  e.dirty = std::move(touched);
  commit_edit(std::move(e), /*bump_epoch=*/true);
}

void Session::scale_net_parasitics(const std::string& net, double cap_factor,
                                   double res_factor) {
  const NetId id = require_net(net);
  if (!positive_finite(cap_factor) || !positive_finite(res_factor)) {
    throw std::invalid_argument("scale_net_parasitics: factors for '" + net +
                                "' must be positive and finite");
  }
  para::RcNet saved = parasitics().net(id);  // capture before mutating (bit-exact undo)
  mut_para().net(id).scale(cap_factor, res_factor);
  UndoEntry e;
  e.what = "scale_net_parasitics " + net;
  e.restore = [this, id, saved] { mut_para().replace_net(id, saved); };
  e.dirty = {id};
  commit_edit(std::move(e), /*bump_epoch=*/true);
}

void Session::set_coupling_cap(const std::string& net_a, const std::string& net_b,
                               double cap) {
  const NetId a = require_net(net_a);
  const NetId b = require_net(net_b);
  if (a == b) {
    throw std::invalid_argument("set_coupling_cap: '" + net_a +
                                "' cannot couple to itself");
  }
  const auto reject = [&] {
    throw std::invalid_argument("set_coupling_cap: capacitance between '" + net_a +
                                "' and '" + net_b + "' must be positive and finite");
  };
  if (!positive_finite(cap)) reject();
  std::vector<std::pair<std::size_t, double>> existing;  // (index, old value)
  for (const std::size_t ci : parasitics().couplings_of(a)) {
    if (parasitics().coupling(ci).other_net(a) == b) {
      existing.emplace_back(ci, parasitics().coupling(ci).c);
    }
  }
  // Every new value is checked before mut_para(): a rejected edit neither
  // copies a shared base nor leaves some caps of the pair rescaled.
  double sum = 0.0;
  for (const auto& [ci, v] : existing) sum += v;
  const double factor = existing.empty() ? 1.0 : cap / sum;
  for (const auto& [ci, v] : existing) {
    if (!positive_finite(v * factor)) reject();
  }
  UndoEntry e;
  e.what = "set_coupling_cap " + net_a + " " + net_b;
  if (existing.empty()) {
    mut_para().add_coupling(a, 0, b, 0, cap);  // between driver roots
    e.restore = [this] { mut_para().pop_coupling(); };  // LIFO undo: still the last cap
  } else {
    for (const auto& [ci, v] : existing) mut_para().set_coupling_value(ci, v * factor);
    e.restore = [this, existing] {
      for (const auto& [ci, v] : existing) mut_para().set_coupling_value(ci, v);
    };
  }
  e.dirty = {a, b};
  commit_edit(std::move(e), /*bump_epoch=*/true);
}

void Session::set_arrival_window(const std::string& port, Interval window) {
  const auto pid = design().find_port(port);
  if (!pid || design().pin(*pid).kind != net::PinKind::kInputPort) {
    throw NotFound("unknown input port '" + port + "'");
  }
  // NaN edges pass the lo > hi emptiness test, and a non-finite arrival
  // poisons every downstream window, so both are rejected here.
  if (!std::isfinite(window.lo) || !std::isfinite(window.hi)) {
    throw std::invalid_argument("set_arrival_window: non-finite window for '" + port +
                                "'");
  }
  if (window.is_empty()) {
    throw std::invalid_argument("set_arrival_window: empty window for '" + port + "'");
  }
  auto& arrivals = cfg_.sta.input_arrivals;
  std::optional<Interval> old;
  if (const auto it = arrivals.find(port); it != arrivals.end()) old = it->second;
  arrivals[port] = window;
  UndoEntry e;
  e.what = "set_arrival_window " + port;
  e.restore = [this, port, old] {
    if (old) {
      cfg_.sta.input_arrivals[port] = *old;
    } else {
      cfg_.sta.input_arrivals.erase(port);
    }
  };
  // No nets are marked dirty: the next query's incremental STA re-seeds
  // every input port and returns each net the re-timed one moved.
  commit_edit(std::move(e), /*bump_epoch=*/true);
}

int Session::set_constraint_group(std::span<const std::string> nets) {
  if (nets.empty()) {
    throw std::invalid_argument("set_constraint_group: empty net list");
  }
  std::vector<NetId> ids;
  ids.reserve(nets.size());
  for (const std::string& n : nets) ids.push_back(require_net(n));
  // Apply on a copy: add_mutex_group throws mid-insert when a net is
  // already grouped, and the session must not keep a half-applied edit.
  noise::Constraints next = cfg_.noise.constraints;
  const int gid = next.add_mutex_group(ids);
  noise::Constraints old = std::exchange(cfg_.noise.constraints, std::move(next));
  UndoEntry e;
  e.what = "set_constraint_group";
  e.restore = [this, old] { cfg_.noise.constraints = old; };
  // An options edit: digest changes, state epoch does not.
  commit_edit(std::move(e), /*bump_epoch=*/false);
  return gid;
}

void Session::set_option(const std::string& name, const std::string& value) {
  noise::Options old = cfg_.noise;
  if (name == "mode") {
    const auto m = noise::parse_mode(value);
    if (!m) {
      throw std::invalid_argument(
          "set_option mode: '" + value +
          "' (expected no-filtering | switching-windows | noise-windows)");
    }
    cfg_.noise.mode = *m;
  } else if (name == "model") {
    const auto m = noise::parse_model(value);
    if (!m) {
      throw std::invalid_argument(
          "set_option model: '" + value +
          "' (expected charge-sharing | devgan | two-pi | reduced-mna | mna-exact)");
    }
    cfg_.noise.model = *m;
  } else if (name == "threads") {
    cfg_.noise.threads = uint_option(name, value, noise::kMaxThreads);
  } else if (name == "refine") {
    cfg_.noise.refine_iterations = uint_option(name, value, noise::kMaxRefineIterations);
  } else if (name == "period") {
    cfg_.noise.clock_period = period_option(value);
  } else {
    throw std::invalid_argument(
        "set_option: unknown option '" + name +
        "' (expected mode | model | threads | refine | period)");
  }
  UndoEntry e;
  e.what = "set_option " + name + " " + value;
  e.restore = [this, old] { cfg_.noise = old; };
  commit_edit(std::move(e), /*bump_epoch=*/false);
}

bool Session::undo() {
  if (journal_.empty()) return false;
  UndoEntry e = std::move(journal_.back());
  journal_.pop_back();
  e.restore();
  epoch_ = e.epoch_before;
  pending_dirty_.insert(pending_dirty_.end(), e.dirty.begin(), e.dirty.end());
  undos_.add();
  update_memory_accounts();
  reg_.gauge(kMetricEpoch, "current design-state epoch", kUnit)
      .set(static_cast<double>(epoch_));
  return true;
}

// ---- analysis -------------------------------------------------------------

const Session::CacheEntry* Session::cache_find(const std::string& key) const {
  for (const CacheEntry& e : cache_) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

void Session::cache_insert(CacheEntry entry) {
  // Cached results are immutable, so an entry's bytes are summed once here.
  entry.bytes = entry_bytes(entry);
  cache_.push_back(std::move(entry));
  while (cache_.size() > cfg_.cache_capacity) cache_.erase(cache_.begin());
  update_memory_accounts();
  reg_.gauge(kMetricCachedResults, "results held in the cache", kUnit)
      .set(static_cast<double>(cache_.size()));
}

Session::StateKey Session::current_key() const {
  // `threads` never changes results (bit-identity guarantee), so it is
  // excluded from the cache identity: a result computed at 4 threads
  // serves a 1-thread query.
  noise::Options canonical = cfg_.noise;
  canonical.threads = 0;
  StateKey k;
  k.digest = noise::options_digest(canonical);
  k.key = k.digest + "#" + std::to_string(epoch_);
  return k;
}

bool Session::needs_analysis() const {
  const StateKey k = current_key();
  if (base_result_ && base_key_ == k.key) return false;
  return cache_find(k.key) == nullptr;
}

AnalysisSeed Session::export_seed() {
  ensure_current();
  return AnalysisSeed{base_result_, base_sta_, base_digest_};
}

bool Session::adopt_seed(const AnalysisSeed& seed) {
  if (!seed.result || !seed.sta) return false;
  // Only a pristine session adopts: no edits ever applied, nothing
  // analyzed, nothing pending — the seed then IS this session's state.
  if (epoch_ != 0 || base_result_ != nullptr || !journal_.empty() ||
      !pending_dirty_.empty() || edits_.value() != 0) {
    return false;
  }
  const StateKey k = current_key();
  if (seed.digest != k.digest || seed.result->epoch != 0) return false;
  base_result_ = seed.result;
  base_sta_ = seed.sta;
  base_key_ = k.key;
  base_digest_ = k.digest;
  cache_insert(CacheEntry{k.key, base_result_, base_sta_});
  return true;
}

void Session::ensure_current() {
  const StateKey sk = current_key();
  const std::string& digest = sk.digest;
  const std::string& key = sk.key;
  if (base_result_ && base_key_ == key) return;

  const auto hit = std::find_if(cache_.begin(), cache_.end(),
                                [&](const CacheEntry& e) { return e.key == key; });
  if (hit != cache_.end()) {
    cache_hits_.add();
    base_result_ = hit->result;
    base_sta_ = hit->sta;
    base_key_ = key;
    base_digest_ = digest;
    pending_dirty_.clear();
    // Refresh LRU order; the entry keeps its byte figure.
    std::rotate(hit, hit + 1, cache_.end());
    return;
  }
  cache_misses_.add();

  // STA: incremental from the last analyzed state's timing, which the
  // pending edits lead from; it returns the nets whose timing moved.
  cfg_.sta.clock_period = cfg_.noise.clock_period;
  std::shared_ptr<const sta::Result> sta_now;
  std::vector<NetId> changed = pending_dirty_;
  if (base_sta_) {
    sta::Update up =
        sta::run_incremental(design(), parasitics(), cfg_.sta, *base_sta_, pending_dirty_);
    sta_now = std::make_shared<const sta::Result>(std::move(up.result));
    changed.insert(changed.end(), up.changed_nets.begin(), up.changed_nets.end());
  } else {
    sta_now = std::make_shared<const sta::Result>(sta::run(design(), parasitics(), cfg_.sta));
  }

  noise::Result r;
  const bool can_incremental = base_result_ != nullptr && base_digest_ == digest &&
                               cfg_.noise.refine_iterations == 0;
  if (can_incremental) {
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
    // A cancelled analysis throws noise::Cancelled here; everything below
    // — counters, base state, cache, dirty set — is only reached when the
    // analysis ran to completion, so cancellation leaves the session
    // bit-identical to its pre-analyze state.
    r = noise::analyze_incremental(design(), parasitics(), *sta_now, cfg_.noise,
                                   *base_result_, changed, progress_);
    incremental_analyses_.add();
    dirty_hist_.observe(static_cast<double>(changed.size()));
  } else {
    r = noise::analyze(design(), parasitics(), *sta_now, cfg_.noise, progress_);
    full_analyses_.add();
  }
  r.epoch = epoch_;
  last_phases_ = AnalysisPhases{r.telemetry.context_seconds, r.telemetry.estimate_seconds,
                                r.telemetry.propagate_seconds,
                                r.telemetry.endpoints_seconds};

  base_result_ = std::make_shared<const noise::Result>(std::move(r));
  base_sta_ = std::move(sta_now);
  base_key_ = key;
  base_digest_ = digest;
  pending_dirty_.clear();
  cache_insert(CacheEntry{key, base_result_, base_sta_});
}

// ---- observability --------------------------------------------------------

std::size_t Session::cache_bytes() const noexcept {
  // Cache footprint: per-slot retained bytes. Results shared between slots
  // (or with base_result_) are counted once per holder — an upper-bound
  // estimate, cheap and stable.
  std::size_t cache = cache_.capacity() * sizeof(CacheEntry);
  for (const CacheEntry& e : cache_) cache += e.bytes;
  return cache;
}

std::size_t Session::cache_bytes_recount() const noexcept {
  std::size_t cache = cache_.capacity() * sizeof(CacheEntry);
  for (const CacheEntry& e : cache_) cache += entry_bytes(e);
  return cache;
}

std::size_t Session::entry_bytes(const CacheEntry& e) noexcept {
  return e.key.capacity() + noise::memory_bytes(*e.result) + sizeof(sta::Result) +
         sta::memory_bytes(*e.sta);
}

std::size_t Session::journal_bytes() const noexcept {
  // Journal footprint: entry storage + captured labels and dirty lists.
  // std::function capture state is opaque; sizeof(UndoEntry) covers its
  // inline buffer, so small captures are exact and large ones undercounted.
  std::size_t journal = journal_.size() * sizeof(UndoEntry);
  for (const UndoEntry& e : journal_) {
    journal += e.what.capacity() + e.dirty.capacity() * sizeof(NetId);
  }
  return journal;
}

void Session::update_memory_accounts() noexcept {
  // Delta-charge so concurrent sessions each own exactly their footprint
  // of the global accounts; currents sum across sessions and return to
  // zero as each destructs.
  const std::size_t cache = cache_bytes();
  obs::MemAccount& cache_acct = obs::MemTracker::account(obs::MemAccountId::kSessionCache);
  if (cache > mem_cache_charged_) {
    cache_acct.charge(cache - mem_cache_charged_);
  } else if (cache < mem_cache_charged_) {
    cache_acct.release(mem_cache_charged_ - cache);
  }
  mem_cache_charged_ = cache;

  const std::size_t journal = journal_bytes();
  obs::MemAccount& journal_acct =
      obs::MemTracker::account(obs::MemAccountId::kUndoJournal);
  if (journal > mem_journal_charged_) {
    journal_acct.charge(journal - mem_journal_charged_);
  } else if (journal < mem_journal_charged_) {
    journal_acct.release(mem_journal_charged_ - journal);
  }
  mem_journal_charged_ = journal;
}

void Session::refresh_resource_gauges() {
  const obs::ResourceSample rs = obs::sample_resources();
  reg_.gauge(kMetricRssBytes, "", "B", false, true)
      .set(static_cast<double>(rs.rss_bytes));
  reg_.gauge(kMetricPeakRssBytes, "", "B", false, true)
      .set(static_cast<double>(rs.peak_rss_bytes));
  update_memory_accounts();
  reg_.gauge(kMetricCacheBytes, "", "B", false, true)
      .set(static_cast<double>(mem_cache_charged_));
  reg_.gauge(kMetricJournalBytes, "", "B", false, true)
      .set(static_cast<double>(mem_journal_charged_));
  reg_.gauge(kMetricTraceBufferBytes, "", "B", false, true)
      .set(static_cast<double>(obs::Tracer::buffered_bytes()));
}

obs::MetricsSnapshot Session::metrics_snapshot() {
  refresh_resource_gauges();
  return reg_.snapshot();
}

obs::RunMeta Session::meta() const {
  obs::RunMeta m;
  m.design = design().name();
  m.mode = noise::to_string(cfg_.noise.mode);
  m.model = noise::to_string(cfg_.noise.model);
  m.options_digest = noise::options_digest(cfg_.noise);
  m.build = obs::build_version();
  if (base_result_) {
    m.threads = base_result_->run_meta.threads;
    m.iterations = base_result_->run_meta.iterations;
  } else {
    m.threads = cfg_.noise.threads;
    m.iterations = 0;
  }
  return m;
}

std::uint64_t Session::full_analyses() const noexcept { return full_analyses_.value(); }
std::uint64_t Session::incremental_analyses() const noexcept {
  return incremental_analyses_.value();
}
std::uint64_t Session::cache_hits() const noexcept { return cache_hits_.value(); }
std::uint64_t Session::cache_misses() const noexcept { return cache_misses_.value(); }

}  // namespace nw::session
