// Machine-readable stats documents (--stats-json files, the session and
// daemon stats artifacts, bench run records), built as session::Json
// values and rendered by Json::dump — the one JSON writer, so every
// document shares its number rule and string escaper. obs/ and noise/
// keep the data (snapshots) and the human-readable tables; this module
// decides how they read as JSON.
//
// Document layout (schema obs::kStatsSchemaVersion):
//   {"meta":{schema_version,design,mode,model,options_digest,build,
//            threads,iterations},
//    "counters":{name:value,...},            // deterministic only
//    "gauges":{name:value,...},              // deterministic only
//    "histograms":{name:{unit,bounds,counts,count,sum,min,max,
//                        p50,p95,p99},...},
//    "resources":{name:value,...},           // resource-flagged (RSS, bytes)
//    "timing":{name:<gauge value or histogram object>,...},  // nondeterministic
//    "memory":{...},                         // MemTracker accounts
//    <extra sections, in the caller's order>}
// Schema history: v2 added "resources", histogram min/max and the
// p50/p95/p99 summaries. v3 added the "executor" section (executor_json,
// passed as an extra). v4 added "timeseries" (timeseries_json, an extra),
// a "conn" field on slowlog entries, and the daemon's aggregated
// request_ms_* latency histograms. v5 added "memory". v6 dropped the
// kernel-path meta field. Clients feature-detect the layout through the
// `stats_schema` field of the server's `hello` response.
//
// Numbers follow Json's rule: integral values below 2^53 print as
// integers, other values with 17 significant digits, and a non-finite
// value as null — which tools/validate_obs.py rejects, since a stats
// value that is not a number is a bug upstream.
#pragma once

#include <iosfwd>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "session/json.hpp"

namespace nw::noise {
struct Result;
}

namespace nw::session {

/// The "memory" section: {"enabled",
/// "accounts":{name:{current_bytes,peak_bytes,allocs,frees},...},
/// "total_current_bytes","total_peak_bytes"}, from MemTracker::snapshot().
/// Every account appears, charged or not.
[[nodiscard]] Json memory_json();

/// The "timeseries" section: {"interval_ms","capacity","total",
/// "series":[...],"samples":[{"t_ms","v":[...]},...]}.
[[nodiscard]] Json timeseries_json(const obs::TimeSeriesSnapshot& ts);

/// The "executor" section, from Result::executor + Result::attribution:
/// {"enabled","threads","wall_s",
///  "workers":[{worker,busy_s,idle_s,chunks}...],
///  "regions":{label:{invocations,chunks,items,wall_s,busy_s,max_busy_s,
///                    wait_s,imbalance}...},
///  "attribution":{"top_levels":[{level,instances,wall_ms}...],
///                 "top_nets":[{net,aggressors,peak}...]}}.
[[nodiscard]] Json executor_json(const noise::Result& result);

/// The "bench" section of a bench run record: run identity (full git SHA,
/// describe, build type), wall-clock timestamp, and the process peak RSS —
/// the fields tools/bench_history.py keys history entries by.
[[nodiscard]] Json bench_record_json();

/// Write one stats document: meta, the metric sections, memory, then each
/// member of `extra` (an object) in order. One line, newline-terminated.
void write_stats_json(std::ostream& os, const obs::RunMeta& meta,
                      const obs::MetricsSnapshot& snap, Json extra = Json::object());

}  // namespace nw::session
