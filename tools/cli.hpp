// The noisewin command-line driver, factored for testability: run_cli()
// does everything main() does, against caller-supplied streams.
//
// Usage:
//   noisewin --lib <file.nlib> --netlist <file.nv> --spef <file.nwspef>
//            [--arrivals <file>] [--mode no-filtering|switching-windows|noise-windows]
//            [--model charge-sharing|devgan|two-pi|reduced-mna|mna-exact]
//            [--period <seconds>] [--threads <n>]
//            [--stats] [--report <file>] [--delay-impact]
//   noisewin --demo bus|logic|pipeline [--mode ...] [...]
//   noisewin serve --demo bus [...]     JSONL session server on stdin/stdout
//   noisewin shell --demo bus [...]     interactive session REPL
//
// The arrivals file has lines: `<port> <earliest> <latest>` (seconds,
// finite). `--threads 0` uses every hardware thread; results are identical
// for any thread count.
// `--stats` appends the per-phase telemetry table.
// Exit code: 0 = clean, 2 = violations found, 1 = usage/input error.
//
// `serve` and `shell` hold the loaded design in a session::Session: queries
// and ECO edits arrive on `in` (JSONL protocol or shell commands) and the
// session re-analyzes incrementally as needed. `--stats-json` then records
// the per-session metrics (requests, cache hits, incremental vs full runs)
// when the stream ends.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

namespace nw::cli {

/// Run with argv-style arguments (excluding the program name). `in` feeds
/// the `serve`/`shell` subcommands; one-shot analysis never reads it.
int run_cli(std::span<const std::string> args, std::istream& in, std::ostream& out,
            std::ostream& err);

/// Convenience overload with an empty input stream (one-shot analysis, or
/// a server conversation that ends immediately).
int run_cli(std::span<const std::string> args, std::ostream& out, std::ostream& err);

}  // namespace nw::cli
