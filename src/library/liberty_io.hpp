// Text serialization of Library ("liberty-lite", extension .nlib).
//
// A compact line-oriented format: one keyword per line, tables flattened as
// `t1 <n> ; axis... ; values...` / `t2 <nx> <ny> ; xaxis ; yaxis ; values`.
// Round-trips exactly: read_library on what write_library printed gives an
// equal library (doubles printed with max_digits10).
#pragma once

#include <iosfwd>
#include <string>

#include "library/library.hpp"

namespace nw::lib {

/// Serialize a library to the .nlib text format.
void write_library(std::ostream& os, const Library& lib);

/// Parse an .nlib stream. Throws std::runtime_error with a line number on
/// malformed input.
[[nodiscard]] Library read_library(std::istream& is);

}  // namespace nw::lib
